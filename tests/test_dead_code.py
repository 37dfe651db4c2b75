"""No library definition is dead.

Every top-level function or class, and every method except dunders, of
``src/adw/*.py`` must be named on some other line of a Python file under
``src/``, ``tests/`` or ``perfbench/``.  The scan is by identifier, so a
name that only shares its spelling with another use still counts as used:
the lint catches definitions nothing mentions, not every dead one.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "adw").glob("*.py"))
SCANNED = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def definitions(source):
    """(line, name) of the top-level defs and classes and the non-dunder methods."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def lines_naming(sources):
    """Counter of identifier -> number of lines that contain it."""
    counts = Counter()
    for source in sources:
        for line in source.splitlines():
            counts.update(set(IDENTIFIER.findall(line)))
    return counts


def unnamed(library, sources):
    """(path, line, name) of the definitions that no other line names."""
    counts = lines_naming(sources)
    return [(path, line, name) for path, source in library
            for line, name in definitions(source) if counts[name] < 2]


def test_lint_flags_a_definition_nothing_names():
    lib = "def used():\n    pass\n\n\ndef dead():\n    return used()\n\n\nclass C:\n" \
          "    def __init__(self):\n        pass\n\n    def m(self):\n        pass\n"
    caller = "C().m()\n"
    assert unnamed([("lib", lib)], [lib, caller]) == [("lib", 5, "dead")]
    assert unnamed([("lib", lib)], [lib]) == [("lib", 5, "dead"), ("lib", 9, "C"),
                                              ("lib", 13, "m")]


def test_every_library_definition_is_named_elsewhere():
    library = [(p.name, p.read_text()) for p in LIBRARY]
    assert unnamed(library, [p.read_text() for p in SCANNED]) == []
