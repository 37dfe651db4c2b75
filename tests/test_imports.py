"""No module imports a name it never uses.

Scans the library modules (``src/adw/*.py`` except the package
``__init__``, whose imports are its public API) and the test modules with
the standard-library ``ast``.  A name bound by a module-level import must be
read somewhere in the module; a name bound by an import inside a function
must be read inside that function, so that a stale import in one command
handler is not hidden by the same name read in another.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "adw").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scoped_imports(node, scope):
    """Each import under ``node`` with its innermost enclosing function, or
    ``scope`` when there is none."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        yield from scoped_imports(child, child if isinstance(child, FUNCTIONS) else scope)


def unused_imports(source):
    tree = ast.parse(source)
    reads = {}
    unused = set()
    for node, scope in scoped_imports(tree, tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if scope not in reads:
            reads[scope] = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in reads[scope]:
                unused.add((node.lineno, name))
    return sorted(unused)


def test_scanner_flags_an_unused_name():
    source = "from os import path, sep\nimport json\n\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "json")]


def test_scanner_checks_a_function_import_in_its_own_function():
    source = ("import json\n\n\ndef f():\n    from os import sep\n    return 1\n\n\n"
              "def g():\n    from os import sep\n    return json, sep\n")
    assert unused_imports(source) == [(5, "sep")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
