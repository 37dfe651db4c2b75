"""Each `adw` command loads only the modules it calls.

A few child processes run ``adw.cli.main`` on small files and print the
``adw.*`` entries of ``sys.modules``; the package's lazy exports are checked
in this process.
"""

import json
import os
import subprocess
import sys

import pytest

import adw
from adw import serialize as io
from adw.reps import regular_representation
from .conftest import nilpotent2
from .test_cli_pins import write_inputs

CHILD = ("import json, sys\n"
         "from adw.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('adw'))]))\n")

MATHS = {"adw.reps", "adw.unified", "adw.crossed", "adw.matched", "adw.bialgebra"}

# (argv, modules that must not be loaded) on the files of write_inputs
CASES = {
    "algebra-check": (["algebra", "check", "nil.json"], MATHS),
    "rep-check": (["rep", "check", "rep.json"], {"adw.crossed", "adw.matched", "adw.bialgebra"}),
    "unified-check": (["unified", "check", "datum.json"],
                      {"adw.crossed", "adw.matched", "adw.bialgebra"}),
    "ybe-residual": (["ybe", "residual", "nil.json", "r.json"], {"adw.crossed"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_its_modules(case, tmp_path, monkeypatch):
    argv, absent = CASES[case]
    monkeypatch.chdir(tmp_path)
    write_inputs()
    src = os.path.dirname(os.path.dirname(adw.__file__))
    env = {k: v for k, v in os.environ.items() if k != "ADW_FIELD"}
    proc = subprocess.run([sys.executable, "-c", CHILD] + argv, env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert {"adw.algebra", "adw.serialize", "adw.cli"} <= set(loaded)
    assert absent.isdisjoint(loaded)


def test_package_exports_resolve_lazily():
    """The package's ``__getattr__`` (PEP 562) resolves every exported name
    from its submodule, ``__dir__`` lists them, and other names still raise
    ``AttributeError``, so ``from adw import serialize`` imports the submodule."""
    for name in adw.__all__:
        assert getattr(adw, name) is not None
    assert adw.__getattr__("ADRep") is adw.ADRep is type(regular_representation(nilpotent2()))
    assert dir(adw) == adw.__dir__()
    assert set(adw.__all__) <= set(dir(adw))
    for name in ("no_such_name", "__version_info__"):
        with pytest.raises(AttributeError):
            getattr(adw, name)
    from adw import serialize
    assert serialize is io
