"""The loaders through the ``adw`` command, on generated algebra and datum files.

Algebra, representation, extending-datum, crossed-datum and matched-pair
files are written with summand dimensions from -2 to 4: entries with indices
one past either end of their range, coefficients that are strings, integers,
floats, booleans or null, and algebras inline, by path or by a missing path.
Half of them then lose a key, gain one, or have a value or an entry field
replaced by another JSON type.  Each file goes through ``adw.cli.main`` in
this process, over Q or GF(5), with a check or build command.  The exit code
must be 0, 1 or 2, no exception may escape, and exit 2 must print
``input error:``.  The JSON formats are spelled out here, independently of
the library's tables.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adw.cli import main

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
FAMILY = ("x", "r", "c", "v")
TABLE = ("i", "j", "k", "c")
FOLD = ("a", "b", "k", "c")
# top-level keys per file kind: (key, what, shape); "A"/"V" are the summands
FORMATS = {
    "rep": [("algebra", "algebra", "A"), ("modDim", "dim", "V")]
    + [(k, FAMILY, "AV") for k in ("lsucc", "rsucc", "lprec", "rprec")],
    "unified": [("algebra", "algebra", "A"), ("vDim", "dim", "V")]
    + [(k, FAMILY, "AV") for k in ("lsucc", "rsucc", "lprec", "rprec")]
    + [(k, FAMILY, "VA") for k in ("rhoSucc", "muSucc", "rhoPrec", "muPrec")]
    + [("varpi1", FOLD, "VA"), ("varpi2", FOLD, "VA"), ("succV", TABLE, "VV"),
       ("precV", TABLE, "VV")],
    "crossed": [("algebra", "algebra", "A"), ("valgebra", "algebra", "V")]
    + [(k, FAMILY, "AV") for k in ("lsucc", "rsucc", "lprec", "rprec")]
    + [("omega1", TABLE, "AV"), ("omega2", TABLE, "AV")],
    "matched": [("alg1", "algebra", "A"), ("alg2", "algebra", "V")]
    + [(k, FAMILY, "AV") for k in ("l1s", "r1s", "l1p", "r1p")]
    + [(k, FAMILY, "VA") for k in ("l2s", "r2s", "l2p", "r2p")],
}
COMMANDS = {"algebra": ("check",), "rep": ("check", "semidirect"),
            "unified": ("check", "build"), "crossed": ("check", "build"),
            "matched": ("check", "build")}
SIZES = (1, 2, 0, 3, 4, 2, 1, 3, -1, 2, 1, -2)  # one in six below zero
GOOD = ("1", "-1", "2", "1/2", "-3/4", 1, -2)
BAD = (0.5, 2.0, True, None, "x", "1/0", "1/5", [])
JUNK = (None, False, 3, -1, 1.5, "x", "alg.json", [], [{}], {}, {"c": "1"})


@st.composite
def entries(draw, keys, dims):
    """Up to three entries (none on an empty axis); now and then one has an
    index one past an end of its range, or a bad coefficient."""
    def entry():
        if draw(st.integers(0, 24)) and min(dims) > 0:
            index = [draw(st.integers(0, max(d - 1, 0))) for d in dims]
            return index + [draw(st.sampled_from(GOOD))]
        return [draw(st.integers(-1, max(d, 0))) for d in dims] + [draw(st.sampled_from(BAD))]
    return [dict(zip(keys, entry())) for _ in range(draw(st.integers(0, 3)))
            if min(dims) > 0 or not draw(st.integers(0, 24))]


@st.composite
def algebras(draw, n):
    return {"dimension": n, "basis": ["e%d" % (i + 1) for i in range(max(n, 0))],
            "succ": draw(entries(TABLE, (n, n, n))), "prec": draw(entries(TABLE, (n, n, n)))}


@st.composite
def breakage(draw, d):
    """``d`` with one key dropped or added, or one value or entry field replaced."""
    key = draw(st.sampled_from(sorted(d)))
    action = draw(st.sampled_from(("field", "replace", "drop", "add")))
    if action == "drop":
        del d[key]
    elif action == "add":
        d["unexpected"] = draw(st.sampled_from(JUNK))
    elif action == "field" and d[key] and isinstance(d[key], (list, dict)):
        inner = draw(st.sampled_from(d[key])) if isinstance(d[key], list) else d[key]
        inner[draw(st.sampled_from(sorted(inner)))] = draw(st.sampled_from(JUNK))
    else:
        d[key] = draw(st.sampled_from(JUNK))
    return d


@st.composite
def files(draw):
    """(command group, file contents, contents of alg.json next to it)."""
    group = draw(st.sampled_from(sorted(COMMANDS)))
    dims = {s: draw(st.sampled_from(SIZES)) for s in "AV"}
    side = draw(algebras(dims["A"]))
    if group == "algebra":
        d = draw(algebras(dims["A"]))
    else:
        d = {}
        for key, what, shape in FORMATS[group]:
            if what == "dim":
                d[key] = dims[shape]
            elif what == "algebra":
                where = draw(st.sampled_from(("inline",) * 4 + ("path", "missing")))
                d[key] = (draw(algebras(dims[shape])) if where == "inline"
                          else "alg.json" if where == "path" else "none.json")
            else:
                # a family's entries index (x, row, column), a table's (i, j, k)
                axes = shape + shape[1] if what is FAMILY else shape[0] + shape
                d[key] = draw(entries(what, tuple(dims[s] for s in axes)))
    if draw(st.booleans()):
        d = draw(breakage(d))
    return group, d, side


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(case=files(), field=st.sampled_from(("rational", "fp5")), data=st.data())
def test_every_loader_exits_cleanly(workdir, case, field, data):
    group, d, side = case
    command = data.draw(st.sampled_from(COMMANDS[group]))
    path = workdir / "file.json"
    path.write_text(json.dumps(d))
    (workdir / "alg.json").write_text(json.dumps(side))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ADW_FIELD": field}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([group, command, str(path), "--json"])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("input error: "), err.getvalue()


def test_negative_complement_dimension_is_named(workdir):
    d = {"algebra": {"dimension": 1, "basis": ["e1"], "succ": [], "prec": []}, "vDim": -1}
    d.update((k, []) for k, what, _ in FORMATS["unified"] if what not in ("algebra", "dim"))
    path = workdir / "negative.json"
    path.write_text(json.dumps(d))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["unified", "check", str(path)]) == 2
    assert err.getvalue() == "input error: vDim: expected a non-negative integer\n"
