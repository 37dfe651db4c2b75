"""The loaders through the ``adw`` command, on generated algebra and datum files.

Algebra, representation, extending-datum, crossed-datum and matched-pair
files are written with summand dimensions from -2 to 4: entries with indices
one past either end of their range, coefficients that are strings, integers,
floats, booleans or null, and algebras inline, by path or by a missing path.
Half of them then lose a key, gain one, or have a value or an entry field
replaced by another JSON type.  Each file goes through ``adw.cli.main`` in
this process, over Q or GF(5), with a check or build command.

Every command that reads several files, and ``gh2``, runs too, on datum,
algebra, matrix, six-tuple, automorphism-pair, r-matrix, coproduct, form,
product and operator files: a third of the runs draw bad entries, coefficients and
dimensions (a matrix or a pair one off in a dimension), and a quarter break
one file as above; matrices are the identity pattern two times in three, so
that prechecks pass and the checks run.

The exit code must be 0, 1 or 2, no exception may escape, and exit 2 must
print ``input error:`` (an undecided Wells class excepted).  The JSON
formats are spelled out here, independently of the library's tables.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adw.cli import main
from adw.serialize import MAX_DIM
from adw.tensors import t3_from_entries

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
# commands reading several files: the kinds of the positional files, then
# (option, file kind, required); "algebra E" is an algebra on the summand E,
# "matrix EA" a matrix with dim E rows and dim A columns
MULTI = {
    ("unified", "equiv"): (("unified", "unified"),
                           (("--zeta", "matrix AV", True), ("--eta", "matrix VV", False))),
    ("unified", "extract"): (("algebra E",), (("--include", "matrix EA", True),
                                             ("--project", "matrix AE", True))),
    ("crossed", "cohomologous"): (("crossed", "crossed"), (("--zeta", "matrix VA", False),)),
    ("crossed", "from-section"): (("algebra E",), (("--project", "matrix AE", True),
                                                   ("--section", "matrix EA", True))),
    ("inducible", "check"): (("crossed",), (("--pair", "pair", True),
                                            ("--phi", "matrix VA", True))),
    ("wells", "eval"): (("crossed",), (("--pair", "pair", True), ("--zeta", "matrix VA", False))),
    ("gh2", "check"): (("gh2",), ()),
    ("gh2", "cohomologous"): (("gh2", "gh2"), ()),
    ("connes", "check"): (("product", "form"), ()),
    ("connes", "derive"): (("product", "form"), ()),
    ("connes", "double"): (("algebra A", "algebra A"), ()),
    ("bialgebra", "check"): (("algebra A", "coproducts"), ()),
    ("bialgebra", "coboundary"): (("algebra A", "rmatrix", "rmatrix"), ()),
    ("ybe", "residual"): (("algebra A", "rmatrix"), ()),
    ("oop", "check"): (("operator",), ()),
    ("oop", "lift"): (("operator",), ()),
}
FLAGS = {("unified", "equiv"): "--cohomologous", ("crossed", "cohomologous"): "--search"}
SIZES = (1, 2, 0, 3, 4, 2, 1, 3, -1, 2, 1, -2)  # one in six below zero
GOOD = ("1", "-1", "2", "1/2", "-3/4", 1, -2)
BAD = (0.5, 2.0, True, None, "x", "1/0", "1/5", [])
JUNK = (None, False, 3, -1, 1.5, "x", "alg.json", [], [{}], {}, {"c": "1"})


@st.composite
def entries(draw, keys, dims, bad=True):
    """Up to three entries (none on an empty axis); with ``bad``, now and
    then one has an index one past an end of its range, or a bad coefficient."""
    def entry():
        if (not bad or draw(st.integers(0, 24))) and min(dims) > 0:
            index = [draw(st.integers(0, max(d - 1, 0))) for d in dims]
            return index + [draw(st.sampled_from(GOOD))]
        return [draw(st.integers(-1, max(d, 0))) for d in dims] + [draw(st.sampled_from(BAD))]
    return [dict(zip(keys, entry())) for _ in range(draw(st.integers(0, 3)))
            if min(dims) > 0 or bad and not draw(st.integers(0, 24))]


@st.composite
def algebras(draw, n, bad=True):
    return {"dimension": n, "basis": ["e%d" % (i + 1) for i in range(max(n, 0))],
            "succ": draw(entries(TABLE, (n, n, n), bad)),
            "prec": draw(entries(TABLE, (n, n, n), bad))}


def slots(container):
    return sorted(container) if isinstance(container, dict) else range(len(container))


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
        # a field of an entry, a row or an inline object, or a scalar of a vector
        inner = d[key]
        slot = draw(st.sampled_from(slots(inner)))
        if inner[slot] and isinstance(inner[slot], (list, dict)):
            inner = inner[slot]
            slot = draw(st.sampled_from(slots(inner)))
        inner[slot] = draw(st.sampled_from(JUNK))
    else:
        d[key] = draw(st.sampled_from(JUNK))
    return d


@st.composite
def datums(draw, group, dims, bad=True):
    """A representation, extending-datum, crossed-datum or matched-pair file;
    ``bad`` as for ``entries``, and an algebra path may be missing."""
    d = {}
    for key, what, shape in FORMATS[group]:
        if what == "dim":
            d[key] = dims[shape]
        elif what == "algebra":
            where = draw(st.sampled_from(("inline",) * 4 + ("path", "missing")[:1 + bad]))
            d[key] = (draw(algebras(dims[shape], bad)) if where == "inline"
                      else "alg.json" if where == "path" else "none.json")
        else:
            # a family's entries index (x, row, column), a table's (i, j, k)
            axes = shape + shape[1] if what is FAMILY else shape[0] + shape
            d[key] = draw(entries(what, tuple(dims[s] for s in axes), bad))
    return d


@st.composite
def files(draw):
    """(command group, file contents, contents of alg.json next to it)."""
    group = draw(st.sampled_from(sorted(COMMANDS)))
    dims = {s: draw(st.sampled_from(SIZES)) for s in "AV"}
    side = draw(algebras(dims["A"]))
    d = draw(algebras(dims["A"]) if group == "algebra" else datums(group, dims))
    if draw(st.booleans()):
        d = draw(breakage(d))
    return group, d, side


@st.composite
def grids(draw, rows, cols, bad=True):
    """Rows of coefficients: the identity pattern two times in three, and
    with ``bad`` now and then a bad coefficient."""
    identity = draw(st.integers(0, 2)) > 0
    grid = [["1" if r == c else "0" if identity else draw(st.sampled_from(("0",) * 4 + GOOD))
             for c in range(max(cols, 0))] for r in range(max(rows, 0))]
    if bad and grid and grid[0] and not draw(st.integers(0, 3)):
        grid[draw(st.integers(0, len(grid) - 1))][0] = draw(st.sampled_from(BAD))
    return grid


@st.composite
def contents(draw, kind, dims, bad):
    """A file of the given kind, its dimensions read from ``dims``; ``bad``
    as for ``entries``, and a matrix dimension may be one off."""
    name, _, axes = kind.partition(" ")
    n, m = dims["A"], dims["V"]
    if name == "algebra":
        return draw(algebras(dims[axes], bad))
    if name in FORMATS:
        return draw(datums(name, dims, bad))
    if name == "matrix":
        rows, cols = (draw(st.sampled_from((d, d, d + 1, d - 1)[:2 + 2 * bad])) for d in
                      (dims[axes[0]], dims[axes[1]]))
        return {"rows": rows, "cols": cols, "entries": draw(grids(rows, cols, bad))}
    if name == "pair":
        n, m = (draw(st.sampled_from((d, d, d + 1, d - 1)[:2 + 2 * bad])) for d in (n, m))
        return {"alpha": draw(grids(n, n, bad)), "beta": draw(grids(m, m, bad))}
    if name == "gh2":
        vectors = {k: draw(grids(1, n, bad))[0] if n > 0 else []
                   for k in ("theta0", "epsilon0")}
        return {"n": n, **{k: draw(grids(n, n, bad)) for k in "ABCD"}, **vectors}
    if name == "rmatrix":
        return {"dim": n, "entries": draw(entries(("i", "j", "c"), (n, n), bad))}
    if name == "coproducts":
        return {"dim": n, **{k: draw(entries(("x", "i", "j", "c"), (n, n, n), bad))
                             for k in ("dsucc", "dprec")}}
    if name == "form":
        return {"dim": n, "gram": draw(grids(n, n, bad))}
    if name == "product":
        return {"dimension": n, "basis": ["e%d" % (i + 1) for i in range(max(n, 0))],
                "product": draw(entries(TABLE, (n, n, n), bad))}
    return {"representation": draw(datums("rep", dims, bad)), "matrix": draw(grids(n, m, bad))}


@st.composite
def invocations(draw, group, command):
    """(argv with file names, {file name: contents}, contents of alg.json)."""
    positional, options = MULTI[group, command]
    # a third of the runs draw bad entries, coefficients and dimensions
    bad = not draw(st.integers(0, 2))
    dims = {s: draw(st.sampled_from(SIZES if bad else (1, 2, 0, 3, 2, 1, 4))) for s in "AV"}
    dims["E"] = dims["A"] + dims["V"] if bad or draw(st.booleans()) else dims["A"]
    kinds, argv = [], [group, command]
    for kind in positional:
        argv.append("f%d.json" % len(kinds))
        kinds.append(kind)
    for option, kind, required in options:
        if required or draw(st.booleans()):
            argv += [option, "f%d.json" % len(kinds)]
            kinds.append(kind)
    if (group, command) in FLAGS and draw(st.booleans()):
        argv.append(FLAGS[group, command])
    argv += [flag for flag in ("--json", "--exhaustive") if draw(st.booleans())]
    files = {"f%d.json" % i: draw(contents(kind, dims, bad)) for i, kind in enumerate(kinds)}
    if kinds[:2] == [kinds[0]] * 2 and kinds[0] in FORMATS and draw(st.booleans()):
        files["f1.json"]["algebra"] = files["f0.json"]["algebra"]  # one base algebra
    if not draw(st.integers(0, 3)):
        name = draw(st.sampled_from(sorted(files)))
        files[name] = draw(breakage(files[name]))
    return argv, files, draw(algebras(dims["A"], bad))


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


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10 ** 12])
@pytest.mark.parametrize("key", ["dimension", "vDim"])
def test_a_dimension_above_the_bound_is_refused_before_allocating(workdir, key, dim):
    """No table above the bound is built: the refusal comes while the
    dimensions are read."""
    alg = {"dimension": 1, "basis": ["e1"], "succ": [], "prec": []}
    if key == "dimension":
        group, d = "algebra", dict(alg, dimension=dim, basis=["e%d" % i for i in range(dim)]
                                   if dim == MAX_DIM + 1 else ["e1"])
    else:
        group, d = "unified", {"algebra": alg, "vDim": dim}
        d.update((k, []) for k, what, _ in FORMATS["unified"] if what not in ("algebra", "dim"))
    path = workdir / "huge.json"
    path.write_text(json.dumps(d))
    err = io.StringIO()

    def allocate(dims, *args):
        assert max(dims) <= MAX_DIM, "a table of shape %s was allocated" % (dims,)
        return t3_from_entries(dims, *args)

    with mock.patch("adw.algebra.t3_from_entries", allocate), \
            mock.patch("adw.actions.t3_from_entries", allocate), contextlib.redirect_stderr(err):
        assert main([group, "check", str(path)]) == 2
    assert err.getvalue() == "input error: %s: %d is above the largest dimension, %d\n" % (
        key, dim, MAX_DIM)


@pytest.mark.parametrize("group, command", sorted(MULTI), ids=["-".join(k) for k in sorted(MULTI)])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(field=st.sampled_from(("rational", "fp5")), data=st.data())
def test_every_multi_file_command_exits_cleanly(workdir, group, command, field, data):
    argv, files, side = data.draw(invocations(group, command))
    for name, d in files.items():
        (workdir / name).write_text(json.dumps(d))
    (workdir / "alg.json").write_text(json.dumps(side))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ADW_FIELD": field}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    # an undecided Wells class exits 2 by design, with a note and no error
    if code == 2 and "class undecided" not in out.getvalue():
        assert err.getvalue().startswith("input error: "), err.getvalue()
