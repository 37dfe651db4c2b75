"""The sparse-row eliminator and the sparse row builders against the dense
code they replaced (``frozen_dense_kernels``), compared by ``repr`` so that
every value keeps its type as well as its value (``Fraction(0, 1)`` and
``0`` differ).

Matrices mix int 0, the field's own zero and nonzero ints and field elements
(over GF(5) also the int 5, truthy but zero in the field) at several
densities, with zero rows, low rank and inconsistent right-hand sides.  For
``z1_cocycles``, ``find_cohomologous_zeta`` and ``find_cohomologous_witness``
the system each builder hands to its solver is compared too, row by row.

Over GF(5) the eliminator takes every int entry into the field before it
eliminates, where the dense code divided two ints to a ``Fraction`` that
then met a ``GFElement`` and raised.  So a matrix holding a GF(5) element is
compared with the dense code on the matrix with every int taken into GF(5),
by ``repr``; and the builders, which name the datum's field to the solver,
are compared on GF(5) data with plain-int coefficients with the dense
builders on the data with every nonzero coefficient taken into GF(5), by
``==`` in the field, where neither may raise.

Rows over Q whose every nonzero is a ``Fraction`` are reduced on ints.
They are drawn too, with large denominators and with repeated and
proportional rows, and so are rows over GF(2) and GF(251); a spy on the
int path checks that it takes the ``Fraction`` rows and no rows over GF(p)
or with a nonzero plain int over Q.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adw.crossed
import adw.linalg
import adw.unified
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp
from adw.crossed import CrossedDatum, find_cohomologous_zeta, z1_cocycles
from adw.fields import RATIONALS, GFElement, PrimeField
from adw.linalg import inverse, nullspace, rank, rref, solve_linear
from adw.reps import regular_representation, semidirect_product
from adw.unified import ExtendingDatum, find_cohomologous_witness
from . import frozen_dense_kernels as frozen
from .conftest import datum_in_field, rnil2

GF5 = PrimeField(5)
KINDS = ("int", "rational", "fp5")
NONZERO = {
    "int": [-3, -2, -1, 1, 2, 3],
    "rational": [-2, 1, 3, Q(1), Q(-1), Q(1, 2), Q(-3), Q(2, 3), Q(-5, 4)],
    "fp5": [-2, 1, 3, 5] + GF5.elements()[1:],
}
ZEROS = {"int": [0, 0, 0, Q(0)], "rational": [0, Q(0)], "fp5": [0, GF5.zero]}
# kinds for the int path: every nonzero a Fraction, which it takes, or rows
# over GF(2) and GF(251), which it leaves to _gauss_jordan
GF2, GF251 = PrimeField(2), PrimeField(251)
INT_PATH_KINDS = ("fraction", "fraction-wide", "fp2", "fp251")
NONZERO.update({
    "fraction": [Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-3, 2), Q(2, 3), Q(-5, 4)],
    # large denominators: scaling a row to ints multiplies them together
    "fraction-wide": [Q(1), Q(-2), Q(7919, 104729), Q(-104729, 7919), Q(1, 104723),
                      Q(6, 104729), Q(-104729, 2)],
    # the ints p and 2p are truthy but zero in the field
    "fp2": [1, -1, 2, 3, 4, GF2.one],
    "fp251": [1, -2, 250, 251, 1000] + [GF251.coerce(x) for x in (1, 2, 125, 250, 7)],
})
ZEROS.update({"fraction": [0, Q(0)], "fraction-wide": [0, Q(0)], "fp2": [0, GF2.zero],
              "fp251": [0, GF251.zero]})


def pools(kind):
    """Entry pools in which about 10%, 40% and 90% are nonzero."""
    nz, zs = NONZERO[kind], ZEROS[kind]
    n = len(nz)
    return [zs * (9 * n // len(zs)) + nz, zs * (3 * n // (2 * len(zs))) + nz, zs + nz * 4]


POOLS = {kind: pools(kind) for kind in KINDS + INT_PATH_KINDS}


def outcome(fn, *args):
    """repr of the result, or the type of the exception it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # both trees must fail the same way
        return "raises " + type(exc).__name__


def combine(coeffs, rows, ncols):
    """sum c_k rows[k], entry by entry, starting from int 0."""
    out = [0] * ncols
    for c, row in zip(coeffs, rows):
        for j in range(ncols):
            out[j] = out[j] + c * row[j]
    return tuple(out)


@st.composite
def systems(draw, kinds=KINDS, repeated=False):
    """(A, b): A is drawn entry by entry, with zero rows, or of low
    rank as combinations of a few drawn rows, or, with ``repeated``, as
    copies and nonzero multiples of a few drawn rows; b is drawn, or A x
    plus a drawn perturbation, which is often inconsistent when A is
    singular."""
    kind = draw(st.sampled_from(kinds))
    pool = draw(st.sampled_from(POOLS[kind]))
    entry = st.sampled_from(pool)
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rows = [tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)]
    shape = draw(st.sampled_from(["free", "zero rows", "low rank"]
                                  + (["repeated"] if repeated else [])))
    if shape == "zero rows":
        zero = draw(st.sampled_from(ZEROS[kind]))
        rows = [row if draw(st.booleans()) else (zero,) * ncols for row in rows]
    elif shape == "low rank" and nrows:
        base = rows[:draw(st.integers(1, max(1, min(nrows, ncols) - 1)))]
        rows = [combine([draw(entry) for _ in base], base, ncols) for _ in range(nrows)]
    elif shape == "repeated" and nrows:
        base = rows[:draw(st.integers(1, 3))]
        rows = [tuple(c * x for x in draw(st.sampled_from(base)))
                if draw(st.booleans()) else draw(st.sampled_from(base))
                for c in (draw(st.sampled_from(NONZERO[kind])) for _ in range(nrows))]
    amat = tuple(rows)
    if draw(st.booleans()):
        b = tuple(draw(entry) for _ in range(nrows))
    else:
        x = [draw(entry) for _ in range(ncols)]
        b = tuple(sum((a * y for a, y in zip(row, x)), draw(entry)) for row in amat)
    return amat, b


def entries_of(*parts):
    """Every scalar of the matrices and vectors."""
    return [x for part in parts for row in part
            for x in (row if isinstance(row, tuple) else (row,))]


def taken(*parts):
    """Matrices and vectors with every int entry taken into GF(p) when some
    entry of theirs is a GF(p) element, as the eliminator takes its rows;
    else as given."""
    p = next((x.p for x in entries_of(*parts) if type(x) is GFElement), None)
    if p is None:
        return parts

    def take(x):
        return tuple(map(take, x)) if isinstance(x, tuple) else \
            GFElement(p, x) if type(x) is int else x

    return tuple(take(part) for part in parts)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(systems())
def test_elimination_matches_dense_by_repr(case):
    amat, b = case
    (field_amat,) = taken(amat)
    for new, old in ((rref, frozen.rref), (nullspace, frozen.nullspace),
                     (rank, frozen.rank)):
        assert outcome(new, amat) == outcome(old, field_amat)
    assert outcome(solve_linear, amat, b) == outcome(frozen.solve_linear, *taken(amat, b))
    if amat and len(amat) == len(amat[0]):
        assert outcome(inverse, amat) == outcome(frozen.inverse, field_amat)


def test_int_rows_over_gf_p_do_not_raise():
    """The dense code divided the ints 1 and 2 to a Fraction, which then met a
    GFElement: TypeError.  Over GF(5), 1/2 is 3."""
    amat = ((2, 1, 0), (GF5.one, GF5.one, GF5.one))
    assert outcome(frozen.nullspace, amat) == "raises TypeError"
    assert nullspace(amat) == ((GF5.one, GF5.coerce(3), 1),)
    assert repr(nullspace(amat)) == repr(frozen.nullspace(*taken(amat)))


def test_singular_and_inconsistent_systems_match_dense():
    singular = ((Q(1), Q(2), 0), (Q(2), Q(4), 0), (0, 0, Q(0)))
    inconsistent = ((1, 1), (2, 2))
    gf_singular = ((GF5.one, 2), (3, GF5.coerce(1)))   # 3 * (1, 2) = (3, 1) in GF(5)
    assert solve_linear(inconsistent, (1, 3)) is None
    assert inverse(singular) is None and inverse(gf_singular) is None
    for amat, b in ((singular, (Q(1), Q(2), 0)), (singular, (1, 3, 0)),
                    (inconsistent, (1, 3)), (inconsistent, (1, 2)),
                    (gf_singular, (1, 3)), (gf_singular, (GF5.one, GF5.zero)),
                    (((0, Q(0)), (Q(0), 0)), (0, Q(0)))):
        assert repr(solve_linear(amat, b)) == repr(frozen.solve_linear(amat, b))
        for new, old in ((rref, frozen.rref), (nullspace, frozen.nullspace),
                         (rank, frozen.rank), (inverse, frozen.inverse)):
            assert repr(new(amat)) == repr(old(amat))


# ---------------------------------------------------------------------------
# the Z1, N3-N4 and h3-h10 systems

FIELD_OF = {"rational": RATIONALS, "fp5": GF5}


def same_system(module, sparse_name, new, old, field, *args):
    """Run the sparse builder ``new`` and the dense builder ``old`` on args,
    capturing the system each hands to its solver; assert equal outcomes and
    equal rows and right-hand sides, the sparse rows read densely.  Over Q
    both run on args and compare by ``repr``; over GF(5) ``old`` runs on
    args in the field and both compare by ``==`` in the field, and neither
    may raise.  Returns the outcome."""
    got = {}

    def capture(name, real):
        def spy(*a):
            got[name] = a
            return real(*a)
        return spy

    sparse_real = getattr(module, sparse_name)
    dense_name = "nullspace" if sparse_name == "sparse_nullspace" else "solve_linear"
    dense_real = getattr(frozen, dense_name)
    setattr(module, sparse_name, capture("sparse", sparse_real))
    setattr(frozen, dense_name, capture("dense", dense_real))
    try:
        if field is RATIONALS:
            result, want = outcome(new, *args), outcome(old, *args)
            same = repr
        else:
            result, want = new(*args), old(*(datum_in_field(a, field) for a in args))
            same = field.residues
        assert result == want
    finally:
        setattr(module, sparse_name, sparse_real)
        setattr(frozen, dense_name, dense_real)
    assert ("sparse" in got) == ("dense" in got)
    if "dense" in got:
        rows, ncols = got["sparse"][0], got["sparse"][-2]
        dense_rows = tuple(tuple(row.get(c, 0) for c in range(ncols)) for row in rows)
        assert same(dense_rows) == same(got["dense"][0])
        if dense_name == "solve_linear":
            assert same(tuple(got["sparse"][1])) == same(got["dense"][1])
    return result if field is RATIONALS else repr(result)


def draw_family(data, pool, n, m):
    entry = st.sampled_from(pool)
    return ActionFamily(n, m, tuple(tuple(tuple(data.draw(entry) for _ in range(m))
                                          for _ in range(m)) for _ in range(n)))


def draw_op(data, pool, n, m):
    entry = st.sampled_from(pool)
    return BilinearOp(n, tuple(tuple(tuple(data.draw(entry) for _ in range(m))
                                     for _ in range(n)) for _ in range(n)), m)


def draw_algebra(data, pool, n, field, zero=False):
    succ, prec = ((BilinearOp.zero(n), BilinearOp.zero(n)) if zero else
                  (draw_op(data, pool, n, n), draw_op(data, pool, n, n)))
    return ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec, field)


def draw_crossed(data, kind, abelian=False):
    """Random crossed data of dims 1-3 (no axiom need hold), or the split
    datum of R(nil2) with its regular actions (dim 4)."""
    field = FIELD_OF[kind]
    if data.draw(st.integers(0, 4)) == 0:
        alg = rnil2(field)
        rr = regular_representation(alg)
        fibre = ADAlgebra.zero(4, field) if abelian else alg
        return CrossedDatum.split(alg, fibre, rr.lsucc, rr.rsucc, rr.lprec, rr.rprec)
    pool = data.draw(st.sampled_from(POOLS[kind][:2]))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    alg = draw_algebra(data, pool, n, field)
    fibre = draw_algebra(data, pool, m, field, zero=abelian)
    fams = [draw_family(data, pool, n, m) for _ in range(4)]
    return CrossedDatum(alg, fibre, *fams, draw_op(data, pool, n, m), draw_op(data, pool, n, m))


def shifted(c, zeta):
    """c with its cocycles moved by the coboundary of zeta (abelian fibre):
    omega'(x, y) = omega(x, y) + zeta(x o y) - l(x)zeta(y) - r(y)zeta(x),
    so that zeta witnesses N3-N4 for (c, c')."""
    n, m = c.algebra.dim, c.vdim

    def z(v):
        return tuple(sum((zeta[r][k] * v[k] for k in range(n)), 0) for r in range(m))

    def act(mat, v):
        return tuple(sum((mat[r][s] * v[s] for s in range(m)), 0) for r in range(m))

    cols = [tuple(zeta[r][k] for r in range(m)) for k in range(n)]
    oms = []
    for om, prod, lf, rf in ((c.omega1, c.algebra.succ, c.lsucc, c.rsucc),
                             (c.omega2, c.algebra.prec, c.lprec, c.rprec)):
        oms.append(BilinearOp(n, tuple(tuple(
            tuple(a + b - d - e for a, b, d, e in zip(om.table[x][y], z(prod.table[x][y]),
                                                      act(lf.mats[x], cols[y]),
                                                      act(rf.mats[y], cols[x])))
            for y in range(n)) for x in range(n)), m))
    return CrossedDatum(c.algebra, c.valgebra, c.lsucc, c.rsucc, c.lprec, c.rprec, *oms)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_z1_cocycles_match_dense_builder(data):
    c = draw_crossed(data, data.draw(st.sampled_from(["rational", "fp5"])))
    same_system(adw.crossed, "sparse_nullspace", z1_cocycles, frozen.z1_cocycles,
                c.algebra.field, c)




@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_cohomologous_zeta_matches_dense_builder(data):
    """On a coboundary shift, where a witness exists, and on random cocycles."""
    kind = data.draw(st.sampled_from(["rational", "fp5"]))
    c1 = draw_crossed(data, kind, abelian=True)
    n, m = c1.algebra.dim, c1.vdim
    pool = POOLS[kind][1]
    coboundary = data.draw(st.booleans())
    if coboundary:
        entry = st.sampled_from(pool)
        c2 = shifted(c1, tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(m)))
    else:
        c2 = CrossedDatum(c1.algebra, c1.valgebra, c1.lsucc, c1.rsucc, c1.lprec, c1.rprec,
                          draw_op(data, pool, n, m), draw_op(data, pool, n, m))
    got = same_system(adw.crossed, "sparse_solve", find_cohomologous_zeta,
                      frozen.find_cohomologous_zeta, c1.algebra.field, c1, c2)
    if coboundary:
        assert not got.startswith("(None,")


def test_cohomologous_zeta_both_verdicts_occur():
    """Fixed draws of each verdict, compared with the dense builder."""
    alg = rnil2(RATIONALS)
    rr = regular_representation(alg)
    c1 = CrossedDatum.split(alg, ADAlgebra.zero(4), rr.lsucc, rr.rsucc, rr.lprec, rr.rprec)
    zeta = tuple(tuple(Q(r - k, 2) for k in range(4)) for r in range(4))
    fold = BilinearOp.from_entries(4, [(0, 0, 0, Q(1))], 4)
    c_bad = CrossedDatum(alg, c1.valgebra, c1.lsucc, c1.rsucc, c1.lprec, c1.rprec,
                         fold, c1.omega2)
    seen = set()
    for c2 in (shifted(c1, zeta), c_bad):
        got = find_cohomologous_zeta(c1, c2)
        seen.add(got[0] is not None)
        assert repr(got) == repr(frozen.find_cohomologous_zeta(c1, c2))
    assert seen == {True, False}


def varpi_shifted(d, zeta):
    """d with varpi moved so that zeta (n x m) solves h8/h10 for (d, d'):
    varpi'(a, b) = varpi(a, b) - rho(a)zeta(b) - mu(b)zeta(a).  With zero
    A-on-V families the other equations hold, so zeta is a witness."""
    n, m = d.algebra.dim, d.vdim

    def moved(varpi, rho, mu):
        return BilinearOp(m, tuple(tuple(
            tuple(varpi.table[a][b][r] - sum((rho.mats[a][r][s] * zeta[s][b]
                                              + mu.mats[b][r][s] * zeta[s][a]
                                              for s in range(n)), 0) for r in range(n))
            for b in range(m)) for a in range(m)), n)

    return ExtendingDatum(d.algebra, m, d.lsucc, d.rsucc, d.lprec, d.rprec,
                          d.rho_succ, d.mu_succ, d.rho_prec, d.mu_prec,
                          moved(d.varpi1, d.rho_succ, d.mu_succ),
                          moved(d.varpi2, d.rho_prec, d.mu_prec), d.succ_v, d.prec_v)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_cohomologous_witness_matches_dense_builder(data):
    """On a varpi shift by a drawn zeta (zero A-on-V families; a witness
    exists), on equal data and on random data."""
    kind = data.draw(st.sampled_from(["rational", "fp5"]))
    field = FIELD_OF[kind]
    case = data.draw(st.sampled_from(["shift", "equal", "random"]))
    # dense rho, mu and zeta make the witness of a shift nonzero
    pool = POOLS[kind][2] if case == "shift" else data.draw(st.sampled_from(POOLS[kind]))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    alg = draw_algebra(data, pool, n, field, zero=True)
    a_on_v = [ActionFamily.zero(n, m) if case == "shift" else draw_family(data, pool, n, m)
              for _ in range(4)]

    def datum():
        return ExtendingDatum(alg, m, *a_on_v, *(draw_family(data, pool, m, n) for _ in range(4)),
                              draw_op(data, pool, m, n), draw_op(data, pool, m, n),
                              BilinearOp.zero(m), BilinearOp.zero(m))

    d1 = datum()
    if case == "shift":
        entry = st.sampled_from(pool)
        d2 = varpi_shifted(d1, tuple(tuple(data.draw(entry) for _ in range(m)) for _ in range(n)))
    else:
        d2 = d1 if case == "equal" else datum()
    got = same_system(adw.unified, "sparse_solve", find_cohomologous_witness,
                      frozen.find_cohomologous_witness, field, d1, d2)
    if case != "random":
        assert not got.startswith("(None,")


def test_fast_paths_read_int_families_mod_p():
    """Over GF(5) an action family holding the int 5 is the zero family, so
    both fast paths go on to solve instead of reporting that the families
    differ; each finds the zero witness."""
    alg = ADAlgebra.zero(1, GF5)
    five, zero = ActionFamily.from_entries(1, 1, [(0, 0, 0, 5)]), ActionFamily.zero(1, 1)
    c1, c2 = (CrossedDatum.split(alg, ADAlgebra.zero(1, GF5), lsucc=fam) for fam in (five, zero))
    assert find_cohomologous_zeta(c1, c2)[0] == ((0,),)
    d1, d2 = (ExtendingDatum(alg, 1, fam, zero, zero, zero, zero, zero, zero, zero,
                             BilinearOp.zero(1), BilinearOp.zero(1), BilinearOp.zero(1),
                             BilinearOp.zero(1)) for fam in (five, zero))
    assert find_cohomologous_witness(d1, d2)[0] == ((0,),)


# ---------------------------------------------------------------------------
# the int path: Fraction rows over Q, reduced on ints

def off_int_path(*parts):
    """Do the matrices and vectors hold a GF(p) element or a nonzero plain
    int?  Either keeps them on ``_gauss_jordan``."""
    return any(type(x) is GFElement or (type(x) is int and x) for x in entries_of(*parts))


def int_path_class(amat):
    """"gf" when A holds a GF(p) element, "fraction" when it has a nonzero
    and every nonzero is a Fraction, else None."""
    xs = entries_of(amat)
    if any(type(x) is GFElement for x in xs):
        return "gf"
    nonzero = [x for x in xs if x]
    return "fraction" if nonzero and all(type(x) is Q for x in nonzero) else None


def test_int_path_matches_dense_by_repr(monkeypatch):
    """The int path's kinds with repeated rows, and the kinds of
    ``systems``, against the dense code by ``repr``.  A spy on
    ``_reduce_on_ints`` sees it run on every draw whose A has only Fraction
    nonzeros, and on no call whose input holds a GF(p) element or a nonzero
    plain int: ``inverse`` appends int 1s, and ``rref`` never takes it."""
    real, runs = adw.linalg._reduce_on_ints, []

    def spy(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(adw.linalg, "_reduce_on_ints", spy)
    ran_on = {"gf": [], "fraction": []}

    def through(fn, *args):
        """The outcome of fn, asserting that the int path did not run on
        input off it; returns (outcome, ran)."""
        before = len(runs)
        got = outcome(fn, *args)
        ran = len(runs) > before
        assert not (ran and (fn is rref or off_int_path(*args)))
        return got, ran

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(systems(KINDS + INT_PATH_KINDS, repeated=True))
    def check(case):
        amat, b = case
        (field_amat,) = taken(amat)
        for new, old in ((rref, frozen.rref), (nullspace, frozen.nullspace),
                         (rank, frozen.rank)):
            got, ran = through(new, amat)
            assert got == outcome(old, field_amat)
            if new is nullspace and int_path_class(amat):
                ran_on[int_path_class(amat)].append(ran)
        got, _ = through(solve_linear, amat, b)
        assert got == outcome(frozen.solve_linear, *taken(amat, b))
        if amat and len(amat) == len(amat[0]):
            n = len(amat)
            identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            got, ran = through(inverse, amat)
            assert got == outcome(frozen.inverse, field_amat)
            assert not (ran and off_int_path(amat, identity))

    check()
    assert len(ran_on["fraction"]) >= 50 and all(ran_on["fraction"])
    assert len(ran_on["gf"]) >= 50 and not any(ran_on["gf"])


def test_int_path_fork_keeps_the_types_of_the_moves():
    """Rows with a nonzero plain int over Q keep dense elimination, whose
    types follow its moves: a row swap changes them.  The same rows as
    Fractions take the int path, and both orders agree."""
    rows = ((2, 1, 1), (1, 1, 0))
    swapped = rows[::-1]
    assert repr(nullspace(rows)) == "((Fraction(-1, 1), Fraction(1, 1), 1),)"
    assert repr(nullspace(swapped)) == "((-1, 1, 1),)"
    fractions = tuple(tuple(Q(x) for x in row) for row in rows)
    for amat in (rows, swapped, fractions, fractions[::-1]):
        assert repr(nullspace(amat)) == repr(frozen.nullspace(amat))
    assert repr(nullspace(fractions)) == repr(nullspace(fractions[::-1])) == \
        "((Fraction(-1, 1), Fraction(1, 1), 1),)"


def permuted_r2nil2(field):
    """R(R(nil2)) = R^2(nil2), dim 8, with its basis permuted."""
    alg = semidirect_product(regular_representation(rnil2(field)))
    perm = (3, 6, 0, 7, 2, 5, 1, 4)

    def moved(op):
        return BilinearOp.from_entries(8, [(perm[i], perm[j], perm[k], c)
                                           for i, j, k, c in op.entries()])

    return ADAlgebra(8, alg.basis, moved(alg.succ), moved(alg.prec), field)


@pytest.mark.parametrize("field", [RATIONALS, GF5], ids=["rational", "fp5"])
def test_z1_and_zeta_systems_at_dim_8(field):
    """The shape of tower-sparse's Z8: the split crossed datum of a permuted
    R^2(nil2) over itself with its regular actions; and, over the zero fibre,
    a coboundary shift of its cocycles, where a witness exists."""
    alg = permuted_r2nil2(field)
    rr = regular_representation(alg)
    c = CrossedDatum.split(alg, alg, rr.lsucc, rr.rsucc, rr.lprec, rr.rprec)
    same_system(adw.crossed, "sparse_nullspace", z1_cocycles, frozen.z1_cocycles, field, c)
    c1 = CrossedDatum.split(alg, ADAlgebra.zero(8, field), rr.lsucc, rr.rsucc, rr.lprec,
                            rr.rprec)
    zeta = tuple(tuple(Q((3 * r + k) % 5 - 2, 1 + k % 2) if field is RATIONALS else
                       (3 * r + k) % 5 for k in range(8)) for r in range(8))
    got = same_system(adw.crossed, "sparse_solve", find_cohomologous_zeta,
                      frozen.find_cohomologous_zeta, field, c1, shifted(c1, zeta))
    assert not got.startswith("(None,")
