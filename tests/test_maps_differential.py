"""The map layer against its frozen predecessor, and the map theorems.

The maps of sections 3-4 (the equivalence psi, the crossed isomorphism of a
cohomologous witness, the lift gamma and the conjugated cocycle) are drawn
over Q and GF(5) on base and fibre algebras of dimension 1-2: zero
algebras, the nil algebra e1>e1 = e2 and sparse random tables, each with a
pool of its automorphisms.  Second data are drawn at random or carried
along the map (``change_basis`` by its inverse), so passes and failures
both occur.

The differential tests require every check, builder and conjugated cocycle
to equal what ``frozen_maps`` returns, in both exhaustive modes: equal
reports, or the same exception with the same message and report; a
conjugated cocycle equal by ``==`` and by its JSON file.  The theorem tests
use no frozen code:

- ``check_equivalence`` passes iff psi is a homomorphism U(d1) -> U(d2);
- ``check_cocycles_cohomologous`` passes iff (x,a) -> (x, zeta(x) + a) is
  a homomorphism C(c1) -> C(c2);
- ``check_inducible`` passes iff gamma is an automorphism of C(c);
- the conjugated cocycle is cohomologous to c by zeta iff (alpha, beta)
  lifts with phi = zeta alpha.

U and C are ``unified_product`` and ``crossed_product`` without precheck.
Each test requires both verdicts among its examples.
"""

import json

from hypothesis import given, settings, strategies as st

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, change_basis, is_automorphism, is_homomorphism
from adw.crossed import (AutPair, CrossedDatum, check_cocycles_cohomologous, check_inducible,
                         crossed_isomorphism_matrix, crossed_product, lift_matrix,
                         phi_from_wells_witness, transformed_cocycle)
from adw.fields import RATIONALS, InputError, PrimeField
from adw.linalg import identity, inverse
from adw.reporting import PreconditionFailure
from adw.serialize import crossed_to_dict
from adw.unified import (EquivWitness, ExtendingDatum, check_equivalence,
                         equivalence_morphism_matrix, unglue, unified_product)

from . import frozen_maps as frozen

GF3, GF5 = PrimeField(3), PrimeField(5)
DIFF = settings(derandomize=True, max_examples=120, deadline=None)
COEFFS = ("1", "-1", "2", "1/2")
# invertible matrices over Q, GF(3) and GF(5), by dimension
INVERTIBLE = {1: (((1,),), ((2,),), ((-1,),)),
              2: (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                  ((2, 0), (1, 1)), ((1, -1), (1, 1)))}


def lift(field, mat):
    return tuple(tuple(field.coerce(x) for x in row) for row in mat)


@st.composite
def scalars(draw, field):
    """A coefficient of the field, or now and then a zero of either kind."""
    return draw(st.sampled_from((0, field.zero) + tuple(field.parse(c) for c in COEFFS)))


@st.composite
def matrices(draw, field, rows, cols):
    return tuple(tuple(draw(scalars(field)) for _ in range(cols)) for _ in range(rows))


@st.composite
def entries(draw, field, dims):
    """Up to three (index..., coefficient) entries, or none half of the time."""
    if draw(st.booleans()):
        return []
    return draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims),
                                   st.sampled_from(COEFFS).map(field.parse)), max_size=3))


@st.composite
def algebras(draw, field, n):
    """(algebra, its automorphisms drawn from a pool)."""
    kind = draw(st.sampled_from(("zero", "nil", "random") if n == 2 else ("zero", "random")))
    if kind == "zero":
        return ADAlgebra.zero(n, field), [lift(field, m) for m in INVERTIBLE[n]]
    if kind == "nil":
        # alpha(e1) = a e1 + b e2, alpha(e2) = a^2 e2
        return (ADAlgebra.make(2, [(0, 0, 1, field.one)], field=field),
                [lift(field, ((a, 0), (b, a * a))) for a in (1, 2, -1) for b in (0, 1)])
    return (ADAlgebra.make(n, draw(entries(field, (n, n, n))), draw(entries(field, (n, n, n))),
                           field=field), [identity(n, field.one)])


def family(draw, field, src, dst):
    return ActionFamily.from_entries(src, dst, draw(entries(field, (src, dst, dst))))


def table(draw, field, dim, out):
    return BilinearOp.from_entries(dim, draw(entries(field, (dim, dim, out))), out)


@st.composite
def crossed(draw, field, base=None, m=None):
    """(crossed datum, automorphisms of its base, of its fibre); the base and
    the fibre dimension are drawn unless given."""
    (alg, autos) = base or draw(algebras(field, draw(st.integers(1, 2))))
    fibre, fautos = draw(algebras(field, m or draw(st.integers(1, 2))))
    n, m = alg.dim, fibre.dim
    return (CrossedDatum(alg, fibre, *(family(draw, field, n, m) for _ in range(4)),
                         table(draw, field, n, m), table(draw, field, n, m)), autos, fautos)


@st.composite
def extending(draw, field, alg, m):
    n = alg.dim
    return ExtendingDatum(alg, m, *(family(draw, field, n, m) for _ in range(4)),
                          *(family(draw, field, m, n) for _ in range(4)),
                          table(draw, field, m, n), table(draw, field, m, n),
                          table(draw, field, m, m), table(draw, field, m, m))


def carried(alg, psi):
    """The algebra ``alg`` carried along the invertible matrix psi."""
    return change_basis(alg, inverse(psi))


def blocks(moved, na):
    """The ``unglue`` blocks of both tables of an algebra on A (+) V."""
    ia, iv = range(na), range(na, moved.dim)
    return [unglue(op.table, ia, iv) for op in (moved.succ, moved.prec)]


@st.composite
def equivalence_cases(draw, field):
    """(d1, d2, witness): d2 random, or d1 carried along psi."""
    alg, _ = draw(algebras(field, draw(st.integers(1, 2))))
    m = draw(st.integers(1, 2))
    d1 = draw(extending(field, alg, m))
    w = EquivWitness(draw(matrices(field, alg.dim, m)),
                     lift(field, draw(st.sampled_from(INVERTIBLE[m]))))
    if draw(st.booleans()):
        psi = equivalence_morphism_matrix(d1, w)
        d2 = ExtendingDatum.unglued(alg, *blocks(carried(unified_product(d1, False), psi),
                                                 alg.dim))
    else:
        d2 = draw(extending(field, alg, m))
    return d1, d2, w


@st.composite
def cohomologous_cases(draw, field):
    """(c1, c2, zeta) over one base: c2 random, or c1 carried along the
    crossed isomorphism of zeta."""
    c1, autos, _ = draw(crossed(field))
    zeta = draw(matrices(field, c1.vdim, c1.algebra.dim))
    if draw(st.booleans()):
        moved = carried(crossed_product(c1, False), crossed_isomorphism_matrix(c1, zeta))
        c2 = CrossedDatum.unglued(c1.algebra, c1.valgebra, *blocks(moved, c1.algebra.dim))
    else:
        c2, _, _ = draw(crossed(field, (c1.algebra, autos), c1.vdim))
    return c1, c2, zeta


@st.composite
def lifting_cases(draw, field):
    """(c, automorphism pair, phi): the identity pair and phi = 0 now and then."""
    c, autos, fautos = draw(crossed(field))
    n, m = c.algebra.dim, c.vdim
    if draw(st.booleans()):
        pair = AutPair(identity(n, field.one), identity(m, field.one))
    else:
        pair = AutPair(draw(st.sampled_from(autos)), draw(st.sampled_from(fautos)))
    phi = draw(st.sampled_from((lift(field, ((0,) * n,) * m), draw(matrices(field, m, n)))))
    return c, pair, phi


def outcome(fn, *args, **kw):
    """fn's result, or the type, message and report of its refusal."""
    try:
        return fn(*args, **kw)
    except (InputError, PreconditionFailure) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "report", None)


def verdicts(test, fields=(RATIONALS, GF5)):
    """Run a ``given`` test over ``fields``; it returns a verdict, and both
    must occur."""
    seen = set()
    DIFF(given(field=st.sampled_from(fields), data=st.data())(
        lambda field, data: seen.add(test(field, data))))()
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the frozen checks as an oracle

def test_equivalence_matches_frozen():
    def test(field, data):
        d1, d2, w = data.draw(equivalence_cases(field))
        cohomologous, exhaustive = data.draw(st.booleans()), data.draw(st.booleans())
        got = outcome(check_equivalence, d1, d2, w, cohomologous, exhaustive)
        assert got == outcome(frozen.check_equivalence, d1, d2, w, cohomologous, exhaustive)
        assert repr(equivalence_morphism_matrix(d1, w)) == \
            repr(frozen.equivalence_morphism_matrix(d1, w))
        return getattr(got, "passed", False)
    verdicts(test)


def test_cohomologous_matches_frozen():
    def test(field, data):
        c1, c2, zeta = data.draw(cohomologous_cases(field))
        exhaustive = data.draw(st.booleans())
        got = outcome(check_cocycles_cohomologous, c1, c2, zeta, exhaustive)
        assert got == outcome(frozen.check_cocycles_cohomologous, c1, c2, zeta, exhaustive)
        assert repr(crossed_isomorphism_matrix(c1, zeta)) == \
            repr(frozen.crossed_isomorphism_matrix(c1, zeta))
        return got.passed
    verdicts(test)


def test_lifting_and_conjugation_match_frozen():
    def test(field, data):
        c, pair, phi = data.draw(lifting_cases(field))
        exhaustive = data.draw(st.booleans())
        got = outcome(check_inducible, c, pair, phi, exhaustive)
        assert got == outcome(frozen.check_inducible, c, pair, phi, exhaustive)
        assert repr(lift_matrix(c, pair, phi)) == repr(frozen.lift_matrix(c, pair, phi))
        moved, old = outcome(transformed_cocycle, c, pair), frozen.transformed_cocycle(c, pair)
        assert moved == old
        assert json.dumps(crossed_to_dict(moved)) == json.dumps(crossed_to_dict(old))
        return got.passed
    verdicts(test)


def test_is_homomorphism_matches_frozen():
    def test(field, data):
        c1, c2, zeta = data.draw(cohomologous_cases(field))
        src, dst = crossed_product(c1, False), crossed_product(c2, False)
        phi = data.draw(st.sampled_from((crossed_isomorphism_matrix(c1, zeta),
                                         data.draw(matrices(field, dst.dim, src.dim)))))
        got = is_homomorphism(phi, src, dst)
        assert got == frozen.is_homomorphism(phi, src, dst)
        return got
    verdicts(test)


# ---------------------------------------------------------------------------
# the map theorems

def test_equivalence_is_a_homomorphism_of_unified_products():
    def test(field, data):
        d1, d2, w = data.draw(equivalence_cases(field))
        passed = check_equivalence(d1, d2, w).passed
        assert passed == is_homomorphism(equivalence_morphism_matrix(d1, w),
                                         unified_product(d1, False), unified_product(d2, False))
        return passed
    verdicts(test, (RATIONALS, GF3, GF5))


def test_cohomologous_is_a_homomorphism_of_crossed_products():
    def test(field, data):
        c1, c2, zeta = data.draw(cohomologous_cases(field))
        passed = check_cocycles_cohomologous(c1, c2, zeta).passed
        assert passed == is_homomorphism(crossed_isomorphism_matrix(c1, zeta),
                                         crossed_product(c1, False), crossed_product(c2, False))
        return passed
    verdicts(test, (RATIONALS, GF3, GF5))


def test_inducible_is_an_automorphism_of_the_crossed_product():
    def test(field, data):
        c, pair, phi = data.draw(lifting_cases(field))
        passed = check_inducible(c, pair, phi).passed
        assert passed == is_automorphism(crossed_product(c, False), lift_matrix(c, pair, phi))
        return passed
    verdicts(test, (RATIONALS, GF3, GF5))


def test_wells_class_vanishes_iff_the_pair_lifts():
    def test(field, data):
        c, pair, _ = data.draw(lifting_cases(field))
        zeta = data.draw(matrices(field, c.vdim, c.algebra.dim))
        passed = check_cocycles_cohomologous(transformed_cocycle(c, pair), c, zeta).passed
        assert passed == check_inducible(c, pair, phi_from_wells_witness(pair, zeta)).passed
        return passed
    verdicts(test, (RATIONALS, GF3, GF5))
