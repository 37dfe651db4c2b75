"""The pruned skew search against the frozen brute force.

Random algebras of dimension 0..4 (anti-dendriform or not, sparse random
tables, known algebras and random basis changes of R(nil2)-style algebras)
are searched over Q, with grids that may repeat a value, hold a single value
or be empty, and over GF(2), GF(3) and GF(5) (GF(5) up to dimension 3, so the
brute force stays fast), with the whole field or a random list of its
elements.  ``search_skew_solutions`` must return the list ``frozen_search``
returns, element by element and with the same scalar type in every position,
or raise the same exception with the same message.
"""

import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from adw.algebra import ADAlgebra, BilinearOp, change_basis, direct_sum
from adw.bialgebra import search_skew_solutions
from adw.fields import RATIONALS, PrimeField
from adw.linalg import inverse, matmul

from . import frozen_search as frozen
from .conftest import rnil2

GF5 = PrimeField(5)
FIELDS = (RATIONALS, PrimeField(2), PrimeField(3), GF5)
# the (field, dimension) pairs to draw from; GF(5) stops at dimension 3
CASES = tuple((f, n) for f in FIELDS for n in range(5) if (f, n) != (GF5, 4))
GRID = (Q(-1), Q(0), Q(1), Q(1, 2), Q(-2), 0, 1)
DIFF = settings(derandomize=True, max_examples=150, deadline=None)


def coeffs(field):
    return (Q(1), Q(-1), Q(2), Q(1, 2)) if field is RATIONALS else field.elements()[1:]


def known_algebras(field, n):
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    if n == 2:
        return (nil, ADAlgebra(2, nil.basis, nil.prec, nil.succ, field))
    if n == 3:
        return (direct_sum(nil, ADAlgebra.zero(1, field)),)
    if n == 4:
        return (rnil2(field), direct_sum(nil, nil))
    return ()


def random_table(draw, field, n):
    entries = draw(st.lists(st.tuples(*(st.integers(0, n - 1),) * 3,
                                      st.sampled_from(coeffs(field))), max_size=2 * n))
    return BilinearOp.from_entries(n, entries)


def invertible(draw, field, n):
    """perm * L * U with unit-diagonal triangular L and U."""
    coeff = st.sampled_from((0, 0) + tuple(coeffs(field)))
    perm = draw(st.permutations(range(n)))
    low = [[field.one if r == c else (draw(coeff) if r > c else 0) for c in range(n)]
           for r in range(n)]
    up = [[field.one if r == c else (draw(coeff) if r < c else 0) for c in range(n)]
          for r in range(n)]
    return tuple(matmul(low, up)[perm[r]] for r in range(n))


@st.composite
def searches(draw):
    """(algebra, values) with the values in the algebra's field."""
    field, n = draw(st.sampled_from(CASES))
    kind = draw(st.sampled_from(("random", "known", "rnil2-basis")))
    if kind == "rnil2-basis" and n == 4:
        alg = change_basis(rnil2(field), invertible(draw, field, 4))
    elif kind == "known" and known_algebras(field, n):
        alg = draw(st.sampled_from(known_algebras(field, n)))
    elif n == 0:
        alg = ADAlgebra.zero(0, field)
    else:
        alg = ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)),
                        random_table(draw, field, n), random_table(draw, field, n), field)
    if field is RATIONALS:
        # at most 64 grid points at dimension 4, 125 below
        values = draw(st.lists(st.sampled_from(GRID), max_size=2 if n == 4 else 5))
    elif (kind == "rnil2-basis" if n == 4 else draw(st.booleans())):
        # the whole of GF(3) at dimension 4 is 729 brute-force residuals, so
        # only the basis-changed R(nil2), the benchmark's shape, gets it
        values = field.elements()
    else:
        values = draw(st.lists(st.sampled_from(field.elements() + [0, 1]),
                               max_size=2 if n == 4 else 4))
    return alg, values


def outcome(search, alg, values):
    try:
        sols = search(alg, values)
    except Exception as exc:  # compared, not swallowed: both sides must agree
        return ("raise", type(exc), str(exc))
    types = [type(x) for r in sols for row in r for x in row]
    return ("ok", sols, types)


def assert_same(alg, values):
    expected = outcome(frozen.search_skew_solutions, alg, values)
    assert outcome(search_skew_solutions, alg, values) == expected
    return expected


@DIFF
@given(searches())
def test_search_matches_brute_force(case):
    assert_same(*case)


def test_edge_cases_match_brute_force():
    for field in FIELDS:
        # k = 0: the grid has one point, the empty tuple, even with no values
        for n in (0, 1):
            alg = ADAlgebra.make(n, [(0, 0, 0, field.one)] if n else [], field=field)
            for values in ([], [field.one], [field.zero, field.zero]):
                assert assert_same(alg, values)[1] == [frozen.skew_tensor_from_uppers(n, ())]
        # k > 0 and no values: no grid point
        for n in (2, 3, 4):
            assert assert_same(ADAlgebra.zero(n, field), [])[1] == []
        # a single value; duplicates repeat solutions in grid order
        nil = known_algebras(field, 2)[0]
        assert len(assert_same(nil, [field.one])[1]) == 1
        assert len(assert_same(nil, [field.one, field.one, field.zero])[1]) == 3
    # the dimension refusal is unchanged
    big = ADAlgebra.zero(5)
    assert assert_same(big, [Q(0)])[0] == "raise"


def test_gf3_basis_changes_of_rnil2_match_brute_force():
    """The whole of GF(3) at dimension 4 on dense basis changes of R(nil2)."""
    gf3, rng = PrimeField(3), random.Random(6)
    for _ in range(2):
        while True:
            pmat = tuple(tuple(gf3.coerce(rng.randint(1, 2)) for _ in range(4)) for _ in range(4))
            if inverse(pmat) is not None:
                break
        assert_same(change_basis(rnil2(gf3), pmat), gf3.elements())
