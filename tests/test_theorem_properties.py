"""Two of the paper's statements as ``hypothesis`` properties.

They check verdicts only, so they hold whatever scalars a check computes on:

* a skew solution r of YE6 gives a coboundary D-bialgebra: CD3-CD10 pass
  for r> = r< = r (over Q on the grid {-1, 0, 1}, and over GF(3));
* on integer data a pass over Q is a pass over every GF(p): the structure
  constants of an identity that holds over Z hold mod p.  Checked for A
  (A1/A2), R (the regular representation), S (its extending datum) and CD.
"""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from adw.algebra import ADAlgebra, BilinearOp, change_basis, check_anti_dendriform, direct_sum
from adw.bialgebra import check_coboundary_conditions, is_ybe_solution, search_skew_solutions
from adw.fields import RATIONALS, PrimeField
from adw.linalg import matmul
from adw.reps import check_representation, regular_representation, semidirect_product
from adw.unified import ExtendingDatum, check_extending_structure

from .conftest import nilpotent2

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
PRIMES = tuple(PrimeField(p) for p in (2, 3, 5, 7))


def bases():
    """Verified algebras over Q with integer tables, of dimension 2 to 4."""
    nil = nilpotent2()
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ)
    return [nil, flip, direct_sum(nil, flip), semidirect_product(regular_representation(nil)),
            semidirect_product(regular_representation(flip))]


def into(field, x):
    """An integer x (an int or a Fraction) as an element of ``field``."""
    return field.coerce(x if field is RATIONALS else int(x))


def in_field(alg, field):
    """alg, with integer tables, with every coefficient taken into ``field``."""
    def take(op):
        return BilinearOp(op.dim, tuple(tuple(tuple(into(field, x) for x in v) for v in row)
                                        for row in op.table))
    return ADAlgebra(alg.dim, alg.basis, take(alg.succ), take(alg.prec), field)


def unimodular(data, n, field):
    """L U with L and U unitriangular, off-diagonal entries in {-1, 0, 1}, so
    that the inverse has integer entries too."""
    entry = st.sampled_from([0, 0, -1, 1])
    low = [[1 if r == c else (data.draw(entry) if r > c else 0) for c in range(n)]
           for r in range(n)]
    up = [[1 if r == c else (data.draw(entry) if r < c else 0) for c in range(n)]
          for r in range(n)]
    return tuple(tuple(field.coerce(x) for x in row) for row in matmul(low, up))


def draw_integral(data):
    """A base algebra after a unimodular basis change over Q, with integer
    tables; half the time one entry is moved by an integer."""
    alg = data.draw(st.sampled_from(bases()))
    alg = change_basis(alg, unimodular(data, alg.dim, RATIONALS))
    if data.draw(st.booleans()):
        n = alg.dim
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        delta = BilinearOp.from_entries(n, [(i, j, k, Q(data.draw(st.sampled_from([1, 2, 3]))))])
        alg = ADAlgebra(n, alg.basis, alg.succ.add(delta), alg.prec)
    return alg


@SETTINGS
@given(st.data())
def test_skew_solution_gives_a_coboundary_d_bialgebra(data):
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(3)]))
    alg = data.draw(st.sampled_from(bases()))
    alg = change_basis(in_field(alg, field), unimodular(data, alg.dim, field))
    values = field.elements() if field.enumerable else [Q(-1), Q(0), Q(1)]
    solutions = search_skew_solutions(alg, values)
    nonzero = [r for r in solutions if any(x for row in r for x in row)] or solutions
    r = data.draw(st.sampled_from(nonzero))
    assert is_ybe_solution(alg, r)
    assert check_coboundary_conditions(alg, r, r).passed


def passes(alg, r):
    """The verdicts of A, R, S and CD (with r> = r< = r) on alg and r."""
    rr = regular_representation(alg)
    a = check_anti_dendriform(alg).passed
    return {"A": a,
            "R": check_representation(rr, require_verified_algebra=False).passed,
            "S": a and check_extending_structure(ExtendingDatum.from_representation(rr)).passed,
            "CD": check_coboundary_conditions(alg, r, r).passed}


@SETTINGS
@given(st.data())
def test_integer_pass_over_q_is_a_pass_mod_p(data):
    alg = draw_integral(data)
    n = alg.dim
    if data.draw(st.booleans()) and check_anti_dendriform(alg).passed:
        r = data.draw(st.sampled_from(search_skew_solutions(alg, [Q(-1), Q(0), Q(1)])))
    else:
        cells = st.sampled_from([0, 0, 1, -1, 2])
        r = tuple(tuple(Q(data.draw(cells)) for _ in range(n)) for _ in range(n))
    over_q = passes(alg, r)
    for field in PRIMES:
        rp = tuple(tuple(into(field, x) for x in row) for row in r)
        over_p = passes(in_field(alg, field), rp)
        for system, ok in over_q.items():
            if ok:
                assert over_p[system], (system, field)


def test_integer_property_meets_both_verdicts():
    """The draws of the property above give passing and failing cases over Q
    for every system, so that the implication is not empty."""
    seen = {}

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def collect(data):
        alg = draw_integral(data)
        n = alg.dim
        r = tuple(tuple(Q(data.draw(st.sampled_from([0, 0, 1, -1]))) for _ in range(n))
                  for _ in range(n))
        for system, ok in passes(alg, r).items():
            seen.setdefault(system, set()).add(ok)

    collect()
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen
