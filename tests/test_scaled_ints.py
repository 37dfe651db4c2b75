"""Checks over Q on scaled ints against the frozen ``Fraction`` code, and the
homogeneity that makes the scaled comparison exact.

Over Q every check lowers its tables (and r) to ints scaled by the lcm d of
their denominators, compares values of degree k in them at the scale d**k
and lifts what leaves the check.  The draws here hold denominators 2, 3, 5,
7 and 11, mixed with plain ints, int 0 and ``Fraction(0)``:

* A1/A2 must give ``repr``-equal reports to ``frozen_field_elements``;
* CD3-CD10 must give equal reports to ``frozen_dense_kernels``;
* the YE6 residual must equal the frozen contractions' sum, ``repr`` for
  ``repr`` when the tables' nonzero coefficients are all ``Fraction``s or
  all ints, whatever r holds;
* scaling the tables and r by t must multiply the values of every label of
  A1/A2, the glued slots, CD3-CD10, D1-D9, Ca1/Ca2 and YE6 by t**k, with the
  k the lift divides by: 2 for A1/A2, the glued slots, D1-D9 (1 in the
  tables, 1 in the coproducts) and Ca1/Ca2 (2 in the coproducts), 3 for
  CD3-CD6 and YE6, 4 for CD7-CD10.  A1/A2 and the glued slots test each
  row u over every pair (u, v) at once, as maps of Kronecker-packed slabs;
  those row tests are recorded too, digit by digit, so a pair that passes
  as slabs is seen to scale as well, and a glued walk that ticks checks
  must have made row tests.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adw import algebra
from adw.algebra import (ADAlgebra, BilinearOp, check_anti_dendriform, direct_sum,
                         lowered_walk)
from adw.bialgebra import (CoproductPair, adybe_residual, check_coalgebra,
                           check_coboundary_conditions, check_d_bialgebra, is_ybe_solution)
from adw.crossed import _CROSSED_SLOTS
from adw.matched import _MATCHED_SLOTS, _REP1_SLOTS, _REP2_SLOTS
from adw.reporting import Report
from adw.reps import regular_representation, semidirect_product
from adw.tensors import t3_is_zero
from adw.unified import _EXT_SLOTS, BIMOD_SLOTS, R_SLOTS, check_columns, check_glued

from . import frozen_dense_kernels as dense
from . import frozen_field_elements as elements
from .conftest import nilpotent2
from .frozen_bialgebra import t3_add, t3_neg

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

FRACTIONS = [Q(1, 2), Q(-2, 3), Q(3, 7), Q(5, 6), Q(-1, 14), Q(4, 21), Q(2, 5), Q(-7, 11),
             Q(1), Q(-3)]
INTS = [1, -1, 2, -3]
NONZEROS = {"fractions": FRACTIONS, "ints": INTS, "mixed": FRACTIONS + INTS}


def draw_tensor(data, dims, kind=None):
    """A tensor whose nonzeros come from ``NONZEROS[kind]`` (any kind if None),
    about 10%, 40% or 90% of them nonzero; zeros are int 0 and Fraction(0)."""
    kind = kind or data.draw(st.sampled_from(sorted(NONZEROS)))
    nz = NONZEROS[kind]
    zeros = [0, Q(0)]
    pool = data.draw(st.sampled_from([zeros * (9 * len(nz) // 2) + nz,
                                      zeros * (3 * len(nz) // 4) + nz, zeros + nz * 4]))
    size = 1
    for d in dims:
        size *= d
    flat = iter(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))

    def build(ds):
        if len(ds) == 1:
            return tuple(next(flat) for _ in range(ds[0]))
        return tuple(build(ds[1:]) for _ in range(ds[0]))

    return build(dims)


def verified():
    nil = nilpotent2()
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ, nil.field)
    return [nil, flip, direct_sum(nil, flip), semidirect_product(regular_representation(nil))]


def rational_invertible(data, n):
    """A unitriangular matrix times a diagonal one, entries with denominators."""
    entry = st.sampled_from([Q(0), Q(0), Q(1, 2), Q(-2, 3), Q(3, 7), Q(1)])
    diag = st.sampled_from([Q(1), Q(-1), Q(2, 3), Q(7, 5)])
    scales = [data.draw(diag) for _ in range(n)]
    return tuple(tuple(scales[c] * (Q(1) if r == c else data.draw(entry) if r < c else Q(0))
                       for c in range(n)) for r in range(n))


def draw_algebra(data, kind=None):
    """Random tables of dim 1-4, or a verified algebra after a rational basis
    change, possibly with one entry changed."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        kind = kind or data.draw(st.sampled_from(sorted(NONZEROS)))
        succ, prec = (BilinearOp(n, draw_tensor(data, (n, n, n), kind)) for _ in range(2))
        return ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec)
    alg = data.draw(st.sampled_from(verified()))
    alg = elements.change_basis(alg, rational_invertible(data, alg.dim))
    if data.draw(st.booleans()):
        delta = BilinearOp.from_entries(alg.dim, [(0, alg.dim - 1, 0, Q(1, 3))])
        alg = ADAlgebra(alg.dim, alg.basis, alg.succ.add(delta), alg.prec)
    return alg


def kind_of(alg):
    """"fractions" or "ints" when every nonzero table coefficient is one, else "mixed"."""
    types = {type(x) for op in (alg.succ, alg.prec) for _, _, _, x in op.entries()}
    return {frozenset({Q}): "fractions", frozenset({int}): "ints"}.get(frozenset(types), "mixed")


# ---------------------------------------------------------------------------
# the oracle

@SETTINGS
@given(st.data())
def test_anti_dendriform_check_matches_frozen_with_denominators(data):
    alg = draw_algebra(data)
    for exhaustive in (False, True):
        new = check_anti_dendriform(alg, exhaustive)
        old = elements.check_anti_dendriform(alg, exhaustive)
        assert new == old and repr(new) == repr(old)


def report_fields(rep):
    return rep.passed, rep.checked, rep.violation_count, rep.violations


@SETTINGS
@given(st.data())
def test_coboundary_check_matches_frozen_with_denominators(data):
    alg = draw_algebra(data)
    n = alg.dim
    if data.draw(st.booleans()):
        rs = rp = draw_tensor(data, (n, n))
    else:
        rs, rp = draw_tensor(data, (n, n)), draw_tensor(data, (n, n))
    for exhaustive in (False, True):
        assert report_fields(check_coboundary_conditions(alg, rs, rp, exhaustive)) == \
            report_fields(dense.check_coboundary_conditions(alg, rs, rp, exhaustive))


def frozen_residual(alg, r):
    return t3_add(dense.contract_12_13(r, r, alg.assoc), dense.contract_23_12(r, r, alg.succ),
                  t3_neg(dense.contract_13_23(r, r, alg.prec)))


@SETTINGS
@given(st.data())
def test_residual_matches_frozen_with_denominators(data):
    kind = data.draw(st.sampled_from(sorted(NONZEROS)))
    alg = draw_algebra(data, kind)
    r = draw_tensor(data, (alg.dim, alg.dim))
    new, old = adybe_residual(alg, r), frozen_residual(alg, r)
    assert new == old
    if kind_of(alg) != "mixed":
        assert repr(new) == repr(old)
    assert is_ybe_solution(alg, r) == t3_is_zero(old)


def test_residual_types_on_fraction_tables_with_an_int_r():
    """As in the benchmark's YE16-bad: every table coefficient a Fraction and
    r holding a plain int 1; every reached cell is a Fraction, the rest int 0."""
    alg = semidirect_product(regular_representation(ADAlgebra.make(
        2, succ_entries=[(0, 0, 1, Q(2, 3))])))
    r = tuple(tuple(1 if (i, j) == (0, 0) else Q(1, 7) if i == j else 0 for j in range(4))
              for i in range(4))
    new = adybe_residual(alg, r)
    assert repr(new) == repr(frozen_residual(alg, r))
    cells = [x for plane in new for row in plane for x in row]
    assert any(type(x) is Q for x in cells) and any(type(x) is int for x in cells)


# ---------------------------------------------------------------------------
# homogeneity: the degree k of every label

DEGREE = dict({"A1": 2, "A2": 2, "Ca1": 2, "Ca2": 2},
              **{"CD%d" % k: 3 if k <= 6 else 4 for k in range(3, 11)},
              **{"D%d" % k: 2 for k in range(1, 10)})
ASSOC_LABELS = {t: ("assoc-" + "".join(t) + "-A", "assoc-" + "".join(t) + "-V")
                for t in product("AV", repeat=3)}


def digits(slab, b):
    """The signed base-2**b digits of a slab, lowest first, up to its last
    nonzero one: each is below 2**(b-1) in absolute value."""
    out, half = [], 1 << (b - 1)
    while slab:
        d = (slab + half) % (1 << b) - half
        out.append(d)
        slab = (slab - d) >> b
    return tuple(out)


@pytest.fixture
def recorded(monkeypatch):
    """Every compared value, lifted, as (equation, witness, values).  A row
    test of a walk at u is recorded with the identity's label, the witness
    (u, v...) of the v where some slab term is nonzero, and each term as the
    digits of its slab at each of those v, one per (k, l)."""
    seen = []

    def chain(self, equation, witness, terms, values):
        seen.append((equation, witness, self.field.lift(values)))
        return original_chain(self, equation, witness, terms, values)

    def equal(self, equation, witness, lhs, rhs, detail=""):
        seen.append((equation, witness, self.field.lift((lhs, rhs))))
        return original_equal(self, equation, witness, lhs, rhs, detail)

    def row_slabs(packs, identity, u, vs):
        terms = original_row_slabs(packs, identity, u, vs)
        keys = sorted(set().union(*terms))
        seen.append((identity[0], (u, *keys), packs.field.lift(tuple(
            tuple(digits(term.get(v, 0), packs.b) for v in keys) for term in terms))))
        return terms

    original_chain, original_equal = Report.require_chain, Report.require_equal
    original_row_slabs = algebra.row_slabs
    monkeypatch.setattr(Report, "require_chain", chain)
    monkeypatch.setattr(Report, "require_equal", equal)
    monkeypatch.setattr(algebra, "row_slabs", row_slabs)
    return seen


def scaled(x, t):
    return tuple(scaled(y, t) for y in x) if isinstance(x, tuple) else x * t


# (walk, slot set, the acting summand if not A, both products?), in the order
# of the checks that run them
GLUED_WALKS = ((check_columns, R_SLOTS, (), True), (check_glued, _EXT_SLOTS, (), True),
               (check_glued, _CROSSED_SLOTS, (), True), (check_columns, _REP1_SLOTS, (), True),
               (check_columns, _REP2_SLOTS, ("V",), True),
               (check_glued, _MATCHED_SLOTS, (), True), (check_columns, BIMOD_SLOTS, (), False),
               (check_glued, ASSOC_LABELS, (), False))


def glued_runs(na, nv, succ, prec, seen):
    """Every glued slot set on one pair of glued tables, each on a walk of its
    own.  A walk ticks the checks that hold, and counts from slab digits the
    broken ones it does not spell, so one that counts more checks than it
    compares as triples must have made row tests, which the ``recorded``
    list ``seen`` holds under the labels A1, A2 and assoc."""
    def run():
        for check, slots, acting, both in GLUED_WALKS:
            report, start = Report("glued", exhaustive=True), len(seen)
            walk = lowered_walk(report, succ, prec if both else None)
            check(walk, na, nv, slots, *acting)
            triples = sum(e not in ("A1", "A2", "assoc") for e, _, _ in seen[start:])
            assert walk.part.checked == triples or len(seen) - start > triples
    return run


def holds_nonzero(x):
    """Does the nested tuple of scalars x hold a nonzero entry?"""
    return any(map(holds_nonzero, x)) if isinstance(x, tuple) else bool(x)


def assert_scales(before, after, t, degree):
    assert [(e, w) for e, w, _ in before] == [(e, w) for e, w, _ in after]
    for (label, _, old), (_, _, new) in zip(before, after):
        assert new == scaled(old, t ** degree(label)), label


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_label_scales_by_its_degree(recorded, data):
    t = data.draw(st.sampled_from([Q(2), Q(-3), Q(5, 7), Q(-1, 6), Q(11, 4)]))
    alg = draw_algebra(data)
    n = alg.dim
    rs, rp = draw_tensor(data, (n, n)), draw_tensor(data, (n, n))
    na = data.draw(st.integers(1, 2))
    nv = data.draw(st.integers(1, 2))
    succ, prec = (draw_tensor(data, (na + nv,) * 3) for _ in range(2))
    big = ADAlgebra(n, alg.basis, BilinearOp(n, scaled(alg.succ.table, t)),
                    BilinearOp(n, scaled(alg.prec.table, t)))
    tables = (alg.succ.table, alg.prec.table)
    ds, dp = draw_tensor(data, (n, n, n)), draw_tensor(data, (n, n, n))
    cp, big_cp = CoproductPair(n, ds, dp), CoproductPair(n, scaled(ds, t), scaled(dp, t))
    runs = [
        (lambda: check_anti_dendriform(alg, True), lambda: check_anti_dendriform(big, True),
         DEGREE.get, tables),
        (lambda: check_coboundary_conditions(alg, rs, rp, True),
         lambda: check_coboundary_conditions(big, scaled(rs, t), scaled(rp, t), True),
         DEGREE.get, tables + (rs, rp)),
        (glued_runs(na, nv, succ, prec, recorded),
         glued_runs(na, nv, scaled(succ, t), scaled(prec, t), recorded),
         lambda label: 2, (succ, prec)),
        (lambda: check_d_bialgebra(alg, cp, True), lambda: check_d_bialgebra(big, big_cp, True),
         DEGREE.get, tables + (ds, dp)),
        (lambda: check_coalgebra(cp, True), lambda: check_coalgebra(big_cp, True),
         DEGREE.get, (ds, dp)),
    ]
    for first, second, degree, inputs in runs:
        recorded.clear()
        first()
        before = list(recorded)
        recorded.clear()
        second()
        # a check compares nothing only on all-zero inputs
        assert before or not holds_nonzero(inputs)
        assert len(recorded) == len(before)
        assert_scales(before, list(recorded), t, degree)
    assert adybe_residual(big, scaled(rs, t)) == scaled(adybe_residual(alg, rs), t ** 3)


def test_scale_test_sees_every_label(recorded):
    """The walks above reach every label of A1/A2, CD3-CD10, D1-D9, Ca1/Ca2
    and the slot sets, and the associativity slabs of the glued walk on one
    product."""
    alg = semidirect_product(regular_representation(nilpotent2()))
    r = tuple(tuple(Q(i - j, 3) for j in range(4)) for i in range(4))
    check_anti_dendriform(alg)
    check_coboundary_conditions(alg, r, r)
    cp = CoproductPair(4, *(tuple(tuple(tuple(Q(i + 2 * j - k + s, 7) for k in range(4))
                                        for j in range(4)) for i in range(4)) for s in (0, 1)))
    check_d_bialgebra(alg, cp)
    check_coalgebra(cp)
    table = tuple(tuple(tuple(Q(i + 2 * j - k, 5) for k in range(2)) for j in range(2))
                  for i in range(2))
    glued_runs(1, 1, table, table, recorded)()
    labels = set(DEGREE) | {"assoc"} | {x for pair in ASSOC_LABELS.values() for x in pair}
    for slots in (_EXT_SLOTS, _CROSSED_SLOTS, _MATCHED_SLOTS):
        labels |= {x for a1, a2 in slots.values() for x in a1 + a2 if x}
    for slots in (R_SLOTS, _REP1_SLOTS, _REP2_SLOTS, BIMOD_SLOTS):
        labels |= {slot[0] for slot in slots}
    assert labels == {e for e, _, _ in recorded}
