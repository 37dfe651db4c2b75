"""Glued tables and the labelled checker against the frozen callback engine.

Random unified, crossed, matched and associative-matched data with both
summands of dimension 1..3, over Q and GF(5): every report (in both
exhaustive modes) and every glued product table must equal what the frozen
engine in ``frozen_split_engine`` produces.
"""

from fractions import Fraction as Q
from functools import partial

from hypothesis import given, settings, strategies as st

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, direct_sum
from adw.crossed import CrossedDatum, check_crossed_system, crossed_product
from adw.fields import RATIONALS, PrimeField
from adw.matched import (AssocMatchedPair, MatchedPairDatum, assoc_bicrossed_product,
                         bicrossed_product, check_assoc_matched_pair, check_matched_pair)
from adw.reps import regular_representation
from adw.unified import ExtendingDatum, check_extending_structure, unified_product

from . import frozen_split_engine as frozen

GF5 = PrimeField(5)
FIELDS = (RATIONALS, GF5)
COEFFS = {
    RATIONALS: (Q(1), Q(-1), Q(2), Q(1, 2)),
    GF5: tuple(GF5.coerce(k) for k in (1, 2, 3, 4)),
}
DIFF = settings(derandomize=True, max_examples=30, deadline=None)


def zoo(field):
    """Verified algebras of dimensions 1..3."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    return (ADAlgebra.zero(1, field), ADAlgebra.zero(2, field), ADAlgebra.zero(3, field),
            nil, ADAlgebra(2, nil.basis, nil.prec, nil.succ, field),
            direct_sum(nil, ADAlgebra.zero(1, field)))


ZOO = {field: zoo(field) for field in FIELDS}


def sparse(draw, field, *dims):
    """A few random (index..., coefficient) entries; most entries stay zero."""
    entry = st.tuples(*(st.integers(0, d - 1) for d in dims), st.sampled_from(COEFFS[field]))
    return draw(st.lists(entry, max_size=3))


def family(draw, field, alg_dim, mod_dim):
    return ActionFamily.from_entries(alg_dim, mod_dim,
                                     sparse(draw, field, alg_dim, mod_dim, mod_dim))


def a_on_v(draw, field, base, nv):
    """Four A-on-V families: the regular representation (when nv fits) or random."""
    if nv == base.dim and draw(st.booleans()):
        rr = regular_representation(base)
        return [rr.lsucc, rr.rsucc, rr.lprec, rr.rprec]
    return [family(draw, field, base.dim, nv) for _ in range(4)]


@st.composite
def extending_data(draw):
    field = draw(st.sampled_from(FIELDS))
    base = draw(st.sampled_from(ZOO[field]))
    na, nv = base.dim, draw(st.integers(1, 3))
    return ExtendingDatum(
        base, nv, *a_on_v(draw, field, base, nv),
        *(family(draw, field, nv, na) for _ in range(4)),
        *(BilinearOp.from_entries(nv, sparse(draw, field, nv, nv, na), na)
          for _ in range(2)),
        *(BilinearOp.from_entries(nv, sparse(draw, field, nv, nv, nv)) for _ in range(2)))


@st.composite
def crossed_data(draw):
    field = draw(st.sampled_from(FIELDS))
    base = draw(st.sampled_from(ZOO[field]))
    na, nv = base.dim, draw(st.integers(1, 3))
    fibre = ADAlgebra.make(nv, sparse(draw, field, nv, nv, nv),
                           sparse(draw, field, nv, nv, nv), field=field)
    return CrossedDatum(base, fibre, *a_on_v(draw, field, base, nv),
                        *(BilinearOp.from_entries(na, sparse(draw, field, na, na, nv), nv)
                          for _ in range(2)))


def _factor_pair(draw):
    field = draw(st.sampled_from(FIELDS))
    alg1, alg2 = draw(st.sampled_from(ZOO[field])), draw(st.sampled_from(ZOO[field]))
    return field, alg1, alg2


@st.composite
def matched_data(draw):
    field, alg1, alg2 = _factor_pair(draw)
    n, m = alg1.dim, alg2.dim
    return MatchedPairDatum(alg1, alg2, *a_on_v(draw, field, alg1, m),
                            *a_on_v(draw, field, alg2, n))


@st.composite
def assoc_matched_data(draw):
    field, alg1, alg2 = _factor_pair(draw)
    n, m = alg1.dim, alg2.dim
    return AssocMatchedPair(alg1.assoc, alg2.assoc,
                            family(draw, field, n, m), family(draw, field, n, m),
                            family(draw, field, m, n), family(draw, field, m, n))


def outcome(rep):
    return rep.name, rep.checked, rep.violation_count, rep.violations


def assert_same_reports(new, old, datum):
    for exhaustive in (False, True):
        assert outcome(new(datum, exhaustive)) == outcome(old(datum, exhaustive))


@DIFF
@given(extending_data())
def test_unified_matches_frozen_engine(d):
    assert_same_reports(check_extending_structure, frozen.check_extending_structure, d)
    na, nv = d.algebra.dim, d.vdim
    built = unified_product(d, precheck=False)
    assert built.succ.table == frozen.assemble(na, nv, partial(frozen.ext_succ, d))
    assert built.prec.table == frozen.assemble(na, nv, partial(frozen.ext_prec, d))


@DIFF
@given(crossed_data())
def test_crossed_matches_frozen_engine(d):
    assert_same_reports(check_crossed_system, frozen.check_crossed_system, d)
    na, nv = d.algebra.dim, d.vdim
    built = crossed_product(d, precheck=False)
    assert built.succ.table == frozen.assemble(na, nv, partial(frozen.crossed_succ, d))
    assert built.prec.table == frozen.assemble(na, nv, partial(frozen.crossed_prec, d))


@DIFF
@given(matched_data())
def test_matched_matches_frozen_engine(d):
    assert_same_reports(check_matched_pair, frozen.check_matched_pair, d)
    n, m = d.alg1.dim, d.alg2.dim
    built = bicrossed_product(d, precheck=False)
    assert built.succ.table == frozen.assemble(n, m, partial(frozen.matched_succ, d))
    assert built.prec.table == frozen.assemble(n, m, partial(frozen.matched_prec, d))


@DIFF
@given(assoc_matched_data())
def test_assoc_matched_matches_frozen_engine(p):
    assert_same_reports(check_assoc_matched_pair, frozen.check_assoc_matched_pair, p)
    n, m = p.op1.dim, p.op2.dim
    assert assoc_bicrossed_product(p).table == frozen.assemble(
        n, m, partial(frozen.assoc_mul, p))
