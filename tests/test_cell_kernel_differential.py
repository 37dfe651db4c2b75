"""The checks on sparse cells against the dense row kernels they replaced.

Every check lowers its tables once to cells, ``cells[i][j]`` the nonzero
(k, c) of e_i o e_j, and evaluates each term with one accumulate kernel.
The frozen kernels of ``frozen_dense_kernels`` (``lmul``, ``rmul``,
``lowered``, ``operators``, ``add_contraction``) are run here on the same
inputs: A1/A2 through the frozen ``check_triples``, R, S, C and M through the
live check drivers with the frozen ``lowered_walk`` and spells put in place
of the live ones, walked by the frozen live-triple walks of
``frozen_glued_walks``, and CD and the YE6 residual through their frozen
callers.

The draws hold ``Fraction(0)`` zeros (from a dense basis change), int 0,
denominators, and over GF(3) and GF(5) ``GFElement`` zeros and plain ints
that are multiples of p; most of them fail.  In both modes the reports must
be equal by ``==`` and by ``repr`` (so a kept violation's values carry the
same types), and residual tensors by ``repr``.

A1/A2 and associativity compare whole basis pairs as Kronecker-packed slabs,
whose digit width is chosen from the largest lowered entry; their draws go
wider: over Q entries with numerators of up to 31 digits, negative values
and mixed denominators, over GF(2), GF(3) and GF(251) residues, field
elements and multiples of p, dense dimensions 5-9 and the dimensions 0 and
1, passing tables after a dense basis change, the same with one entry
changed, and random tables.  Every 2-dimensional table with entries in
{-1, 0, 1} is checked for associativity too: there the digits reach the
bound n M**2 the width is chosen from, so a width one bit short passes some
of their violations.  On the passing draws every pair must agree as slabs,
since a slab that is wrong only where its chain holds would change no
report.  The split extensions of R(nil2) by four random {-1, 0, 1}
families are drawn too: there most pairs break, each is compared as slabs
and then walked.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction as Q
from functools import cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adw.crossed
import adw.matched
import adw.reps
import adw.unified
from adw.actions import ActionFamily
from adw.algebra import (ADAlgebra, BilinearOp, change_basis, check_anti_dendriform,
                         check_associative, direct_sum)
from adw.bialgebra import adybe_residual, check_coboundary_conditions, is_ybe_solution
from adw.crossed import CrossedDatum, check_crossed_system
from adw.fields import RATIONALS, PrimeField
from adw.matched import MatchedPairDatum, check_matched_pair
from adw.reporting import Report
from adw.reps import ADRep, check_representation, regular_representation, semidirect_product
from adw.tensors import t3_is_zero
from adw.unified import ExtendingDatum, check_extending_structure

from . import frozen_dense_kernels as frozen
from . import frozen_glued_walks as frozen_glued
from .test_glued_pairs_differential import random_rep
from .test_scaled_ints import draw_algebra, draw_tensor, rational_invertible, verified

DIFF = settings(derandomize=True, max_examples=40, deadline=None)
PRIMES = (PrimeField(3), PrimeField(5))


def same(new, old):
    assert new == old
    assert repr(new) == repr(old)


def on_rows(check, *args):
    """``check`` run with the frozen row kernels in the walk drivers, walked by
    the frozen live-triple walks (the pair-verdict walks read packed cells,
    which the dense rows do not have)."""
    with ExitStack() as stack:
        for module in (adw.reps, adw.unified, adw.crossed, adw.matched):
            stack.enter_context(mock.patch.object(module, "lowered_walk", frozen.lowered_walk))
            for name in ("check_glued", "check_columns"):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name,
                                                          getattr(frozen_glued, name)))
        stack.enter_context(mock.patch.dict(frozen_glued.IDENTITIES, frozen.IDENTITIES))
        return check(*args)


def both_modes(check, frozen_check, *args):
    for exhaustive in (False, True):
        same(check(*args, exhaustive), frozen_check(*args, exhaustive))


# ---------------------------------------------------------------------------
# the draws

def gf_scalar(data, field):
    """int 0, a field zero, a multiple of p, a small int or a field element."""
    p = field.p
    return data.draw(st.sampled_from((0, 0, 0, 0, field.zero, field.zero, p, -2 * p, 1, -1, 2,
                                      field.coerce(1), field.coerce(p - 1))))


def gf_random(data, field):
    """Random GF(p) tables of dim 1-4."""
    n = data.draw(st.integers(1, 4))
    succ, prec = (BilinearOp(n, tuple(tuple(tuple(gf_scalar(data, field) for _ in range(n))
                                            for _ in range(n)) for _ in range(n)))
                  for _ in range(2))
    return ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec, field)


def gf_changed(data, field):
    """nil2 or R(nil2) over GF(p) after a unitriangular basis change."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    alg = data.draw(st.sampled_from((nil, semidirect_product(regular_representation(nil)))))
    n, one = alg.dim, field.one
    pmat = tuple(tuple(one if r == c else field.coerce(data.draw(st.integers(0, field.p - 1)))
                       if r < c else field.zero for c in range(n)) for r in range(n))
    return change_basis(alg, pmat)


def any_algebra(data):
    field = data.draw(st.sampled_from((RATIONALS,) + PRIMES))
    if field is RATIONALS:
        return draw_algebra(data)
    return data.draw(st.sampled_from((gf_random, gf_changed)))(data, field)


def verified_algebra(data):
    """A verified algebra whose tables are dense: over Q after a rational
    basis change (so with ``Fraction(0)`` zeros), over GF(p) after a
    unitriangular one."""
    field = data.draw(st.sampled_from((RATIONALS,) + PRIMES))
    if field is RATIONALS:
        alg = data.draw(st.sampled_from(verified()))
        return change_basis(alg, rational_invertible(data, alg.dim))
    return gf_changed(data, field)


def family(data, field, alg_dim, mod_dim):
    """A sparse family (from entries) with a few entries, or the zero one."""
    coeffs = ((Q(1, 2), Q(-2, 3), 1, Q(0)) if field is RATIONALS
              else (1, -1, field.p, field.coerce(2), field.zero))
    entry = st.tuples(st.integers(0, alg_dim - 1), st.integers(0, mod_dim - 1),
                      st.integers(0, mod_dim - 1), st.sampled_from(coeffs))
    return ActionFamily.from_entries(alg_dim, mod_dim, data.draw(st.lists(entry, max_size=2)))


def fold(data, field, dim, out_dim):
    coeffs = (Q(1, 3), -1) if field is RATIONALS else (1, field.p, field.coerce(2))
    entry = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                      st.integers(0, out_dim - 1), st.sampled_from(coeffs))
    return BilinearOp.from_entries(dim, data.draw(st.lists(entry, max_size=2)), out_dim)


def representation(data):
    """The regular representation of a dense verified algebra, often with one
    family changed, so that R breaks."""
    alg = verified_algebra(data)
    rr = regular_representation(alg)
    fams = [rr.lsucc, rr.rsucc, rr.lprec, rr.rprec]
    k = data.draw(st.integers(0, 4))
    if k < 4:
        fams[k] = fams[k].add(family(data, alg.field, alg.dim, alg.dim))
    return ADRep(alg, alg.dim, *fams)


# ---------------------------------------------------------------------------
# the oracle

@DIFF
@given(st.data())
def test_anti_dendriform_matches_the_row_kernels(data):
    alg = any_algebra(data)
    both_modes(check_anti_dendriform, frozen.check_anti_dendriform_on_rows, alg)


@DIFF
@given(st.data())
def test_representation_matches_the_row_kernels(data):
    rep = representation(data)
    for exhaustive in (False, True):
        same(check_representation(rep, exhaustive), on_rows(check_representation, rep, exhaustive))


@DIFF
@given(st.data())
def test_extending_crossed_and_matched_match_the_row_kernels(data):
    rep = representation(data)
    alg, field, n = rep.algebra, rep.algebra.field, rep.algebra.dim
    ext = replace(ExtendingDatum.from_representation(rep),
                  rho_succ=family(data, field, n, n), mu_prec=family(data, field, n, n),
                  varpi1=fold(data, field, n, n), succ_v=fold(data, field, n, n))
    crossed = CrossedDatum(alg, alg, *rep.families(), fold(data, field, n, n),
                           fold(data, field, n, n))
    matched = MatchedPairDatum(alg, alg, *rep.families(),
                               *(family(data, field, n, n) for _ in range(4)))
    for check, datum in ((check_extending_structure, ext), (check_crossed_system, crossed),
                         (check_matched_pair, matched)):
        for exhaustive in (False, True):
            same(check(datum, exhaustive), on_rows(check, datum, exhaustive))


def tensor(data, field, n):
    if field is RATIONALS:
        return draw_tensor(data, (n, n))
    return tuple(tuple(gf_scalar(data, field) for _ in range(n)) for _ in range(n))


@DIFF
@given(st.data())
def test_coboundary_and_residual_match_the_row_kernels(data):
    alg = (verified_algebra if data.draw(st.booleans()) else any_algebra)(data)
    n, field = alg.dim, alg.field
    rs, rp = tensor(data, field, n), tensor(data, field, n)
    both_modes(lambda *a: check_coboundary_conditions(alg, *a),
               lambda *a: frozen.check_coboundary_conditions_on_rows(alg, *a), rs, rp)
    residual = frozen.adybe_residual_on_rows(alg, rs)
    assert repr(adybe_residual(alg, rs)) == repr(residual)
    assert is_ybe_solution(alg, rs) == t3_is_zero(field.residues(residual))


def zero_kind(x, field):
    if type(x) is Q and not x:
        return "Fraction(0)"
    if type(x) not in (Q, int) and not x:
        return "GF zero"
    if type(x) is int and x and field != RATIONALS and not x % field.p:
        return "multiple of p"
    return None


def test_draws_meet_both_verdicts_and_every_zero():
    """The draws above include passing and failing A1/A2, R and CD, tables
    with ``Fraction(0)``, ``GFElement`` zeros and multiples of p."""
    seen = set()

    @DIFF
    @given(st.data())
    def note(data):
        alg = any_algebra(data)
        seen.add(("A", check_anti_dendriform(alg).passed))
        rep = representation(data)
        seen.add(("R", check_representation(rep).passed))
        r = tensor(data, alg.field, alg.dim)
        seen.add(("CD", check_coboundary_conditions(alg, r, r).passed))
        for a in (alg, rep.algebra):
            for x in (x for op in (a.succ, a.prec) for row in op.table for v in row for x in v):
                seen.add(zero_kind(x, a.field))

    note()
    assert {(s, v) for s in ("A", "R", "CD") for v in (True, False)} <= seen
    assert {"Fraction(0)", "GF zero", "multiple of p"} <= seen


# ---------------------------------------------------------------------------
# A1/A2 and associativity on slabs: wide entries, GF(2) and GF(251), dense
# dimensions 5-9, dimensions 0 and 1

WIDE_FIELDS = (RATIONALS, PrimeField(2), PrimeField(3), PrimeField(251))
WIDE_DIMS = (0, 1, 5, 6, 7, 8, 9)
WIDE_Q = (Q(10**30 + 7), Q(-(2**61 - 1)), Q(10**18 + 9, 7), Q(-5, 12), Q(7, 3),
          Q(-(10**12), 11), -1, 2, -3)


def wide_scalar(data, field):
    if field is RATIONALS:
        return data.draw(st.sampled_from((0, Q(0)) * 3 + WIDE_Q))
    p = field.p
    return data.draw(st.sampled_from((0, field.zero, p, -p, -1, p - 1, field.coerce(p - 1),
                                      field.coerce(p // 2), field.coerce(1))))


def wide_random(data, field, n):
    succ, prec = (BilinearOp(n, tuple(tuple(tuple(wide_scalar(data, field) for _ in range(n))
                                            for _ in range(n)) for _ in range(n)))
                  for _ in range(2))
    return ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec, field)


@cache
def verified_of_dim(field, n):
    """A verified algebra of dimension n over ``field``: R(R(nil2)), R(nil2),
    nil2 and the zero algebra of dimension 1, summed, whose products of three
    vectors all vanish; over GF(3) n copies of e>e = e<e = e instead, whose
    A1/A2 terms are all e (as -2 = 1 mod 3), so its chains hold with nonzero
    values."""
    if field == PrimeField(3):
        one = ADAlgebra.make(1, [(0, 0, 0, field.one)], [(0, 0, 0, field.one)], field=field)
        alg = ADAlgebra.zero(0, field)
        for _ in range(n):
            alg = direct_sum(alg, one)
        return alg
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    rnil = semidirect_product(regular_representation(nil))
    parts = {0: [], 1: [1], 5: [rnil, 1], 6: [rnil, nil], 7: [rnil, nil, 1],
             8: [semidirect_product(regular_representation(rnil))]}
    parts[9] = parts[8] + [1]
    alg = ADAlgebra.zero(0, field)
    for part in parts[n]:
        alg = direct_sum(alg, ADAlgebra.zero(1, field) if part == 1 else part)
    return alg


def dense_change(data, field, n):
    """An invertible matrix with few zeros: over Q a unitriangular one with
    wide entries times a diagonal one, over GF(p) an upper times a lower
    unitriangular one with random entries."""
    if field is RATIONALS:
        entry = st.sampled_from((Q(1), Q(-3, 2), Q(10**9 + 7, 5), Q(-(10**6), 7), Q(0)))
        diag = [data.draw(st.sampled_from((Q(1), Q(-1), Q(2, 3), Q(-(10**5), 3))))
                for _ in range(n)]
        return tuple(tuple(diag[c] * (Q(1) if r == c else data.draw(entry) if r < c else Q(0))
                           for c in range(n)) for r in range(n))
    coeff = st.integers(0, field.p - 1)
    upper = [[1 if r == c else data.draw(coeff) if r < c else 0 for c in range(n)]
             for r in range(n)]
    lower = [[1 if r == c else data.draw(coeff) if r > c else 0 for c in range(n)]
             for r in range(n)]
    return tuple(tuple(field.coerce(sum(upper[r][k] * lower[k][c] for k in range(n)))
                       for c in range(n)) for r in range(n))


def wide_algebra(data, field, n):
    """Random tables, or a verified algebra after a dense basis change,
    possibly with one entry changed."""
    kind = data.draw(st.sampled_from(("random", "verified", "changed")))
    if kind == "random" or n == 0:
        return wide_random(data, field, n)
    alg = change_basis(verified_of_dim(field, n), dense_change(data, field, n))
    if kind == "changed":
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        c = (data.draw(st.sampled_from(WIDE_Q)) if field is RATIONALS
             else field.coerce(data.draw(st.integers(1, field.p - 1))))
        alg = ADAlgebra(n, alg.basis, alg.succ.add(BilinearOp.from_entries(n, [(i, j, k, c)])),
                        alg.prec, field)
    return alg


def frozen_associative(op, exhaustive, field):
    """``check_associative`` on the frozen triple walk."""
    return frozen.check_triples(Report("associativity", exhaustive=exhaustive, field=field),
                                op.dim, (("assoc", frozen.assoc_pair, ("(x.y).z", "x.(y.z)")),),
                                op.table)


WIDE = settings(derandomize=True, max_examples=5, deadline=None)
FIELDS_AND_DIMS = pytest.mark.parametrize("field, n", list(product(WIDE_FIELDS, WIDE_DIMS)),
                                          ids=lambda x: getattr(x, "name", str(x)))


@FIELDS_AND_DIMS
@WIDE
@given(data=st.data())
def test_pair_checks_match_the_frozen_triple_walk(field, n, data):
    alg = wide_algebra(data, field, n)
    both_modes(check_anti_dendriform, frozen.check_anti_dendriform_on_rows, alg)
    for op in (alg.assoc, alg.succ):
        for exhaustive in (False, True):
            same(check_associative(op, exhaustive, field),
                 frozen_associative(op, exhaustive, field))


@pytest.mark.parametrize("field, n", list(product(WIDE_FIELDS, WIDE_DIMS[1:])),
                         ids=lambda x: getattr(x, "name", str(x)))
@WIDE
@given(data=st.data())
def test_passing_pairs_agree_as_slabs(field, n, data):
    """On a verified algebra after a dense basis change every pair agrees as
    slabs, so no triple reaches ``require_chain``.  A slab spell that is
    wrong only where its chain holds would change no report, only send
    pairs to the triple walk."""
    alg = change_basis(verified_of_dim(field, n), dense_change(data, field, n))
    walked = []

    def chain(self, equation, witness, terms, values):
        walked.append((equation, witness))
        return original(self, equation, witness, terms, values)

    original = Report.require_chain
    with mock.patch.object(Report, "require_chain", chain):
        assert check_anti_dendriform(alg).passed
        assert check_associative(alg.assoc, field=field).passed
    assert walked == []


BROKEN = settings(derandomize=True, max_examples=12, deadline=None)


def broken_share(alg):
    """The share of basis pairs (i, j) at which A1 or A2 breaks."""
    return len({v.witness[:2] for v in check_anti_dendriform(alg, True).violations}) / alg.dim ** 2


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=lambda f: f.name)
@BROKEN
@given(data=st.data())
def test_mostly_broken_pairs_match_the_frozen_triple_walk(field, data):
    """A1/A2 and associativity on the split extension of a ``random_rep``
    (dimension 8), where most pairs break."""
    alg = semidirect_product(random_rep(data, field), precheck=False)
    both_modes(check_anti_dendriform, frozen.check_anti_dendriform_on_rows, alg)
    for op in (alg.assoc, alg.succ):
        for exhaustive in (False, True):
            same(check_associative(op, exhaustive, field),
                 frozen_associative(op, exhaustive, field))


def test_mostly_broken_draws_break_most_pairs():
    """In every field some draw above breaks A1/A2 at more than half of its
    basis pairs."""
    for field in WIDE_FIELDS:
        shares = []

        @BROKEN
        @given(st.data())
        def note(data):
            shares.append(broken_share(semidirect_product(random_rep(data, field),
                                                          precheck=False)))

        note()
        assert max(shares) > 0.5, (field.name, shares)


def test_wide_draws_meet_both_verdicts_in_every_field():
    """The draws above pass and fail A1/A2 and associativity in every field."""
    seen = set()
    for field, n in product(WIDE_FIELDS, WIDE_DIMS):
        @WIDE
        @given(st.data())
        def note(data):
            alg = wide_algebra(data, field, n)
            seen.add(("A", field, check_anti_dendriform(alg).passed))
            seen.add(("assoc", field, check_associative(alg.succ, field=field).passed))

        note()
    assert {(what, field, verdict) for what in ("A", "assoc") for field in WIDE_FIELDS
            for verdict in (True, False)} <= seen


def test_associativity_at_the_digit_bound():
    """Every 2-dimensional table with entries in {-1, 0, 1}: the digits of
    its slabs reach n M**2 = 2, the bound of the digit width."""
    for entries in product((-1, 0, 1), repeat=8):
        flat = iter(entries)
        op = BilinearOp(2, tuple(tuple(tuple(next(flat) for _ in range(2)) for _ in range(2))
                                 for _ in range(2)))
        for exhaustive in (False, True):
            same(check_associative(op, exhaustive), frozen_associative(op, exhaustive, RATIONALS))
