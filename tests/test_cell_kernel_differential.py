"""The checks on sparse cells against the dense row kernels they replaced.

Every check lowers its tables once to cells, ``cells[i][j]`` the nonzero
(k, c) of e_i o e_j, and evaluates each term with one accumulate kernel.
The frozen kernels of ``frozen_dense_kernels`` (``lmul``, ``rmul``,
``lowered``, ``operators``, ``add_contraction``) are run here on the same
inputs: A1/A2 through the frozen ``check_triples``, R, S, C and M through the
live walk drivers with the frozen ``lowered_walk`` and spells put in place of
the live ones, and CD and the YE6 residual through their frozen callers.

The draws hold ``Fraction(0)`` zeros (from a dense basis change), int 0,
denominators, and over GF(3) and GF(5) ``GFElement`` zeros and plain ints
that are multiples of p; most of them fail.  In both modes the reports must
be equal by ``==`` and by ``repr`` (so a kept violation's values carry the
same types), and residual tensors by ``repr``.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction as Q
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import adw.crossed
import adw.matched
import adw.reps
import adw.unified
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, change_basis, check_anti_dendriform
from adw.bialgebra import adybe_residual, check_coboundary_conditions, is_ybe_solution
from adw.crossed import CrossedDatum, check_crossed_system
from adw.fields import RATIONALS, PrimeField
from adw.matched import MatchedPairDatum, check_matched_pair
from adw.reps import ADRep, check_representation, regular_representation, semidirect_product
from adw.tensors import t3_is_zero
from adw.unified import ExtendingDatum, check_extending_structure

from . import frozen_dense_kernels as frozen
from .test_scaled_ints import draw_algebra, draw_tensor, rational_invertible, verified

DIFF = settings(derandomize=True, max_examples=40, deadline=None)
PRIMES = (PrimeField(3), PrimeField(5))


def same(new, old):
    assert new == old
    assert repr(new) == repr(old)


def on_rows(check, *args):
    """``check`` run with the frozen row kernels in the walk drivers."""
    with ExitStack() as stack:
        for module in (adw.reps, adw.unified, adw.crossed, adw.matched):
            stack.enter_context(mock.patch.object(module, "lowered_walk", frozen.lowered_walk))
        stack.enter_context(mock.patch.dict(adw.unified.IDENTITIES, frozen.IDENTITIES))
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
