"""The glued walks on pair verdicts against the live-triple walks they replaced.

R, S, C, M, AM and the associative bimodule axioms are read off a glued
product on A (+) V.  ``check_glued`` ticks a (type, u, v) whose identities
agree as Kronecker slabs at the pair (u, v), and ``check_columns`` a slot
whose pairs all agree; the rest is walked triple by triple.  Their frozen
predecessors (``frozen_glued_walks``) evaluate every live triple, those
where (u, v) or (v, w) holds a cell, and tick the dead ones.  Here every
check runs through its live driver twice, once with the frozen
``lowered_walk``, ``check_glued`` and ``check_columns`` patched in, and the
reports must be equal by ``==`` and by ``repr``, exhaustive and not.

Fields: Q with denominators and 30-digit numerators, GF(2), GF(3) and
GF(251).  Inputs: the regular representations of the sparse tower (nil2,
its flip, R(nil2), R(R(nil2)), and over GF(3) also e>e = e<e = e), the same
after a dense unitriangular basis change, either with a few random entries
or one entry added to a family, and the data built on them: S with random
V-actions, fold maps and products, C, M with random back actions, and the
AM pair and the bimodule their sums give.  R and S are also checked on
R(nil2) acting by four random {-1, 0, 1} families, where most pairs
break, so that each is compared as slabs and then walked.  Every
associative matched pair on 1 + 1 dimensions, and every representation of
the 1-dimensional zero algebra on a line, with entries in {-1, 0, 1} is
checked too: there the digits of the slabs reach the bound n M**2 their
width is chosen from.
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

import adw.algebra
import adw.crossed
import adw.matched
import adw.reps
import adw.unified
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, change_basis
from adw.crossed import CrossedDatum, check_crossed_system
from adw.fields import RATIONALS, PrimeField
from adw.matched import (AssocMatchedPair, MatchedPairDatum, check_assoc_matched_pair,
                         check_matched_pair)
from adw.reporting import Report
from adw.reps import (ADRep, AssocRep, check_assoc_bimodule, check_representation,
                      regular_representation, semidirect_product)
from adw.unified import BIMOD_SLOTS, ExtendingDatum, check_extending_structure

from . import frozen_glued_walks as frozen

FIELDS = (RATIONALS, PrimeField(2), PrimeField(3), PrimeField(251))
DIFF = settings(derandomize=True, max_examples=12, deadline=None)
BY_FIELD = pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
WIDE_Q = (Q(10**30 + 7, 3), Q(-(10**29 + 11), 14), Q(1, 2), Q(-2, 3), Q(5), -1, 2)


def on_frozen_walks(check, *args):
    """``check`` with the frozen live-triple walks in its driver."""
    with ExitStack() as stack:
        for module in (adw.reps, adw.unified, adw.crossed, adw.matched):
            for name in ("lowered_walk", "check_glued", "check_columns"):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, getattr(frozen, name)))
        return check(*args)


def same_in_both_modes(check, datum):
    """The live and the frozen reports, exhaustive and not, are equal by
    ``==`` and by ``repr``; returns the verdict."""
    for exhaustive in (False, True):
        new, old = check(datum, exhaustive), on_frozen_walks(check, datum, exhaustive)
        assert new == old
        assert repr(new) == repr(old)
    return new.passed


# ---------------------------------------------------------------------------
# the draws

def scalar(data, field):
    """A nonzero scalar as the field's data hold it: over Q wide numerators
    and denominators, over GF(p) ints (p among them, zero in the field) and
    field elements."""
    if field is RATIONALS:
        return data.draw(st.sampled_from(WIDE_Q))
    p = field.p
    return data.draw(st.sampled_from((1, -1, 2, p, field.coerce(1), field.coerce(p - 1))))


@cache
def bases(field):
    """Verified algebras of the sparse tower over ``field``."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ, field)
    rnil = semidirect_product(regular_representation(nil))
    out = [ADAlgebra.zero(1, field), nil, flip, rnil]
    if field == PrimeField(3):
        out.append(ADAlgebra.make(1, [(0, 0, 0, field.one)], [(0, 0, 0, field.one)],
                                  field=field))
    return tuple(out) + (semidirect_product(regular_representation(rnil)),)


def unitriangular(data, field, n):
    """An upper unitriangular matrix with few zeros above the diagonal."""
    entry = (st.sampled_from((Q(1), Q(-3, 2), Q(10**30 + 1, 7), Q(0))) if field is RATIONALS
             else st.integers(0, field.p - 1).map(field.coerce))
    return tuple(tuple(field.one if r == c else data.draw(entry) if r < c else field.zero
                       for c in range(n)) for r in range(n))


def base(data, field):
    """A tower algebra, as it is or after a dense basis change; R(R(nil2)),
    the last, is drawn less often."""
    alg = data.draw(st.sampled_from(bases(field)[:-1] if data.draw(st.booleans())
                                    else bases(field)))
    if data.draw(st.booleans()):
        alg = change_basis(alg, unitriangular(data, field, alg.dim))
    return alg


def entries(data, field, dims, least=0, most=2):
    """``least`` to ``most`` random (index..., scalar) entries."""
    return [tuple(data.draw(st.integers(0, d - 1)) for d in dims) + (scalar(data, field),)
            for _ in range(data.draw(st.integers(least, most)))]


def family(data, field, alg_dim, mod_dim, least=0, most=2):
    return ActionFamily.from_entries(alg_dim, mod_dim, entries(
        data, field, (alg_dim, mod_dim, mod_dim), least, most))


def fold(data, field, dim, out_dim):
    return BilinearOp.from_entries(dim, entries(data, field, (dim, dim, out_dim)), out_dim)


def representation(data, field):
    """The regular representation of a ``base``, as it is, with a few random
    entries added to one family, or with one entry added."""
    alg = base(data, field)
    n = alg.dim
    rr = regular_representation(alg)
    fams = [rr.lsucc, rr.rsucc, rr.lprec, rr.rprec]
    most = data.draw(st.sampled_from((0, 1, 3)))
    k = data.draw(st.integers(0, 3))
    fams[k] = fams[k].add(family(data, field, n, n, min(most, 1), most))
    return ADRep(alg, n, *fams)


def systems(data, field):
    """(check, datum) of R, the bimodule of (l., r.), S, C, M and AM on one
    drawn representation."""
    rep = representation(data, field)
    alg, n = rep.algebra, rep.algebra.dim
    ls, rs, lp, rp = rep.families()
    ext = replace(ExtendingDatum.from_representation(rep),
                  rho_succ=family(data, field, n, n), mu_prec=family(data, field, n, n),
                  varpi1=fold(data, field, n, n), succ_v=fold(data, field, n, n))
    crossed = CrossedDatum(alg, alg, *rep.families(), fold(data, field, n, n),
                           fold(data, field, n, n))
    back = [family(data, field, n, n) for _ in range(4)]
    matched = MatchedPairDatum(alg, alg, *rep.families(), *back)
    pair = AssocMatchedPair(alg.assoc, alg.assoc, ls.add(lp), rs.add(rp),
                            back[0].add(back[2]), back[1].add(back[3]), field)
    return (("R", check_representation, rep),
            ("bimodule", check_assoc_bimodule,
             AssocRep(alg.assoc, n, ls.add(lp), rs.add(rp), "(l., r.)", field)),
            ("S", check_extending_structure, ext), ("C", check_crossed_system, crossed),
            ("M", check_matched_pair, matched), ("AM", check_assoc_matched_pair, pair))


# ---------------------------------------------------------------------------
# the oracle

@BY_FIELD
@DIFF
@given(data=st.data())
def test_glued_checks_match_the_live_triple_walks(field, data):
    for _, check, datum in systems(data, field):
        same_in_both_modes(check, datum)


def test_draws_meet_both_verdicts():
    """Every system passes and fails among the draws above, in every field."""
    seen = set()
    for field in FIELDS:
        @DIFF
        @given(st.data())
        def note(data):
            for name, check, datum in systems(data, field):
                seen.add((name, field.name, check(datum).passed))

        note()
    names = ("R", "bimodule", "S", "C", "M", "AM")
    assert {(name, field.name, verdict) for name in names for field in FIELDS
            for verdict in (True, False)} <= seen, seen


# ---------------------------------------------------------------------------
# data where most pairs break

def random_family(data, n):
    """An action family on n dimensions whose every entry is drawn from
    {-1, 0, 1}, as a plain int."""
    flat = iter(data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n ** 3,
                                   max_size=n ** 3)))
    return ActionFamily(n, n, tuple(tuple(tuple(next(flat) for _ in range(n)) for _ in range(n))
                                    for _ in range(n)))


def random_rep(data, field):
    """R(nil2) acting on a 4-dimensional space by four random families
    (``random_family``): the random-8 datum of ``BENCH_20.json`` at 4."""
    return ADRep(bases(field)[3], 4, *(random_family(data, 4) for _ in range(4)))


def mostly_broken(data, field):
    """(check, datum) of R on a ``random_rep`` and of S on its extending
    datum with random rho> and mu< too."""
    rep = random_rep(data, field)
    ext = replace(ExtendingDatum.from_representation(rep), rho_succ=random_family(data, 4),
                  mu_prec=random_family(data, 4))
    return (("R", check_representation, rep), ("S", check_extending_structure, ext))


@BY_FIELD
@DIFF
@given(data=st.data())
def test_mostly_broken_data_match_the_live_triple_walks(field, data):
    for _, check, datum in mostly_broken(data, field):
        same_in_both_modes(check, datum)


def pair_tests(check, datum):
    """The outcome of every pair test of ``walk_pairs`` in ``check(datum)``:
    per pair (u, v) of a triple type, whether the row tests of every
    identity of the type (``Walk.rows``) found it holding."""
    seen = []

    def walk_pairs(walk, checks, ru, rv, rw, tag):
        adw.algebra.walk_pairs(walk, checks, ru, rv, rw, tag)
        if rw:
            rows = [walk.rows(identity, rw, rv) for identity, _ in checks]
            seen.extend(not any(v in row[u] for row in rows) for u in ru for v in rv)

    with mock.patch.object(adw.unified, "walk_pairs", walk_pairs):
        check(datum)
    return seen


def test_mostly_broken_draws_break_most_pairs():
    """In every field, S on some draw above breaks more than half of the
    pairs its walk tests, and R fails on every draw."""
    for field in FIELDS:
        shares = []

        @DIFF
        @given(st.data())
        def note(data):
            (_, check_r, rep), (_, check_s, ext) = mostly_broken(data, field)
            assert not check_r(rep).passed
            tests = pair_tests(check_s, ext)
            shares.append(tests.count(False) / len(tests))

        note()
        assert max(shares) > 0.5, (field.name, shares)


def line_families(entries):
    return ActionFamily(1, 1, (((entries,),),))


def walked_reports(walks, table, exhaustive):
    """The reports of ``check_glued`` on every triple type and of
    ``check_columns`` on the bimodule slots, from ``walks`` (a module with
    ``lowered_walk``, ``check_glued`` and ``check_columns``), on one
    product table glued from 1 + 1 dimensions."""
    out = []
    for run in (lambda walk: walks.check_glued(walk, 1, 1, ONE_PRODUCT_LABELS),
                lambda walk: walks.check_columns(walk, 1, 1, BIMOD_SLOTS)):
        walk = walks.lowered_walk(Report("glued", exhaustive=exhaustive), table)
        run(walk)
        out.append(walk.part)
    return out


ONE_PRODUCT_LABELS = {t: tuple("".join(t) + "-" + c for c in "AV")
                      for t in product("AV", repeat=3)}


def test_every_small_datum_at_the_digit_bound():
    """With entries in {-1, 0, 1} on 1 + 1 dimensions the digits of a slab of
    one product reach the bound n M**2 = 2 of their width: every such table
    is walked on every triple type and on the bimodule slots, and every
    associative matched pair and every representation of the zero algebra
    on a line is checked through its driver, against the frozen walks in
    both modes."""
    verdicts = set()
    for entries in product((-1, 0, 1), repeat=8):
        flat = iter(entries)
        table = tuple(tuple(tuple(next(flat) for _ in range(2)) for _ in range(2))
                      for _ in range(2))
        for exhaustive in (False, True):
            new = walked_reports(adw.unified, table, exhaustive)
            old = walked_reports(frozen, table, exhaustive)
            assert new == old and repr(new) == repr(old)
        verdicts.add(("walks", all(part.passed for part in new)))
    zero = ADAlgebra.zero(1)
    for entries in product((-1, 0, 1), repeat=6):
        op1, op2 = (BilinearOp(1, (((c,),),)) for c in entries[:2])
        pair = AssocMatchedPair(op1, op2, *map(line_families, entries[2:]))
        verdicts.add(("AM", same_in_both_modes(check_assoc_matched_pair, pair)))
    for entries in product((-1, 0, 1), repeat=4):
        rep = ADRep(zero, 1, *map(line_families, entries))
        verdicts.add(("R", same_in_both_modes(check_representation, rep)))
    assert verdicts == {(name, v) for name in ("walks", "AM", "R") for v in (True, False)}


def test_walks_hold_with_the_library_functions_wrapped():
    """The benchmark's tracer replaces every public function of the library
    modules with a wrapper; the walks then tell the identities apart by
    label, not by the functions they hold, and give the same reports."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, 1)])
    rep = regular_representation(semidirect_product(regular_representation(nil)))
    data = ((check_representation, rep),
            (check_extending_structure, ExtendingDatum.from_representation(rep)))
    want = [check(datum) for check, datum in data]
    with ExitStack() as stack:
        for name, fn in vars(adw.algebra).copy().items():
            if callable(fn) and getattr(fn, "__module__", None) == "adw.algebra" \
                    and not name.startswith("_") and not isinstance(fn, type):
                stack.enter_context(mock.patch.object(
                    adw.algebra, name, lambda *a, fn=fn, **k: fn(*a, **k)))
        assert [check(datum) for check, datum in data] == want
