"""Row tests and digit counts against the triple walks they replaced.

``walk_pairs`` and ``check_columns`` test each row u over every pair
(u, v) at once, as maps of Kronecker-packed slabs, and at a broken pair
read the broken checks off the digits of the slab differences: they spell
a broken check only where the report keeps its violation, and tick and
count every other one.  Here ``check_triples`` (A1/A2 and associativity)
runs against the frozen triple walk of ``frozen_dense_kernels``, and the
glued walks (the column slots of R and M, and the triple types of S, C, M
and of one product) against ``frozen_glued_walks``, in both modes; the
reports must be equal by ``==`` and by ``repr``: ``checked``,
``violation_count``, the violations and their order.

Fields: Q with denominators, GF(2) and GF(251).  The draws:

* tables at the digit bound: every nonzero lowered entry is +-M and
  n M**2 = 2**(b-1) - 1, the most the digit width b holds;
* a few entries on the first and the last basis vector of each summand, so
  that the breaks lie in the first and the last v and w blocks;
* dense random tables, where most pairs break.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adw.algebra
import adw.unified
from adw.algebra import ADAlgebra, BilinearOp, check_anti_dendriform, check_associative
from adw.crossed import _CROSSED_SLOTS
from adw.fields import RATIONALS, PrimeField
from adw.matched import _MATCHED_SLOTS, _REP1_SLOTS, _REP2_SLOTS
from adw.reporting import Report
from adw.unified import _EXT_SLOTS, BIMOD_SLOTS, R_SLOTS

from . import frozen_dense_kernels as frozen
from . import frozen_glued_walks as frozen_glued
from .test_glued_pairs_differential import ONE_PRODUCT_LABELS

FIELDS = (RATIONALS, PrimeField(2), PrimeField(251))
BY_FIELD = pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
DIFF = settings(derandomize=True, max_examples=30, deadline=None)
# (n, M) with n M**2 = 2**k - 1
AT_BOUND = ((3, 1), (7, 1), (7, 3))
PLENTY_Q = (Q(1, 2), Q(-1, 3), Q(3, 2), Q(-5, 6), Q(10**20 + 3, 7), 1, -2)


def same(new, old):
    assert new == old
    assert repr(new) == repr(old)


# ---------------------------------------------------------------------------
# the draws: (succ, prec or None, summand edges)

def table(n, entries):
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in entries:
        out[i][j][k] = c
    return tuple(tuple(map(tuple, row)) for row in out)


def at_bound(data, field):
    """Tables whose nonzero lowered entries are all +-M, with n M**2 at the
    bound of their digit width: over Q the entries are +-M/2, over GF(p) the
    residues 1 and M.  Over GF(251) only one product is drawn: its -dot
    would hold p - c.  Two products have disjoint supports, so that every
    entry of dot and -dot is +-M too.  One table may be full of M, where
    every digit of u o (v o w) is n M**2."""
    n, top = data.draw(st.sampled_from(AT_BOUND if field != PrimeField(2) else AT_BOUND[:2]))
    if field is RATIONALS:
        pool = (Q(top, 2), Q(-top, 2))
    else:
        pool = (field.coerce(top), 1) if top > 1 else (1,)
    one = field == PrimeField(251) or data.draw(st.booleans())
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    if data.draw(st.booleans()):
        picked = {cell: 0 for cell in cells}
        entries = [(cell, pool[0]) for cell in cells]
    else:
        picked = {cell: data.draw(st.integers(0, 2)) for cell in cells}
        entries = [(cell, data.draw(st.sampled_from(pool))) for cell in cells]
    if not any(c == pool[0] for (cell, c) in entries if picked[cell] == 0):
        entries[0], picked[cells[0]] = (cells[0], pool[0]), 0
    succ = table(n, [cell + (c,) for cell, c in entries if picked[cell] == 0])
    prec = None if one else table(n, [cell + (c,) for cell, c in entries if picked[cell] == 1])
    return succ, prec


def scalar(data, field):
    if field is RATIONALS:
        return data.draw(st.sampled_from(PLENTY_Q))
    return data.draw(st.sampled_from((1, -1, 2, field.coerce(field.p - 1))))


def on_edges(data, field, edges):
    """Two to five entries whose indices are all first or last basis vectors
    of a summand (``edges``), in either product."""
    entries = [[], []]
    for _ in range(data.draw(st.integers(2, 5))):
        cell = tuple(data.draw(st.sampled_from(edges)) for _ in range(3))
        entries[data.draw(st.integers(0, 1))].append(cell + (scalar(data, field),))
    return entries


def dense(data, field, n):
    """Tables whose entries are 0 or drawn nonzero scalars, half of them or
    more nonzero: most pairs break."""
    flat = data.draw(st.lists(st.sampled_from((0, 1, 2, 3)), min_size=2 * n ** 3,
                              max_size=2 * n ** 3))
    pool = (PLENTY_Q if field is RATIONALS else (1, -1, 2, field.coerce(field.p - 1)))
    entries = [[], []]
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    for t, (cell, x) in enumerate(zip(cells * 2, flat)):
        if x:
            entries[t // n ** 3].append(cell + (pool[(x + t) % len(pool)],))
    return entries


def algebra_draw(data, field):
    """(kind, succ, prec or None) of dimension n: at the bound, on the edges
    {0, n - 1} or dense."""
    kind = data.draw(st.sampled_from(("bound", "edges", "dense")))
    if kind == "bound":
        return (kind,) + at_bound(data, field)
    n = data.draw(st.integers(2, 5 if kind == "edges" else 4))
    entries = (on_edges(data, field, (0, n - 1)) if kind == "edges" else dense(data, field, n))
    one = data.draw(st.booleans())
    if one:
        entries[0] += entries[1]
    return kind, table(n, entries[0]), None if one else table(n, entries[1])


def split(data, n):
    """(na, nv) with both summands nonempty, or nv = 0 at times."""
    na = data.draw(st.integers(1, n))
    return na, n - na


# ---------------------------------------------------------------------------
# the checks

def triple_reports(field, succ, prec, exhaustive):
    """(live, frozen) reports of A1/A2, or of associativity of one product."""
    n = len(succ)
    if prec is None:
        op = BilinearOp(n, succ)
        return (check_associative(op, exhaustive, field),
                frozen.check_triples(Report("associativity", exhaustive=exhaustive, field=field),
                                     n, (("assoc", frozen.assoc_pair, ("(x.y).z", "x.(y.z)")),),
                                     succ))
    alg = ADAlgebra(n, tuple("e%d" % i for i in range(n)), BilinearOp(n, succ),
                    BilinearOp(n, prec), field)
    return (check_anti_dendriform(alg, exhaustive),
            frozen.check_anti_dendriform_on_rows(alg, exhaustive))


def glued_runs(walks, field, succ, prec, na, nv, exhaustive):
    """The parts of every glued walk on one pair of tables, from ``walks``
    (a module with ``lowered_walk``, ``check_glued`` and ``check_columns``):
    as S, M and C walk them with both products, and as the bimodule and AM
    checks with one; walks sharing a part share its row tests."""
    def part(*runs):
        walk = walks.lowered_walk(Report("glued", exhaustive=exhaustive, field=field),
                                  succ, prec)
        for run in runs:
            run(walk)
        return walk.part

    if prec is None:
        return [part(lambda w: walks.check_columns(w, na, nv, BIMOD_SLOTS),
                     lambda w: walks.check_glued(w, na, nv, ONE_PRODUCT_LABELS))]
    return [part(lambda w: walks.check_columns(w, na, nv, R_SLOTS),
                 lambda w: walks.check_glued(w, na, nv, _EXT_SLOTS)),
            part(lambda w: walks.check_columns(w, na, nv, _REP1_SLOTS),
                 lambda w: walks.check_columns(w, na, nv, _REP2_SLOTS, "V"),
                 lambda w: walks.check_glued(w, na, nv, _MATCHED_SLOTS)),
            part(lambda w: walks.check_glued(w, na, nv, _CROSSED_SLOTS))]


def glued_edges(data, field):
    """Tables on A (+) V with entries on the first and last vectors of each
    summand, as (succ, prec or None, na, nv)."""
    na, nv = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n = na + nv
    entries = on_edges(data, field, sorted({0, na - 1, na, n - 1}))
    one = data.draw(st.booleans())
    return table(n, entries[0] + entries[1] if one else entries[0]), \
        None if one else table(n, entries[1]), na, nv


def glued_draw(data, field):
    """(succ, prec or None, na, nv) from every kind of draw."""
    if data.draw(st.booleans()):
        return glued_edges(data, field)
    _, succ, prec = algebra_draw(data, field)
    return (succ, prec) + split(data, len(succ))


@BY_FIELD
@DIFF
@given(data=st.data())
def test_triple_checks_match_the_frozen_walk(field, data):
    _, succ, prec = algebra_draw(data, field)
    for exhaustive in (False, True):
        same(*triple_reports(field, succ, prec, exhaustive))


@BY_FIELD
@DIFF
@given(data=st.data())
def test_glued_walks_match_the_frozen_walks(field, data):
    succ, prec, na, nv = glued_draw(data, field)
    for exhaustive in (False, True):
        same(glued_runs(adw.unified, field, succ, prec, na, nv, exhaustive),
             glued_runs(frozen_glued, field, succ, prec, na, nv, exhaustive))


# ---------------------------------------------------------------------------
# what the draws reach

def digits_max(seen):
    """A spy on ``row_slabs`` that notes (largest |digit| of a term, b)."""
    real = adw.algebra.row_slabs

    def spy(packs, identity, u, vs):
        terms = real(packs, identity, u, vs)
        half = 1 << packs.b - 1
        for term in terms:
            for slab in term.values():
                top = 0
                while slab:
                    d = (slab + half) % (1 << packs.b) - half
                    top, slab = max(top, abs(d)), (slab - d) >> packs.b
                seen.append((top, packs.b))
        return terms
    return spy


def test_draws_reach_the_bound_the_edges_and_most_pairs(monkeypatch):
    """Over Q some row test meets a digit of n M**2 = 2**(b-1) - 1; in every
    field the exhaustive reports break at the first and the last v and w of
    a summand, and some dense draw breaks more than half of its pairs."""
    digits = []
    monkeypatch.setattr(adw.algebra, "row_slabs", digits_max(digits))
    for field in FIELDS:
        edges, shares = set(), []

        @DIFF
        @given(st.data())
        def note(data):
            kind, succ, prec = algebra_draw(data, field)
            report = triple_reports(field, succ, prec, True)[0]
            n = len(succ)
            edges.update(("triple", place, v.witness[place] == n - 1)
                         for v in report.violations for place in (1, 2)
                         if v.witness[place] in (0, n - 1))
            if kind == "dense":
                shares.append(len({v.witness[:2] for v in report.violations}) / n ** 2)
            succ, prec, na, nv = glued_edges(data, field)
            for part in glued_runs(adw.unified, field, succ, prec, na, nv, True):
                for v in part.violations:
                    if isinstance(v.witness[0], str):
                        last = [(na if t == "A" else nv) - 1 for t in v.witness[0]]
                        edges.update(("glued", at, v.witness[at] == last[at - 1])
                                     for at in (2, 3) if v.witness[at] in (0, last[at - 1]))

        note()
        want = {(walk, at, last) for walk, places in (("triple", (1, 2)), ("glued", (2, 3)))
                for at in places for last in (False, True)}
        assert want <= edges, (field.name, edges)
        assert shares and max(shares) > 0.5, (field.name, shares)
    assert any(top == (1 << b - 1) - 1 for top, b in digits)
