"""The walks against the full walks they replaced, on sparse tables.

``check_triples``, ``check_glued`` and ``check_columns`` tick a basis pair
whose identities agree as packed slabs and walk the others triple by triple;
before that they evaluated only the live basis triples, those where (u, v)
or (v, w) is a nonzero pair of some lowered table.  Here the draws are
sparse enough that most triples are dead, so that every term there is the
zero vector, and random enough that some live ones break: algebras
of dimension 3-6 with one to four nonzero entries, and representations,
extending, crossed and matched data over verified algebras of dimension 1-4
whose random parts hold a few entries each.  Over Q the coefficients carry
denominators; over GF(5) they mix plain ints (5 among them, truthy but zero
in the field, so its pair is dead) and field elements.

In exhaustive mode and not, every report must equal the frozen full walk's:
A1/A2 against ``frozen_field_elements`` (over Q also by ``repr``), R against
``frozen_reps``, and S, C and M against ``frozen_split_engine``: the same
``checked`` count, violation count and violations, in order, with equal
witnesses and values.  Over GF(5) the frozen code, which compares plain ints
as integers, runs on the datum with every nonzero coefficient taken into the
field.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, check_anti_dendriform, direct_sum, lowered_walk
from adw.crossed import CrossedDatum, check_crossed_system
from adw.fields import RATIONALS, PrimeField
from adw.matched import MatchedPairDatum, check_matched_pair
from adw.reporting import Report
from adw.reps import ADRep, check_representation, regular_representation, semidirect_product
from adw.unified import ExtendingDatum, check_extending_structure

from . import frozen_field_elements as frozen_a
from . import frozen_reps
from . import frozen_split_engine as frozen_split
from .conftest import datum_in_field

GF5 = PrimeField(5)
FIELDS = (RATIONALS, GF5)
COEFFS = {
    RATIONALS: (Q(1, 2), Q(-2, 3), Q(3, 7), Q(1), -1, 2),
    GF5: (1, 2, -1, 5, GF5.coerce(1), GF5.coerce(3)),
}
DIFF = settings(derandomize=True, max_examples=40, deadline=None)


def verified(field):
    """Verified algebras of dimensions 1-4."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ, field)
    return (ADAlgebra.zero(1, field), nil, flip, direct_sum(nil, ADAlgebra.zero(1, field)),
            direct_sum(nil, flip), semidirect_product(regular_representation(nil)))


VERIFIED = {field: verified(field) for field in FIELDS}


def entries(draw, field, *dims, most=3):
    """One to ``most`` random (index..., coefficient) entries."""
    entry = st.tuples(*(st.integers(0, d - 1) for d in dims), st.sampled_from(COEFFS[field]))
    return draw(st.lists(entry, min_size=1, max_size=most))


def family(draw, field, alg_dim, mod_dim):
    """A random action family, or the zero one (all-zero rows and columns)."""
    if draw(st.integers(0, 3)) == 0:
        return ActionFamily.zero(alg_dim, mod_dim)
    return ActionFamily.from_entries(alg_dim, mod_dim,
                                     entries(draw, field, alg_dim, mod_dim, mod_dim))


def fold(draw, field, dim, out_dim):
    if draw(st.integers(0, 3)) == 0:
        return BilinearOp.zero(dim, out_dim)
    return BilinearOp.from_entries(dim, entries(draw, field, dim, dim, out_dim), out_dim)


# ---------------------------------------------------------------------------
# the draws

@st.composite
def sparse_algebras(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(3, 6))
    return ADAlgebra.make(n, entries(draw, field, n, n, n, most=4),
                          entries(draw, field, n, n, n, most=2) if draw(st.booleans()) else (),
                          field=field)


@st.composite
def sparse_reps(draw):
    field = draw(st.sampled_from(FIELDS))
    alg = draw(st.sampled_from(VERIFIED[field]))
    m = draw(st.integers(1, 4))
    fams = [family(draw, field, alg.dim, m) for _ in range(4)]
    if m == alg.dim and draw(st.booleans()):
        rr = regular_representation(alg)
        fams = [rr.lsucc, rr.rsucc, rr.lprec, rr.rprec]
        k = draw(st.integers(0, 3))
        fams[k] = fams[k].add(family(draw, field, alg.dim, m))
    return ADRep(alg, m, *fams)


@st.composite
def sparse_extending(draw):
    rep = draw(sparse_reps())
    field, m, n = rep.algebra.field, rep.mod_dim, rep.algebra.dim
    base = ExtendingDatum.from_representation(rep)
    return replace(base, **{name: family(draw, field, m, n)
                            for name in ("rho_succ", "mu_succ", "rho_prec", "mu_prec")},
                   varpi1=fold(draw, field, m, n), varpi2=fold(draw, field, m, n),
                   succ_v=fold(draw, field, m, m), prec_v=fold(draw, field, m, m))


@st.composite
def sparse_crossed(draw):
    rep = draw(sparse_reps())
    field, m, n = rep.algebra.field, rep.mod_dim, rep.algebra.dim
    fibre = ADAlgebra.make(m, entries(draw, field, m, m, m), entries(draw, field, m, m, m),
                           field=field) if draw(st.booleans()) else ADAlgebra.zero(m, field)
    return CrossedDatum(rep.algebra, fibre, *rep.families(),
                        fold(draw, field, n, m), fold(draw, field, n, m))


@st.composite
def sparse_matched(draw):
    rep = draw(sparse_reps())
    field = rep.algebra.field
    alg2 = draw(st.sampled_from([a for a in VERIFIED[field] if a.dim == rep.mod_dim]
                                or [ADAlgebra.zero(rep.mod_dim, field)]))
    back = [family(draw, field, alg2.dim, rep.algebra.dim) for _ in range(4)]
    return MatchedPairDatum(rep.algebra, alg2, *rep.families(), *back)


# ---------------------------------------------------------------------------
# the oracles

def same_reports(new, old, datum, field):
    """The reports, exhaustive and not, of the support walk on ``datum`` and of
    the frozen full walk (on the datum in its field over GF(5)), as pairs;
    their counts and violations must be equal."""
    given_old = datum if field is RATIONALS else datum_in_field(datum, field)
    pairs = [(new(datum, exhaustive), old(given_old, exhaustive)) for exhaustive in (False, True)]
    for got, want in pairs:
        assert (got.checked, got.violation_count, got.violations) == \
            (want.checked, want.violation_count, want.violations)
    return pairs


@DIFF
@given(sparse_algebras())
def test_anti_dendriform_support_walk_matches_full_walk(alg):
    pairs = same_reports(check_anti_dendriform, frozen_a.check_anti_dendriform, alg, alg.field)
    if alg.field is RATIONALS:
        assert all(repr(got) == repr(want) for got, want in pairs)


@DIFF
@given(sparse_reps())
def test_representation_support_walk_matches_full_walk(rep):
    same_reports(check_representation, frozen_reps.check_representation, rep,
                 rep.algebra.field)


@DIFF
@given(sparse_extending())
def test_extending_support_walk_matches_full_walk(d):
    same_reports(check_extending_structure, frozen_split.check_extending_structure, d,
                 d.algebra.field)


@DIFF
@given(sparse_crossed())
def test_crossed_support_walk_matches_full_walk(d):
    same_reports(check_crossed_system, frozen_split.check_crossed_system, d, d.algebra.field)


@DIFF
@given(sparse_matched())
def test_matched_support_walk_matches_full_walk(d):
    same_reports(check_matched_pair, frozen_split.check_matched_pair, d, d.alg1.field)


def dead_share(field, succ, prec):
    """The share of basis triples of two tables over ``field`` that are dead:
    neither (u, v) nor (v, w) holds a cell of either lowered table."""
    _, (cells, _), (prec_cells, _), _, _ = lowered_walk(Report("probe", field=field),
                                                        succ, prec).tables
    live = [[bool(a or b) for a, b in zip(*rows)] for rows in zip(cells, prec_cells)]
    n = len(live)
    dead = sum(not (live[u][v] or live[v][w])
               for u in range(n) for v in range(n) for w in range(n))
    return dead / n ** 3


def test_draws_are_mostly_dead_and_break_live_triples():
    """Across the draws above most triples are dead, and every system meets
    both verdicts, so that live triples do break."""
    shares, verdicts = [], {}

    def note(system, report, tables):
        shares.append(dead_share(report.field, *tables))
        verdicts.setdefault(system, set()).add(report.passed)

    @DIFF
    @given(sparse_algebras(), sparse_reps(), sparse_extending(), sparse_crossed(),
           sparse_matched())
    def collect(alg, rep, ext, crossed, matched):
        note("A", check_anti_dendriform(alg), (alg.succ.table, alg.prec.table))
        note("R", check_representation(rep), rep.glued())
        note("S", check_extending_structure(ext), ext.glued())
        note("C", check_crossed_system(crossed), crossed.glued())
        note("M", check_matched_pair(matched), matched.glued())

    collect()
    assert sorted(shares)[len(shares) // 2] > 0.5, sorted(shares)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts
