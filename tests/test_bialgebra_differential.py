"""D1-D9, the coalgebra axioms, the coboundary coproducts and CD3-CD10 on
cell maps over the lowering, against the dense code they replaced
(``frozen_bialgebra``, ``frozen_dense_kernels``).

Three kinds of draw, each checked in both modes:

* over Q, tables and tensors with denominators 2, 3, 5, 7 and 11, mixed with
  plain ints, int 0 and ``Fraction(0)`` (the draws of ``test_scaled_ints``);
* over GF(3) and GF(5), entries that are plain ints (some of them multiples
  of p, truthy but zero in the field) or field elements;
* sparse permuted towers: R(nil2) and R^2(nil2) with their basis permuted,
  as the benchmark builds them, with tensors in {-1, 0, 1}, sometimes with
  one table entry added.

Reports must be equal, with the same ``checked`` counts, and their
violations must render the same; the coproducts must be equal.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from adw.algebra import ADAlgebra, BilinearOp, change_basis
from adw.bialgebra import (CoproductPair, check_coalgebra, check_coboundary_conditions,
                           check_d_bialgebra, coboundary_coproducts)
from adw.fields import PrimeField
from adw.reps import regular_representation, semidirect_product

from . import frozen_bialgebra as frozen
from . import frozen_dense_kernels as dense
from .conftest import nilpotent2
from .test_leg_kernels_differential import in_field
from .test_scaled_ints import draw_algebra, draw_tensor

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
PRIMES = (PrimeField(3), PrimeField(5))


def rendered(report, field):
    return [v.render(field.to_str) for v in report.violations]


def assert_same(new, old, field):
    assert new == old
    assert new.checked == old.checked
    assert rendered(new, field) == rendered(old, field)


def assert_d_and_ca_match(alg, cp):
    """The live and frozen D and Ca checks agree in both modes."""
    for exhaustive in (False, True):
        assert_same(check_d_bialgebra(alg, cp, exhaustive),
                    frozen.check_d_bialgebra(alg, cp, exhaustive), alg.field)
        assert_same(check_coalgebra(cp, exhaustive),
                    frozen.check_coalgebra(cp, exhaustive), cp.field)


def assert_cd_matches(alg, rs, rp):
    """The live CD check against the frozen one, which compares plain ints
    as ints and so gets every nonzero entry taken into the field.  The
    frozen dense check runs once, exhaustively; the first-violation report
    is the same report with its first violation alone."""
    f, n = alg.field, alg.dim
    alg_f = ADAlgebra(n, alg.basis, BilinearOp(n, in_field(f, alg.succ.table)),
                      BilinearOp(n, in_field(f, alg.prec.table)), f)
    old = dense.check_coboundary_conditions(alg_f, in_field(f, rs), in_field(f, rp), True)
    assert_same(check_coboundary_conditions(alg, rs, rp, True), old, f)
    first = replace(old, exhaustive=False, violations=old.violations[:1])
    assert_same(check_coboundary_conditions(alg, rs, rp), first, f)


def coproducts(data, alg, rs, rp, draw=None):
    """The coboundary pair of (rs, rp), checked against the frozen one,
    or, when ``draw`` gives n x n x n tensors, maybe a drawn pair."""
    cp = coboundary_coproducts(alg, rs, rp)
    assert cp == frozen.coboundary_coproducts(alg, rs, rp)
    if draw is None or data.draw(st.booleans()):
        return cp
    return CoproductPair(alg.dim, draw(), draw(), alg.field)


def tensors(data, draw):
    rs = draw()
    return rs, (rs if data.draw(st.booleans()) else draw())


# ---------------------------------------------------------------------------
# over Q with denominators

@SETTINGS
@given(st.data())
def test_d_and_coalgebra_match_frozen_with_denominators(data):
    alg = draw_algebra(data)
    n = alg.dim
    rs, rp = tensors(data, lambda: draw_tensor(data, (n, n)))
    cp = coproducts(data, alg, rs, rp, lambda: draw_tensor(data, (n, n, n)))
    assert_d_and_ca_match(alg, cp)


# ---------------------------------------------------------------------------
# over GF(3) and GF(5)

def draw_gf(data, field, dims):
    """A tensor over ``field`` with about half its entries nonzero: plain ints
    in [-p, 2p] (p and 2p among them) or field elements."""
    p = field.p
    ints = st.integers(-p, 2 * p)
    elements = st.sampled_from(field.elements())
    entry = st.one_of(st.just(0), ints if data.draw(st.booleans()) else elements)
    size = 1
    for d in dims:
        size *= d
    flat = iter(data.draw(st.lists(entry, min_size=size, max_size=size)))

    def build(ds):
        if len(ds) == 1:
            return tuple(next(flat) for _ in range(ds[0]))
        return tuple(build(ds[1:]) for _ in range(ds[0]))

    return build(dims)


def draw_gf_algebra(data, field):
    """Random tables of dim 1-4, or R(nil2) after a change of basis."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        succ, prec = (BilinearOp(n, draw_gf(data, field, (n, n, n))) for _ in range(2))
        return ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec, field)
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    rnil = semidirect_product(regular_representation(nil))
    entries = data.draw(st.lists(st.integers(0, field.p - 1), min_size=6, max_size=6))
    it = iter(entries)
    p = tuple(tuple(field.one if r == c else field.coerce(next(it)) if r < c else field.zero
                    for c in range(4)) for r in range(4))
    return change_basis(rnil, p)


@SETTINGS
@given(st.data())
def test_d_coalgebra_and_cd_match_frozen_over_prime_fields(data):
    field = data.draw(st.sampled_from(PRIMES))
    alg = draw_gf_algebra(data, field)
    n = alg.dim
    rs, rp = tensors(data, lambda: draw_gf(data, field, (n, n)))
    cp = coproducts(data, alg, rs, rp, lambda: draw_gf(data, field, (n, n, n)))
    assert_d_and_ca_match(alg, cp)
    assert_cd_matches(alg, rs, rp)


# ---------------------------------------------------------------------------
# sparse permuted towers

def tower(k):
    alg = nilpotent2()
    for _ in range(k):
        alg = semidirect_product(regular_representation(alg))
    return alg


TOWERS = {4: tower(1), 8: tower(2)}


def permuted(alg, perm, extra=()):
    """``alg`` with e_i renamed e_perm[i], built from entries as the loaders
    build tables (int 0 zeros), with the ``extra`` succ entries added."""
    def entries(op):
        return [(perm[i], perm[j], perm[k], c) for i, j, k, c in op.entries()]
    return ADAlgebra.make(alg.dim, entries(alg.succ) + list(extra), entries(alg.prec))


def draw_sparse_case(data):
    """A permuted R^k(nil2), k = 1 or 2, maybe with one more entry, and
    {-1, 0, 1} tensors, a third of their entries nonzero."""
    n = data.draw(st.sampled_from(sorted(TOWERS)))
    perm = data.draw(st.permutations(range(n)))
    extra = [(perm[0], perm[0], perm[0], Q(1))] if data.draw(st.booleans()) else []
    alg = permuted(TOWERS[n], perm, extra)
    entry = st.sampled_from([0, 0, 0, 0, 1, -1])

    def draw_r():
        return tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))

    return (alg,) + tensors(data, draw_r)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.data())
def test_d_coalgebra_and_cd_match_frozen_on_sparse_towers(data):
    alg, rs, rp = draw_sparse_case(data)
    assert_d_and_ca_match(alg, coproducts(data, alg, rs, rp))
    assert_cd_matches(alg, rs, rp)


def test_fixed_sparse_case_fails_every_family():
    """One permuted R(nil2) whose coboundary pair fails D, Ca and CD: the
    reports, kept violations and all, agree with the frozen ones."""
    alg = permuted(TOWERS[4], (1, 2, 3, 0))
    r = ((0, 1, 0, -1), (0, 0, 1, 0), (1, 0, 0, 0), (0, -1, 0, 1))
    cp = coboundary_coproducts(alg, r, r)
    d, ca = check_d_bialgebra(alg, cp, True), check_coalgebra(cp, True)
    cd = check_coboundary_conditions(alg, r, r, True)
    assert not (d.passed or ca.passed or cd.passed)
    assert_d_and_ca_match(alg, cp)
    assert_cd_matches(alg, r, r)
