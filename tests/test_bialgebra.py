import hashlib
import random
from fractions import Fraction as Q
from functools import partial
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adw import bialgebra
from adw.algebra import (ADAlgebra, BilinearOp, check_associative, direct_sum,
                         multiplication_operators)
from adw.bialgebra import (BilinearForm, CoproductPair, adybe_residual,
                           algebra_from_coproducts, build_double_construction,
                           check_coalgebra, check_coboundary_conditions,
                           check_connes_cocycle, check_d_bialgebra,
                           check_o_operator, check_o_operator_assoc,
                           coboundary_coproducts, derive_compatible_ad,
                           dualize_algebra, is_skew, is_ybe_solution,
                           o_operator_to_ybe, search_skew_solutions,
                           skew_tensor_from_uppers, t_r, tr_ybe_identity)
from adw.fields import RATIONALS, InputError, PrimeField, ScaledRationals
from adw.linalg import identity
from adw.reporting import PreconditionFailure, Report
from adw.reps import regular_representation, semidirect_product
from adw.tensors import cell_map, from_cells
from . import frozen_dense_kernels as frozen
from .conftest import nilpotent2, rand_matrix, rnil2, sigma123, sigma132
from .frozen_bialgebra import _cop_leg1, _cop_leg2, t2_sub, t3_add, t3_neg, t3_sub, t3_zero, twist
from .frozen_dense_kernels import contract_12_13, contract_13_23, contract_23_12

SKEW2 = ((Q(0), Q(1)), (Q(-1), Q(0)))


def hyperbolic_form(n):
    return BilinearForm(2 * n, tuple(tuple(Q(1) if abs(r - c) == n else Q(0)
                                           for c in range(2 * n)) for r in range(2 * n)))


# ---------------------------------------------------------------------------
# invariant forms

def test_connes_zero_form_and_zero_product():
    nil = nilpotent2()
    assert check_connes_cocycle(nil.assoc, BilinearForm(2, ((Q(0),) * 2,) * 2)).passed
    anyform = BilinearForm(2, ((Q(1), Q(2)), (Q(2), Q(-1))))
    assert check_connes_cocycle(BilinearOp.zero(2), anyform).passed


def test_connes_cyclic_failure():
    # cyclic sum at the first basis triple equals 3 w(e2, e1) = 3
    nil = nilpotent2()
    form = BilinearForm(2, ((Q(0), Q(1)), (Q(1), Q(0))))
    out = check_connes_cocycle(nil.assoc, form)
    assert not out.passed
    v = out.violations[0]
    assert v.equation == "cyc" and v.witness == (0, 0, 0) and v.lhs == Q(3)


def test_connes_requires_associativity():
    bad = BilinearOp.from_entries(2, [(0, 0, 0, Q(1)), (0, 0, 1, Q(1)), (1, 0, 0, Q(1))])
    with pytest.raises(PreconditionFailure):
        check_connes_cocycle(bad, BilinearForm(2, identity(2, Q(1))))


def test_derive_zero_product():
    alg = derive_compatible_ad(BilinearOp.zero(2), BilinearForm(2, identity(2, Q(1))))
    assert alg.succ.is_zero() and alg.prec.is_zero()


def test_derive_over_a_prime_field():
    """Over GF(3) the form (1) on e.e = e is a Connes cocycle (3 = 0), and
    the derived products e>e = e<e = -e are an algebra over GF(3)."""
    gf3 = PrimeField(3)
    op = BilinearOp.from_entries(1, [(0, 0, 0, gf3.one)])
    alg = derive_compatible_ad(op, BilinearForm(1, ((gf3.one,),)), field=gf3)
    assert alg.field == gf3
    assert alg.succ.table == alg.prec.table == (((-gf3.one,),),)
    with pytest.raises(InputError, match="rational field"):
        derive_compatible_ad(op, BilinearForm(1, ((gf3.one,),)))


@pytest.mark.parametrize("precheck", [True, False])
def test_derive_refuses_a_form_of_another_dimension(precheck):
    """A 3-dimensional form on a 2-dimensional product is refused as input,
    with or without the cocycle precheck."""
    with pytest.raises(InputError, match="form and product have different dimensions"):
        derive_compatible_ad(BilinearOp.zero(2), BilinearForm(3, identity(3, Q(1))), precheck)


def test_derive_refuses_degenerate():
    with pytest.raises(PreconditionFailure):
        derive_compatible_ad(BilinearOp.zero(2), BilinearForm(2, ((Q(0),) * 2,) * 2))


def test_double_construction_zero_algebras():
    z = ADAlgebra.zero(2)
    dc = build_double_construction(z, z)
    assert dc.passed
    assert dc.form.gram == hyperbolic_form(2).gram
    assert dc.assembled.is_zero()


def test_double_construction_restriction_equality():
    """The split structure of the assembled double reproduces the inputs on
    both halves."""
    nil = nilpotent2()
    for astar in (ADAlgebra.zero(2), ADAlgebra(2, nil.basis, nil.prec, nil.succ)):
        dc = build_double_construction(nil, astar)
        if not dc.passed:
            continue
        derived = derive_compatible_ad(dc.assembled, dc.form)
        n = 2
        for i in range(n):
            for j in range(n):
                assert tuple(derived.succ.table[i][j][:n]) == nil.succ.table[i][j]
                assert not any(derived.succ.table[i][j][n:])
                assert tuple(derived.prec.table[i][j][:n]) == nil.prec.table[i][j]
                assert tuple(derived.succ.table[n + i][n + j][n:]) == astar.succ.table[i][j]
                assert not any(derived.succ.table[n + i][n + j][:n])
                assert tuple(derived.prec.table[n + i][n + j][n:]) == astar.prec.table[i][j]
    # at least the zero dual passes
    assert build_double_construction(nil, ADAlgebra.zero(2)).passed


# ---------------------------------------------------------------------------
# coalgebras

def test_coalgebra_zero_passes():
    assert check_coalgebra(CoproductPair.zero(3)).passed


def test_coalgebra_dual_of_algebra(algebra_zoo):
    for alg in algebra_zoo:
        assert check_coalgebra(dualize_algebra(alg)).passed
    # and transposing back recovers the algebra
    nil = nilpotent2()
    back = algebra_from_coproducts(dualize_algebra(nil))
    assert back.succ.table == nil.succ.table


def test_coalgebra_ca2_failure():
    cp = CoproductPair.from_entries(2, [(0, 0, 0, Q(1))], [])
    out = check_coalgebra(cp)
    assert not out.passed
    assert out.violations[0].equation == "Ca2"


# ---------------------------------------------------------------------------
# D-bialgebras and coboundary pairs

def test_d_bialgebra_zero():
    z = ADAlgebra.zero(2)
    assert check_d_bialgebra(z, CoproductPair.zero(2)).passed


def test_coboundary_coproducts_frozen_example():
    nil = nilpotent2()
    cp = coboundary_coproducts(nil, SKEW2, SKEW2)
    assert cp.dsucc[0] == ((Q(0), Q(0)), (Q(0), Q(1)))   # Ds(e1) = e2 (x) e2
    assert cp.dsucc[1] == ((0, 0), (0, 0))
    assert cp.dprec[0] == ((Q(0), Q(0)), (Q(0), Q(0)))
    assert cp.dprec[1] == ((0, 0), (0, 0))
    assert check_coalgebra(cp).passed
    assert check_d_bialgebra(nil, cp).passed


def test_coboundary_zero_tensors():
    nil = nilpotent2()
    cp = coboundary_coproducts(nil, ((Q(0),) * 2,) * 2, ((Q(0),) * 2,) * 2)
    assert all(not any(x for row in t for x in row) for t in cp.dsucc + cp.dprec)
    z = ADAlgebra.zero(2)
    cp2 = coboundary_coproducts(z, SKEW2, SKEW2)
    assert all(not any(x for row in t for x in row) for t in cp2.dsucc + cp2.dprec)


def test_d_bialgebra_failure_labelled():
    nil = nilpotent2()
    cp = CoproductPair.from_entries(2, [(0, 0, 0, Q(1))], [])
    out = check_d_bialgebra(nil, cp)
    assert not out.passed
    assert out.violations[0].equation.startswith("D")


def test_coboundary_conditions_zero_and_skew_auto():
    nil = nilpotent2()
    zero = ((Q(0),) * 2,) * 2
    assert check_coboundary_conditions(nil, zero, zero).passed
    # with equal skew tensors the four pair-indexed conditions hold automatically
    rng = random.Random(12)
    algs = [nil, direct_sum(nil, ADAlgebra.zero(1))]
    for alg in algs:
        n = alg.dim
        for _ in range(6):
            r = rand_matrix(rng, n, n)
            r = t2_sub(r, twist(r))  # skew part
            rep = check_coboundary_conditions(alg, r, r, exhaustive=True)
            for v in rep.violations:
                assert v.equation not in ("CD3", "CD4", "CD5", "CD6")


def test_cd_equals_d_bialgebra_verdict():
    rng = random.Random(21)
    nil = nilpotent2()
    algs = [nil, ADAlgebra.zero(2), direct_sum(nil, ADAlgebra.zero(1))]
    seen = {True: 0, False: 0}
    for alg in algs:
        n = alg.dim
        for _ in range(8):
            rs, rp = rand_matrix(rng, n, n, 1), rand_matrix(rng, n, n, 1)
            cp = coboundary_coproducts(alg, rs, rp)
            lhs = check_coboundary_conditions(alg, rs, rp).passed
            rhs = check_coalgebra(cp).passed and check_d_bialgebra(alg, cp).passed
            assert lhs == rhs
            seen[lhs] += 1
    assert seen[True] >= 2 and seen[False] >= 2


def test_coboundary_and_d_checks_on_r2nil2_pinned():
    """R(R(nil2)) (dim 8) with r from random.Random(1), entries in {-1,0,1};
    the figures were recorded with the dense kernels."""
    alg = semidirect_product(regular_representation(rnil2(RATIONALS)))
    rng = random.Random(1)
    r = tuple(tuple(Q(rng.randint(-1, 1)) for _ in range(8)) for _ in range(8))
    cd = check_coboundary_conditions(alg, r, r)
    assert (cd.checked, cd.violation_count) == (288, 32)
    assert (cd.violations[0].equation, cd.violations[0].witness) == ("CD3", (0, 0))
    d = check_d_bialgebra(alg, coboundary_coproducts(alg, r, r))
    assert (d.checked, d.violation_count) == (576, 16)
    assert (d.violations[0].equation, d.violations[0].witness) == ("D3", (0, 0))


def test_plain_int_coboundary_over_gf2_is_read_mod_2():
    """Every coefficient below is the int 2, which is 0 in GF(2): the algebra
    and the tensor are zero, so CD3-CD10 hold.  Compared as ints, CD7 read
    -16 and 16 and six conditions failed."""
    gf2 = PrimeField(2)
    alg = ADAlgebra.make(2, [(0, 0, 1, 2), (0, 1, 1, 2)], [(1, 0, 1, 2)], field=gf2)
    assert alg.check().passed
    r = ((0, 2), (-2, 0))
    rep = check_coboundary_conditions(alg, r, r, exhaustive=True)
    assert (rep.passed, rep.checked) == (True, 24)
    # a failing GF(3) case records its values as field elements
    gf3 = PrimeField(3)
    alg3 = ADAlgebra.make(2, [(0, 0, 1, 4)], [], field=gf3)
    bad = check_coboundary_conditions(alg3, ((4, 0), (0, 0)), ((0, 0), (0, 0)), exhaustive=True)
    assert not bad.passed
    for v in bad.violations:
        assert all(type(x) is type(gf3.zero) for x in leaves(v.lhs) + leaves(v.rhs))


def leaves(t):
    return [y for x in t for y in leaves(x)] if isinstance(t, tuple) else [t]


def test_plain_int_d_coalgebra_and_ybe_over_gf2_are_read_mod_2():
    """The zero algebra and tensor of the CD case above, written with the int
    2: the coboundary pair is zero in GF(2), so the coalgebra axioms and
    D1-D9 hold and r solves YE6.  Compared as ints, Ca2 failed twice, D
    reported 15 violations out of 36 and the residual held 16 and -8."""
    gf2 = PrimeField(2)
    alg = ADAlgebra.make(2, [(0, 0, 1, 2), (0, 1, 1, 2)], [(1, 0, 1, 2)], field=gf2)
    r = ((0, 2), (-2, 0))
    cp = coboundary_coproducts(alg, r, r)
    assert cp.field == gf2
    ca = check_coalgebra(cp)
    assert (ca.passed, ca.checked) == (True, 4)
    d = check_d_bialgebra(alg, cp)
    assert (d.passed, d.checked) == (True, 36)
    assert is_ybe_solution(alg, r)
    # the residual tensor itself is returned as computed
    assert 16 in leaves(adybe_residual(alg, r))
    # the CD, coalgebra + D and YE6 verdicts agree, as over Q
    assert check_coboundary_conditions(alg, r, r).passed


def test_defect_identities_for_cd7_and_cd10():
    """The third-order conditions are exact rewrites of the coalgebra defects;
    this pins the leg conventions against independent expansions."""
    rng = random.Random(77)
    nil = nilpotent2()
    for alg in (nil, ADAlgebra.zero(2)):
        n = alg.dim
        ops = multiplication_operators(alg)
        for _ in range(5):
            rs, rp = rand_matrix(rng, n, n, 1), rand_matrix(rng, n, n, 1)
            cp = coboundary_coproducts(alg, rs, rp)
            k7 = t3_add(contract_12_13(rs, rp, alg.prec),
                        contract_23_12(rp, rs, alg.assoc),
                        contract_13_23(rs, rp, alg.succ))
            for i in range(n):
                ca1_defect = t3_sub(_cop_leg1(cp.dsucc, cp.dprec[i]),
                                    _cop_leg2(cp.dprec, cp.dsucc[i]))
                cd7 = t3_sub(t2_to_t3_apply(ops.rprec.mats[i], k7, 1),
                             t2_to_t3_apply(ops.lsucc.mats[i], k7, 3))
                assert ca1_defect == cd7


def t2_to_t3_apply(mat, t, leg):
    from .frozen_dense_kernels import t3_apply
    return t3_apply(mat, t, leg)


# ---------------------------------------------------------------------------
# the Yang-Baxter residual

def test_residual_zero_for_skew_solution():
    nil = nilpotent2()
    assert adybe_residual(nil, SKEW2) == t3_zero(2)
    zero = ((Q(0),) * 2,) * 2
    assert adybe_residual(nil, zero) == t3_zero(2)


def test_residual_frozen_nonzero_example():
    nil = nilpotent2()
    r = ((Q(1), Q(0)), (Q(0), Q(0)))  # e1 (x) e1
    res = adybe_residual(nil, r)
    expected = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    expected[1][0][0] = Q(1)   # e2 (x) e1 (x) e1
    expected[0][1][0] = Q(1)   # e1 (x) e2 (x) e1
    assert res == tuple(tuple(tuple(row) for row in plane) for plane in expected)


def test_sigma_identities_for_skew_tensors():
    rng = random.Random(31)
    nil3 = direct_sum(nilpotent2(), ADAlgebra.zero(1))
    for _ in range(8):
        r = rand_matrix(rng, 3, 3)
        r = t2_sub(r, twist(r))
        ye = adybe_residual(nil3, r)
        first = t3_add(contract_12_13(r, r, nil3.prec),
                       contract_23_12(r, r, nil3.assoc),
                       contract_13_23(r, r, nil3.succ))
        second = t3_add(contract_23_12(r, r, nil3.prec),
                        contract_13_23(r, r, nil3.assoc),
                        t3_neg(contract_12_13(r, r, nil3.succ)))
        assert sigma123(ye) == t3_neg(first)
        assert sigma132(ye) == second


def test_t_r_matrix():
    r = ((Q(0), Q(1)), (Q(0), Q(0)))   # e1 (x) e2
    assert t_r(r) == ((Q(0), Q(0)), (Q(1), Q(0)))
    assert t_r(((Q(0),) * 2,) * 2) == ((Q(0), Q(0)), (Q(0), Q(0)))
    m = t_r(SKEW2)
    assert m == ((Q(0), Q(-1)), (Q(1), Q(0)))
    assert all(m[i][j] == -m[j][i] for i in range(2) for j in range(2))
    assert is_skew(SKEW2) and not is_skew(r)


def test_tr_identity_agrees_with_residual_on_grids():
    nil = nilpotent2()
    nil3 = direct_sum(nil, ADAlgebra.zero(1))
    for alg in (nil, ADAlgebra.zero(2)):
        for t in (Q(-2), Q(-1), Q(0), Q(1), Q(2)):
            r = tuple(tuple(t * x for x in row) for row in SKEW2)
            if alg.dim != 2:
                continue
            assert is_ybe_solution(alg, r) == tr_ybe_identity(alg, r).passed
    for combo in iproduct((Q(-1), Q(0), Q(1)), repeat=3):
        r = skew_tensor_from_uppers(3, combo)
        assert is_ybe_solution(nil3, r) == tr_ybe_identity(nil3, r).passed


def int_representatives(alg):
    """``alg`` over GF(p) with every table entry v written as the plain int v + p,
    so that a zero is the truthy int p."""
    field, n = alg.field, alg.dim

    def table(op):
        return BilinearOp(n, tuple(tuple(tuple(field.residues(c) + field.p for c in v)
                                         for v in row) for row in op.table))

    return ADAlgebra(n, alg.basis, table(alg.succ), table(alg.prec), field)


def grid_cases():
    """(algebra, grid of upper entries): R(nil2) and nil2 (+) 0 over Q {-1,0,1},
    GF(2) and GF(3); over GF(p) R(nil2) with field elements, and nil2 (+) 0
    with int-representative tables and plain-int entries."""
    for field in (RATIONALS, PrimeField(2), PrimeField(3)):
        nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
        nil3 = direct_sum(nil, ADAlgebra.zero(1, field))
        if field is RATIONALS:
            values = (Q(-1), Q(0), Q(1))
            yield rnil2(field), values
            yield nil3, values
        else:
            yield rnil2(field), tuple(field.elements())
            yield int_representatives(nil3), tuple(range(-1, field.p - 1))


def test_tr_identity_agrees_with_residual_on_every_grid_point():
    """T_r is an associative O-operator iff r solves YE6 (skew r), in the field."""
    for alg, values in grid_cases():
        n = alg.dim
        for combo in iproduct(values, repeat=n * (n - 1) // 2):
            r = skew_tensor_from_uppers(n, combo)
            assert is_ybe_solution(alg, r) == tr_ybe_identity(alg, r).passed, (alg, r)


def test_field_of_bare_product_checks():
    """The checks on a bare product compare in the field they are given."""
    gf2 = PrimeField(2)
    # the zero algebra over GF(2), written with the int 2
    zero = ADAlgebra.make(2, [(0, 0, 1, 2), (0, 1, 1, 2)], [(1, 0, 1, 2)], field=gf2)
    r = ((0, 1), (-1, 0))
    assert is_ybe_solution(zero, r)
    out = tr_ybe_identity(zero, r)
    assert (out.passed, out.checked) == (True, 4)
    # associative mod 2 (e2.e2 = 2 e2 is zero there), not over Q
    op = BilinearOp.from_entries(2, [(0, 0, 1, 1), (1, 1, 1, 2)])
    assert not check_associative(op).passed
    assert check_associative(op, field=gf2).passed
    form = BilinearForm(2, ((0, 1), (1, 0)))
    with pytest.raises(PreconditionFailure, match="product is not associative"):
        check_connes_cocycle(op, form)
    assert check_connes_cocycle(op, form, field=gf2).checked == 12


def test_coboundary_equivalence_on_skew_grid():
    """For equal skew tensors over the two reference algebras, the residual
    vanishes exactly when the coboundary pair is a D-bialgebra."""
    nil = nilpotent2()
    grids = [(nil, [(t,) for t in (Q(-2), Q(-1), Q(0), Q(1), Q(2))]),
             (ADAlgebra.zero(2), [(t,) for t in (Q(-1), Q(0), Q(1))])]
    for alg, grid in grids:
        for combo in grid:
            r = skew_tensor_from_uppers(alg.dim, combo)
            cp = coboundary_coproducts(alg, r, r)
            lhs = is_ybe_solution(alg, r)
            rhs = check_coalgebra(cp).passed and check_d_bialgebra(alg, cp).passed
            assert lhs == rhs


def test_coboundary_solutions_always_give_d_bialgebras():
    """One direction holds on any algebra: a skew solution yields a coboundary
    D-bialgebra.  The converse can fail when the multiplication operators
    annihilate too much (e.g. with one product identically zero), so only the
    implication is asserted on the 3-dimensional grid."""
    nil3 = direct_sum(nilpotent2(), ADAlgebra.zero(1))
    solutions = d_bialgebras = points = 0
    for combo in iproduct((Q(-1), Q(0), Q(1)), repeat=3):
        r = skew_tensor_from_uppers(3, combo)
        cp = coboundary_coproducts(nil3, r, r)
        lhs = is_ybe_solution(nil3, r)
        rhs = check_coalgebra(cp).passed and check_d_bialgebra(nil3, cp).passed
        assert rhs == check_coboundary_conditions(nil3, r, r).passed
        if lhs:
            assert rhs
            solutions += 1
        d_bialgebras += rhs
        points += 1
    assert points == 27 and solutions >= 3 and d_bialgebras >= solutions


def test_search_skew_solutions_deterministic():
    nil = nilpotent2()
    vals = [Q(-1), Q(0), Q(1)]
    sols = search_skew_solutions(nil, vals)
    assert sols == search_skew_solutions(nil, vals)
    assert len(sols) == 3  # every skew tensor on this algebra solves the equation
    with pytest.raises(InputError):
        search_skew_solutions(direct_sum(nil, direct_sum(nil, nil)), vals)


def digest(sols):
    return hashlib.sha256(repr(sols).encode()).hexdigest()


def test_search_gf5_on_rnil2_pinned():
    """All 5^6 skew tensors of R(nil2) over GF(5); the digest of the list's repr
    (values, int zeros and order) was recorded from the brute-force search."""
    gf5 = PrimeField(5)
    sols = search_skew_solutions(rnil2(gf5), gf5.elements())
    assert len(sols) == 325
    assert digest(sols) == "54c7be7e9f108e684f8df7dc4af6e0c86fc205ec7da5501e32861e5db99b23db"


def test_search_rational_grid_on_rnil2_pinned():
    sols = search_skew_solutions(rnil2(RATIONALS), [Q(-1), Q(0), Q(1)])
    assert len(sols) == 51
    assert digest(sols) == "0a436fb1ada83bebe7752a85e0f09e4a089c58e53f162036b4d75465eca3c519"


def test_search_rejects_scalars_outside_the_field():
    gf5 = PrimeField(5)
    # a Fraction coefficient in a GF(5) table, which the residual arithmetic
    # meets only as a TypeError; the algebra's constructor refuses it
    with pytest.raises(InputError, match="into GF\\(5\\)"):
        alg = ADAlgebra.make(2, [(0, 0, 1, Q(1, 2))], [], field=gf5)
        search_skew_solutions(alg, gf5.elements())
    # GF(3) values on a GF(5) algebra, also where no arithmetic would notice
    for alg in (rnil2(gf5), ADAlgebra.zero(2, gf5)):
        with pytest.raises(InputError, match="GF\\(3\\) used in GF\\(5\\)"):
            search_skew_solutions(alg, PrimeField(3).elements())
    # a GF element on a rational algebra, and a Fraction in a GF grid
    with pytest.raises(InputError):
        search_skew_solutions(nilpotent2(), [gf5.one])
    with pytest.raises(InputError):
        search_skew_solutions(rnil2(gf5), [Q(1)])
    # ints are constants of every field
    assert len(search_skew_solutions(rnil2(gf5), [0, 1])) == \
        len(search_skew_solutions(rnil2(gf5), [gf5.zero, gf5.one]))


# ---------------------------------------------------------------------------
# comparisons of flat accumulators and cell maps

def test_require_cells_reads_a_cell_map_by_its_values():
    """A cell map whose only nonzero value sits at flat key 0 fails, and one
    that holds only zero values passes: the values are read, never the keys."""
    dense = partial(from_cells, (2, 2))
    for field in (ScaledRationals(1), ScaledRationals(6), PrimeField(3)):
        rep = Report("cells", field=field)
        assert not rep.require_cells("E", (0,), (cell_map({0: 1}),), dense, "E fails")
        assert rep.require_cells("E", (1,), (cell_map({0: 0, 3: 0}),), dense, "E fails")
        assert rep.require_cells("E", (2,), (cell_map(),), dense, "E fails")
        assert (rep.checked, rep.violation_count, len(rep.violations)) == (3, 1, 1)
        assert repr(rep.violations[0].lhs) == repr(field.lift(((1, 0), (0, 0))))
        assert repr(rep.violations[0].rhs) == repr(field.lift(((0, 0), (0, 0))))
    # over GF(3) the values are compared mod 3
    rep = Report("cells", field=PrimeField(3))
    assert rep.require_cells("E", (), (cell_map({1: 3, 2: -6}),), dense)
    assert rep.require_cells("E", (), ([1, 2, 0, 0], [4, -1, 3, 0]), dense)
    assert not rep.require_cells("E", (), ([1, 0, 0, 0], [2, 0, 0, 0]), dense)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_require_cells_matches_the_dense_comparison(data):
    """``require_cells`` gives the report that ``require_equal`` or
    ``require_chain`` gives on the dense values, by ``repr``, in both modes
    and with or without a violation kept before it."""
    field = data.draw(st.sampled_from([ScaledRationals(1), ScaledRationals(6), PrimeField(3)]))
    dims = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 3), (2, 2, 2)]))
    size, value = prod(dims), st.sampled_from([0, 0, 0, 1, -1, 3, -6, 7])
    count = data.draw(st.integers(1, 4))
    values = tuple(data.draw(st.lists(value, min_size=size, max_size=size))
                   if count > 1 or data.draw(st.booleans())
                   else cell_map(data.draw(st.dictionaries(st.integers(0, size - 1), value)))
                   for _ in range(count))
    terms = tuple("t%d" % k for k in range(count))
    chain = count > 2 or count == 2 and data.draw(st.booleans())
    dense = partial(from_cells, dims)
    exhaustive, prior = data.draw(st.booleans()), data.draw(st.booleans())
    new, old = (Report("cells", exhaustive, field=field) for _ in range(2))
    for rep in (new, old) if prior else ():
        rep.require_equal("P", (), 0, 1, "kept before")
    got = new.require_cells("E", (1, 2), values, dense, terms if chain else "E fails")
    if chain:
        want = old.require_chain("E", (1, 2), terms, tuple(map(dense, values)))
    else:
        want = old.require_equal("E", (1, 2), dense(values[0]),
                                 dense(values[1] if count == 2 else {}), "E fails")
    assert got == want and new == old and repr(new) == repr(old)


def test_coboundary_builds_only_the_kept_violations(monkeypatch):
    """Non-exhaustive CD3-CD10 on R(nil2) with an r that breaks CD3 at four
    pairs and CD7-CD10 too: each part (CD3-CD6 and CD7-CD10) builds the dense
    sides (the value and the zero tensor) of its first violation only, and
    the report equals the frozen dense check's."""
    alg = semidirect_product(regular_representation(nilpotent2()))
    rng = random.Random(1)
    r = tuple(tuple(Q(rng.choice([-1, 0, 1]), rng.choice([1, 2])) for _ in range(4))
              for _ in range(4))
    built = []

    def spy(dims, cells, lift=None):
        built.append(dims)
        return from_cells(dims, cells, lift)

    monkeypatch.setattr(bialgebra, "from_cells", spy)
    rep = check_coboundary_conditions(alg, r, r)
    assert built == [(4, 4), (4, 4), (4, 4, 4), (4, 4, 4)]
    assert (rep.checked, rep.violation_count) == (80, 12)
    assert [v.equation for v in rep.violations] == ["CD3"]
    old = frozen.check_coboundary_conditions(alg, r, r)
    assert rep == old
    broken = {v.equation for v in check_coboundary_conditions(alg, r, r, True).violations}
    assert {"CD3", "CD7"} <= broken


# ---------------------------------------------------------------------------
# operators

def test_zero_operator_passes_both_modes():
    nil = nilpotent2()
    rr = regular_representation(nil)
    z = ((Q(0), Q(0)), (Q(0), Q(0)))
    assert check_o_operator(z, rr).passed
    ops = multiplication_operators(nil)
    assert check_o_operator_assoc(z, nil.assoc, ops.lsucc.add(ops.lprec),
                                  ops.rsucc.add(ops.rprec)).passed


def test_identity_operator_fails_on_nilpotent_regular():
    nil = nilpotent2()
    rr = regular_representation(nil)
    assert not check_o_operator(identity(2, Q(1)), rr).passed


def test_operator_classification_on_nilpotent_regular():
    """Direct solving of the quadratic identities: solutions are exactly the
    matrices with b = 0 and a^2 = 2ad."""
    nil = nilpotent2()
    rr = regular_representation(nil)
    vals = (Q(-2), Q(-1), Q(0), Q(1), Q(2))
    for a, b, c, d in iproduct(vals, repeat=4):
        tmat = ((a, b), (c, d))
        expected = (b == 0) and (a * a == 2 * a * d)
        assert check_o_operator(tmat, rr).passed == expected


def test_tr_of_skew_solution_is_assoc_operator():
    nil = nilpotent2()
    assert tr_ybe_identity(nil, SKEW2).passed
    bad = ((Q(0), Q(1)), (Q(1), Q(0)))  # symmetric, not a solution certificate
    assert tr_ybe_identity(nil, bad).passed == is_ybe_solution(nil, bad)


def test_operator_lift_round_trip():
    nil = nilpotent2()
    rr = regular_representation(nil)
    good = ((Q(2), Q(0)), (Q(0), Q(1)))   # a = 2d, b = 0
    res = o_operator_to_ybe(good, rr)
    assert res.operator_report.passed
    assert res.is_solution and res.consistent
    assert res.ambient.dim == 4 and res.ambient.is_verified
    assert is_skew(res.r)
    bad = ((Q(1), Q(1)), (Q(0), Q(1)))
    res2 = o_operator_to_ybe(bad, rr)
    assert not res2.operator_report.passed
    assert not res2.is_solution and res2.consistent


def test_lift_zero_operator():
    nil = nilpotent2()
    rr = regular_representation(nil)
    res = o_operator_to_ybe(((Q(0), Q(0)), (Q(0), Q(0))), rr)
    assert res.is_solution
    assert all(not x for row in res.r for x in row)
