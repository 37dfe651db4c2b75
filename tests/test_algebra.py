import random
from fractions import Fraction as Q

import pytest

from adw.algebra import (ADAlgebra, BilinearOp, associated_associative,
                         change_basis, check_associative, direct_sum,
                         is_anti_zinbiel, is_homomorphism,
                         multiplication_operators, op_from_left_family)
from adw.fields import RATIONALS, InputError, PrimeField
from .conftest import (nilpotent2, oracle_is_anti_dendriform,
                       op_to_oracle_entries, rand_invertible)


def test_zero_algebra_passes():
    for n in (1, 2, 3, 5):
        rep = ADAlgebra.zero(n).check()
        assert rep.passed
        assert rep.checked == 2 * n ** 3


def test_nilpotent2_passes_against_oracle():
    alg = nilpotent2()
    assert oracle_is_anti_dendriform({(0, 0): {1: Q(1)}}, {}, 2)
    assert alg.check().passed


def test_dim1_idempotent_fails_with_witness():
    alg = ADAlgebra.make(1, succ_entries=[(0, 0, 0, Q(1))])
    assert not oracle_is_anti_dendriform({(0, 0): {0: Q(1)}}, {}, 1)
    rep = alg.check()
    assert not rep.passed
    v = rep.violations[0]
    assert v.equation == "A1" and v.witness == (0, 0, 0)
    assert v.lhs == (Q(1),) and v.rhs == (Q(-1),)


def test_checker_agrees_with_oracle_randomized():
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for _ in range(120):
        n = rng.randint(1, 2)
        s_entries, p_entries = [], []
        for _ in range(rng.randint(0, 3)):
            s_entries.append((rng.randrange(n), rng.randrange(n), rng.randrange(n),
                              Q(rng.randint(-1, 1))))
        for _ in range(rng.randint(0, 3)):
            p_entries.append((rng.randrange(n), rng.randrange(n), rng.randrange(n),
                              Q(rng.randint(-1, 1))))
        alg = ADAlgebra.make(n, s_entries, p_entries)
        expect = oracle_is_anti_dendriform(op_to_oracle_entries(alg.succ),
                                           op_to_oracle_entries(alg.prec), n)
        assert alg.check().passed == expect
        seen[expect] += 1
    assert seen[True] > 5 and seen[False] > 5


def test_associated_associative():
    alg = nilpotent2()
    dot = associated_associative(alg)
    assert dot.table[0][0] == (Q(0), Q(1))
    assert check_associative(dot).passed
    assert associated_associative(ADAlgebra.zero(3)).is_zero()
    # succ = -prec cancels
    a = ADAlgebra.make(2, succ_entries=[(0, 0, 1, Q(1))],
                       prec_entries=[(0, 0, 1, Q(-1))])
    assert associated_associative(a).is_zero()


def test_check_associative_failure_witness():
    op = BilinearOp.from_entries(2, [(0, 0, 0, Q(1)), (0, 0, 1, Q(1)), (1, 0, 0, Q(1))])
    rep = check_associative(op)
    assert not rep.passed
    assert rep.violations[0].witness == (0, 0, 0)


def test_ad_implies_associative(algebra_zoo):
    for alg in algebra_zoo:
        assert check_associative(alg.assoc).passed


def test_anti_zinbiel():
    assert is_anti_zinbiel(ADAlgebra.zero(2))
    sym = ADAlgebra.make(2, succ_entries=[(0, 0, 1, Q(1))],
                         prec_entries=[(0, 0, 1, Q(1))])
    assert is_anti_zinbiel(sym)
    assert not is_anti_zinbiel(nilpotent2())


def test_multiplication_operators():
    alg = nilpotent2()
    ops = multiplication_operators(alg)
    assert ops.lsucc.mats[0] == ((Q(0), Q(0)), (Q(1), Q(0)))
    assert ops.lsucc.mats[1] == ((0, 0), (0, 0))
    zops = multiplication_operators(ADAlgebra.zero(2))
    assert all(f.is_zero() for f in (zops.lsucc, zops.rsucc, zops.lprec, zops.rprec))
    # R<(e_j) e_i equals e_i < e_j componentwise
    for i in range(2):
        for j in range(2):
            col = tuple(ops.rprec.mats[j][r][i] for r in range(2))
            assert col == alg.prec.table[i][j]


def test_operator_extraction_invertible(algebra_zoo):
    for alg in algebra_zoo:
        ops = multiplication_operators(alg)
        assert op_from_left_family(ops.lsucc).table == alg.succ.table
        assert op_from_left_family(ops.lprec).table == alg.prec.table


def test_basis_change_preserves_verdict(algebra_zoo):
    rng = random.Random(99)
    bad = ADAlgebra.make(2, succ_entries=[(0, 0, 0, Q(1))])
    for alg in list(algebra_zoo) + [bad]:
        verdict = alg.check().passed
        for _ in range(4):
            p = rand_invertible(rng, alg.dim)
            assert change_basis(alg, p).check().passed == verdict
    with pytest.raises(InputError):
        change_basis(nilpotent2(), ((Q(1), Q(1)), (Q(1), Q(1))))


def test_direct_sum_and_homomorphism():
    nil = nilpotent2()
    both = direct_sum(nil, ADAlgebra.zero(2))
    assert both.is_verified
    incl = tuple(tuple(Q(1) if (r == c and r < 2) else Q(0) for c in range(2))
                 for r in range(4))
    assert is_homomorphism(incl, nil, both)


def test_make_rejects_coefficients_outside_the_field():
    gf5 = PrimeField(5)
    with pytest.raises(InputError, match="cannot coerce Fraction\\(1, 2\\) into GF\\(5\\)"):
        ADAlgebra.make(2, [(0, 0, 1, Q(1, 2))], [], field=gf5)
    with pytest.raises(InputError, match="element of GF\\(3\\) used in GF\\(5\\)"):
        ADAlgebra.make(2, [], [(1, 0, 1, PrimeField(3).one)], field=gf5)
    with pytest.raises(InputError, match="rational field"):
        ADAlgebra.make(1, [(0, 0, 0, gf5.one)])
    # plain ints are constants of every field
    assert ADAlgebra.make(2, [(0, 0, 1, 1)], [(1, 0, 1, -2)], field=gf5).dim == 2
    assert ADAlgebra.make(2, [(0, 0, 1, 1)], field=RATIONALS).dim == 2
