import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, check_associative, is_isomorphism
from adw.fields import InputError, PrimeField
from adw.linalg import identity, matvec
from adw.reporting import PreconditionFailure
from adw.reps import regular_representation, semidirect_product
from adw.unified import (EquivWitness, ExtendingDatum,
                         canonical_projection, check_equivalence,
                         check_extending_structure,
                         equivalence_morphism_matrix, extract_extending_datum,
                         find_cohomologous_witness, unified_product)
from .conftest import nilpotent2, rand_family, rand_matrix


def zero_datum(alg, m, succ_v=None, prec_v=None):
    n = alg.dim
    return ExtendingDatum(alg, m,
                          ActionFamily.zero(n, m), ActionFamily.zero(n, m),
                          ActionFamily.zero(n, m), ActionFamily.zero(n, m),
                          ActionFamily.zero(m, n), ActionFamily.zero(m, n),
                          ActionFamily.zero(m, n), ActionFamily.zero(m, n),
                          BilinearOp.zero(m, n), BilinearOp.zero(m, n),
                          succ_v or BilinearOp.zero(m), prec_v or BilinearOp.zero(m))


def test_zero_datum_passes_and_builds_direct_sum():
    nil = nilpotent2()
    d = zero_datum(nil, 2)
    assert check_extending_structure(d).passed
    alg = unified_product(d)
    assert alg.check().passed
    for i in range(2):
        for j in range(2):
            assert not any(alg.succ.table[2 + i][2 + j])
            assert not any(alg.succ.table[i][2 + j])
            assert not any(alg.succ.table[2 + j][i])


def test_block_diagonal_datum():
    nil = nilpotent2()
    other = nilpotent2()
    d = zero_datum(nil, 2, succ_v=other.succ, prec_v=other.prec)
    assert check_extending_structure(d).passed
    alg = unified_product(d)
    assert alg.check().passed
    assert alg.succ.table[2][2] == (Q(0), Q(0), Q(0), Q(1))


def test_s5_violation_witnessed():
    nil = nilpotent2()
    d = zero_datum(nil, 1)
    d = ExtendingDatum(nil, 1, d.lsucc, d.rsucc, d.lprec, d.rprec,
                       d.rho_succ, d.mu_succ, d.rho_prec, d.mu_prec,
                       BilinearOp.from_entries(1, [(0, 0, 0, Q(1))], 2),
                       d.varpi2, d.succ_v, d.prec_v)
    out = check_extending_structure(d)
    assert not out.passed
    assert out.violations[0].equation == "S5"
    with pytest.raises(PreconditionFailure):
        unified_product(d)


def test_datum_from_representation_matches_semidirect():
    rr = regular_representation(nilpotent2())
    d = ExtendingDatum.from_representation(rr)
    assert check_extending_structure(d).passed
    assert unified_product(d).equal_tables(semidirect_product(rr))


def test_extraction_round_trip_canonical():
    nil = nilpotent2()
    rr = regular_representation(nil)
    e = semidirect_product(rr)
    incl, proj = canonical_projection(e, nil.dim)
    res = extract_extending_datum(e, incl, proj)
    assert res.report.passed
    assert check_extending_structure(res.datum).passed
    # canonical projection: complement basis is the standard one, tables equal
    rebuilt = unified_product(res.datum)
    assert rebuilt.equal_tables(e)
    # the extracted actions are the representation, fold maps vanish
    assert res.datum.lsucc.mats == rr.lsucc.mats
    assert res.datum.varpi1.is_zero() and res.datum.varpi2.is_zero()
    assert res.datum.succ_v.is_zero()


def test_extraction_abelian_complement_example():
    # split the nilpotent algebra along span(e2): the class of e1 folds to e2
    nil = nilpotent2()
    incl = ((Q(0),), (Q(1),))
    proj = ((Q(0), Q(1)),)
    res = extract_extending_datum(nil, incl, proj)
    d = res.datum
    assert d.varpi1.table == (((Q(1),),),)
    assert d.varpi2.is_zero()
    assert d.lsucc.is_zero() and d.rho_succ.is_zero()
    assert d.succ_v.is_zero() and d.prec_v.is_zero()
    assert check_extending_structure(d).passed
    # phi(x, a) = x + a transports the rebuilt product onto the original
    rebuilt = unified_product(d)
    phi = tuple(tuple((incl[r][c] if c < 1 else res.v_basis[c - 1][r])
                      for c in range(2)) for r in range(2))
    assert is_isomorphism(phi, rebuilt, nil)


def test_extraction_rejects_non_subalgebra():
    nil = nilpotent2()
    incl = ((Q(1),), (Q(0),))
    proj = ((Q(1), Q(0)),)
    with pytest.raises(PreconditionFailure):
        extract_extending_datum(nil, incl, proj)  # span(e1) is not closed


def test_extraction_random_projections_round_trip(algebra_zoo):
    # any projection with the first factor of a direct-sum-like algebra
    rng = random.Random(31)
    nil = nilpotent2()
    e = semidirect_product(regular_representation(nil))
    n = 2
    for _ in range(6):
        # p(x) = x on A; arbitrary on the complement
        extra = rand_matrix(rng, n, e.dim - n)
        proj = tuple(tuple(Q(1) if r == c else Q(0) for c in range(n)) + tuple(extra[r])
                     for r in range(n))
        incl = tuple(tuple(Q(1) if (r == c and r < n) else Q(0) for c in range(n))
                     for r in range(e.dim))
        res = extract_extending_datum(e, incl, proj)
        assert check_extending_structure(res.datum).passed
        rebuilt = unified_product(res.datum)
        phi_cols = [tuple(incl[r][c] for r in range(e.dim)) for c in range(n)]
        phi_cols += [tuple(v) for v in res.v_basis]
        phi = tuple(tuple(col[r] for col in phi_cols) for r in range(e.dim))
        assert is_isomorphism(phi, rebuilt, e)


def test_prop_equivalence_randomized():
    """Datum passes iff the glued product is anti-dendriform, including
    corrupted variants."""
    rng = random.Random(17)
    nil = nilpotent2()
    seen = {True: 0, False: 0}
    for trial in range(30):
        if trial % 3 == 0:
            d = ExtendingDatum.from_representation(regular_representation(nil))
        else:
            d = ExtendingDatum(
                nil, 1, rand_family(rng, 2, 1), rand_family(rng, 2, 1),
                rand_family(rng, 2, 1), rand_family(rng, 2, 1),
                rand_family(rng, 1, 2), rand_family(rng, 1, 2),
                rand_family(rng, 1, 2), rand_family(rng, 1, 2),
                BilinearOp.from_entries(1, [(0, 0, rng.randrange(2), Q(rng.randint(-1, 1)))], 2),
                BilinearOp.zero(1, 2),
                BilinearOp.zero(1), BilinearOp.zero(1))
        ok_check = check_extending_structure(d).passed
        ok_alg = unified_product(d, precheck=False).check().passed
        assert ok_check == ok_alg
        seen[ok_check] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def test_corruption_flips_both_verdicts():
    nil = nilpotent2()
    d = ExtendingDatum.from_representation(regular_representation(nil))
    mats = [list(map(list, m)) for m in d.lsucc.mats]
    mats[0][0][0] = Q(5)
    corrupted = ExtendingDatum(nil, 2, ActionFamily(2, 2, tuple(tuple(map(tuple, m)) for m in mats)),
                               d.rsucc, d.lprec, d.rprec, d.rho_succ, d.mu_succ,
                               d.rho_prec, d.mu_prec, d.varpi1, d.varpi2,
                               d.succ_v, d.prec_v)
    assert not check_extending_structure(corrupted).passed
    assert not unified_product(corrupted, precheck=False).check().passed


def test_sum_datum_gives_associative_extension():
    """Summing paired components yields an extending structure of the sum
    product: the glued associative product is associative."""
    nil = nilpotent2()
    for d in (ExtendingDatum.from_representation(regular_representation(nil)),
              zero_datum(nil, 2, succ_v=nilpotent2().succ, prec_v=nilpotent2().prec)):
        if not check_extending_structure(d).passed:
            continue
        big = unified_product(d)
        assert check_associative(big.assoc).passed


def test_equivalence_identity_witness():
    nil = nilpotent2()
    d = ExtendingDatum.from_representation(regular_representation(nil))
    w = EquivWitness(zeta=((Q(0), Q(0)), (Q(0), Q(0))), eta=identity(2, Q(1)))
    assert check_equivalence(d, d, w).passed
    assert check_equivalence(d, d, w, cohomologous=True).passed


def test_equivalence_all_zero_any_eta():
    z = ADAlgebra.zero(2)
    d = zero_datum(z, 2)
    for eta in (((Q(2), Q(0)), (Q(0), Q(3))), ((Q(0), Q(1)), (Q(1), Q(0)))):
        w = EquivWitness(zeta=((Q(0), Q(0)), (Q(0), Q(0))), eta=eta)
        assert check_equivalence(d, d, w).passed
    singular = EquivWitness(zeta=((Q(0), Q(0)), (Q(0), Q(0))),
                            eta=((Q(1), Q(0)), (Q(0), Q(0))))
    with pytest.raises(PreconditionFailure):
        check_equivalence(d, d, singular)


def test_two_projections_give_equivalent_data():
    """Two different splittings of the same extension are related by the
    morphism built from the projections."""
    nil = nilpotent2()
    e = semidirect_product(regular_representation(nil))
    n, ne = 2, 4
    incl = tuple(tuple(Q(1) if (r == c and r < n) else Q(0) for c in range(n))
                 for r in range(ne))
    proj1 = tuple(tuple(Q(1) if r == c else Q(0) for c in range(ne)) for r in range(n))
    proj2 = tuple(tuple(Q(1) if r == c else (Q(1) if (r, c) == (0, 2) else Q(0))
                        for c in range(ne)) for r in range(n))
    r1 = extract_extending_datum(e, incl, proj1)
    r2 = extract_extending_datum(e, incl, proj2)
    # zeta(a) = p2(v1(a)) on the complement, eta = coordinates of (1 - i p2) v1
    v1cols = r1.v_basis
    zeta_cols, eta_cols = [], []
    v2mat = tuple(tuple(r2.v_basis[c][r] for c in range(len(r2.v_basis)))
                  for r in range(ne))
    from adw.linalg import solve_linear, vsub
    for a in range(len(v1cols)):
        va = v1cols[a]
        pa = matvec(proj2, va)
        zeta_cols.append(pa)
        rem = vsub(va, matvec(incl, pa))
        eta_cols.append(solve_linear(v2mat, rem)[0])
    zeta = tuple(tuple(zeta_cols[c][r] for c in range(2)) for r in range(2))
    eta = tuple(tuple(eta_cols[c][r] for c in range(2)) for r in range(2))
    out = check_equivalence(r1.datum, r2.datum, EquivWitness(zeta, eta))
    assert out.passed
    # the associated morphism really is an isomorphism of the two products
    psi = equivalence_morphism_matrix(r1.datum, EquivWitness(zeta, eta))
    assert is_isomorphism(psi, unified_product(r1.datum), unified_product(r2.datum))


def test_fast_path_witness_search():
    z = ADAlgebra.zero(1)
    base = zero_datum(z, 1)
    shifted = ExtendingDatum(z, 1, base.lsucc, base.rsucc, base.lprec, base.rprec,
                             base.rho_succ, base.mu_succ, base.rho_prec, base.mu_prec,
                             BilinearOp.from_entries(1, [(0, 0, 0, Q(1))], 1),
                             base.varpi2, base.succ_v, base.prec_v)
    # identical data: zero witness found
    zeta, rep = find_cohomologous_witness(base, base)
    assert zeta is not None and rep.passed
    # a pure fold shift over a trivial system admits no witness
    zeta2, rep2 = find_cohomologous_witness(shifted, base)
    assert zeta2 is None
    with pytest.raises(InputError):
        find_cohomologous_witness(zero_datum(nilpotent2(), 1), zero_datum(nilpotent2(), 1))


def test_datum_rejects_coefficients_outside_the_field():
    gf5 = PrimeField(5)
    nil = ADAlgebra.make(2, [(0, 0, 1, gf5.one)], field=gf5)
    d = ExtendingDatum.from_representation(regular_representation(nil))
    half = BilinearOp.from_entries(2, [(0, 1, 1, Q(1, 2))])
    with pytest.raises(InputError, match="cannot coerce Fraction\\(1, 2\\) into GF\\(5\\)"):
        replace(d, varpi2=half)
    with pytest.raises(InputError, match="cannot coerce Fraction\\(1, 2\\) into GF\\(5\\)"):
        replace(d, succ_v=half)
    with pytest.raises(InputError, match="cannot coerce"):
        replace(d, mu_prec=ActionFamily.from_entries(2, 2, [(0, 0, 0, Q(1, 2))]))
