import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, direct_sum
from adw.fields import InputError, PrimeField
from adw.matched import (AssocMatchedPair, MatchedPairDatum,
                         assoc_bicrossed_product, bicrossed_product,
                         check_assoc_matched_pair, check_matched_pair,
                         factorize, induced_associative_matched_pair)
from adw.reporting import PreconditionFailure
from adw.reps import regular_representation, semidirect_product
from .conftest import nilpotent2, rand_invertible


def semidirect_reducing_datum():
    """First factor nilpotent acting on an abelian plane by its regular-shape
    action, no reverse action: the bicrossed product is the split extension."""
    nil = nilpotent2()
    rr = regular_representation(nil)
    abelian = ADAlgebra.zero(2)
    z = ActionFamily.zero(2, 2)
    return MatchedPairDatum(nil, abelian, rr.lsucc, rr.rsucc, rr.lprec, rr.rprec,
                            z, z, z, z)


def test_trivial_matched_pair(algebra_zoo):
    for a1 in algebra_zoo[:4]:
        for a2 in algebra_zoo[3:6]:
            d = MatchedPairDatum.trivial(a1, a2)
            assert check_matched_pair(d).passed
            alg = bicrossed_product(d)
            assert alg.check().passed


def test_semidirect_reducing_datum_matches_split_extension():
    d = semidirect_reducing_datum()
    assert check_matched_pair(d).passed
    b = bicrossed_product(d)
    assert b.equal_tables(semidirect_product(regular_representation(nilpotent2())))


def test_perturbation_fails_both_routes():
    d = semidirect_reducing_datum()
    mats = [list(map(list, m)) for m in d.l1s.mats]
    mats[0][0][0] += Q(1)
    bad = MatchedPairDatum(d.alg1, d.alg2,
                           ActionFamily(2, 2, tuple(tuple(map(tuple, m)) for m in mats)),
                           d.r1s, d.l1p, d.r1p, d.l2s, d.r2s, d.l2p, d.r2p)
    out = check_matched_pair(bad)
    assert not out.passed
    assert not bicrossed_product(bad, precheck=False).check().passed
    with pytest.raises(PreconditionFailure):
        bicrossed_product(bad)


def test_check_iff_product_with_conjugated_data():
    """Transporting a passing datum along basis changes of either factor
    preserves the verdict; the two routes agree throughout."""
    rng = random.Random(13)
    base = semidirect_reducing_datum()
    from adw.linalg import matmul, inverse

    def conj_datum(d, p2):
        p2i = inverse(p2)

        def conj(fam):
            return ActionFamily(fam.alg_dim, fam.mod_dim,
                                tuple(matmul(p2, matmul(m, p2i)) for m in fam.mats))

        return MatchedPairDatum(d.alg1, d.alg2, conj(d.l1s), conj(d.r1s),
                                conj(d.l1p), conj(d.r1p), d.l2s, d.r2s, d.l2p, d.r2p)

    for _ in range(10):
        d = conj_datum(base, rand_invertible(rng, 2))
        ok = check_matched_pair(d).passed
        assert ok == bicrossed_product(d, precheck=False).check().passed
        assert ok  # module conjugation preserves validity here


def test_restriction_to_first_factor():
    d = semidirect_reducing_datum()
    b = bicrossed_product(d)
    nil = d.alg1
    for i in range(2):
        for j in range(2):
            assert tuple(b.succ.table[i][j][:2]) == nil.succ.table[i][j]
            assert not any(b.succ.table[i][j][2:])


def test_induced_associative_matched_pair():
    d = MatchedPairDatum.trivial(nilpotent2(), ADAlgebra.zero(2))
    amp, rep = induced_associative_matched_pair(d)
    assert rep.passed
    d2 = semidirect_reducing_datum()
    amp2, rep2 = induced_associative_matched_pair(d2)
    assert rep2.passed
    # the glued associative product is the sum of the bicrossed products
    big = assoc_bicrossed_product(amp2)
    assert big.table == bicrossed_product(d2).assoc.table
    # perturbing a summed family breaks the associative conditions too
    mats = [list(map(list, m)) for m in amp2.l1.mats]
    mats[0][1][1] += Q(1)
    bad = AssocMatchedPair(amp2.op1, amp2.op2,
                           ActionFamily(2, 2, tuple(tuple(map(tuple, m)) for m in mats)),
                           amp2.r1, amp2.l2, amp2.r2)
    assert not check_assoc_matched_pair(bad).passed


def test_factorize_direct_product():
    nil = nilpotent2()
    c = direct_sum(nil, ADAlgebra.zero(2))
    datum, rep = factorize(c, (0, 1), (2, 3))
    assert rep.passed and datum is not None
    assert all(f.is_zero() for f in (datum.l1s, datum.r1s, datum.l1p, datum.r1p,
                                     datum.l2s, datum.r2s, datum.l2p, datum.r2p))


def test_factorize_recovers_semidirect():
    d = semidirect_reducing_datum()
    c = bicrossed_product(d)
    datum, rep = factorize(c, (0, 1), (2, 3))
    assert rep.passed and datum is not None
    assert datum.l1s.mats == d.l1s.mats
    assert datum.r1p.mats == d.r1p.mats
    assert datum.alg1.equal_tables(d.alg1)


def test_factorize_interleaved_indices():
    d = semidirect_reducing_datum()
    c = bicrossed_product(d)
    # permuted complementary sets still factorize and rebuild the tables
    datum, rep = factorize(c, (1, 0), (3, 2))
    assert rep.passed and datum is not None


def test_factorize_rejects_non_subalgebra():
    nil = nilpotent2()
    datum, rep = factorize(nil, (0,), (1,))
    assert datum is None
    assert any("subalgebra" in v.detail for v in rep.violations)


def test_factorize_index_validation():
    nil = nilpotent2()
    with pytest.raises(InputError):
        factorize(nil, (0,), (0, 1))
    with pytest.raises(InputError):
        factorize(nil, (0,), (2,))


def test_factorize_round_trip_randomized():
    """factorize after bicrossed_product is the identity on passing data."""
    rng = random.Random(19)
    nil = nilpotent2()
    base = [MatchedPairDatum.trivial(nil, ADAlgebra.zero(2)),
            semidirect_reducing_datum(),
            MatchedPairDatum.trivial(ADAlgebra.zero(1), nil)]
    count = 0
    from adw.linalg import matmul, inverse

    for d0 in base:
        for _ in range(18):
            p = rand_invertible(rng, d0.alg2.dim)
            pi = inverse(p)

            def conj(fam, left):
                if left:
                    return ActionFamily(fam.alg_dim, fam.mod_dim,
                                        tuple(matmul(p, matmul(m, pi)) for m in fam.mats))
                return fam

            d = MatchedPairDatum(d0.alg1, d0.alg2,
                                 conj(d0.l1s, True), conj(d0.r1s, True),
                                 conj(d0.l1p, True), conj(d0.r1p, True),
                                 d0.l2s, d0.r2s, d0.l2p, d0.r2p)
            if not check_matched_pair(d).passed:
                continue
            c = bicrossed_product(d)
            n1 = d.alg1.dim
            datum, rep = factorize(c, tuple(range(n1)), tuple(range(n1, c.dim)))
            assert rep.passed and datum is not None
            for name in ("l1s", "r1s", "l1p", "r1p", "l2s", "r2s", "l2p", "r2p"):
                assert getattr(datum, name).mats == getattr(d, name).mats
            assert datum.alg1.equal_tables(d.alg1)
            assert datum.alg2.equal_tables(d.alg2)
            count += 1
    assert count >= 50


def test_matched_datum_rejects_coefficients_outside_the_field():
    gf5 = PrimeField(5)
    nil = ADAlgebra.make(2, [(0, 0, 1, gf5.one)], field=gf5)
    d = MatchedPairDatum.trivial(nil, nil)
    with pytest.raises(InputError, match="cannot coerce Fraction\\(1, 2\\) into GF\\(5\\)"):
        replace(d, l2p=ActionFamily.from_entries(2, 2, [(0, 1, 0, Q(1, 2))]))
    with pytest.raises(InputError, match="element of GF\\(3\\) used in GF\\(5\\)"):
        replace(d, r1s=ActionFamily.from_entries(2, 2, [(0, 1, 0, PrimeField(3).one)]))
