import random
from fractions import Fraction as Q

import pytest

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, is_homomorphism
from adw.fields import InputError, PrimeField
from adw.linalg import identity
from adw.reporting import PreconditionFailure
from adw.reps import (ADRep, check_assoc_bimodule, check_representation,
                      dual_representation, induced_associative_reps,
                      regular_representation, semidirect_product)
from .conftest import nilpotent2, rand_family


def test_zero_rep_passes():
    for m in (1, 3):
        rep = ADRep.zero(nilpotent2(), m)
        assert check_representation(rep).passed


def test_regular_rep_passes_and_semidirect_cross_validates():
    rr = regular_representation(nilpotent2())
    assert check_representation(rr).passed
    assert semidirect_product(rr).check().passed


def test_identity_lsucc_fails_r1():
    nil = nilpotent2()
    rep = ADRep(nil, 2, ActionFamily(2, 2, (identity(2, Q(1)), identity(2, Q(1)))),
                ActionFamily.zero(2, 2), ActionFamily.zero(2, 2), ActionFamily.zero(2, 2))
    out = check_representation(rep)
    assert not out.passed
    assert out.violations[0].equation == "R1"


def test_dual_representation():
    nil = nilpotent2()
    rr = regular_representation(nil)
    dd = dual_representation(rr)
    assert check_representation(dd).passed
    # frozen transposes: l>^dual(e1) = -(R<* + R>*)(e1) = -R>(e1)^T
    assert dd.lsucc.mats[0] == ((Q(0), Q(-1)), (Q(0), Q(0)))
    assert dd.rsucc.mats[0] == ((0, 0), (0, 0))         # L<* = 0
    assert dd.lprec.mats[0] == ((Q(0), Q(1)), (Q(0), Q(0)))
    # double dual of a zero representation is zero again
    z = ADRep.zero(nil, 2)
    assert dual_representation(dual_representation(z)).lsucc.is_zero()


def test_dual_of_every_valid_rep_passes(valid_reps_pool):
    for rep in valid_reps_pool:
        assert check_representation(dual_representation(rep)).passed


def test_induced_associative_reps(valid_reps_pool):
    nil = nilpotent2()
    rr = regular_representation(nil)
    for arep, report in induced_associative_reps(rr):
        assert report.passed
    # the sum family of the regular rep is left/right multiplication by the sum product
    arep = induced_associative_reps(rr)[1][0]
    for i in range(2):
        for j in range(2):
            assert tuple(arep.left.mats[i][r][j] for r in range(2)) == nil.assoc.table[i][j]
            assert tuple(arep.right.mats[i][r][j] for r in range(2)) == nil.assoc.table[j][i]
    for rep in valid_reps_pool[:10]:
        for _, report in induced_associative_reps(rep):
            assert report.passed


def test_semidirect_structure():
    nil = nilpotent2()
    rr = regular_representation(nil)
    sd = semidirect_product(rr)
    n, m = 2, 2
    # projection onto the algebra part is a homomorphism
    proj = tuple(tuple(Q(1) if r == c else Q(0) for c in range(n + m)) for r in range(n))
    assert is_homomorphism(proj, sd, nil)
    # the module copy is an ideal with zero internal products
    for i in range(m):
        for j in range(m):
            assert not any(sd.succ.table[n + i][n + j])
            assert not any(sd.prec.table[n + i][n + j])
    for i in range(n):
        for j in range(m):
            for table in (sd.succ.table, sd.prec.table):
                assert not any(table[i][n + j][:n])
                assert not any(table[n + j][i][:n])
    # semidirect by the dual of the regular representation also passes
    sd2 = semidirect_product(dual_representation(rr))
    assert sd2.check().passed
    # zero action gives the direct sum with an abelian complement
    sd0 = semidirect_product(ADRep.zero(nil, 2))
    assert sd0.check().passed
    assert all(not any(sd0.succ.table[i][j]) for i in range(2, 4) for j in range(4))


def test_equivalence_with_semidirect_randomized(valid_reps_pool):
    """Representation axioms hold iff the split extension satisfies the
    algebra axioms; single-coefficient corruptions flip both verdicts."""
    rng = random.Random(7)
    nil = nilpotent2()
    checked_pass = checked_fail = 0
    pool = list(valid_reps_pool)
    for _ in range(40):
        pool.append(ADRep(nil, 2, rand_family(rng, 2, 2), rand_family(rng, 2, 2),
                          rand_family(rng, 2, 2), rand_family(rng, 2, 2)))
    for rep in pool:
        ok_rep = check_representation(rep, require_verified_algebra=False).passed
        ok_alg = semidirect_product(rep, precheck=False).check().passed
        assert ok_rep == ok_alg
        if ok_rep:
            checked_pass += 1
        else:
            checked_fail += 1
    assert checked_pass >= 20 and checked_fail >= 20


def test_semidirect_refuses_invalid():
    nil = nilpotent2()
    bad = ADRep(nil, 2, ActionFamily(2, 2, (identity(2, Q(1)), identity(2, Q(1)))),
                ActionFamily.zero(2, 2), ActionFamily.zero(2, 2), ActionFamily.zero(2, 2))
    with pytest.raises(PreconditionFailure):
        semidirect_product(bad)
    with pytest.raises(PreconditionFailure):
        dual_representation(bad)


def test_assoc_bimodule_checker_counterexample():
    from adw.reps import AssocRep
    nil = nilpotent2()
    bad = AssocRep(nil.assoc, 2, ActionFamily(2, 2, (identity(2, Q(1)), identity(2, Q(1)))),
                   ActionFamily.zero(2, 2))
    out = check_assoc_bimodule(bad)
    assert not out.passed and out.violations[0].equation == "bimod-l"


def test_rep_rejects_coefficients_outside_the_field():
    """A 1/2 in an action over GF(5) is refused when the representation is
    built; it used to be accepted and to make ``check_representation`` raise
    TypeError."""
    gf5 = PrimeField(5)
    nil = ADAlgebra.make(2, [(0, 0, 1, gf5.one)], field=gf5)
    z = ActionFamily.zero(2, 1)
    bad = ActionFamily.from_entries(2, 1, [(1, 0, 0, Q(1, 2))])
    with pytest.raises(InputError, match="cannot coerce Fraction\\(1, 2\\) into GF\\(5\\)"):
        ADRep(nil, 1, bad, z, z, z)
    with pytest.raises(InputError, match="element of GF\\(3\\) used in GF\\(5\\)"):
        ADRep(nil, 1, z, z, z, ActionFamily.from_entries(2, 1, [(0, 0, 0, PrimeField(3).one)]))
    # plain ints are constants of every field
    rep = ADRep(nil, 1, ActionFamily.from_entries(2, 1, [(1, 0, 0, 3)]), z, z, z)
    assert check_representation(rep).checked > 0


def test_plain_int_tables_over_gf2_are_read_mod_2():
    """x>x = 2x is x>x = 0 over GF(2): the algebra, its regular representation
    and the extending datum of that representation all pass.  Plain ints were
    compared as integers, so R1 failed with both sides printed [['0']]."""
    from adw.unified import ExtendingDatum, check_extending_structure
    alg = ADAlgebra.make(1, [(0, 0, 0, 2)], field=PrimeField(2))
    rr = regular_representation(alg)
    assert alg.check().passed
    assert check_representation(rr).passed
    assert check_representation(rr, require_verified_algebra=False).checked == 7
    assert check_extending_structure(ExtendingDatum.from_representation(rr)).passed


def test_induced_bimodules_over_gf2_are_read_mod_2():
    """The four induced bimodules of the regular representation of x>x = 2x
    over GF(2) carry its field and pass.  Compared as ints, (-l>, -r<) failed
    bimod-l with lhs ((-4,),) and rhs ((4,),), and its dual bimod-r likewise."""
    gf2 = PrimeField(2)
    alg = ADAlgebra.make(1, [(0, 0, 0, 2)], field=gf2)
    pairs = induced_associative_reps(regular_representation(alg))
    assert [(arep.field, rep.passed, rep.checked) for arep, rep in pairs] == [(gf2, True, 3)] * 4
