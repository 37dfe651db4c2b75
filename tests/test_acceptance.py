"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every expected value is either trivially forced, computed by an
independent oracle inside this module, or verified against a second
computation route.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as Q
from itertools import product as iproduct

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, direct_sum, is_isomorphism
from adw.bialgebra import (adybe_residual, check_coalgebra, check_d_bialgebra,
                           check_o_operator, coboundary_coproducts,
                           is_ybe_solution, o_operator_to_ybe,
                           skew_tensor_from_uppers, tr_ybe_identity)
from adw.crossed import (AutPair, CrossedDatum, GH2Tuple,
                         check_cocycles_cohomologous, check_crossed_system,
                         check_gh2_tuple, check_inducible,
                         cocycle_from_section, crossed_isomorphism_matrix,
                         crossed_product, gh2_to_crossed,
                         gh2_tuples_cohomologous, wells_map)
from adw.linalg import solve_linear, vsub
from adw.matched import (MatchedPairDatum, bicrossed_product,
                         check_matched_pair, factorize,
                         induced_associative_matched_pair)
from adw.reps import (ADRep, check_representation, dual_representation,
                      induced_associative_reps, regular_representation,
                      semidirect_product)
from adw.unified import (canonical_projection, check_extending_structure,
                         extract_extending_datum, unified_product)
from .conftest import (conjugate_rep, nilpotent2, rand_family,
                       rand_invertible, rand_matrix)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (num, desc))
        raise
    print("ACCEPTANCE %d: PASS - %s" % (num, desc))


# ---------------------------------------------------------------------------

def test_criterion_1_dimension_one_classification():
    with criterion(1, "dimension-1 classification: only the zero algebra"):
        # symbolic elimination oracle over the rationals
        import sympy
        a, b = sympy.symbols("a b")
        eqs = [a * a + a * (a + b), a * a + b * (a + b), a * a - b * b]
        sols = sympy.solve(eqs, [a, b], dict=True)
        assert sols == [{a: 0, b: 0}]
        # checker sweep over the grid
        grid = [Q(k) for k in range(-3, 4)]
        for av in grid:
            for bv in grid:
                alg = ADAlgebra.make(1, succ_entries=[(0, 0, 0, av)],
                                     prec_entries=[(0, 0, 0, bv)])
                assert alg.check().passed == (av == 0 and bv == 0)


def test_criterion_2_representation_vs_split_extension(valid_reps_pool):
    with criterion(2, "representation axioms <=> split extension axioms "
                      "(>=100 families, corruption pairs)"):
        rng = random.Random(1002)
        nil = nilpotent2()
        pool = list(valid_reps_pool)
        while len(pool) < 80:
            pool.append(conjugate_rep(pool[2], rand_invertible(rng, 2)))
        for _ in range(40):
            pool.append(ADRep(nil, 2, rand_family(rng, 2, 2), rand_family(rng, 2, 2),
                              rand_family(rng, 2, 2), rand_family(rng, 2, 2)))
        flips = 0
        total = 0
        for rep in pool:
            ok = check_representation(rep, require_verified_algebra=False).passed
            ok_alg = semidirect_product(rep, precheck=False).check().passed
            assert ok == ok_alg
            total += 1
            if ok:
                # corrupt one coefficient; both verdicts must stay equal
                which = rng.choice(("lsucc", "rsucc", "lprec", "rprec"))
                mats = [list(map(list, m)) for m in getattr(rep, which).mats]
                x = rng.randrange(2)
                r, c = rng.randrange(rep.mod_dim), rng.randrange(rep.mod_dim)
                mats[x][r][c] += Q(1)
                fam = ActionFamily(2, rep.mod_dim,
                                   tuple(tuple(map(tuple, m)) for m in mats))
                kw = {"lsucc": rep.lsucc, "rsucc": rep.rsucc,
                      "lprec": rep.lprec, "rprec": rep.rprec}
                kw[which] = fam
                bad = ADRep(rep.algebra, rep.mod_dim, kw["lsucc"], kw["rsucc"],
                            kw["lprec"], kw["rprec"])
                bad_ok = check_representation(bad, require_verified_algebra=False).passed
                bad_alg = semidirect_product(bad, precheck=False).check().passed
                assert bad_ok == bad_alg
                total += 1
                if not bad_ok:
                    flips += 1
        assert total >= 100
        assert flips >= 30  # corruptions overwhelmingly flip both verdicts together


def test_criterion_3_dual_and_induced_bimodules(valid_reps_pool):
    with criterion(3, "duals of passing representations pass; all four induced "
                      "bimodules satisfy the associative axioms"):
        for rep in valid_reps_pool:
            dd = dual_representation(rep)
            assert check_representation(dd).passed
            for _, report in induced_associative_reps(rep):
                assert report.passed


def _extension_pool():
    """Constructed products of all three kinds with their canonical splittings."""
    nil = nilpotent2()
    rr = regular_representation(nil)
    pool = []
    pool.append(("unified-regular", semidirect_product(rr), nil.dim))
    pool.append(("unified-dual", semidirect_product(dual_representation(rr)), nil.dim))
    d = MatchedPairDatum.trivial(nil, ADAlgebra.zero(2))
    pool.append(("bicrossed-trivial", bicrossed_product(d), 2))
    z = ActionFamily.zero(2, 2)
    d2 = MatchedPairDatum(nil, ADAlgebra.zero(2), rr.lsucc, rr.rsucc, rr.lprec,
                          rr.rprec, z, z, z, z)
    pool.append(("bicrossed-acting", bicrossed_product(d2), 2))
    t = GH2Tuple(1, ((Q(0),),), ((Q(0),),), ((Q(0),),), ((Q(0),),), (Q(1),), (Q(0),))
    pool.append(("crossed-line", crossed_product(gh2_to_crossed(t)), 1))
    nilp = ((Q(0), Q(1)), (Q(0), Q(0)))
    t2 = GH2Tuple(2, nilp, ((Q(0),) * 2,) * 2, ((Q(0),) * 2,) * 2, nilp,
                  (Q(1), Q(0)), (Q(-1), Q(0)))
    pool.append(("crossed-plane", crossed_product(gh2_to_crossed(t2)), 1))
    return pool


def test_criterion_4_extraction_round_trips():
    with criterion(4, "extract-then-rebuild reproduces every constructed product "
                      "exactly under (x,a) -> x+a"):
        for name, e, na in _extension_pool():
            if name.startswith("crossed"):
                # the fibre copy is the designated subalgebra here
                ne = e.dim
                m = ne - na
                one = e.field.one
                incl = tuple(tuple(one if r - na == c else 0 for c in range(m))
                             for r in range(ne))
                proj = tuple(tuple(one if c - na == r else 0 for c in range(ne))
                             for r in range(m))
            else:
                incl, proj = canonical_projection(e, na)
            res = extract_extending_datum(e, incl, proj)
            assert check_extending_structure(res.datum).passed
            rebuilt = unified_product(res.datum)
            sub = len(proj)
            phi_cols = [tuple(incl[r][c] for r in range(e.dim)) for c in range(sub)]
            phi_cols += [tuple(v) for v in res.v_basis]
            phi = tuple(tuple(col[r] for col in phi_cols) for r in range(e.dim))
            assert is_isomorphism(phi, rebuilt, e)
            # canonical first-block projections rebuild the very same tables
            if not name.startswith("crossed"):
                assert rebuilt.equal_tables(e)
        # the crossed-side round trip through a section
        for name, e, na in _extension_pool():
            if not name.startswith("crossed"):
                continue
            one = e.field.one
            proj = tuple(tuple(one if r == c else 0 for c in range(e.dim))
                         for r in range(na))
            sect = tuple(tuple(one if r == c else 0 for c in range(na))
                         for r in range(e.dim))
            res = cocycle_from_section(e, proj, sect)
            assert check_crossed_system(res.datum).passed
            assert crossed_product(res.datum).equal_tables(e)


def test_criterion_5_section_independence():
    with criterion(5, "cocycles from different sections are cohomologous and the "
                      "crossed products isomorphic (>=20 extensions, 2 sections)"):
        rng = random.Random(55)
        extensions = []
        for th in range(5):
            for ep in range(2):
                t = GH2Tuple(1, ((Q(0),),), ((Q(0),),), ((Q(0),),), ((Q(0),),),
                             (Q(th),), (Q(ep),))
                extensions.append((crossed_product(gh2_to_crossed(t)), 1))
        nilp = ((Q(0), Q(1)), (Q(0), Q(0)))
        zero22 = ((Q(0),) * 2,) * 2
        for th in ((Q(1), Q(0)), (Q(0), Q(0)), (Q(2), Q(0)), (Q(3), Q(0))):
            for ep in ((Q(0), Q(0)), (Q(-1), Q(0))):
                t = GH2Tuple(2, nilp, zero22, zero22, nilp, th, ep)
                assert check_gh2_tuple(t).passed
                extensions.append((crossed_product(gh2_to_crossed(t)), 1))
        nil = nilpotent2()
        extensions.append((semidirect_product(regular_representation(nil)), 2))
        extensions.append((direct_sum(nil, ADAlgebra.zero(1)), 2))
        assert len(extensions) >= 20
        for e, na in extensions:
            ne = e.dim
            one = e.field.one
            proj = tuple(tuple(one if r == c else 0 for c in range(ne))
                         for r in range(na))
            sections = []
            for _ in range(2):
                sections.append(tuple(
                    tuple(one if r == c else (Q(rng.randint(-2, 2)) if r >= na else 0)
                          for c in range(na)) for r in range(ne)))
            r1 = cocycle_from_section(e, proj, sections[0])
            r2 = cocycle_from_section(e, proj, sections[1])
            vmat = tuple(tuple(r1.v_basis[c][r] for c in range(len(r1.v_basis)))
                         for r in range(ne))
            zcols = []
            for x in range(na):
                diff = vsub(tuple(sections[0][r][x] for r in range(ne)),
                            tuple(sections[1][r][x] for r in range(ne)))
                zcols.append(solve_linear(vmat, diff)[0])
            zeta = tuple(tuple(zcols[c][r] for c in range(na))
                         for r in range(len(r1.v_basis)))
            assert check_cocycles_cohomologous(r1.datum, r2.datum, zeta).passed
            phi = crossed_isomorphism_matrix(r1.datum, zeta)
            assert is_isomorphism(phi, crossed_product(r1.datum, precheck=False),
                                  crossed_product(r2.datum, precheck=False))


def test_criterion_6_rank_one_classification():
    with criterion(6, "six-tuple relations accepted exactly; zero-matrix tuples "
                      "with distinct vectors are pairwise non-cohomologous"):
        rng = random.Random(66)
        # the checker accepts exactly the tuples whose crossed datum passes
        for _ in range(60):
            n = rng.randint(1, 2)
            t = GH2Tuple(n, rand_matrix(rng, n, n, 1), rand_matrix(rng, n, n, 1),
                         rand_matrix(rng, n, n, 1), rand_matrix(rng, n, n, 1),
                         tuple(Q(rng.randint(-1, 1)) for _ in range(n)),
                         tuple(Q(rng.randint(-1, 1)) for _ in range(n)))
            assert check_gh2_tuple(t).passed == \
                check_crossed_system(gh2_to_crossed(t)).passed
        for n in (1, 2, 3):
            zn = tuple((Q(0),) * n for _ in range(n))
            tuples = []
            vecs = [tuple(Q(v) if i == 0 else Q(0) for i in range(n))
                    for v in range(3)]
            for th in vecs:
                for ep in vecs[:2]:
                    tuples.append(GH2Tuple(n, zn, zn, zn, zn, th, ep))
            for t in tuples:
                assert check_gh2_tuple(t).passed
            for i in range(len(tuples)):
                for j in range(len(tuples)):
                    w, _ = gh2_tuples_cohomologous(tuples[i], tuples[j])
                    if i == j:
                        assert w is not None
                    else:
                        assert w is None  # (0)w = nonzero is infeasible


def test_criterion_7_inducibility_and_wells():
    with criterion(7, "scalar pairs lift exactly when mu = lambda^2, and the "
                      "Wells class vanishes exactly there"):
        base = ADAlgebra.zero(1)
        c = CrossedDatum(base, ADAlgebra.zero(1),
                         ActionFamily.zero(1, 1), ActionFamily.zero(1, 1),
                         ActionFamily.zero(1, 1), ActionFamily.zero(1, 1),
                         BilinearOp.from_entries(1, [(0, 0, 0, Q(1))], 1),
                         BilinearOp.zero(1, 1))
        lams = [Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(1, 2)]
        mus = [Q(1), Q(4), Q(9), Q(1, 4), Q(2), Q(-1), Q(3)]
        rng = random.Random(7)
        for lam in lams:
            for mu in mus:
                pair = AutPair(((lam,),), ((mu,),))
                expect = (mu == lam * lam)
                assert check_inducible(c, pair, ((Q(0),),)).passed == expect
                phi = ((Q(rng.randint(-2, 2)),),)
                assert check_inducible(c, pair, phi).passed == expect
                rec = wells_map(c, pair)
                assert rec.vanishes == expect


def test_criterion_8_matched_pairs():
    with criterion(8, "matched-pair check <=> glued product check; factorize is a "
                      "left inverse on >=50 data; induced associative pairs pass"):
        rng = random.Random(88)
        nil = nilpotent2()
        rr = regular_representation(nil)
        z = ActionFamily.zero(2, 2)
        base = [MatchedPairDatum.trivial(nil, ADAlgebra.zero(2)),
                MatchedPairDatum(nil, ADAlgebra.zero(2), rr.lsucc, rr.rsucc,
                                 rr.lprec, rr.rprec, z, z, z, z),
                MatchedPairDatum.trivial(ADAlgebra.zero(2), nil)]
        from adw.linalg import inverse, matmul
        count = 0
        for d0 in base:
            for _ in range(20):
                p = rand_invertible(rng, 2)
                pi = inverse(p)

                def conj(fam):
                    return ActionFamily(fam.alg_dim, fam.mod_dim,
                                        tuple(matmul(p, matmul(m, pi))
                                              for m in fam.mats))

                d = MatchedPairDatum(d0.alg1, d0.alg2, conj(d0.l1s), conj(d0.r1s),
                                     conj(d0.l1p), conj(d0.r1p),
                                     d0.l2s, d0.r2s, d0.l2p, d0.r2p)
                ok = check_matched_pair(d).passed
                c = bicrossed_product(d, precheck=False)
                assert ok == c.check().passed
                if not ok:
                    continue
                count += 1
                n1 = d.alg1.dim
                datum, rep = factorize(c, tuple(range(n1)), tuple(range(n1, c.dim)))
                assert rep.passed and datum is not None
                for name in ("l1s", "r1s", "l1p", "r1p", "l2s", "r2s", "l2p", "r2p"):
                    assert getattr(datum, name).mats == getattr(d, name).mats
                _, amrep = induced_associative_matched_pair(d, precheck=False)
                assert amrep.passed
                # single-coefficient corruption flips both verdicts together
                mats = [list(map(list, m)) for m in d.l1s.mats]
                mats[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] += Q(1)
                bad = MatchedPairDatum(
                    d.alg1, d.alg2,
                    ActionFamily(2, 2, tuple(tuple(map(tuple, m)) for m in mats)),
                    d.r1s, d.l1p, d.r1p, d.l2s, d.r2s, d.l2p, d.r2p)
                bad_ok = check_matched_pair(bad).passed
                assert bad_ok == bicrossed_product(bad, precheck=False).check().passed
        assert count >= 50


def _oracle_residual(alg, r):
    """Independent expansion of the three contracted terms via dicts."""
    n = alg.dim
    succ = {(i, j): alg.succ.table[i][j] for i in range(n) for j in range(n)}
    prec = {(i, j): alg.prec.table[i][j] for i in range(n) for j in range(n)}
    dot = {(i, j): tuple(a + b for a, b in zip(succ[i, j], prec[i, j]))
           for i in range(n) for j in range(n)}
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if not r[i][j]:
                continue
            for k in range(n):
                for l in range(n):
                    if not r[k][l]:
                        continue
                    f = r[i][j] * r[k][l]
                    # r12.r13: (a.c) (x) b (x) d with (a,b)=(i,j),(c,d)=(k,l)
                    for p in range(n):
                        if dot[i, k][p]:
                            out[p][j][l] += f * dot[i, k][p]
                    # r23 > r12: c (x) (a>d) (x) b
                    for p in range(n):
                        if succ[i, l][p]:
                            out[k][p][j] += f * succ[i, l][p]
                    # -(r13 < r23): a (x) c (x) (b<d)
                    for p in range(n):
                        if prec[j, l][p]:
                            out[i][k][p] -= f * prec[j, l][p]
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def test_criterion_9_yang_baxter():
    with criterion(9, "residual oracle agreement; coboundary equivalence and the "
                      "operator identity agree on every grid point"):
        nil = nilpotent2()
        skew = ((Q(0), Q(1)), (Q(-1), Q(0)))
        assert _oracle_residual(nil, skew) == adybe_residual(nil, skew)
        assert adybe_residual(nil, skew) == tuple(
            tuple(tuple(Q(0) for _ in range(2)) for _ in range(2)) for _ in range(2))
        rng = random.Random(9)
        for alg in (nil, ADAlgebra.zero(2), direct_sum(nil, ADAlgebra.zero(1))):
            for _ in range(6):
                r = rand_matrix(rng, alg.dim, alg.dim, 1)
                assert _oracle_residual(alg, r) == adybe_residual(alg, r)
        grids = [(nil, [(t,) for t in (Q(-2), Q(-1), Q(0), Q(1), Q(2))]),
                 (ADAlgebra.zero(2), [(t,) for t in (Q(-1), Q(0), Q(1))])]
        for alg, grid in grids:
            for combo in grid:
                r = skew_tensor_from_uppers(alg.dim, combo)
                solved = is_ybe_solution(alg, r)
                cp = coboundary_coproducts(alg, r, r)
                dbia = (check_coalgebra(cp).passed
                        and check_d_bialgebra(alg, cp).passed)
                assert solved == dbia
                assert tr_ybe_identity(alg, r).passed == solved
        nil3 = direct_sum(nil, ADAlgebra.zero(1))
        for combo in iproduct((Q(-1), Q(0), Q(1)), repeat=3):
            r = skew_tensor_from_uppers(3, combo)
            assert tr_ybe_identity(nil3, r).passed == is_ybe_solution(nil3, r)


def test_criterion_10_operator_lifts():
    with criterion(10, "operators found by exact solving lift to solutions in the "
                       "4-dimensional ambient algebra; non-operators do not"):
        vals = (Q(-2), Q(-1), Q(0), Q(1), Q(2))
        for alg in (nilpotent2(), ADAlgebra.zero(2)):
            rr = regular_representation(alg)
            found, non = [], []
            for a, b, c, d in iproduct(vals, repeat=4):
                tmat = ((a, b), (c, d))
                (found if check_o_operator(tmat, rr).passed else non).append(tmat)
            assert found
            for tmat in found:
                res = o_operator_to_ybe(tmat, rr)
                assert res.ambient.dim == 4
                assert res.is_solution and res.consistent
            checked_non = non[: max(20, len(non) // 10)]
            if alg.succ.is_zero() and alg.prec.is_zero():
                assert not non  # every operator on the zero algebra qualifies
            else:
                assert len(checked_non) >= 20
            for tmat in checked_non:
                res = o_operator_to_ybe(tmat, rr)
                assert not res.is_solution and res.consistent
