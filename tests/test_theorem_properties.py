"""Six of the paper's statements as ``hypothesis`` properties.

They check verdicts only, so they hold whatever scalars a check computes on:

* a skew solution r of YE6 gives a coboundary D-bialgebra: CD3-CD10 pass
  for r> = r< = r (over Q on the grid {-1, 0, 1}, and over GF(3));
* on integer data a pass over Q is a pass over every GF(p): the structure
  constants of an identity that holds over Z hold mod p.  Checked for A
  (A1/A2), R (the regular representation), S (its extending datum) and CD;
* R passes on a representation iff its semidirect product is
  anti-dendriform, and S passes on an extending datum iff its unified product
  is.  The draws are very sparse (all-zero rows and columns included), where
  the checks skip most basis triples as dead, or dense, where none is dead,
  and each kind meets both verdicts;
* an O-operator T of a representation lifts to a skew solution of YE6 on
  A semidirect V* (``o_operator_to_ybe``), with nonzero operators and
  nonzero non-operators among the draws;
* for an anti-dendriform algebra A and coproducts on it, Ca1/Ca2 and D1-D9
  pass exactly when the dual-space algebra A* of the coproducts is
  anti-dendriform and the double construction of A and A* (the associative
  matched pair along -R<*, -L>* with its hyperbolic Connes cocycle) passes:
  the paper's anti-dendriform D-bialgebras are these double constructions.
  The coproducts are coboundary pairs of a random r, dualized algebras of
  the same dimension, or random entries, and both verdicts occur.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as Q
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, change_basis, check_anti_dendriform, direct_sum
from adw.bialgebra import (CoproductPair, algebra_from_coproducts, build_double_construction,
                           check_coalgebra, check_coboundary_conditions, check_d_bialgebra,
                           check_o_operator, coboundary_coproducts, dualize_algebra, is_skew,
                           is_ybe_solution, o_operator_to_ybe, search_skew_solutions)
from adw.fields import RATIONALS, PrimeField
from adw.linalg import block_matrix, matmul
from adw.reps import (ADRep, check_representation, dual_representation, regular_representation,
                      semidirect_product)
from adw.unified import (ExtendingDatum, canonical_projection, check_extending_structure,
                         extract_extending_datum, unified_product)

from .conftest import conjugate_rep, nilpotent2

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
PRIMES = tuple(PrimeField(p) for p in (2, 3, 5, 7))


def bases():
    """Verified algebras over Q with integer tables, of dimension 2 to 4."""
    nil = nilpotent2()
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ)
    return [nil, flip, direct_sum(nil, flip), semidirect_product(regular_representation(nil)),
            semidirect_product(regular_representation(flip))]


def into(field, x):
    """An integer x (an int or a Fraction) as an element of ``field``."""
    return field.coerce(x if field is RATIONALS else int(x))


def in_field(alg, field):
    """alg, with integer tables, with every coefficient taken into ``field``."""
    def take(op):
        return BilinearOp(op.dim, tuple(tuple(tuple(into(field, x) for x in v) for v in row)
                                        for row in op.table))
    return ADAlgebra(alg.dim, alg.basis, take(alg.succ), take(alg.prec), field)


def unimodular(data, n, field):
    """L U with L and U unitriangular, off-diagonal entries in {-1, 0, 1}, so
    that the inverse has integer entries too."""
    entry = st.sampled_from([0, 0, -1, 1])
    low = [[1 if r == c else (data.draw(entry) if r > c else 0) for c in range(n)]
           for r in range(n)]
    up = [[1 if r == c else (data.draw(entry) if r < c else 0) for c in range(n)]
          for r in range(n)]
    return tuple(tuple(field.coerce(x) for x in row) for row in matmul(low, up))


def draw_integral(data):
    """A base algebra after a unimodular basis change over Q, with integer
    tables; half the time one entry is moved by an integer."""
    alg = data.draw(st.sampled_from(bases()))
    alg = change_basis(alg, unimodular(data, alg.dim, RATIONALS))
    if data.draw(st.booleans()):
        n = alg.dim
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        delta = BilinearOp.from_entries(n, [(i, j, k, Q(data.draw(st.sampled_from([1, 2, 3]))))])
        alg = ADAlgebra(n, alg.basis, alg.succ.add(delta), alg.prec)
    return alg


@SETTINGS
@given(st.data())
def test_skew_solution_gives_a_coboundary_d_bialgebra(data):
    field = data.draw(st.sampled_from([RATIONALS, PrimeField(3)]))
    alg = data.draw(st.sampled_from(bases()))
    alg = change_basis(in_field(alg, field), unimodular(data, alg.dim, field))
    values = field.elements() if field.enumerable else [Q(-1), Q(0), Q(1)]
    solutions = search_skew_solutions(alg, values)
    nonzero = [r for r in solutions if any(x for row in r for x in row)] or solutions
    r = data.draw(st.sampled_from(nonzero))
    assert is_ybe_solution(alg, r)
    assert check_coboundary_conditions(alg, r, r).passed


def passes(alg, r):
    """The verdicts of A, R, S and CD (with r> = r< = r) on alg and r."""
    rr = regular_representation(alg)
    a = check_anti_dendriform(alg).passed
    return {"A": a,
            "R": check_representation(rr, require_verified_algebra=False).passed,
            "S": a and check_extending_structure(ExtendingDatum.from_representation(rr)).passed,
            "CD": check_coboundary_conditions(alg, r, r).passed}


@SETTINGS
@given(st.data())
def test_integer_pass_over_q_is_a_pass_mod_p(data):
    alg = draw_integral(data)
    n = alg.dim
    if data.draw(st.booleans()) and check_anti_dendriform(alg).passed:
        r = data.draw(st.sampled_from(search_skew_solutions(alg, [Q(-1), Q(0), Q(1)])))
    else:
        cells = st.sampled_from([0, 0, 1, -1, 2])
        r = tuple(tuple(Q(data.draw(cells)) for _ in range(n)) for _ in range(n))
    over_q = passes(alg, r)
    for field in PRIMES:
        rp = tuple(tuple(into(field, x) for x in row) for row in r)
        over_p = passes(in_field(alg, field), rp)
        for system, ok in over_q.items():
            if ok:
                assert over_p[system], (system, field)


def test_integer_property_meets_both_verdicts():
    """The draws of the property above give passing and failing cases over Q
    for every system, so that the implication is not empty."""
    seen = {}

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def collect(data):
        alg = draw_integral(data)
        n = alg.dim
        r = tuple(tuple(Q(data.draw(st.sampled_from([0, 0, 1, -1]))) for _ in range(n))
                  for _ in range(n))
        for system, ok in passes(alg, r).items():
            seen.setdefault(system, set()).add(ok)

    collect()
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen


# ---------------------------------------------------------------------------
# R and S against the anti-dendriform check of the product they glue

def draw_family(data, alg_dim, mod_dim, dense):
    """Dense: every entry drawn from {-1, 0, 1, 2}, mostly nonzero.  Sparse: the
    zero family, or one or two nonzero entries."""
    if dense:
        cell = st.sampled_from([Q(-1), Q(0), Q(1), Q(1), Q(2)])
        return ActionFamily(alg_dim, mod_dim, tuple(
            tuple(tuple(data.draw(cell) for _ in range(mod_dim)) for _ in range(mod_dim))
            for _ in range(alg_dim)))
    count = data.draw(st.integers(0, 2))
    return ActionFamily.from_entries(alg_dim, mod_dim, [
        (data.draw(st.integers(0, alg_dim - 1)), data.draw(st.integers(0, mod_dim - 1)),
         data.draw(st.integers(0, mod_dim - 1)), Q(data.draw(st.sampled_from([-1, 1, 2]))))
        for _ in range(count)])


def bump(data, part):
    """An action family or a table with one entry moved by 1."""
    if isinstance(part, ActionFamily):
        dims = (part.alg_dim, part.mod_dim, part.mod_dim)
        make = lambda ents: ActionFamily.from_entries(part.alg_dim, part.mod_dim, ents)  # noqa
    else:
        dims = (part.dim, part.dim, part.out_dim)
        make = lambda ents: BilinearOp.from_entries(part.dim, ents, part.out_dim)  # noqa
    at = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    return part.add(make([at + (Q(1),)]))


def draw_rep(data, dense):
    """A representation over Q of a base algebra, perturbed half the time.

    Sparse: a tower algebra as it stands with its zero, regular or dual
    regular representation, or sparse random families.  Dense: the algebra
    after a unimodular basis change, with its regular or dual regular
    representation conjugated by a unimodular module map, or dense random
    families."""
    alg = data.draw(st.sampled_from(bases()))
    if dense:
        alg = change_basis(alg, unimodular(data, alg.dim, RATIONALS))
    n = alg.dim
    kind = data.draw(st.sampled_from(["regular", "dual", "random"] + ["zero"] * (not dense)))
    if kind == "zero":
        rep = ADRep.zero(alg, data.draw(st.integers(1, 3)))
    elif kind == "random":
        m = data.draw(st.integers(1, 3))
        rep = ADRep(alg, m, *(draw_family(data, n, m, dense) for _ in range(4)))
    else:
        rep = regular_representation(alg)
        if kind == "dual":
            rep = dual_representation(rep, precheck=False)
        if dense:
            rep = conjugate_rep(rep, unimodular(data, n, RATIONALS))
    if data.draw(st.booleans()):
        fams = list(rep.families())
        k = data.draw(st.integers(0, 3))
        fams[k] = bump(data, fams[k])
        rep = ADRep(alg, rep.mod_dim, *fams)
    return rep


EXT_PARTS = ("lsucc", "rsucc", "lprec", "rprec", "rho_succ", "mu_succ", "rho_prec", "mu_prec",
             "varpi1", "varpi2", "succ_v", "prec_v")


def draw_extending(data, dense):
    """An extending datum over Q, perturbed half the time.

    Sparse: the datum of a sparse representation, with sparse V-on-A
    actions, folds and complement products added (or left zero).  Dense: the
    datum extracted from R(X) or X + Y after a block-unitriangular basis
    change with dense {-1, 0, 1} blocks, which keeps X a subalgebra, so the
    datum passes unless perturbed."""
    if dense:
        nil = nilpotent2()
        flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ)
        x = data.draw(st.sampled_from([nil, flip]))
        ambient = data.draw(st.sampled_from([
            semidirect_product(regular_representation(x)), direct_sum(x, nil),
            direct_sum(x, flip)]))
        cell = st.sampled_from([Q(-1), Q(0), Q(1)])
        corner = tuple(tuple(data.draw(cell) for _ in range(2)) for _ in range(2))
        pmat = block_matrix(unimodular(data, 2, RATIONALS), corner, 0,
                            unimodular(data, 2, RATIONALS))
        ambient = change_basis(ambient, pmat)
        d = extract_extending_datum(ambient, *canonical_projection(ambient, 2)).datum
    else:
        rep = draw_rep(data, False)
        n, m = rep.algebra.dim, rep.mod_dim
        d = ExtendingDatum.from_representation(rep)
        if data.draw(st.booleans()):
            d = ExtendingDatum(d.algebra, m, d.lsucc, d.rsucc, d.lprec, d.rprec,
                               *(draw_family(data, m, n, False) for _ in range(4)),
                               d.varpi1, d.varpi2, d.succ_v, d.prec_v)
            for name in ("varpi1", "varpi2", "succ_v", "prec_v"):
                if data.draw(st.booleans()):
                    d = replace(d, **{name: bump(data, getattr(d, name))})
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(EXT_PARTS))
        d = replace(d, **{name: bump(data, getattr(d, name))})
    return d


def test_representation_passes_iff_semidirect_product_is_anti_dendriform():
    seen = set()

    @SETTINGS
    @given(st.data())
    def prop(data):
        dense = data.draw(st.booleans())
        rep = draw_rep(data, dense)
        passed = check_representation(rep).passed
        assert passed == check_anti_dendriform(semidirect_product(rep, precheck=False)).passed
        seen.add((dense, passed))

    prop()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}, seen


def test_extending_structure_passes_iff_unified_product_is_anti_dendriform():
    seen = set()

    @SETTINGS
    @given(st.data())
    def prop(data):
        dense = data.draw(st.booleans())
        d = draw_extending(data, dense)
        passed = check_extending_structure(d).passed
        assert passed == check_anti_dendriform(unified_product(d, precheck=False)).passed
        seen.add((dense, passed))

    prop()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}, seen


# ---------------------------------------------------------------------------
# O-operators lift to skew solutions of YE6

def test_o_operator_lifts_to_a_skew_ybe_solution():
    """An O-operator T of a representation gives, through
    ``o_operator_to_ybe``, a skew r = T - tau(T) on A semidirect V* that
    solves YE6.  The bases are the 2-dimensional ones over Q and GF(3) after
    a unimodular change, with their regular representation or its dual; T is
    drawn from the O-operators of the grid {-1, 0, 1} (found by checking all
    81 matrices) or from the rest of the grid."""
    seen = set()

    @SETTINGS
    @given(st.data())
    def prop(data):
        field = data.draw(st.sampled_from([RATIONALS, PrimeField(3)]))
        alg = data.draw(st.sampled_from(bases()[:2]))
        alg = change_basis(in_field(alg, field), unimodular(data, 2, field))
        rep = regular_representation(alg)
        rep = data.draw(st.sampled_from([rep, dual_representation(rep)]))
        grid = [tuple(tuple(into(field, x) for x in m[r:r + 2]) for r in (0, 2))
                for m in product((-1, 0, 1), repeat=4)]
        operators = [t for t in grid if check_o_operator(t, rep).passed]
        pick = data.draw(st.booleans())
        pool = [t for t in grid if (t in operators) == pick] or grid
        tmat = data.draw(st.sampled_from(pool))
        res = o_operator_to_ybe(tmat, rep)
        operator = res.operator_report.passed
        if operator:
            assert is_skew(res.r) and is_ybe_solution(res.ambient, res.r)
            assert res.is_solution
        seen.add((operator, any(x for row in tmat for x in row)))

    prop()
    assert {(True, True), (False, True)} <= seen, seen


def draw_coproducts(data, alg):
    """Coproducts on alg: a coboundary pair of a random r, a dualized
    algebra of the same dimension, or random entries in {-1, 0, 1}."""
    n = alg.dim
    entry = st.sampled_from([0, 0, 0, 1, -1])
    kind = data.draw(st.sampled_from(["coboundary", "dual", "random"]))
    if kind == "coboundary":
        r = tuple(tuple(Q(data.draw(entry)) for _ in range(n)) for _ in range(n))
        return kind, coboundary_coproducts(alg, r, r)
    if kind == "dual":
        same = [b for b in bases() + [ADAlgebra.zero(k) for k in (2, 4)] if b.dim == n]
        return kind, dualize_algebra(data.draw(st.sampled_from(same)))
    parts = [[(i, j, k, Q(c)) for i, j, k in product(range(n), repeat=3)
              if (c := data.draw(entry))] for _ in range(2)]
    return kind, CoproductPair.from_entries(n, *parts)


def bialgebra_verdicts(alg, cp):
    """(Ca1/Ca2 and D1-D9 pass, A* is anti-dendriform and the double
    construction of A and A* passes)."""
    d_bialgebra = check_coalgebra(cp).passed and check_d_bialgebra(alg, cp).passed
    dual = algebra_from_coproducts(cp)
    return d_bialgebra, dual.is_verified and build_double_construction(alg, dual).passed


def test_d_bialgebras_are_double_constructions():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def prop(data):
        alg = data.draw(st.sampled_from(bases() + [ADAlgebra.zero(k) for k in (2, 4)]))
        kind, cp = draw_coproducts(data, alg)
        d_bialgebra, double = bialgebra_verdicts(alg, cp)
        assert d_bialgebra == double, (kind, alg, cp)
        seen.add((kind, d_bialgebra))

    prop()
    assert {ok for _, ok in seen} == {True, False}, seen
