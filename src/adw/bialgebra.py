"""Invariant forms, double constructions, D-bialgebras and Yang-Baxter machinery.

Coproducts are stored per basis element as order-2 tensors.  For a coboundary
pair built from tensors r_succ, r_prec:

    D_succ(x) = -(R<(x) (x) I  +  I (x) L.(x)) r_succ
    D_prec(x) =  (R.(x) (x) I  +  I (x) L>(x)) r_prec

The Yang-Baxter residual of a single tensor r is

    r_12 . r_13  +  r_23 > r_12  -  r_13 < r_23

with the leg conventions of the tensors module; r is a solution when the
residual vanishes identically.

CD3-CD10, D1-D9, the coalgebra axioms, the residual and the YE6 form of
``ybe search`` compute on plain ints: ``field.lowering`` takes a check's
inputs (tables, tensors r, coproducts) together to int residues over GF(p),
and over Q to ints scaled by one d, the lcm of all their denominators.  D1-D9
(1 in the tables, 1 in the coproducts) and Ca1/Ca2 are of degree 2, CD3-CD6
and YE6 of degree 3 and CD7-CD10 of degree 4, so their values compare at the
scale d**k, and what leaves a check (a kept violation, a residual cell, a
form coefficient) is lifted.  The checks read the tables as their lowered
cells (``algebra.lowered_cells``), hold tensors as cell maps, apply leg maps
over nonzero cells only and contract tensors grouped once by leg
(``tensors``); only a kept violation is made dense (``Report.require_cells``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .actions import ActionFamily
from .algebra import (ADAlgebra, BilinearOp, check_anti_dendriform,
                      check_associative, lowered_cells, multiplication_operators)
from .fields import RATIONALS, InputError, PrimeField
from .linalg import _reduced, has_shape, inverse, matvec, shape, unit, vadd
from .matched import (AssocMatchedPair, assoc_bicrossed_product,
                      check_assoc_matched_pair)
from .reporting import PreconditionFailure, Report
from .reps import ADRep, dual_representation, semidirect_product, transposed
from .tensors import (C12_13, C13_23, C23_12, add_cells, add_contraction, add_first, add_last,
                      cell_map, cells_sum, flip, from_cells, legs, operators, t2_cells, t2_neg,
                      t2_zero, t3_from_entries, t3_is_zero, t3_reorder, table_cells, zeros)


# ---------------------------------------------------------------------------
# invariant bilinear forms

@dataclass(frozen=True)
class BilinearForm:
    dim: int
    gram: tuple

    def __post_init__(self):
        if shape(self.gram) != (self.dim, self.dim):
            raise InputError("gram matrix is not %dx%d" % (self.dim, self.dim))

    def pair(self, u, v):
        return sum(u[i] * self.gram[i][j] * v[j]
                   for i in range(self.dim) for j in range(self.dim))


def check_connes_cocycle(op: BilinearOp, form: BilinearForm,
                         exhaustive: bool = False, field=RATIONALS) -> Report:
    """Symmetry plus the cyclic identity w(x.y,z) + w(y.z,x) + w(z.x,y) = 0,
    on an associative product, compared in ``field``."""
    if op.dim != form.dim:
        raise InputError("form and product have different dimensions")
    pre = check_associative(op, field=field)
    if not pre.passed:
        raise PreconditionFailure("product is not associative", pre)
    out = Report("commutative invariant cocycle", exhaustive=exhaustive, field=field)
    n = op.dim
    for i in range(n):
        for j in range(n):
            out.require_equal("sym", (i, j), form.gram[i][j], form.gram[j][i],
                              "form is not symmetric")
    for i in range(n):
        ei = unit(n, i)
        for j in range(n):
            ej = unit(n, j)
            for k in range(n):
                ek = unit(n, k)
                total = (form.pair(op.table[i][j], ek)
                         + form.pair(op.table[j][k], ei)
                         + form.pair(op.table[k][i], ej))
                out.require_equal("cyc", (i, j, k), total, 0,
                                  "cyclic sum does not vanish")
    return out


def derive_compatible_ad(op: BilinearOp, form: BilinearForm,
                         precheck: bool = True, field=RATIONALS) -> ADAlgebra:
    """Split an associative product along a nondegenerate cyclic form.

    The two products are defined by the pairings

        w(x > y, z) = -w(y, z.x)        w(x < y, z) = -w(x, y.z)

    and are recovered by applying the inverse gram matrix to the right-hand
    sides.  (Some presentations attach the two pairings to the opposite
    products; this assignment is the one under which the split structure on a
    double construction restricts to the original products on both halves,
    and it matches the computations in the source derivations.)  The output
    is verified anti-dendriform with sum equal to the input product, and is
    an algebra over ``field``, the field of the product and the form.
    """
    ginv = inverse(form.gram)
    if ginv is None:
        raise PreconditionFailure("form is degenerate")
    if precheck:
        pre = check_connes_cocycle(op, form, field=field)
        if not pre.passed:
            raise PreconditionFailure("form is not a commutative invariant cocycle", pre)
    n, t = op.dim, op.table
    prec_t, succ_t = [], []
    for i in range(n):
        ei = unit(n, i)
        prow, srow = [], []
        for j in range(n):
            ej = unit(n, j)
            rhs_s = tuple(-form.pair(ej, t[k][i]) for k in range(n))
            rhs_p = tuple(-form.pair(ei, t[j][k]) for k in range(n))
            prow.append(matvec(ginv, rhs_p))
            srow.append(matvec(ginv, rhs_s))
        prec_t.append(tuple(prow))
        succ_t.append(tuple(srow))
    alg = ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)),
                    BilinearOp(n, tuple(succ_t)), BilinearOp(n, tuple(prec_t)), field)
    post = Report("derived compatible structure", field=field)
    post.require_equal("sum", (), alg.assoc.table, op.table,
                       "derived > + < does not reproduce the product")
    post.absorb(check_anti_dendriform(alg))
    if not post.passed:
        raise PreconditionFailure("derived structure failed verification", post)
    return alg


# ---------------------------------------------------------------------------
# double construction

@dataclass(frozen=True)
class DoubleConstruction:
    matched: AssocMatchedPair
    matched_report: Report
    assembled: BilinearOp          # associative product on A (+) A*
    form: BilinearForm             # the hyperbolic pairing
    form_report: Report
    passed: bool


def build_double_construction(alg: ADAlgebra, dual_alg: ADAlgebra) -> DoubleConstruction:
    """Glue an algebra and a dual-space algebra along negated transposes.

    The candidate associative matched pair is

        l1 = -R<*,  r1 = -L>*   (from the first algebra)
        l2 = -R<*,  r2 = -L>*   (from the second, acting back)

    On success the glued associative product on A (+) A* carries the
    hyperbolic symmetric form, which is verified to be a commutative
    invariant cocycle.
    """
    if alg.dim != dual_alg.dim:
        raise InputError("dual-space algebra must have the same dimension")
    for a, tag in ((alg, "first"), (dual_alg, "second")):
        if not a.is_verified:
            raise PreconditionFailure("%s algebra is not anti-dendriform" % tag, a.check())
    n = alg.dim
    ops_a = multiplication_operators(alg)
    ops_b = multiplication_operators(dual_alg)
    l1 = transposed(ops_a.rprec).neg()
    r1 = transposed(ops_a.lsucc).neg()
    l2 = transposed(ops_b.rprec).neg()
    r2 = transposed(ops_b.lsucc).neg()
    amp = AssocMatchedPair(alg.assoc, dual_alg.assoc, l1, r1, l2, r2, alg.field)
    mrep = check_assoc_matched_pair(amp)
    one = alg.field.one
    gram = tuple(tuple(one if abs(r - c) == n else 0 for c in range(2 * n))
                 for r in range(2 * n))
    form = BilinearForm(2 * n, gram)
    if not mrep.passed:
        return DoubleConstruction(amp, mrep, BilinearOp.zero(2 * n), form,
                                  Report("skipped"), False)
    big = assoc_bicrossed_product(amp)
    frep = check_connes_cocycle(big, form, field=alg.field)
    return DoubleConstruction(amp, mrep, big, form, frep,
                              mrep.passed and frep.passed)


# ---------------------------------------------------------------------------
# coalgebras and D-bialgebras

@dataclass(frozen=True)
class CoproductPair:
    dim: int
    dsucc: tuple  # per basis element: an order-2 tensor
    dprec: tuple
    field: object = RATIONALS

    def __post_init__(self):
        for part in (self.dsucc, self.dprec):
            if len(part) != self.dim or any(shape(t) != (self.dim, self.dim)
                                            for t in part):
                raise InputError("coproduct tables do not match dimension %d" % self.dim)

    @staticmethod
    def zero(dim):
        z = tuple(t2_zero(dim) for _ in range(dim))
        return CoproductPair(dim, z, z)

    @staticmethod
    def from_entries(dim, succ_entries, prec_entries, field=RATIONALS):
        dims = (dim, dim, dim)
        return CoproductPair(dim, t3_from_entries(dims, succ_entries, "coproduct entry"),
                             t3_from_entries(dims, prec_entries, "coproduct entry"), field)


# A coproduct part D(e_k) = sum part[k][i][j] e_i (x) e_j is the product
# table t[i][j][k] on the dual space read with its last index first: the one
# reordering (2, 0, 1) takes a table to its coproduct part, (1, 2, 0) back.
TO_COP, TO_TABLE = (2, 0, 1), (1, 2, 0)


def dualize_algebra(alg: ADAlgebra) -> CoproductPair:
    """Transpose structure constants into coproducts on the same space."""
    return CoproductPair(alg.dim, t3_reorder(alg.succ.table, TO_COP),
                         t3_reorder(alg.prec.table, TO_COP), alg.field)


def algebra_from_coproducts(cp: CoproductPair, field=RATIONALS) -> ADAlgebra:
    """Transpose coproducts into products on the dual space."""
    n = cp.dim
    return ADAlgebra(n, tuple("f%d" % (i + 1) for i in range(n)),
                     BilinearOp(n, t3_reorder(cp.dsucc, TO_TABLE)),
                     BilinearOp(n, t3_reorder(cp.dprec, TO_TABLE)), field)


def _combine(acc, col, pieces):
    """acc += sum_k c pieces[k] over the nonzero (k, c) of ``col``: the
    coproduct of a vector, or a leg piece of L(x) at x = sum_k c e_k."""
    for k, c in col:
        add_cells(acc, pieces[k], c)
    return acc


CA2_TERMS = ("(I(x)Ds)Ds", "-(D(x)I)Ds", "(Dp(x)I)Dp", "-(I(x)D)Dp")


def check_coalgebra(cp: CoproductPair, exhaustive: bool = False) -> Report:
    """The two coassociativity-type chains on every basis element:

        Ca1: (Ds (x) I)Dp = (I (x) Dp)Ds
        Ca2: (I (x) Ds)Ds = -(D (x) I)Ds = (Dp (x) I)Dp = -(I (x) D)Dp

    Both read the coproducts lowered, and a kept violation is lifted.
    """
    out = Report("coalgebra axioms", exhaustive=exhaustive, field=cp.field)
    lower, at = cp.field.lowering(cp.dsucc, cp.dprec)
    part = out.part(at(2))
    n = cp.dim
    ds, dp = ([t2_cells(t) for t in lower(x)] for x in (cp.dsucc, cp.dprec))
    # a coproduct as a map on one leg: column i lists the cells of D(e_i)
    cs, cp_ = [list(c.items()) for c in ds], [list(c.items()) for c in dp]
    csum = [list(add_cells(cell_map(a), b).items()) for a, b in zip(ds, dp)]

    dense, zero = partial(from_cells, (n, n, n)), partial(zeros, n, n, n)
    for k in range(n):
        part.require_cells("Ca1", (k,), (add_first(zero(), cs, dp[k], n),
                                         add_last(zero(), cp_, ds[k], n, n * n)), dense,
                           "(Ds(x)I)Dp != (I(x)Dp)Ds")
        chain = (add_last(zero(), cs, ds[k], n, n * n), add_first(zero(), csum, ds[k], n, -1),
                 add_first(zero(), cp_, dp[k], n), add_last(zero(), csum, dp[k], n, n * n, -1))
        part.require_cells("Ca2", (k,), chain, dense, CA2_TERMS)
    return out.absorb(part)


def check_d_bialgebra(alg: ADAlgebra, cp: CoproductPair, exhaustive: bool = False) -> Report:
    """The six compatibility equations D1-D6 over all basis pairs.

    The mirrored equations D7-D9 (the first three compatibilities for the
    transposed structure on the dual space) are checked and reported
    separately rather than presumed redundant.  The coalgebra axioms are a
    separate precondition, checked by check_coalgebra.  All nine read the
    tables and coproducts lowered together, and a kept violation is lifted.
    """
    if alg.dim != cp.dim:
        raise InputError("algebra and coproducts have different dimensions")
    out = Report("D-bialgebra compatibilities", exhaustive=exhaustive, field=alg.field)
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table,
                                              cp.dsucc, cp.dprec)
    part = out.part(at(2))
    dsucc, dprec = lower(cp.dsucc), lower(cp.dprec)
    _check_d_equations(part, lowered_cells(lowering, alg.succ.table, alg.prec.table),
                       (dsucc, dprec), ("D1", "D2", "D3", "D4", "D5", "D6"))
    # D7-D9: the transposed structure, the coproducts read as tables and back
    dual = table_cells(t3_reorder(dsucc, TO_TABLE)), table_cells(t3_reorder(dprec, TO_TABLE))
    _check_d_equations(part, dual + (cells_sum(*dual, at(1).residues),),
                       [t3_reorder(lower(op.table), TO_COP) for op in (alg.succ, alg.prec)],
                       ("D7", "D8", "D9"))
    return out.absorb(part)


def _check_d_equations(out, tables, coproducts, labels):
    """D1-D6 (or D1-D3 alone, with three labels) on the cells of lowered
    tables and coproducts, as cell maps of n x n tensors: add_first applies
    M (x) I and add_last I (x) M."""
    n = len(tables[0])
    (ls, rs), (lp, rp), (ld, rd) = (operators(t) for t in tables)
    ds, dp = ([t2_cells(t) for t in part] for part in coproducts)
    d = [add_cells(cell_map(a), b) for a, b in zip(ds, dp)]
    tds, tdp = [flip(t, n) for t in ds], [flip(t, n) for t in dp]
    dense, zero = partial(from_cells, (n, n)), partial(zeros, n, n)
    for i in range(n):
        for j in range(n):
            # D1: Dp(x.y) = (R.(y) (x) I)Dp(x) - (I (x) L>(x))Dp(y)
            rhs = add_last(add_first(zero(), rd[j], dp[i], n), ls[i], dp[j], n, n, -1)
            out.require_cells(labels[0], (i, j), (_combine(zero(), ld[i][j], dp), rhs), dense,
                              "coproduct of x.y mismatch (prec side)")
            # D2: Ds(x.y) = (I (x) L.(x))Ds(y) - (R<(y) (x) I)Ds(x)
            rhs = add_first(add_last(zero(), ld[i], ds[j], n, n), rp[j], ds[i], n, -1)
            out.require_cells(labels[1], (i, j), (_combine(zero(), ld[i][j], ds), rhs), dense,
                              "coproduct of x.y mismatch (succ side)")
            # D3: (I (x) R.(y))Ds(x) + (L>(y) (x) I)Ds(x)
            #     - tau(I (x) R<(x))Dp(y) - tau(L.(x) (x) I)Dp(y) = 0,
            # with tau (M on one leg) = (M on the other) tau
            d3 = add_first(add_last(zero(), rd[j], ds[i], n, n), ls[j], ds[i], n)
            add_last(add_first(d3, rp[i], tdp[j], n, -1), ld[i], tdp[j], n, n, -1)
            out.require_cells(labels[2], (i, j), (d3,), dense,
                              "mixed compatibility does not vanish")
            if len(labels) == 3:
                continue
            # D4: D(x<y) = (R<(y) (x) I)D(x) - (I (x) L<(x))Ds(y)
            rhs = add_last(add_first(zero(), rp[j], d[i], n), lp[i], ds[j], n, n, -1)
            out.require_cells(labels[3], (i, j), (_combine(zero(), lp[i][j], d), rhs), dense,
                              "coproduct of x<y mismatch")
            # D5: D(x>y) = (I (x) L>(x))D(y) - (R>(y) (x) I)Dp(x)
            rhs = add_first(add_last(zero(), ls[i], d[j], n, n), rs[j], dp[i], n, -1)
            out.require_cells(labels[4], (i, j), (_combine(zero(), ls[i][j], d), rhs), dense,
                              "coproduct of x>y mismatch")
            # D6: (L>(x) (x) I)D(y) + (R>(y) (x) I)tau Ds(x)
            #     - (I (x) L<(y))tau Dp(x) - (I (x) R<(x))D(y) = 0
            d6 = add_first(add_first(zero(), ls[i], d[j], n), rs[j], tds[i], n)
            add_last(add_last(d6, lp[j], tdp[i], n, n, -1), rp[i], d[j], n, n, -1)
            out.require_cells(labels[5], (i, j), (d6,), dense,
                              "mixed compatibility does not vanish")


# ---------------------------------------------------------------------------
# coboundary pairs

def coboundary_coproducts(alg: ADAlgebra, rsucc, rprec) -> CoproductPair:
    """Assemble the coboundary coproduct pair from two tensors, on the
    scalars as given."""
    n = alg.dim
    if shape(rsucc) != (n, n) or shape(rprec) != (n, n):
        raise InputError("tensors must be %dx%d" % (n, n))
    (ls, _), (_, rp), (ld, rd) = (operators(table_cells(op.table))
                                  for op in (alg.succ, alg.prec, alg.assoc))
    s, p = t2_cells(rsucc), t2_cells(rprec)
    ds = (add_last(add_first(zeros(n, n), rp[k], s, n, -1), ld[k], s, n, n, -1)
          for k in range(n))
    dp = (add_last(add_first(zeros(n, n), rd[k], p, n), ls[k], p, n, n) for k in range(n))
    return CoproductPair(n, tuple(from_cells((n, n), c) for c in ds),
                         tuple(from_cells((n, n), c) for c in dp), alg.field)


def _contracted(*terms):
    """The cells of a sum of contractions (u, v, cells, how) of tensors given
    by their ``legs``; a term enters negated through a negated u."""
    acc = cell_map()
    for u, v, cells, how in terms:
        add_contraction(acc, u, v, cells, how)
    return acc


def check_coboundary_conditions(alg: ADAlgebra, rsucc, rprec,
                                exhaustive: bool = False) -> Report:
    """The eight tensor conditions CD3-CD10 for a coboundary pair.

    Passing is equivalent to (algebra, coboundary pair) satisfying the full
    D-bialgebra package (coalgebra axioms plus D1-D6); the equivalence is
    exercised by the test suite rather than assumed.  The conditions run on
    the tables and both tensors lowered together; the pieces that depend on
    one basis index are computed once, and a kept violation is lifted.
    """
    n = alg.dim
    if shape(rsucc) != (n, n) or shape(rprec) != (n, n):
        raise InputError("tensors must be %dx%d" % (n, n))
    out = Report("coboundary conditions", exhaustive=exhaustive, field=alg.field)
    # CD3-CD6 are of degree 2 in the tables and 1 in r, CD7-CD10 of 2 and 2
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table, rsucc, rprec)
    succ, prec, dot = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    rsucc, rprec = lower(rsucc), lower(rprec)
    cubic, quartic = out.part(at(3)), out.part(at(4))
    (ls, rs), (lp, rp), (ld, rd) = operators(succ), operators(prec), operators(dot)
    r_s, r_p = t2_cells(rsucc), t2_cells(rprec)
    s_plus_tp = add_cells(cell_map(r_s), flip(r_p, n))     # r> + tau r<
    p_plus_ts = add_cells(cell_map(r_p), flip(r_s, n))     # r< + tau r>
    s_minus_p = add_cells(cell_map(r_s), r_p, -1)          # r> - r<
    # the pieces of one index k: (I (x) L>(e_k))(r> - r<), (R<(e_k) (x) I)(r> - r<)
    ls2_smp = [add_last(cell_map(), ls[k], s_minus_p, n, n) for k in range(n)]
    rp1_smp = [add_first(cell_map(), rp[k], s_minus_p, n) for k in range(n)]
    # CD3's inner bracket (L>(y) (x) I + I (x) R.(y))(r> + tau r<), per y
    inner = [add_last(add_first(cell_map(), ls[j], s_plus_tp, n), rd[j], s_plus_tp, n, n)
             for j in range(n)]
    # CD6's eight terms gathered by the operator applied last: L>(x) (x) I
    # takes after_ls[y], I (x) R<(x) after_rp[y], R>(y) (x) I and R<(y) (x) I
    # the pieces rp2_pts[x] = (I (x) R<(x))(r< + tau r>) and rp2_smp[x]
    lp2_spt = [add_last(cell_map(), lp[j], s_plus_tp, n, n) for j in range(n)]
    after_ls = [add_first(cell_map(), rs[j], p_plus_ts, n) for j in range(n)]
    for j in range(n):
        for piece in (lp2_spt, rp1_smp, ls2_smp):
            add_cells(after_ls[j], piece[j], -1)
    after_rp = [add_cells(cell_map(lp2_spt[j]), ls2_smp[j]) for j in range(n)]
    rp2_pts = [add_last(cell_map(), rp[i], p_plus_ts, n, n) for i in range(n)]
    rp2_smp = [add_last(cell_map(), rp[i], s_minus_p, n, n) for i in range(n)]
    dense, dense3 = partial(from_cells, (n, n)), partial(from_cells, (n, n, n))
    for i in range(n):
        for j in range(n):
            # CD3: (R<(x) (x) I + I (x) L.(x)) (L>(y) (x) I + I (x) R.(y)) (r> + tau r<)
            cd3 = add_last(add_first(zeros(n, n), rp[i], inner[j], n), ld[i], inner[j], n, n)
            cubic.require_cells("CD3", (i, j), (cd3,), dense, "CD3 does not vanish")
            # CD4: [I (x) L>(x<y) - R<(y) (x) L>(x) + R<(x<y + x.y) (x) I](r> - r<),
            # with L>(v) = sum_k v_k L>(e_k), and so for R<
            rp_ls = add_first(cell_map(), rp[j], ls2_smp[i], n)
            pij, dij, sij = lp[i][j], ld[i][j], ls[i][j]
            cd4 = _combine(_combine(zeros(n, n), pij, ls2_smp), pij, rp1_smp)
            _combine(cd4, dij, rp1_smp)
            cubic.require_cells("CD4", (i, j), (add_cells(cd4, rp_ls, -1),), dense,
                                "CD4 does not vanish")
            # CD5: [I (x) L>(x>y + x.y) + R<(x>y) (x) I - R<(y) (x) L>(x)](r> - r<)
            cd5 = _combine(_combine(zeros(n, n), sij, ls2_smp), dij, ls2_smp)
            _combine(cd5, sij, rp1_smp)
            cubic.require_cells("CD5", (i, j), (add_cells(cd5, rp_ls, -1),), dense,
                                "CD5 does not vanish")
            # CD6: [L>(x)R>(y) (x) I - R>(y) (x) R<(x)](r< + tau r>)
            #      + [I (x) R<(x)L<(y) - L>(x) (x) L<(y)](r> + tau r<)
            #      - [L>(x)R<(y) (x) I - R<(y) (x) R<(x) + L>(x) (x) L>(y)
            #         - I (x) R<(x)L>(y)](r> - r<)
            # (the last bracket enters negated; the expansion of the sixth
            #  compatibility forces this sign)
            cd6 = add_last(add_first(zeros(n, n), ls[i], after_ls[j], n), rp[i], after_rp[j], n, n)
            add_first(add_first(cd6, rs[j], rp2_pts[i], n, -1), rp[j], rp2_smp[i], n)
            cubic.require_cells("CD6", (i, j), (cd6,), dense, "CD6 does not vanish")
    # the brackets of CD7-CD10 that do not depend on x = e_i, each once, on
    # the legs of every tensor they read, grouped once
    def lg(t, sign=1):
        return legs(t if sign == 1 else add_cells(cell_map(), t, sign), n, n)

    r_s2, r_p2, neg_s, neg_p = lg(r_s), lg(r_p), lg(r_s, -1), lg(r_p, -1)
    s_p, p_s = lg(s_minus_p), lg(s_minus_p, -1)
    ss_dot13 = (r_s2, r_s2, dot, C13_23)
    base_s = (ss_dot13, (r_s2, r_s2, prec, C23_12))
    base_p = ((r_p2, r_p2, dot, C12_13), (r_p2, r_p2, succ, C23_12))
    k7 = _contracted((r_s2, r_p2, prec, C12_13), (r_p2, r_s2, dot, C23_12),
                     (r_s2, r_p2, succ, C13_23))
    k8c = _contracted(ss_dot13, (neg_p, r_s2, dot, C12_13), (neg_s, r_p2, succ, C23_12),
                      (r_s2, r_s2, prec, C12_13), (r_s2, r_s2, dot, C23_12))
    k8d = _contracted(*base_s, (neg_p, r_s2, succ, C12_13))
    k9a = _contracted(base_p[0], (neg_s, r_p2, prec, C23_12), (neg_p, r_s2, dot, C13_23),
                      (r_p2, r_p2, dot, C23_12), (r_p2, r_p2, succ, C13_23))
    k9b = _contracted(*base_p, (neg_p, r_s2, prec, C13_23))
    k10a = _contracted(*base_s, (neg_p, r_p2, succ, C12_13))
    k10b = _contracted(*base_p, (neg_s, r_s2, prec, C13_23))
    nn = n * n
    for i in range(n):
        rp_rs = lg(add_first(zeros(n, n), rp[i], r_s, n))
        ls_rp = lg(add_last(zeros(n, n), ls[i], r_p, n, n))
        # CD7
        cd7 = add_last(add_first(zeros(n, n, n), rp[i], k7, nn), ls[i], k7, n, n, -1)
        quartic.require_cells("CD7", (i,), (cd7,), dense3, "CD7 does not vanish")
        # CD8
        cd8 = _contracted((s_p, rp_rs, prec, C12_13), (rp_rs, s_p, succ, C23_12))
        add_first(add_last(cd8, ld[i], k8c, n, n), rp[i], k8d, nn)
        quartic.require_cells("CD8", (i,), (cd8,), dense3, "CD8 does not vanish")
        # CD9
        cd9 = _contracted((ls_rp, p_s, succ, C13_23), (p_s, ls_rp, prec, C23_12))
        add_last(add_first(cd9, rd[i], k9a, nn), ls[i], k9b, n, n)
        quartic.require_cells("CD9", (i,), (cd9,), dense3, "CD9 does not vanish")
        # CD10
        cd10 = _contracted((rp_rs, neg_s, prec, C23_12),
                           (lg(add_first(zeros(n, n), rp[i], r_p, n)), r_p2, prec, C23_12))
        add_last(add_first(cd10, rp[i], k10a, nn), ls[i], k10b, n, n, -1)
        quartic.require_cells("CD10", (i,), (cd10,), dense3, "CD10 does not vanish")
    return out.absorb(cubic).absorb(quartic)


# ---------------------------------------------------------------------------
# the Yang-Baxter residual and r-to-map conversion

def adybe_residual(alg: ADAlgebra, r):
    """The residual tensor  r_12 . r_13  +  r_23 > r_12  -  r_13 < r_23.

    A cell that no term reaches is int 0.  Over Q, when some table
    coefficient is a ``Fraction``, the terms run on the tables and r lowered
    together (degree 1 in the tables and 2 in r) and each reached cell is
    lifted to a ``Fraction``, the type it has on such tables as given.  Over
    GF(p), and on plain-int tables, the terms run on the scalars as given.
    """
    n = _ye6_dim(alg, r)
    tables = (alg.succ.table, alg.prec.table)
    # over Q every coefficient is an int or a Fraction
    has_fraction = not isinstance(alg.field, PrimeField) and any(
        x and type(x) is not int for t in tables for row in t for v in row if any(v) for x in v)
    if not has_fraction:
        return from_cells((n, n, n), _residual_cells(
            r, r, *map(table_cells, (alg.assoc.table,) + tables)))
    r, tables, at = _lowered_ye6(alg, r)
    return from_cells((n, n, n), _residual_cells(r, r, *tables), at(3).lift)


def _ye6_dim(alg, r):
    n = alg.dim
    if shape(r) != (n, n):
        raise InputError("tensor must be %dx%d" % (n, n))
    return n


def _lowered_ye6(alg, r):
    """(r, (dot, succ, prec), at): r and the tables' cells lowered together."""
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table, r)
    succ, prec, dot = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    return lower(r), (dot, succ, prec), at


def _residual_cells(u, v, dot, succ, prec):
    """B(u, v) = u_12 . v_13 + u_23 > v_12 - u_13 < v_23 on the cells of given
    product tables as {cell: value}, over the cells some term reached
    (``add_contraction``); the residual of r is B(r, r)."""
    n = len(u)
    cells, u2 = cell_map(), legs(t2_cells(u), n, n)
    v2 = u2 if v is u else legs(t2_cells(v), n, n)
    add_contraction(cells, u2, v2, dot, C12_13)
    add_contraction(cells, u2, v2, succ, C23_12)
    add_contraction(cells, legs(t2_cells(t2_neg(u)), n, n), v2, prec, C13_23)
    return cells


def is_ybe_solution(alg: ADAlgebra, r) -> bool:
    """True iff the residual vanishes in the algebra's field.  The terms run
    on the tables and r lowered together, and no tensor is built."""
    _ye6_dim(alg, r)
    r, tables, at = _lowered_ye6(alg, r)
    residues = at(3).residues
    return not any(residues(x) for x in _residual_cells(r, r, *tables).values())


def t_r(r):
    """The map from the dual space induced by a tensor: w* -> sum <w*,a_i> b_i.

    In dual/primal coordinate bases this is the transpose of r's coefficient
    matrix, so a skew tensor yields a skew-symmetric matrix.
    """
    na, nb = shape(r)
    return tuple(tuple(r[k][j] for k in range(na)) for j in range(nb))


def is_skew(r) -> bool:
    na, nb = shape(r)
    return na == nb and all(r[i][j] == -r[j][i] for i in range(na) for j in range(na))


# ---------------------------------------------------------------------------
# O-operators

def _check_o_rows(out, tmat, m, rows):
    """T(u) o T(v) = T(l(Tu)v + r(Tv)u) for every basis pair (u, v) of V and,
    within a pair, every row (label, product o, family l, family r, detail)."""
    n = len(tmat)
    tcols = [tuple(tmat[r][c] for r in range(n)) for c in range(m)]
    for u in range(m):
        tu, eu = tcols[u], unit(m, u)
        for v in range(m):
            tv, ev = tcols[v], unit(m, v)
            for label, op, left, right, detail in rows:
                out.require_equal(label, (u, v), op.apply(tu, tv),
                                  matvec(tmat, vadd(left.act(tu, ev), right.act(tv, eu))),
                                  detail)
    return out


def check_o_operator(tmat, rep: ADRep, exhaustive: bool = False) -> Report:
    """T(u) o T(v) = T(l_o(T u)v + r_o(T v)u) for both products, all pairs."""
    n, m = rep.algebra.dim, rep.mod_dim
    if not has_shape(tmat, n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    alg = rep.algebra
    return _check_o_rows(Report("O-operator identities", exhaustive=exhaustive,
                                field=alg.field), tmat, m, (
        ("O-succ", alg.succ, rep.lsucc, rep.rsucc, "T(u)>T(v) != T(l>(Tu)v + r>(Tv)u)"),
        ("O-prec", alg.prec, rep.lprec, rep.rprec, "T(u)<T(v) != T(l<(Tu)v + r<(Tv)u)")))


def check_o_operator_assoc(tmat, op: BilinearOp, left: ActionFamily,
                           right: ActionFamily, exhaustive: bool = False,
                           field=RATIONALS) -> Report:
    """Associative-mode identity T(u).T(v) = T(l(Tu)v + r(Tv)u), compared in
    ``field``."""
    n, m = op.dim, left.mod_dim
    if not has_shape(tmat, n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    if left.alg_dim != n or right.alg_dim != n or right.mod_dim != m:
        raise InputError("action families do not match the product and module")
    return _check_o_rows(Report("associative O-operator identity", exhaustive=exhaustive,
                                field=field), tmat, m, (
        ("O-assoc", op, left, right, "T(u).T(v) != T(l(Tu)v + r(Tv)u)"),))


def tr_ybe_identity(alg: ADAlgebra, r, exhaustive: bool = False) -> Report:
    """The operator form of the Yang-Baxter condition for skew r:

        T(u).T(v) + T(R<*(Tu)v + L>*(Tv)u) = 0

    i.e. T_r is an associative-mode O-operator for (-R<*, -L>*) on the dual.
    """
    ops = multiplication_operators(alg)
    return check_o_operator_assoc(t_r(r), alg.assoc,
                                  transposed(ops.rprec).neg(),
                                  transposed(ops.lsucc).neg(),
                                  exhaustive=exhaustive, field=alg.field)


@dataclass(frozen=True)
class LiftResult:
    ambient: ADAlgebra
    r: tuple
    residual: tuple
    is_solution: bool
    operator_report: Report
    consistent: bool


def o_operator_to_ybe(tmat, rep: ADRep) -> LiftResult:
    """Lift an operator to a skew tensor on the split extension by the dual module.

    The ambient algebra is A semidirect V* (via the dual representation); the
    operator embeds as sum T(v_i) (x) v_i* and r = T - tau(T).  The final
    verdict records whether zero residual agrees with the operator check.
    """
    n, m = rep.algebra.dim, rep.mod_dim
    if not has_shape(tmat, n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    drep = dual_representation(rep)
    ambient = semidirect_product(drep, precheck=False)
    big = n + m
    t = {p * big + n + i: x for p in range(n) for i, x in enumerate(tmat[p]) if x}
    r = from_cells((big, big), add_cells(cell_map(t), flip(t, big), -1))
    residual = adybe_residual(ambient, r)
    orep = check_o_operator(tmat, rep)
    solved = t3_is_zero(ambient.field.residues(residual))
    return LiftResult(ambient, r, residual, solved, orep, solved == orep.passed)


# ---------------------------------------------------------------------------
# exhaustive skew search

def skew_tensor_from_uppers(n, uppers):
    """Build a skew tensor from its strictly-upper entries (row-major)."""
    t = [[0] * n for _ in range(n)]
    it = iter(uppers)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            t[i][j] = v
            t[j][i] = -v
    return tuple(tuple(row) for row in t)


def _ye6_form(alg: ADAlgebra, k):
    """YE6 at r = sum_a x_a S_a as a quadratic form in the upper entries x_a.

    S_a is the skew unit tensor of the a-th strictly-upper entry (row-major).
    The residual is B(r, r) (``_residual_cells``), so a component has c_aa =
    B(S_a, S_a) and c_ab = B(S_a, S_b) + B(S_b, S_a), a < b.  On the
    ``lowered`` tables, the signed w-bit digit a + k b of B(sum_a S_a 2**(w a),
    sum_b S_b 2**(w k b)) is B(S_a, S_b) (Kronecker substitution): a column
    of S_a has one nonzero, +-1, so a cell of B(S_a, S_b) sums at most one
    entry of each table, and M < 2**(w-1) for M the sum of their largest
    sizes.  Returns, for each t < k, the components whose highest variable
    is x_t, by lowest (b, a) and then by cell, each a list of (a, b, c) in
    increasing (b, a), c = ``alg.field.residues`` of the coefficient, nonzero.
    """
    n, field = alg.dim, alg.field
    lowering = field.lowering(alg.succ.table, alg.prec.table)
    succ, prec, dot = tables = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    # over Q a coefficient, of degree 1 in the tables, is lifted
    reduce = (lambda c, p=field.p: c % p) if isinstance(field, PrimeField) \
        else lowering[1](1).lift
    top = sum(max((abs(c) for row in t for cell in row for _, c in cell), default=0)
              for t in tables)
    w = top.bit_length() + 1
    shifts, half, mask = range(0, w * k * k, w), 1 << w - 1, (1 << w) - 1
    # with half added to every digit, each reads as a plain w-bit field
    offset = sum(half << s for s in shifts)
    u, v = (skew_tensor_from_uppers(n, [1 << w * step * a for a in range(k)]) for step in (1, k))
    pairs = [(a, b) for b in range(k) for a in range(b + 1)]
    comps = []
    for key, x in _residual_cells(u, v, dot, succ, prec).items():
        x += offset
        d = [(x >> s & mask) - half for s in shifts]
        terms = [(a, b, c) for a, b in pairs
                 if (c := reduce(d[a + k * b] + d[b + k * a] if a < b else d[a + k * a]))]
        if terms:
            comps.append((terms[0][1], terms[0][0], key, terms))
    by_last = [[] for _ in range(k)]
    for *_, terms in sorted(comps):
        by_last[terms[-1][1]].append(terms)
    return by_last


def _ye6_rows(alg: ADAlgebra, k):
    """The rows the skew search prunes on: the pivot rows of the reduced
    echelon form (``_reduced``) of ``_ye6_form``'s components, over the
    monomials highest variable first, (k-1, k-1), (k-2, k-1), ..., (0, 0),
    filed by their pivot's highest variable and listed as the components
    are.  A component of level t combines rows of levels <= t only, so the
    rows vanish on every solution and drop a prefix no later."""
    field = alg.field
    monomials = [(a, b) for b in reversed(range(k)) for a in reversed(range(b + 1))]
    column = {m: c for c, m in enumerate(monomials)}
    rows = [({column[a, b]: c for a, b, c in terms}, 0)
            for level in _ye6_form(alg, k) for terms in level]
    levels = [[] for _ in range(k)]
    for (entries, _), pivot in zip(*_reduced(rows, len(monomials), field)):
        levels[monomials[pivot][1]].append(
            [(*monomials[c], field.residues(x)) for c, x in entries.items() if x])
    return levels


def search_skew_solutions(alg: ADAlgebra, values):
    """Exhaust skew tensors with upper entries drawn from ``values``.

    Returns the solutions of the Yang-Baxter condition in deterministic
    lexicographic grid order (the order of ``itertools.product(values,
    repeat=k)`` over the k = n(n-1)/2 strictly-upper entries), each built from
    the caller's own value objects.  Every value and every nonzero table
    coefficient must be an int or an element of ``alg.field``.

    YE6 is expanded once into echelon rows (``_ye6_rows``); the walk assigns
    the upper entries in order and drops a prefix as soon as a row whose
    variables are all assigned is nonzero.  Over GF(p) it computes with int
    residues mod p, so an int is read mod p.  Dimensions above 4 are refused:
    the grid grows as len(values)**(n(n-1)/2).
    """
    n = alg.dim
    if n > 4:
        raise InputError("skew search supports dimension <= 4")
    field = alg.field
    p = field.p if isinstance(field, PrimeField) else 0
    # coerce raises InputError on a value outside the field; ADAlgebra has
    # already checked the table coefficients
    values = list(values)
    xs = [field.residues(field.coerce(x)) for x in values]
    k = n * (n - 1) // 2
    levels = _ye6_rows(alg, k)
    found, row, picks = [], [None] * k, [None] * k

    def walk(t):
        if t == k:
            found.append(skew_tensor_from_uppers(n, [values[i] for i in picks]))
            return
        for i, x in enumerate(xs):
            row[t] = x
            for terms in levels[t]:
                s = sum([c * row[a] * row[b] for a, b, c in terms])
                if s % p if p else s:
                    break
            else:
                picks[t] = i
                walk(t + 1)

    walk(0)
    return found
