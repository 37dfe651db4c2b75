"""Invariant forms, double constructions, D-bialgebras and Yang-Baxter machinery.

Coproducts are stored per basis element as order-2 tensors.  For a coboundary
pair built from tensors r_succ, r_prec:

    D_succ(x) = -(R<(x) (x) I  +  I (x) L.(x)) r_succ
    D_prec(x) =  (R.(x) (x) I  +  I (x) L>(x)) r_prec

The Yang-Baxter residual of a single tensor r is

    r_12 . r_13  +  r_23 > r_12  -  r_13 < r_23

with the leg conventions of the tensors module; r is a solution when the
residual vanishes identically.

CD3-CD10, the residual and the YE6 polarization of ``ybe search`` compute
on plain ints: ``field.lowering`` takes the tables and the tensors r
together to int residues over GF(p), and over Q to ints scaled by one d, the
lcm of all their denominators.  CD3-CD6 and YE6 are of degree 3 in (tables,
r) and CD7-CD10 of degree 4, so their values compare at the scale d**3 or
d**4, and what leaves a check (a kept violation, a residual cell, a form
coefficient) is lifted.  D1-D9 and the coalgebra axioms compute on the
scalars as given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import ActionFamily
from .algebra import (ADAlgebra, BilinearOp, check_anti_dendriform,
                      check_associative, lowered, multiplication_operators)
from .fields import RATIONALS, InputError, PrimeField
from .linalg import inverse, matmul, matvec, shape, transpose, unit, vadd
from .matched import (AssocMatchedPair, assoc_bicrossed_product,
                      check_assoc_matched_pair)
from .reporting import PreconditionFailure, Report
from .reps import ADRep, dual_representation, semidirect_product
from .tensors import (C12_13, C13_23, C23_12, add_contraction, contract_12_13,
                      contract_13_23, contract_23_12, t2_add, t2_apply, t2_neg, t2_sub,
                      t2_zero, t3_add, t3_apply, t3_from_cells,
                      t3_from_entries, t3_is_zero, t3_neg, t3_sub, t3_zero, twist)


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
    l1 = ops_a.rprec.transpose().neg()
    r1 = ops_a.lsucc.transpose().neg()
    l2 = ops_b.rprec.transpose().neg()
    r2 = ops_b.lsucc.transpose().neg()
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

    def succ_at(self, vec):
        return self._at(self.dsucc, vec)

    def prec_at(self, vec):
        return self._at(self.dprec, vec)

    def _at(self, part, vec):
        scaled = (tuple(tuple(c * x if x else 0 for x in row) for row in part[k])
                  for k, c in enumerate(vec) if c)
        return t2_add(t2_zero(self.dim), *scaled)

    def sum_at(self, vec):
        return t2_add(self.succ_at(vec), self.prec_at(vec))


def dualize_algebra(alg: ADAlgebra) -> CoproductPair:
    """Transpose structure constants into coproducts on the same space."""
    n = alg.dim
    return CoproductPair(
        n,
        tuple(tuple(tuple(alg.succ.table[i][j][k] for j in range(n)) for i in range(n))
              for k in range(n)),
        tuple(tuple(tuple(alg.prec.table[i][j][k] for j in range(n)) for i in range(n))
              for k in range(n)),
        alg.field,
    )


def algebra_from_coproducts(cp: CoproductPair, field=RATIONALS) -> ADAlgebra:
    """Transpose coproducts into products on the dual space."""
    n = cp.dim
    succ = BilinearOp(n, tuple(
        tuple(tuple(cp.dsucc[k][i][j] for k in range(n)) for j in range(n))
        for i in range(n)))
    prec = BilinearOp(n, tuple(
        tuple(tuple(cp.dprec[k][i][j] for k in range(n)) for j in range(n))
        for i in range(n)))
    return ADAlgebra(n, tuple("f%d" % (i + 1) for i in range(n)), succ, prec, field)


def _flat(parts):
    """A coproduct given per basis element as the n x n^2 matrix of its rows."""
    return tuple(tuple(x for row in part for x in row) for part in parts)


def _cop_leg1(parts, t):
    """Apply a coproduct (given per basis element) to leg 1 of a Tensor2:
    out[p][q][r] = sum_i t[i][r] parts[i][p][q]."""
    n = len(parts)
    cols = transpose(matmul(transpose(t), _flat(parts)))
    return tuple(cols[p * n:(p + 1) * n] for p in range(n))


def _cop_leg2(parts, t):
    """Apply a coproduct to leg 2 of a Tensor2: out[p][q][r] = sum_j t[p][j] parts[j][q][r]."""
    n = len(parts)
    return tuple(tuple(row[q * n:(q + 1) * n] for q in range(n))
                 for row in matmul(t, _flat(parts)))


CA2_TERMS = ("(I(x)Ds)Ds", "-(D(x)I)Ds", "(Dp(x)I)Dp", "-(I(x)D)Dp")


def check_coalgebra(cp: CoproductPair, exhaustive: bool = False) -> Report:
    """The two coassociativity-type chains on every basis element:

        Ca1: (Ds (x) I)Dp = (I (x) Dp)Ds
        Ca2: (I (x) Ds)Ds = -(D (x) I)Ds = (Dp (x) I)Dp = -(I (x) D)Dp
    """
    out = Report("coalgebra axioms", exhaustive=exhaustive, field=cp.field)
    n = cp.dim
    dsum = tuple(t2_add(cp.dsucc[k], cp.dprec[k]) for k in range(n))
    for k in range(n):
        out.require_equal("Ca1", (k,), _cop_leg1(cp.dsucc, cp.dprec[k]),
                          _cop_leg2(cp.dprec, cp.dsucc[k]),
                          "(Ds(x)I)Dp != (I(x)Dp)Ds")
        chain = (
            _cop_leg2(cp.dsucc, cp.dsucc[k]),
            t3_neg(_cop_leg1(dsum, cp.dsucc[k])),
            _cop_leg1(cp.dprec, cp.dprec[k]),
            t3_neg(_cop_leg2(dsum, cp.dprec[k])),
        )
        out.require_chain("Ca2", (k,), CA2_TERMS, chain)
    return out


def check_d_bialgebra(alg: ADAlgebra, cp: CoproductPair, exhaustive: bool = False) -> Report:
    """The six compatibility equations D1-D6 over all basis pairs.

    The mirrored equations D7-D9 (the first three compatibilities for the
    transposed structure on the dual space) are checked and reported
    separately rather than presumed redundant.  The coalgebra axioms are a
    separate precondition, checked by check_coalgebra.
    """
    if alg.dim != cp.dim:
        raise InputError("algebra and coproducts have different dimensions")
    out = Report("D-bialgebra compatibilities", exhaustive=exhaustive, field=alg.field)
    _check_d_equations(alg, cp, out, ("D1", "D2", "D3", "D4", "D5", "D6"))
    _check_d_equations(algebra_from_coproducts(cp, alg.field), dualize_algebra(alg), out,
                       ("D7", "D8", "D9"))
    return out


def _check_d_equations(alg, cp, out, labels):
    n = alg.dim
    ops = multiplication_operators(alg)
    ls, rs = ops.lsucc.mats, ops.rsucc.mats
    lp, rp = ops.lprec.mats, ops.rprec.mats
    ldot = ops.lsucc.add(ops.lprec).mats
    rdot = ops.rsucc.add(ops.rprec).mats
    first_three_only = len(labels) == 3
    for i in range(n):
        for j in range(n):
            ldot_i, rdot_j = ldot[i], rdot[j]
            dij = alg.assoc.table[i][j]
            # D1: Dp(x.y) = (R.(y) (x) I)Dp(x) - (I (x) L>(x))Dp(y)
            out.require_equal(labels[0], (i, j), cp.prec_at(dij),
                              t2_sub(t2_apply(rdot_j, cp.dprec[i], 1),
                                     t2_apply(ls[i], cp.dprec[j], 2)),
                              "coproduct of x.y mismatch (prec side)")
            # D2: Ds(x.y) = (I (x) L.(x))Ds(y) - (R<(y) (x) I)Ds(x)
            out.require_equal(labels[1], (i, j), cp.succ_at(dij),
                              t2_sub(t2_apply(ldot_i, cp.dsucc[j], 2),
                                     t2_apply(rp[j], cp.dsucc[i], 1)),
                              "coproduct of x.y mismatch (succ side)")
            # D3: (I (x) R.(y))Ds(x) + (L>(y) (x) I)Ds(x)
            #     - tau(I (x) R<(x))Dp(y) - tau(L.(x) (x) I)Dp(y) = 0
            d3 = t2_add(t2_apply(rdot_j, cp.dsucc[i], 2),
                        t2_apply(ls[j], cp.dsucc[i], 1),
                        t2_neg(twist(t2_apply(rp[i], cp.dprec[j], 2))),
                        t2_neg(twist(t2_apply(ldot_i, cp.dprec[j], 1))))
            out.require_equal(labels[2], (i, j), d3, t2_zero(n),
                              "mixed compatibility does not vanish")
            if first_three_only:
                continue
            dx = cp.sum_at(unit(n, i))
            dy = cp.sum_at(unit(n, j))
            # D4: D(x<y) = (R<(y) (x) I)D(x) - (I (x) L<(x))Ds(y)
            out.require_equal(labels[3], (i, j), cp.sum_at(alg.prec.table[i][j]),
                              t2_sub(t2_apply(rp[j], dx, 1),
                                     t2_apply(lp[i], cp.dsucc[j], 2)),
                              "coproduct of x<y mismatch")
            # D5: D(x>y) = (I (x) L>(x))D(y) - (R>(y) (x) I)Dp(x)
            out.require_equal(labels[4], (i, j), cp.sum_at(alg.succ.table[i][j]),
                              t2_sub(t2_apply(ls[i], dy, 2),
                                     t2_apply(rs[j], cp.dprec[i], 1)),
                              "coproduct of x>y mismatch")
            # D6: (L>(x) (x) I)D(y) + (R>(y) (x) I)tau Ds(x)
            #     - (I (x) L<(y))tau Dp(x) - (I (x) R<(x))D(y) = 0
            d6 = t2_add(t2_apply(ls[i], dy, 1),
                        t2_apply(rs[j], twist(cp.dsucc[i]), 1),
                        t2_neg(t2_apply(lp[j], twist(cp.dprec[i]), 2)),
                        t2_neg(t2_apply(rp[i], dy, 2)))
            out.require_equal(labels[5], (i, j), d6, t2_zero(n),
                              "mixed compatibility does not vanish")


# ---------------------------------------------------------------------------
# coboundary pairs

def coboundary_coproducts(alg: ADAlgebra, rsucc, rprec) -> CoproductPair:
    """Assemble the coboundary coproduct pair from two tensors."""
    n = alg.dim
    if shape(rsucc) != (n, n) or shape(rprec) != (n, n):
        raise InputError("tensors must be %dx%d" % (n, n))
    ops = multiplication_operators(alg)
    ld = ops.lsucc.add(ops.lprec).mats
    rd = ops.rsucc.add(ops.rprec).mats
    ds, dp = [], []
    for k in range(n):
        rp_k, ld_k, rd_k, ls_k = ops.rprec.mats[k], ld[k], rd[k], ops.lsucc.mats[k]
        ds.append(t2_neg(t2_add(t2_apply(rp_k, rsucc, 1), t2_apply(ld_k, rsucc, 2))))
        dp.append(t2_add(t2_apply(rd_k, rprec, 1), t2_apply(ls_k, rprec, 2)))
    return CoproductPair(n, tuple(ds), tuple(dp), alg.field)


def check_coboundary_conditions(alg: ADAlgebra, rsucc, rprec,
                                exhaustive: bool = False) -> Report:
    """The eight tensor conditions CD3-CD10 for a coboundary pair.

    Passing is equivalent to (algebra, coboundary pair) satisfying the full
    D-bialgebra package (coalgebra axioms plus D1-D6); the equivalence is
    exercised by the test suite rather than assumed.  The conditions run on
    the tables and both tensors lowered together; a kept violation is
    lifted.
    """
    n = alg.dim
    if shape(rsucc) != (n, n) or shape(rprec) != (n, n):
        raise InputError("tensors must be %dx%d" % (n, n))
    out = Report("coboundary conditions", exhaustive=exhaustive, field=alg.field)
    # CD3-CD6 are of degree 2 in the tables and 1 in r, CD7-CD10 of 2 and 2
    tables = (alg.succ.table, alg.prec.table)
    lower, at = alg.field.lowering(*tables, rsucc, rprec)
    alg = ADAlgebra(n, alg.basis, *(BilinearOp(n, lower(t)) for t in tables), alg.field)
    rsucc, rprec = lower(rsucc), lower(rprec)
    cubic, quartic = out.part(at(3)), out.part(at(4))
    z2, z3 = t2_zero(n), t3_zero(n)
    ops = multiplication_operators(alg)
    ls, rs = ops.lsucc.mats, ops.rsucc.mats
    lp, rp = ops.lprec.mats, ops.rprec.mats
    ld = ops.lsucc.add(ops.lprec).mats
    rd = ops.rsucc.add(ops.rprec).mats
    succ, prec, dotop = alg.succ, alg.prec, alg.assoc
    s_plus_tp = t2_add(rsucc, twist(rprec))     # r> + tau r<
    p_plus_ts = t2_add(rprec, twist(rsucc))     # r< + tau r>
    s_minus_p = t2_sub(rsucc, rprec)            # r> - r<

    for i in range(n):
        for j in range(n):
            sij = succ.table[i][j]
            pij = prec.table[i][j]
            dij = dotop.table[i][j]
            # CD3: (R<(x) (x) I + I (x) L.(x)) (L>(y) (x) I + I (x) R.(y)) (r> + tau r<)
            inner = t2_add(t2_apply(ls[j], s_plus_tp, 1), t2_apply(rd[j], s_plus_tp, 2))
            cd3 = t2_add(t2_apply(rp[i], inner, 1), t2_apply(ld[i], inner, 2))
            cubic.require_equal("CD3", (i, j), cd3, z2, "CD3 does not vanish")
            # CD4: [I (x) L>(x<y) - R<(y) (x) L>(x) + R<(x<y + x.y) (x) I](r> - r<)
            rp_ls = t2_apply(rp[j], t2_apply(ls[i], s_minus_p, 2), 1)
            cd4 = t2_add(t2_apply(ops.lsucc.mat(pij), s_minus_p, 2),
                         t2_neg(rp_ls),
                         t2_apply(ops.rprec.mat(vadd(pij, dij)), s_minus_p, 1))
            cubic.require_equal("CD4", (i, j), cd4, z2, "CD4 does not vanish")
            # CD5: [I (x) L>(x>y + x.y) + R<(x>y) (x) I - R<(y) (x) L>(x)](r> - r<)
            cd5 = t2_add(t2_apply(ops.lsucc.mat(vadd(sij, dij)), s_minus_p, 2),
                         t2_apply(ops.rprec.mat(sij), s_minus_p, 1),
                         t2_neg(rp_ls))
            cubic.require_equal("CD5", (i, j), cd5, z2, "CD5 does not vanish")
            # CD6: [L>(x)R>(y) (x) I - R>(y) (x) R<(x)](r< + tau r>)
            #      + [I (x) R<(x)L<(y) - L>(x) (x) L<(y)](r> + tau r<)
            #      - [L>(x)R<(y) (x) I - R<(y) (x) R<(x) + L>(x) (x) L>(y)
            #         - I (x) R<(x)L>(y)](r> - r<)
            # (the last bracket enters negated; the expansion of the sixth
            #  compatibility forces this sign)
            cd6 = t2_add(
                t2_apply(matmul(ls[i], rs[j]), p_plus_ts, 1),
                t2_neg(t2_apply(rs[j], t2_apply(rp[i], p_plus_ts, 2), 1)),
                t2_apply(matmul(rp[i], lp[j]), s_plus_tp, 2),
                t2_neg(t2_apply(ls[i], t2_apply(lp[j], s_plus_tp, 2), 1)),
                t2_neg(t2_apply(matmul(ls[i], rp[j]), s_minus_p, 1)),
                t2_apply(rp[j], t2_apply(rp[i], s_minus_p, 2), 1),
                t2_neg(t2_apply(ls[i], t2_apply(ls[j], s_minus_p, 2), 1)),
                t2_apply(matmul(rp[i], ls[j]), s_minus_p, 2),
            )
            cubic.require_equal("CD6", (i, j), cd6, z2, "CD6 does not vanish")
    # the brackets of CD7-CD10 that do not depend on x = e_i, each once
    c12, c13, c23 = contract_12_13, contract_13_23, contract_23_12
    ss_dot13, ss_prec23 = c13(rsucc, rsucc, dotop), c23(rsucc, rsucc, prec)
    pp_dot12, pp_succ23 = c12(rprec, rprec, dotop), c23(rprec, rprec, succ)
    k7 = t3_add(c12(rsucc, rprec, prec), c23(rprec, rsucc, dotop), c13(rsucc, rprec, succ))
    k8c = t3_add(ss_dot13, t3_neg(c12(rprec, rsucc, dotop)), t3_neg(c23(rsucc, rprec, succ)),
                 c12(rsucc, rsucc, prec), c23(rsucc, rsucc, dotop))
    k8d = t3_add(ss_prec23, ss_dot13, t3_neg(c12(rprec, rsucc, succ)))
    k9a = t3_add(pp_dot12, t3_neg(c23(rsucc, rprec, prec)), t3_neg(c13(rprec, rsucc, dotop)),
                 c23(rprec, rprec, dotop), c13(rprec, rprec, succ))
    k9b = t3_add(pp_dot12, pp_succ23, t3_neg(c13(rprec, rsucc, prec)))
    k10a = t3_add(ss_prec23, ss_dot13, t3_neg(c12(rprec, rprec, succ)))
    k10b = t3_add(pp_dot12, pp_succ23, t3_neg(c13(rsucc, rsucc, prec)))
    p_minus_s = t2_sub(rprec, rsucc)
    for i in range(n):
        rp_rs = t2_apply(rp[i], rsucc, 1)
        ls_rp = t2_apply(ls[i], rprec, 2)
        # CD7
        cd7 = t3_sub(t3_apply(rp[i], k7, 1), t3_apply(ls[i], k7, 3))
        quartic.require_equal("CD7", (i,), cd7, z3, "CD7 does not vanish")
        # CD8
        cd8 = t3_add(c12(s_minus_p, rp_rs, prec), c23(rp_rs, s_minus_p, succ),
                     t3_apply(ld[i], k8c, 3), t3_apply(rp[i], k8d, 1))
        quartic.require_equal("CD8", (i,), cd8, z3, "CD8 does not vanish")
        # CD9
        cd9 = t3_add(t3_apply(rd[i], k9a, 1), t3_apply(ls[i], k9b, 3),
                     c13(ls_rp, p_minus_s, succ), c23(p_minus_s, ls_rp, prec))
        quartic.require_equal("CD9", (i,), cd9, z3, "CD9 does not vanish")
        # CD10
        cd10 = t3_add(t3_apply(rp[i], k10a, 1), t3_neg(t3_apply(ls[i], k10b, 3)),
                      t3_neg(c23(rp_rs, rsucc, prec)), c23(t2_apply(rp[i], rprec, 1), rprec, prec))
        quartic.require_equal("CD10", (i,), cd10, z3, "CD10 does not vanish")
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
        return t3_from_cells((n, n, n), _residual_cells(r, alg.assoc.table, *tables))
    r, tables, at = _lowered_ye6(alg, r)
    return t3_from_cells((n, n, n), _residual_cells(r, *tables), at(3).lift)


def _ye6_dim(alg, r):
    n = alg.dim
    if shape(r) != (n, n):
        raise InputError("tensor must be %dx%d" % (n, n))
    return n


def _lowered_ye6(alg, r):
    """(r, (dot, succ, prec), at): r and the tables lowered together."""
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table, r)
    succ, prec, dot, _ = lowered(lowering, alg.succ.table, alg.prec.table)
    return lower(r), (dot, succ, prec), at


def _residual_cells(r, dot, succ, prec):
    """The residual on given product tables as {cell: value}, over the cells
    some term reached (``add_contraction``)."""
    cells = {}
    add_contraction(cells, r, r, dot, C12_13)
    add_contraction(cells, r, r, succ, C23_12)
    add_contraction(cells, t2_neg(r), r, prec, C13_23)
    return cells


def is_ybe_solution(alg: ADAlgebra, r) -> bool:
    """True iff the residual vanishes in the algebra's field.  The terms run
    on the tables and r lowered together, and no tensor is built."""
    _ye6_dim(alg, r)
    r, tables, at = _lowered_ye6(alg, r)
    residues = at(3).residues
    return not any(residues(x) for x in _residual_cells(r, *tables).values())


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
    if shape(tmat) != (n, m):
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
    if shape(tmat) != (n, m):
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
                                  ops.rprec.transpose().neg(),
                                  ops.lsucc.transpose().neg(),
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
    if shape(tmat) != (n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    drep = dual_representation(rep)
    ambient = semidirect_product(drep, precheck=False)
    big = n + m
    t = [[0] * big for _ in range(big)]
    for i in range(m):
        for p in range(n):
            t[p][n + i] = tmat[p][i]
    t = tuple(tuple(row) for row in t)
    r = t2_sub(t, twist(t))
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
    The residual is homogeneous quadratic in r, so each of its components is
    sum_{a<=b} c_ab x_a x_b, read off the ``adybe_residual`` contractions by
    polarization: c_aa = res(S_a) and c_ab = res(S_a + S_b) - res(S_a) -
    res(S_b) for a < b, which holds in every characteristic.  The
    contractions run on ``lowered`` tables.  Returns, for each t < k, the
    components whose highest variable is x_t, each a list of (a, b, c) with
    c = ``alg.field.residues`` of the coefficient, nonzero.
    """
    n, field = alg.dim, alg.field
    lowering = field.lowering(alg.succ.table, alg.prec.table)
    succ, prec, dot, _ = lowered(lowering, alg.succ.table, alg.prec.table)
    # over Q a coefficient, of degree 1 in the tables, is lifted
    reduce = field.residues if isinstance(field, PrimeField) else lowering[1](1).lift
    units = [skew_tensor_from_uppers(n, [int(a == b) for b in range(k)]) for a in range(k)]
    squares = [_residual_cells(s, dot, succ, prec) for s in units]
    comps = {}
    for b in range(k):
        for a in range(b + 1):
            if a == b:
                res = squares[a]
            else:
                res = _residual_cells(t2_add(units[a], units[b]), dot, succ, prec)
                for square in (squares[a], squares[b]):
                    for key, x in square.items():
                        res[key] = res.get(key, 0) - x
            # in index order, the order of the dense residual's entries
            for key in sorted(res):
                c = reduce(res[key]) if res[key] else 0
                if c:
                    comps.setdefault(key, []).append((a, b, c))
    by_last = [[] for _ in range(k)]
    for terms in comps.values():
        # terms were appended in increasing b, so the last one holds the highest
        by_last[terms[-1][1]].append(terms)
    return by_last


def search_skew_solutions(alg: ADAlgebra, values):
    """Exhaust skew tensors with upper entries drawn from ``values``.

    Returns the solutions of the Yang-Baxter condition in deterministic
    lexicographic grid order (the order of ``itertools.product(values,
    repeat=k)`` over the k = n(n-1)/2 strictly-upper entries), each built from
    the caller's own value objects.  Every value and every nonzero table
    coefficient must be an int or an element of ``alg.field``.

    YE6 is expanded once into a quadratic form (``_ye6_form``); the walk
    assigns the upper entries in order and drops a prefix as soon as a
    component whose variables are all assigned is nonzero.  Over GF(p) it
    computes with int residues mod p, so an int is read mod p.  Dimensions
    above 4 are refused: the grid grows as len(values)**(n(n-1)/2).
    """
    n = alg.dim
    if n > 4:
        raise InputError("skew search supports dimension <= 4")
    field = alg.field
    nonzero = (lambda s, p=field.p: s % p) if isinstance(field, PrimeField) else bool
    # coerce raises InputError on a value outside the field; ADAlgebra has
    # already checked the table coefficients
    values = list(values)
    xs = [field.residues(field.coerce(x)) for x in values]
    k = n * (n - 1) // 2
    forms = _ye6_form(alg, k)
    found, row, picks = [], [None] * k, [None] * k

    def walk(t):
        if t == k:
            found.append(skew_tensor_from_uppers(n, [values[i] for i in picks]))
            return
        for i, x in enumerate(xs):
            row[t] = x
            if not any(nonzero(sum(c * row[a] * row[b] for a, b, c in terms))
                       for terms in forms[t]):
                picks[t] = i
                walk(t + 1)

    walk(0)
    return found
