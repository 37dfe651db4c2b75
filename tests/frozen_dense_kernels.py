"""Dense kernels as they stood before their sparse replacements, kept as
oracles.

``matmul``, ``t2_apply`` and ``t3_apply`` sum over every index; the three
contractions are the separate loops they were; ``check_coboundary_conditions``
recomputes every contraction of CD7-CD10 for each i and calls only the
kernels of this file.  The helpers it imports (sums, negation, twist, the
multiplication operators, ``Report``) are not the kernels under test.
``test_leg_kernels_differential`` compares these with ``adw.linalg`` and
``adw.tensors``.

``lmul``, ``rmul``, ``lowered``, ``operators`` and ``add_contraction`` are the
product kernels on dense lowered rows that sparse cells replaced, kept with
the code that called them: ``lowered_walk``, the spells and
``check_triples`` (so ``check_anti_dendriform_on_rows``), and the CD and YE6
checks on those rows (``check_coboundary_conditions_on_rows``,
``adybe_residual_on_rows``).  ``test_cell_kernel_differential`` runs the live
checks against them.

``rref`` is dense Gauss-Jordan elimination over full rows, and ``nullspace``,
``solve_linear``, ``rank`` and ``inverse`` call it; ``z1_cocycles``,
``find_cohomologous_zeta`` and ``find_cohomologous_witness`` build every row
of their linear systems as a dense list and solve it with those.
``test_elimination_differential`` compares them with the sparse eliminator and
the sparse row builders.  Do not optimise or refactor any of it.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import partial

from adw.algebra import A1_TERMS, A2_TERMS, ADAlgebra, multiplication_operators
from adw.crossed import CrossedDatum
from adw.fields import InputError, PrimeField
from adw.linalg import shape, transpose, unit, vadd, vneg, vsub, vzero
from adw.reporting import Report
from adw.tensors import (add_cells, add_first, add_last, cell_map, flip, from_cells, t2_cells,
                         t2_neg, t2_zero, zeros)
from adw.unified import ExtendingDatum
from .frozen_bialgebra import t2_add, t2_sub, t3_add, t3_dims, t3_neg, t3_sub, t3_zero, twist
from .frozen_reps import mat


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise InputError("matmul: inner dimensions %d and %d differ" % (ca, rb))
    bt = transpose(b)
    return tuple(tuple(sum(arow[k] * bcol[k] for k in range(ca)) for bcol in bt) for arow in a)


def t2_apply(mat, t, leg):
    """Apply a matrix to leg 1 or 2 of a Tensor2."""
    na, nb = shape(t)
    if leg == 1:
        return tuple(tuple(sum(mat[p][i] * t[i][q] for i in range(na)) for q in range(nb))
                     for p in range(len(mat)))
    if leg == 2:
        return tuple(tuple(sum(mat[q][j] * t[p][j] for j in range(nb)) for q in range(len(mat)))
                     for p in range(na))
    raise InputError("t2_apply: leg must be 1 or 2")


def t3_apply(mat, t, leg):
    """Apply a matrix to leg 1, 2 or 3 of a Tensor3."""
    d = t3_dims(t)
    n = len(mat)
    if leg == 1:
        return tuple(
            tuple(tuple(sum(mat[p][i] * t[i][q][r] for i in range(d[0])) for r in range(d[2]))
                  for q in range(d[1]))
            for p in range(n)
        )
    if leg == 2:
        return tuple(
            tuple(tuple(sum(mat[q][j] * t[p][j][r] for j in range(d[1])) for r in range(d[2]))
                  for q in range(n))
            for p in range(d[0])
        )
    if leg == 3:
        return tuple(
            tuple(tuple(sum(mat[r][k] * t[p][q][k] for k in range(d[2])) for r in range(n))
                  for q in range(d[1]))
            for p in range(d[0])
        )
    raise InputError("t3_apply: leg must be 1, 2 or 3")


def _prod_table(op):
    """Accept a BilinearOp-like object or a raw table c[i][j] -> vector."""
    return op.table if hasattr(op, "table") else op


def contract_12_13(u, v, op):
    """u_12 o v_13 = sum_{i,j} (a_i o c_j) (x) b_i (x) d_j."""
    c = _prod_table(op)
    n = len(c)
    nu, mu = shape(u)
    nv, mv = shape(v)
    if nu != n or nv != n:
        raise InputError("contraction: tensor legs do not match the product dimension")
    out = [[[0] * mv for _ in range(mu)] for _ in range(n)]
    for i in range(n):
        for q in range(mu):
            uiq = u[i][q]
            if not uiq:
                continue
            for j in range(n):
                for r in range(mv):
                    f = uiq * v[j][r]
                    if not f:
                        continue
                    row = c[i][j]
                    for p in range(n):
                        if row[p]:
                            out[p][q][r] = out[p][q][r] + f * row[p]
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


def contract_13_23(u, v, op):
    """u_13 o v_23 = sum_{i,j} a_i (x) c_j (x) (b_i o d_j)."""
    c = _prod_table(op)
    n = len(c)
    if shape(u)[1] != n or shape(v)[1] != n:
        raise InputError("contraction: tensor legs do not match the product dimension")
    out = [[[0] * n for _ in range(len(v))] for _ in range(len(u))]
    for p in range(len(u)):
        for i in range(n):
            upi = u[p][i]
            if not upi:
                continue
            for q in range(len(v)):
                for j in range(n):
                    f = upi * v[q][j]
                    if not f:
                        continue
                    row = c[i][j]
                    for r in range(n):
                        if row[r]:
                            out[p][q][r] = out[p][q][r] + f * row[r]
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


def contract_23_12(u, v, op):
    """u_23 o v_12 = sum_{i,j} c_j (x) (a_i o d_j) (x) b_i."""
    c = _prod_table(op)
    n = len(c)
    if shape(u)[0] != n or shape(v)[1] != n:
        raise InputError("contraction: tensor legs do not match the product dimension")
    out = [[[0] * shape(u)[1] for _ in range(n)] for _ in range(len(v))]
    for i in range(n):
        for r in range(shape(u)[1]):
            uir = u[i][r]
            if not uir:
                continue
            for p in range(len(v)):
                for j in range(n):
                    f = uir * v[p][j]
                    if not f:
                        continue
                    row = c[i][j]
                    for q in range(n):
                        if row[q]:
                            out[p][q][r] = out[p][q][r] + f * row[q]
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


def check_coboundary_conditions(alg: ADAlgebra, rsucc, rprec,
                                exhaustive: bool = False) -> Report:
    """The eight tensor conditions CD3-CD10 for a coboundary pair.

    Passing is equivalent to (algebra, coboundary pair) satisfying the full
    D-bialgebra package (coalgebra axioms plus D1-D6); the equivalence is
    exercised by the test suite rather than assumed.
    """
    n = alg.dim
    if shape(rsucc) != (n, n) or shape(rprec) != (n, n):
        raise InputError("tensors must be %dx%d" % (n, n))
    out = Report("coboundary conditions", exhaustive=exhaustive)
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
            out.require_equal("CD3", (i, j), cd3, t2_zero(n), "CD3 does not vanish")
            # CD4: [I (x) L>(x<y) - R<(y) (x) L>(x) + R<(x<y + x.y) (x) I](r> - r<)
            cd4 = t2_add(t2_apply(mat(ops.lsucc, pij), s_minus_p, 2),
                         t2_neg(t2_apply(rp[j], t2_apply(ls[i], s_minus_p, 2), 1)),
                         t2_apply(mat(ops.rprec, vadd(pij, dij)), s_minus_p, 1))
            out.require_equal("CD4", (i, j), cd4, t2_zero(n), "CD4 does not vanish")
            # CD5: [I (x) L>(x>y + x.y) + R<(x>y) (x) I - R<(y) (x) L>(x)](r> - r<)
            cd5 = t2_add(t2_apply(mat(ops.lsucc, vadd(sij, dij)), s_minus_p, 2),
                         t2_apply(mat(ops.rprec, sij), s_minus_p, 1),
                         t2_neg(t2_apply(rp[j], t2_apply(ls[i], s_minus_p, 2), 1)))
            out.require_equal("CD5", (i, j), cd5, t2_zero(n), "CD5 does not vanish")
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
            out.require_equal("CD6", (i, j), cd6, t2_zero(n), "CD6 does not vanish")
    for i in range(n):
        # CD7
        k7 = t3_add(contract_12_13(rsucc, rprec, prec),
                    contract_23_12(rprec, rsucc, dotop),
                    contract_13_23(rsucc, rprec, succ))
        cd7 = t3_sub(t3_apply(rp[i], k7, 1), t3_apply(ls[i], k7, 3))
        out.require_equal("CD7", (i,), cd7, t3_zero(n), "CD7 does not vanish")
        # CD8
        k8a = contract_12_13(s_minus_p, t2_apply(rp[i], rsucc, 1), prec)
        k8b = contract_23_12(t2_apply(rp[i], rsucc, 1), s_minus_p, succ)
        k8c = t3_apply(ld[i], t3_add(
            contract_13_23(rsucc, rsucc, dotop),
            t3_neg(contract_12_13(rprec, rsucc, dotop)),
            t3_neg(contract_23_12(rsucc, rprec, succ)),
            contract_12_13(rsucc, rsucc, prec),
            contract_23_12(rsucc, rsucc, dotop)), 3)
        k8d = t3_apply(rp[i], t3_add(
            contract_23_12(rsucc, rsucc, prec),
            contract_13_23(rsucc, rsucc, dotop),
            t3_neg(contract_12_13(rprec, rsucc, succ))), 1)
        out.require_equal("CD8", (i,), t3_add(k8a, k8b, k8c, k8d), t3_zero(n),
                          "CD8 does not vanish")
        # CD9
        k9a = t3_apply(rd[i], t3_add(
            contract_12_13(rprec, rprec, dotop),
            t3_neg(contract_23_12(rsucc, rprec, prec)),
            t3_neg(contract_13_23(rprec, rsucc, dotop)),
            contract_23_12(rprec, rprec, dotop),
            contract_13_23(rprec, rprec, succ)), 1)
        k9b = t3_apply(ls[i], t3_add(
            contract_12_13(rprec, rprec, dotop),
            contract_23_12(rprec, rprec, succ),
            t3_neg(contract_13_23(rprec, rsucc, prec))), 3)
        k9c = contract_13_23(t2_apply(ls[i], rprec, 2), t2_sub(rprec, rsucc), succ)
        k9d = contract_23_12(t2_sub(rprec, rsucc), t2_apply(ls[i], rprec, 2), prec)
        out.require_equal("CD9", (i,), t3_add(k9a, k9b, k9c, k9d), t3_zero(n),
                          "CD9 does not vanish")
        # CD10
        k10a = t3_apply(rp[i], t3_add(
            contract_23_12(rsucc, rsucc, prec),
            contract_13_23(rsucc, rsucc, dotop),
            t3_neg(contract_12_13(rprec, rprec, succ))), 1)
        k10b = t3_apply(ls[i], t3_add(
            contract_12_13(rprec, rprec, dotop),
            contract_23_12(rprec, rprec, succ),
            t3_neg(contract_13_23(rsucc, rsucc, prec))), 3)
        k10c = contract_23_12(t2_apply(rp[i], rsucc, 1), rsucc, prec)
        k10d = contract_23_12(t2_apply(rp[i], rprec, 1), rprec, prec)
        out.require_equal("CD10", (i,),
                          t3_add(k10a, t3_neg(k10b), t3_neg(k10c), k10d), t3_zero(n),
                          "CD10 does not vanish")
    return out


# ---------------------------------------------------------------------------
# dense elimination

def _div(x, y):
    """x / y, exact on two ints: an int when y divides x, else a Fraction."""
    if type(x) is int and type(y) is int:
        return Fraction(x, y) if x % y else x // y
    return x / y


def rref(m):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [_div(x, pv) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def _kernel_from_rref(rows, pivots, ncols):
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve_linear(amat, b):
    """Solve A x = b exactly.

    Returns ``(particular, kernel_basis)`` with free variables set to zero and
    the kernel basis ordered by free-column index, or ``None`` if the system
    is inconsistent.
    """
    rows, cols = shape(amat)
    if len(b) != rows:
        raise InputError("solve_linear: %d equations but rhs of length %d" % (rows, len(b)))
    aug = tuple(tuple(amat[r]) + (b[r],) for r in range(rows))
    rr, pivots = rref(aug)
    if cols in pivots:
        return None
    particular = [0] * cols
    for r, c in enumerate(pivots):
        particular[c] = rr[r][cols]
    kernel = _kernel_from_rref(tuple(row[:cols] for row in rr), pivots, cols)
    return tuple(particular), kernel


def nullspace(amat):
    """Basis of the kernel of A, deterministic (ordered by free column)."""
    rows, cols = shape(amat)
    rr, pivots = rref(amat)
    return _kernel_from_rref(rr, pivots, cols)


def rank(amat):
    _, pivots = rref(amat)
    return len(pivots)


def inverse(amat):
    """Exact inverse, or None if the matrix is singular."""
    rows, cols = shape(amat)
    if rows != cols:
        raise InputError("inverse: matrix is %dx%d, not square" % (rows, cols))
    aug = tuple(tuple(amat[r]) + unit(rows, r) for r in range(rows))
    rr, pivots = rref(aug)
    if len(pivots) != rows or any(p >= rows for p in pivots):
        return None
    return tuple(tuple(row[rows:]) for row in rr)


# ---------------------------------------------------------------------------
# dense row builders

def find_cohomologous_zeta(c1: CrossedDatum, c2: CrossedDatum):
    """Abelian fast path: solve N1-N4 for zeta when the fibre products vanish.

    With an abelian fibre N1/N2 force equal action families and N3/N4 are
    linear in zeta.  Returns (zeta, report); zeta is None when the system is
    infeasible (a certificate that no witness exists).
    """
    n, m = c1.algebra.dim, c1.vdim
    if not (c1.fibre_abelian() and c2.fibre_abelian()):
        raise InputError("fast path requires abelian fibres on both sides")
    probe = Report("cohomologous fast path")
    for name in ("lsucc", "rsucc", "lprec", "rprec"):
        if getattr(c1, name).mats != getattr(c2, name).mats:
            probe.record(name, (), (), (),
                         "action families differ with abelian fibre: no witness exists")
            return None, probe
    nunk = m * n

    def col(r, c):
        return r * n + c

    rows, rhs = [], []
    for x in range(n):
        ex = unit(n, x)
        for y in range(n):
            ey = unit(n, y)
            for om1, om2, lf, rf, prod in (
                    (c1.omega1, c2.omega1, c2.lsucc, c2.rsucc, c1.algebra.succ),
                    (c1.omega2, c2.omega2, c2.lprec, c2.rprec, c1.algebra.prec)):
                sxy = prod.table[x][y]
                diff = vsub(om2.table[x][y], om1.table[x][y])
                lm, rm = lf.mats[x], rf.mats[y]
                for r in range(m):
                    coeffs = [0] * nunk
                    for c in range(n):
                        if sxy[c]:
                            coeffs[col(r, c)] = coeffs[col(r, c)] + sxy[c]
                    for s in range(m):
                        if lm[r][s]:
                            coeffs[col(s, y)] = coeffs[col(s, y)] - lm[r][s]
                        if rm[r][s]:
                            coeffs[col(s, x)] = coeffs[col(s, x)] - rm[r][s]
                    rows.append(tuple(coeffs))
                    rhs.append(diff[r])
    sol = solve_linear(tuple(rows), tuple(rhs))
    probe.tick(len(rows))
    if sol is None:
        probe.record("N3-N4", (), (), (), "linear system infeasible: no witness exists")
        return None, probe
    zeta = tuple(tuple(sol[0][col(r, c)] for c in range(n)) for r in range(m))
    return zeta, probe


def z1_cocycles(c: CrossedDatum):
    """Exact basis of the space of 1-cocycles phi : A -> B.

    Constraints: phi(x) annihilates B under all four fibre products, and

        phi(x>y) = l>(x)phi(y) + r>(y)phi(x)
        phi(x<y) = l<(x)phi(y) + r<(y)phi(x)

    (the phi(x) o phi(y) terms vanish identically on the annihilation
    subspace, so the whole system is linear).  Returns a list of vdim x dim(A)
    matrices.
    """
    n, m = c.algebra.dim, c.vdim
    nunk = m * n

    def col(r, cc):
        return r * n + cc

    rows = []

    def add_row(coeffs):
        rows.append(tuple(coeffs))

    vs, vp = c.valgebra.succ, c.valgebra.prec
    for x in range(n):
        for a in range(m):
            for op, left in ((vs, True), (vs, False), (vp, True), (vp, False)):
                # left: phi(x) o e_a ; right: e_a o phi(x)
                for k in range(m):
                    coeffs = [0] * nunk
                    for r in range(m):
                        coef = op.table[r][a][k] if left else op.table[a][r][k]
                        if coef:
                            coeffs[col(r, x)] = coeffs[col(r, x)] + coef
                    add_row(coeffs)
    for x in range(n):
        for y in range(n):
            for prod, lf, rf in ((c.algebra.succ, c.lsucc, c.rsucc),
                                 (c.algebra.prec, c.lprec, c.rprec)):
                sxy = prod.table[x][y]
                lm, rm = lf.mats[x], rf.mats[y]
                for r in range(m):
                    coeffs = [0] * nunk
                    for cc in range(n):
                        if sxy[cc]:
                            coeffs[col(r, cc)] = coeffs[col(r, cc)] + sxy[cc]
                    for s in range(m):
                        if lm[r][s]:
                            coeffs[col(s, y)] = coeffs[col(s, y)] - lm[r][s]
                        if rm[r][s]:
                            coeffs[col(s, x)] = coeffs[col(s, x)] - rm[r][s]
                    add_row(coeffs)
    if not rows:
        rows = [tuple([0] * nunk)]
    basis = nullspace(tuple(rows))
    return [tuple(tuple(vec[col(r, cc)] for cc in range(n)) for r in range(m))
            for vec in basis]


def find_cohomologous_witness(d1: ExtendingDatum, d2: ExtendingDatum):
    """Linear fast path for a cohomologous witness (eta = id).

    Only available when the quadratic terms of h7-h10 vanish structurally:
    both complement products are zero and the base algebra product vanishes.
    Returns (zeta, report) on success, (None, report) when the linear system
    is infeasible; raises InputError when the fast path does not apply.
    """
    n, m = d1.algebra.dim, d1.vdim
    if not (d1.succ_v.is_zero() and d1.prec_v.is_zero()
            and d2.succ_v.is_zero() and d2.prec_v.is_zero()):
        raise InputError("fast path needs zero complement products on both data")
    if not (d1.algebra.succ.is_zero() and d1.algebra.prec.is_zero()):
        raise InputError("fast path needs an abelian base algebra")
    # with eta = id, h1/h2 require equal A-on-V families
    probe = Report("fast-path family comparison")
    for name in ("lsucc", "rsucc", "lprec", "rprec"):
        if getattr(d1, name).mats != getattr(d2, name).mats:
            probe.record(name, (), (), (), "A-on-V families differ; no witness exists")
            return None, probe
    # unknowns: zeta[r][c], r < n, c < m; equations from h3-h6, h8, h10
    nunk = n * m

    def zcol(r, c):
        return r * m + c

    rows, rhs = [], []

    def add_eq(coeffs, value):
        rows.append(tuple(coeffs))
        rhs.append(value)

    # h3-h6: zeta(fam(x)a) = (mu' - mu)(a)x    (the x>zeta(a) terms vanish)
    for x in range(n):
        ex = unit(n, x)
        for a in range(m):
            ea = unit(m, a)
            for (fam1, mu1, mu2) in ((d1.lsucc, d1.mu_succ, d2.mu_succ),
                                     (d1.rsucc, d1.rho_succ, d2.rho_succ),
                                     (d1.lprec, d1.mu_prec, d2.mu_prec),
                                     (d1.rprec, d1.rho_prec, d2.rho_prec)):
                lv = fam1.act(ex, ea)  # a V-vector; lhs = zeta(lv)
                diff = vadd(mu2.act(ea, ex), vneg(mu1.act(ea, ex)))
                for r in range(n):
                    coeffs = [0] * nunk
                    for c in range(m):
                        if lv[c]:
                            coeffs[zcol(r, c)] = lv[c]
                    add_eq(coeffs, diff[r])
    # h7/h9: l'(zeta(a))b + r'(zeta(b))a = 0   (complement products vanish)
    # h8/h10: rho'(a)zeta(b) + mu'(b)zeta(a) = varpi - varpi'
    for a in range(m):
        for b in range(m):
            for lfam, rfam in ((d2.lsucc, d2.rsucc), (d2.lprec, d2.rprec)):
                for r in range(m):
                    coeffs = [0] * nunk
                    for x in range(n):
                        coeffs[zcol(x, a)] = coeffs[zcol(x, a)] + lfam.mats[x][r][b]
                        coeffs[zcol(x, b)] = coeffs[zcol(x, b)] + rfam.mats[x][r][a]
                    add_eq(coeffs, 0)
            for rho2, mu2, v1, v2 in ((d2.rho_succ, d2.mu_succ, d1.varpi1, d2.varpi1),
                                      (d2.rho_prec, d2.mu_prec, d1.varpi2, d2.varpi2)):
                diff = vadd(v1.table[a][b], vneg(v2.table[a][b]))
                pmat, mmat = rho2.mats[a], mu2.mats[b]
                for r in range(n):
                    coeffs = [0] * nunk
                    for s in range(n):
                        coeffs[zcol(s, b)] = coeffs[zcol(s, b)] + pmat[r][s]
                        coeffs[zcol(s, a)] = coeffs[zcol(s, a)] + mmat[r][s]
                    add_eq(coeffs, diff[r])
    sol = solve_linear(tuple(rows), tuple(rhs))
    probe.tick(len(rows))
    if sol is None:
        probe.record("h3-h10", (), (), (), "linear system infeasible: no witness exists")
        return None, probe
    zeta = tuple(tuple(sol[0][zcol(r, c)] for c in range(m)) for r in range(n))
    return zeta, probe


# ---------------------------------------------------------------------------
# product kernels on dense lowered rows

def lmul(table, i, x):
    """e_i o x for a coordinate vector x; table[i][k] is the vector of e_i o e_k."""
    row, out = table[i], None
    if any(x):  # a zero x, the common case on sparse tables, skips the loop
        for k, c in enumerate(x):
            if c:
                out = ([c * t if t else t for t in row[k]] if out is None
                       else [o + c * t if t else o for o, t in zip(out, row[k])])
    return vzero(len(row[0])) if out is None else tuple(out)


def rmul(table, x, j):
    """x o e_j for a coordinate vector x; table[k][j] is the vector of e_k o e_j."""
    out = None
    if any(x):
        for k, c in enumerate(x):
            if c:
                col = table[k][j]
                out = ([c * t if t else t for t in col] if out is None
                       else [o + c * t if t else o for o, t in zip(out, col)])
    return vzero(len(table[0][j])) if out is None else tuple(out)


def lowered(lowering, succ, prec=None):
    """The tables the identities read, lowered by ``lowering`` = (lower, at)
    from ``field.lowering``: (succ, prec, dot, -dot) with x.y = x>y + x<y
    summed from the lowered tables and taken to ``at(1).residues`` (mod p
    over GF(p)).  With ``prec`` None, ``succ`` is the one product, returned
    as dot alone."""
    lower, at = lowering
    if prec is None:
        return None, None, lower(succ), None
    succ, prec = lower(succ), lower(prec)
    dot = at(1).residues(tuple(
        tuple(tuple(a + b for a, b in zip(sv, pv)) for sv, pv in zip(srow, prow))
        for srow, prow in zip(succ, prec)))
    return succ, prec, dot, tuple(tuple(vneg(v) for v in row) for row in dot)


class Walk:
    """What the walks of one check share, computed once: the ``lowered``
    tables, their support ``live`` (``live[u][v]`` is true when (u, v) is a
    nonzero pair of some lowered table, so an entry that is 0 in the field is
    dead) and the ``part`` that compares values in the lowering's field.

    A triple (u, v, w) is live when (u, v) or (v, w) is: every term of A1, A2
    and associativity is a product with a table's value at one of those two
    pairs, so at a dead triple every term is the zero vector and the
    identity holds.  The walks evaluate the live triples, in their order,
    and tick the dead ones (``Report.tick_each``) without evaluating them.
    A plain class: a frozen dataclass costs each command-line process about
    a millisecond to create."""

    __slots__ = ("tables", "live", "part")

    def __init__(self, tables, live, part: Report):
        self.tables, self.live, self.part = tables, live, part


def lowered_walk(report, succ, prec=None) -> Walk:
    """The ``Walk`` of identities of degree 2 in the tables (A1, A2,
    associativity, every glued slot) on ``succ``/``prec``; its empty
    ``part`` of ``report`` compares their values in the lowering's field."""
    lowering = report.field.lowering(succ, prec)
    tables = lowered(lowering, succ, prec)
    succ, prec, dot, _ = tables
    if succ is None:
        live = tuple(tuple(map(any, row)) for row in dot)
    else:
        live = tuple(tuple(any(s) or any(p) for s, p in zip(srow, prow))
                     for srow, prow in zip(succ, prec))
    return Walk(tables, live, report.part(lowering[1](2)))


def a1_chain(tables, u, v, w):
    """A1 at basis vectors u, v, w of ``lowered`` tables: u>(v>w), -(u.v)>w,
    -u<(v.w), (u<v)<w.  The negated terms are products with -dot, so no term
    is negated afterwards."""
    succ, prec, _, neg_dot = tables
    return (lmul(succ, u, succ[v][w]), rmul(succ, neg_dot[u][v], w),
            lmul(prec, u, neg_dot[v][w]), rmul(prec, prec[u][v], w))


def a2_pair(tables, u, v, w):
    """A2 at basis vectors u, v, w: (u>v)<w and u>(v<w)."""
    succ, prec = tables[:2]
    return rmul(prec, succ[u][v], w), lmul(succ, u, prec[v][w])


def assoc_pair(tables, u, v, w):
    """Associativity of dot at basis vectors u, v, w: (uv)w and u(vw)."""
    dot = tables[2]
    return rmul(dot, dot[u][v], w), lmul(dot, u, dot[v][w])

def check_triples(report, n, identities, succ, prec=None) -> Report:
    """Each identity (label, spell, terms) at every basis triple (i, j, k) of an
    n-dimensional algebra: ``spell(tables, i, j, k)`` gives the values the
    terms name on the ``lowered_walk`` tables, compared in its field.  Only
    the live triples are spelled.  Over Q a kept violation is spelled again
    on the tables as given, so that its values are the tables' own scalars,
    and ``report`` absorbs the walk."""
    walk = lowered_walk(report, succ, prec)
    tables, live, part = walk.tables, walk.live, walk.part
    after = [[k for k in range(n) if row[k]] for row in live]
    every, dead = range(n), 0
    for i in range(n):
        for j in range(n):
            ks = every if live[i][j] else after[j]
            dead += n - len(ks)
            for k in ks:
                for label, spell, terms in identities:
                    part.require_chain(label, (i, j, k), terms, spell(tables, i, j, k))
    part.tick_each(dead * len(identities))
    if part.violations and part.field is not report.field:
        given = lowered((report.field.residues, lambda k: report.field), succ, prec)
        spells = {label: spell for label, spell, _ in identities}
        part.violations = [_respelled(v, spells[v.equation](given, *v.witness))
                           for v in part.violations]
    return report.absorb(part)


def _respelled(violation, values):
    """``violation`` with the values of its first broken link taken from ``values``."""
    a = next(a for a in range(len(values) - 1) if values[a] != values[a + 1])
    return replace(violation, lhs=values[a], rhs=values[a + 1])


def operators(table):
    """(left, right): the multiplication operators of a square product table,
    left[i] the columns of L(e_i) and right[j] those of R(e_j).  Column c
    lists the nonzero (k, x) of table[i][c], respectively table[c][j]."""
    left = [[[(k, x) for k, x in enumerate(v) if x] for v in row] for row in table]
    return left, [[row[j] for row in left] for j in range(len(left))]


def _by_leg(t, leg):
    """The nonzero entries of a Tensor2 as {index on ``leg``: [(other index, entry)]}."""
    out = {}
    for x0, row in enumerate(t):
        for x1, x in enumerate(row):
            if x:
                i, s = (x0, x1) if leg == 0 else (x1, x0)
                out.setdefault(i, []).append((s, x))
    return out


# (legs, order) of the three contractions: the index of u on leg a and of v on
# leg b meet the product; output slot k holds component order[k] of (s, t, p)
C12_13 = ((0, 0), (2, 0, 1))
C13_23 = ((1, 1), (0, 1, 2))
C23_12 = ((0, 1), (1, 2, 0))


def add_contraction(cells, u, v, op, how):
    """Add the terms of a contraction to ``cells``, {output position: value}.

    ``how`` = ((a, b), order): with i the index of u on leg a, j the index of
    v on leg b, and s and t their other indices, the term u v c[i][j][p] over
    the nonzero entries of u, v and c lands at ``(s, t, p)`` permuted by
    ``order``, keyed by its flat index.  A cell that no term reaches gets no
    key, so the keys are the reached cells.  Returns the output dimensions.
    """
    c = _prod_table(op)
    (a, b), order = how
    if shape(u)[a] != len(c) or shape(v)[b] != len(c):
        raise InputError("contraction: tensor legs do not match the product dimension")
    us, vs = _by_leg(u, a), _by_leg(v, b)
    acc = {}
    for i, uterms in us.items():
        for j, vterms in vs.items():
            cell = [(p, z) for p, z in enumerate(c[i][j]) if z]
            if not cell:
                continue
            for s, x in uterms:
                for t, y in vterms:
                    f = x * y
                    if not f:
                        continue
                    for p, z in cell:
                        key = (s, t, p)
                        acc[key] = acc.get(key, 0) + f * z
    o0, o1, o2 = order
    dims = (shape(u)[1 - a], shape(v)[1 - b], len(c))
    d1, d2 = dims[o1], dims[o2]
    for key, x in acc.items():
        pos = (key[o0] * d1 + key[o1]) * d2 + key[o2]
        cells[pos] = cells.get(pos, 0) + x
    return dims[o0], d1, d2


def _contracted(*terms):
    """The cells of a sum of contractions (u, v, table, how); a term enters
    negated through a negated u."""
    acc = cell_map()
    for u, v, table, how in terms:
        add_contraction(acc, u, v, table, how)
    return acc


def check_coboundary_conditions_on_rows(alg: ADAlgebra, rsucc, rprec,
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
    succ, prec, dot, _ = lowered(lowering, alg.succ.table, alg.prec.table)
    rsucc, rprec = lower(rsucc), lower(rprec)
    cubic, quartic = out.part(at(3)), out.part(at(4))
    z2, z3 = t2_zero(n), t3_zero(n)
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
            cubic.require_equal("CD3", (i, j), dense(cd3), z2, "CD3 does not vanish")
            # CD4: [I (x) L>(x<y) - R<(y) (x) L>(x) + R<(x<y + x.y) (x) I](r> - r<),
            # with L>(v) = sum_k v_k L>(e_k), and so for R<
            rp_ls = add_first(cell_map(), rp[j], ls2_smp[i], n)
            pij, dij, sij = lp[i][j], ld[i][j], ls[i][j]
            cd4 = _combine(_combine(zeros(n, n), pij, ls2_smp), pij, rp1_smp)
            _combine(cd4, dij, rp1_smp)
            cubic.require_equal("CD4", (i, j), dense(add_cells(cd4, rp_ls, -1)), z2,
                                "CD4 does not vanish")
            # CD5: [I (x) L>(x>y + x.y) + R<(x>y) (x) I - R<(y) (x) L>(x)](r> - r<)
            cd5 = _combine(_combine(zeros(n, n), sij, ls2_smp), dij, ls2_smp)
            _combine(cd5, sij, rp1_smp)
            cubic.require_equal("CD5", (i, j), dense(add_cells(cd5, rp_ls, -1)), z2,
                                "CD5 does not vanish")
            # CD6: [L>(x)R>(y) (x) I - R>(y) (x) R<(x)](r< + tau r>)
            #      + [I (x) R<(x)L<(y) - L>(x) (x) L<(y)](r> + tau r<)
            #      - [L>(x)R<(y) (x) I - R<(y) (x) R<(x) + L>(x) (x) L>(y)
            #         - I (x) R<(x)L>(y)](r> - r<)
            # (the last bracket enters negated; the expansion of the sixth
            #  compatibility forces this sign)
            cd6 = add_last(add_first(zeros(n, n), ls[i], after_ls[j], n), rp[i], after_rp[j], n, n)
            add_first(add_first(cd6, rs[j], rp2_pts[i], n, -1), rp[j], rp2_smp[i], n)
            cubic.require_equal("CD6", (i, j), dense(cd6), z2, "CD6 does not vanish")
    # the brackets of CD7-CD10 that do not depend on x = e_i, each once
    neg_s, neg_p = t2_neg(rsucc), t2_neg(rprec)
    s_p = dense(s_minus_p)
    p_s = t2_neg(s_p)
    ss_dot13 = (rsucc, rsucc, dot, C13_23)
    base_s = (ss_dot13, (rsucc, rsucc, prec, C23_12))
    base_p = ((rprec, rprec, dot, C12_13), (rprec, rprec, succ, C23_12))
    k7 = _contracted((rsucc, rprec, prec, C12_13), (rprec, rsucc, dot, C23_12),
                     (rsucc, rprec, succ, C13_23))
    k8c = _contracted(ss_dot13, (neg_p, rsucc, dot, C12_13), (neg_s, rprec, succ, C23_12),
                      (rsucc, rsucc, prec, C12_13), (rsucc, rsucc, dot, C23_12))
    k8d = _contracted(*base_s, (neg_p, rsucc, succ, C12_13))
    k9a = _contracted(base_p[0], (neg_s, rprec, prec, C23_12), (neg_p, rsucc, dot, C13_23),
                      (rprec, rprec, dot, C23_12), (rprec, rprec, succ, C13_23))
    k9b = _contracted(*base_p, (neg_p, rsucc, prec, C13_23))
    k10a = _contracted(*base_s, (neg_p, rprec, succ, C12_13))
    k10b = _contracted(*base_p, (neg_s, rsucc, prec, C13_23))
    nn = n * n
    for i in range(n):
        rp_rs = dense(add_first(zeros(n, n), rp[i], r_s, n))
        ls_rp = dense(add_last(zeros(n, n), ls[i], r_p, n, n))
        # CD7
        cd7 = add_last(add_first(zeros(n, n, n), rp[i], k7, nn), ls[i], k7, n, n, -1)
        quartic.require_equal("CD7", (i,), dense3(cd7), z3, "CD7 does not vanish")
        # CD8
        cd8 = _contracted((s_p, rp_rs, prec, C12_13), (rp_rs, s_p, succ, C23_12))
        add_first(add_last(cd8, ld[i], k8c, n, n), rp[i], k8d, nn)
        quartic.require_equal("CD8", (i,), dense3(cd8), z3, "CD8 does not vanish")
        # CD9
        cd9 = _contracted((ls_rp, p_s, succ, C13_23), (p_s, ls_rp, prec, C23_12))
        add_last(add_first(cd9, rd[i], k9a, nn), ls[i], k9b, n, n)
        quartic.require_equal("CD9", (i,), dense3(cd9), z3, "CD9 does not vanish")
        # CD10
        cd10 = _contracted((rp_rs, neg_s, prec, C23_12),
                           (dense(add_first(zeros(n, n), rp[i], r_p, n)), rprec, prec, C23_12))
        add_last(add_first(cd10, rp[i], k10a, nn), ls[i], k10b, n, n, -1)
        quartic.require_equal("CD10", (i,), dense3(cd10), z3, "CD10 does not vanish")
    return out.absorb(cubic).absorb(quartic)


def adybe_residual_on_rows(alg: ADAlgebra, r):
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
        return from_cells((n, n, n), _residual_cells(r, alg.assoc.table, *tables))
    r, tables, at = _lowered_ye6(alg, r)
    return from_cells((n, n, n), _residual_cells(r, *tables), at(3).lift)


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


def _combine(acc, col, pieces):
    """acc += sum_k c pieces[k] over the nonzero (k, c) of ``col``: the
    coproduct of a vector, or a leg piece of L(x) at x = sum_k c e_k."""
    for k, c in col:
        add_cells(acc, pieces[k], c)
    return acc


def check_anti_dendriform_on_rows(alg: ADAlgebra, exhaustive: bool = False) -> Report:
    """Both defining identities over every basis triple, with witnesses."""
    return check_triples(Report("anti-dendriform axioms", exhaustive=exhaustive, field=alg.field),
                         alg.dim, (("A1", a1_chain, A1_TERMS), ("A2", a2_pair, A2_TERMS)),
                         alg.succ.table, alg.prec.table)


IDENTITIES = {"A1": a1_chain, "A2": a2_pair, "assoc": assoc_pair,
              "assoc, sides swapped": lambda *at: assoc_pair(*at)[::-1]}
