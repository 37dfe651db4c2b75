"""Dense kernels as they stood before their sparse replacements, kept as
oracles.

``matmul``, ``t2_apply`` and ``t3_apply`` sum over every index; the three
contractions are the separate loops they were; ``check_coboundary_conditions``
recomputes every contraction of CD7-CD10 for each i and calls only the
kernels of this file.  The helpers it imports (sums, negation, twist, the
multiplication operators, ``Report``) are not the kernels under test.
``test_leg_kernels_differential`` compares these with ``adw.linalg`` and
``adw.tensors``.

``rref`` is dense Gauss-Jordan elimination over full rows, and ``nullspace``,
``solve_linear``, ``rank`` and ``inverse`` call it; ``z1_cocycles``,
``find_cohomologous_zeta`` and ``find_cohomologous_witness`` build every row
of their linear systems as a dense list and solve it with those.
``test_elimination_differential`` compares them with the sparse eliminator and
the sparse row builders.  Do not optimise or refactor any of it.
"""

from __future__ import annotations

from fractions import Fraction

from adw.algebra import ADAlgebra, multiplication_operators
from adw.crossed import CrossedDatum
from adw.fields import InputError
from adw.linalg import shape, transpose, unit, vadd, vneg, vsub
from adw.reporting import Report
from adw.tensors import t2_neg, t2_zero, t3_dims, t3_zero
from adw.unified import ExtendingDatum
from .frozen_bialgebra import t2_add, t2_sub, t3_add, t3_neg, t3_sub, twist


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
            cd4 = t2_add(t2_apply(ops.lsucc.mat(pij), s_minus_p, 2),
                         t2_neg(t2_apply(rp[j], t2_apply(ls[i], s_minus_p, 2), 1)),
                         t2_apply(ops.rprec.mat(vadd(pij, dij)), s_minus_p, 1))
            out.require_equal("CD4", (i, j), cd4, t2_zero(n), "CD4 does not vanish")
            # CD5: [I (x) L>(x>y + x.y) + R<(x>y) (x) I - R<(y) (x) L>(x)](r> - r<)
            cd5 = t2_add(t2_apply(ops.lsucc.mat(vadd(sij, dij)), s_minus_p, 2),
                         t2_apply(ops.rprec.mat(sij), s_minus_p, 1),
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
