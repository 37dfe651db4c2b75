"""The dense leg kernels and the coboundary check as they stood before the
zero-skipping kernels, kept as an oracle.

``matmul``, ``t2_apply`` and ``t3_apply`` sum over every index; the three
contractions are the separate loops they were; ``check_coboundary_conditions``
recomputes every contraction of CD7-CD10 for each i and calls only the
kernels of this file.  The helpers it imports from ``adw`` (sums, negation,
twist, the multiplication operators, ``Report``) are not the kernels under
test.  ``test_kernel_differential`` compares this file with ``adw.linalg`` and
``adw.tensors``.  Do not optimise or refactor it.
"""

from __future__ import annotations

from adw.algebra import ADAlgebra, multiplication_operators
from adw.fields import InputError
from adw.linalg import shape, transpose, vadd
from adw.reporting import Report
from adw.tensors import (t2_add, t2_neg, t2_sub, t2_zero, t3_add, t3_dims, t3_neg,
                         t3_sub, t3_zero, twist)


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
