"""Dense order-2 and order-3 tensors and their leg operations.

Order-3 tables are also how every 3-index structure is stored: product
tables, action families and coproducts all build from entries with
``t3_from_entries`` and list them with ``t3_entries``.

A Tensor2 is a nested tuple t with t[i][j] the coefficient of e_i (x) e_j; a
Tensor3 likewise with three indices.  The three Yang-Baxter-style leg
contractions are normalized once and for all.  With u = sum a_i (x) b_i and
v = sum c_j (x) d_j, and o a bilinear product:

    u_12 o v_13 = sum (a_i o c_j) (x) b_i (x) d_j
    u_13 o v_23 = sum a_i (x) c_j (x) (b_i o d_j)
    u_23 o v_12 = sum c_j (x) (a_i o d_j) (x) b_i

i.e. the shared leg multiplies u's factor on the left of v's factor.
"""

from __future__ import annotations

from .fields import InputError
from .linalg import shape


# ---------------------------------------------------------------------------
# construction and arithmetic

def t2_zero(na, nb=None):
    nb = na if nb is None else nb
    return tuple((0,) * nb for _ in range(na))


def t3_zero(n0, n1=None, n2=None):
    n1 = n0 if n1 is None else n1
    n2 = n0 if n2 is None else n2
    return tuple(tuple((0,) * n2 for _ in range(n1)) for _ in range(n0))


def t2_add(*ts):
    s0 = shape(ts[0])
    for t in ts:
        if shape(t) != s0:
            raise InputError("tensor shape mismatch")
    return tuple(tuple(sum(t[i][j] for t in ts) for j in range(s0[1])) for i in range(s0[0]))


def t2_neg(t):
    return tuple(tuple(-x for x in row) for row in t)


def t2_sub(a, b):
    return t2_add(a, t2_neg(b))


def t3_add(*ts):
    d = t3_dims(ts[0])
    for t in ts:
        if t3_dims(t) != d:
            raise InputError("tensor shape mismatch")
    return tuple(
        tuple(tuple(sum(t[i][j][k] for t in ts) for k in range(d[2])) for j in range(d[1]))
        for i in range(d[0])
    )


def t3_neg(t):
    return tuple(tuple(tuple(-x for x in row) for row in plane) for plane in t)


def t3_sub(a, b):
    return t3_add(a, t3_neg(b))


def t3_from_entries(dims, entries, what):
    """The (n0, n1, n2) table summing (i, j, k, c) entries; ``what`` names an
    index triple in the out-of-range error."""
    n0, n1, n2 = dims
    acc = [[[0] * n2 for _ in range(n1)] for _ in range(n0)]
    for i, j, k, c in entries:
        if not (0 <= i < n0 and 0 <= j < n1 and 0 <= k < n2):
            raise InputError("%s (%d,%d,%d) out of range" % (what, i, j, k))
        acc[i][j][k] = acc[i][j][k] + c
    return tuple(tuple(tuple(v) for v in row) for row in acc)


def t3_entries(t):
    """The nonzero entries (i, j, k, c) of a table, in index order."""
    for i, plane in enumerate(t):
        for j, row in enumerate(plane):
            for k, c in enumerate(row):
                if c:
                    yield (i, j, k, c)


def t3_is_zero(t):
    return all(not x for plane in t for row in plane for x in row)


def t3_dims(t):
    return (len(t), len(t[0]) if t else 0, len(t[0][0]) if t and t[0] else 0)


# ---------------------------------------------------------------------------
# twist

def twist(t):
    """The flip map on A (x) A: (twist t)[i][j] = t[j][i].  Square tensors only."""
    na, nb = shape(t)
    if na != nb:
        raise InputError("twist: tensor is %dx%d, not square" % (na, nb))
    return tuple(tuple(t[j][i] for j in range(na)) for i in range(na))


# ---------------------------------------------------------------------------
# applying linear maps to single legs

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


# ---------------------------------------------------------------------------
# leg contractions against a bilinear product

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
