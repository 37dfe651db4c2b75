"""Dense order-2 and order-3 tensors and their leg operations.

The leg maps and contractions multiply only nonzero entries.

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
from .linalg import _nonzeros, _row_products, shape


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
    """The sum, over the nonzero entries only: a cell that none reaches is int 0."""
    na, nb = shape(ts[0])
    for t in ts:
        if shape(t) != (na, nb):
            raise InputError("tensor shape mismatch")
    acc = [[0] * nb for _ in range(na)]
    for t in ts:
        for arow, row in zip(acc, t):
            for j, x in enumerate(row):
                if x:
                    arow[j] += x
    return tuple(map(tuple, acc))


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
# applying linear maps to single legs (nonzero entries only)

def _nonzero_cols(mat, cols):
    """The nonzero (row, entry) pairs of each of the first ``cols`` columns."""
    return [[(q, row[j]) for q, row in enumerate(mat) if row[j]] for j in range(cols)]


def t2_apply(mat, t, leg):
    """Apply a matrix to leg 1 or 2 of a Tensor2."""
    nb = shape(t)[1]
    if leg == 1:
        return _row_products(_nonzeros(mat), _nonzeros(t), nb)
    if leg == 2:
        return _row_products(_nonzeros(t), _nonzero_cols(mat, nb), len(mat))
    raise InputError("t2_apply: leg must be 1 or 2")


def t3_apply(mat, t, leg):
    """Apply a matrix to leg 1, 2 or 3 of a Tensor3."""
    _, d1, d2 = t3_dims(t)
    if leg == 1:
        # the planes of t as rows of length d1 * d2
        flat = [[(q * d2 + r, x) for q, row in enumerate(plane) for r, x in enumerate(row) if x]
                for plane in t]
        rows = _row_products(_nonzeros(mat), flat, d1 * d2)
        return tuple(tuple(row[q * d2:(q + 1) * d2] for q in range(d1)) for row in rows)
    if leg == 2:
        mrows = _nonzeros(mat)
        return tuple(_row_products(mrows, _nonzeros(plane), d2) for plane in t)
    if leg == 3:
        mcols = _nonzero_cols(mat, d2)
        return tuple(_row_products(_nonzeros(plane), mcols, len(mat)) for plane in t)
    raise InputError("t3_apply: leg must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# leg contractions against a bilinear product

def _prod_table(op):
    """Accept a BilinearOp-like object or a raw table c[i][j] -> vector."""
    return op.table if hasattr(op, "table") else op


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
    ``order``.  A cell that no term reaches gets no key, so the keys are the
    reached cells.  Returns the output dimensions.
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
    for key, x in acc.items():
        pos = (key[o0], key[o1], key[o2])
        cells[pos] = cells.get(pos, 0) + x
    dims = (shape(u)[1 - a], shape(v)[1 - b], len(c))
    return dims[o0], dims[o1], dims[o2]


def t3_from_cells(dims, cells, lift=None):
    """The dense tensor holding ``cells`` ({position: value}), each taken
    through ``lift`` if given, and int 0 elsewhere."""
    d0, d1, d2 = dims
    out = [[[0] * d2 for _ in range(d1)] for _ in range(d0)]
    for (i, j, k), x in cells.items():
        out[i][j][k] = x if lift is None else lift(x)
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


def _contract(u, v, op, how):
    cells = {}
    return t3_from_cells(add_contraction(cells, u, v, op, how), cells)


def contract_12_13(u, v, op):
    """u_12 o v_13 = sum_{i,j} (a_i o c_j) (x) b_i (x) d_j."""
    return _contract(u, v, op, C12_13)


def contract_13_23(u, v, op):
    """u_13 o v_23 = sum_{i,j} a_i (x) c_j (x) (b_i o d_j)."""
    return _contract(u, v, op, C13_23)


def contract_23_12(u, v, op):
    """u_23 o v_12 = sum_{i,j} c_j (x) (a_i o d_j) (x) b_i."""
    return _contract(u, v, op, C23_12)
