"""Order-2 and order-3 tensors, dense and as cell maps, and their leg operations.

A product table is read as its cells (``table_cells``): cells[i][j] lists
the nonzero (k, c) of e_i o e_j, after a field's lowering if one is given.
Row i holds the columns of L(e_i), so the cells are the table's
multiplication operators (``operators``), and ``linalg.accumulate``
evaluates every product on them.  The bialgebra checks compute on cell maps,
{flat index: value} over the cells some term reached: a leg map touches only
the nonzero columns of its operator (Gustavson's (1978) row products, carried
over to tensor legs), a contraction reads each tensor's nonzeros grouped once
by leg (``legs``), and a comparison reads a value's cells; the dense tensor
(``from_cells``) is built only for a kept violation or a returned value.

Order-3 tables are also how every 3-index structure is stored: product
tables, action families and coproducts all build from entries with
``t3_from_entries`` and list them with ``t3_entries``; ``t3_reorder`` takes
one index order to another.

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

from collections import defaultdict
from itertools import compress
from math import prod

from .fields import InputError
from .linalg import accumulate


# ---------------------------------------------------------------------------
# construction and arithmetic

def t2_zero(na, nb=None):
    nb = na if nb is None else nb
    return tuple((0,) * nb for _ in range(na))


def t2_neg(t):
    return tuple(tuple(-x for x in row) for row in t)


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
    """The nonzero entries (i, j, k, c) of a table, in index order; an
    all-zero vector is passed over in one ``any``, as ``table_cells`` does."""
    for i, plane in enumerate(t):
        for j, row in enumerate(plane):
            if any(row):
                for k, c in enumerate(row):
                    if c:
                        yield (i, j, k, c)


def t3_is_zero(t):
    return all(not x for plane in t for row in plane for x in row)


# each reordering as swaps of neighbouring indices, 0 the first two, 1 the last two
_SWAPS = {(0, 1, 2): (), (1, 0, 2): (0,), (0, 2, 1): (1,), (1, 2, 0): (0, 1),
          (2, 0, 1): (1, 0), (2, 1, 0): (0, 1, 0)}


def t3_reorder(t, axes):
    """t with index k of the result running over index ``axes[k]`` of t, so
    (0, 2, 1) transposes each matrix t[i].  A swap is a ``zip``, blind to the
    length of an index behind an empty one: never move an empty index back."""
    for swap in _SWAPS[axes]:
        t = tuple(zip(*t)) if swap == 0 else tuple(tuple(zip(*plane)) for plane in t)
    return t


# ---------------------------------------------------------------------------
# cell maps: a tensor as {flat index: value}, row-major, over its reached cells

def cell_map(cells=()):
    """A cell map that kernels add into: empty, or holding ``cells``."""
    return defaultdict(int, cells)


def t2_cells(t):
    """The cell map {i * nb + j: t[i][j]} of a dense order-2 tensor."""
    nb = len(t[0]) if t else 0
    return cell_map((i * nb + j, x) for i, row in enumerate(t) for j, x in enumerate(row) if x)


def flip(t, n):
    """The cells of the twist tau t of an n x n tensor: (tau t)[i][j] = t[j][i]."""
    return cell_map(((k % n) * n + k // n, x) for k, x in t.items())


# The kernels read the nonzero cells of t and add into acc: a cell map, or a
# flat accumulator (``zeros``) for a value that goes straight to a comparison.
# A map on one leg is its columns: cols[c] lists the nonzero (image, m) of
# M e_c, with image a flat index, a row of a matrix or the cell p * n + q of
# a coproduct's D(e_c), which so takes an order-2 tensor to an order-3 one.

def add_cells(acc, t, c=1):
    """acc += c t."""
    for key, x in t.items():
        acc[key] += c * x
    return acc


def table_cells(table, lower=None):
    """The cells of a product table: cells[i][j] lists the nonzero (k, c) of
    table[i][j], taken through ``lower`` (a field's lowering) first if given,
    so that an entry that is 0 mod p is dropped."""
    lower = lower or (lambda v: v)
    return tuple(tuple(tuple((k, c) for k, c in enumerate(lower(v)) if c) if any(v) else ()
                       for v in row) for row in table)


def packed(cells, b):
    """The Kronecker-packed views of a square table's ``table_cells``: (live,
    col), ``live[u]`` the v of the nonzero cells of row u and ``col[u][k]``
    e_u o e_k with digit l at bit b l (empty for a row without cells)."""
    live = tuple(tuple(compress(range(len(row)), row)) for row in cells)
    return live, tuple(tuple(sum([c << b * l for l, c in cell]) if cell else 0 for cell in row)
                       if vs else () for row, vs in zip(cells, live))


def spread(cells, stride, ws):
    """Each v with a cell (v, w), w in the range ``ws``, as (v, shifts,
    coords), the offsets stride (w - ws.start) and coordinate vectors of
    those cells: sum_w (sum_k (e_v o e_w)_k col[u][k]) << shift_w is
    u o (v o w) over ``ws``."""
    out = []
    for v, row in enumerate(cells):
        shifts, coords = [], []
        for w in ws:
            if row[w]:
                vector = [0] * len(row)
                for k, c in row[w]:
                    vector[k] = c
                shifts.append(stride * (w - ws.start))
                coords.append(tuple(vector))
        if shifts:
            out.append((v, tuple(shifts), tuple(coords)))
    return out


def operators(cells):
    """(left, right): the multiplication operators of a square table's
    ``table_cells``, left[i] the columns of L(e_i), which are the cells of
    row i, and right[j] those of R(e_j), column c the cells of e_c o e_j."""
    return cells, tuple(zip(*cells))


def cells_sum(a, b, residues):
    """The cells of the sum of two square tables given by their cells; a cell
    that both hold is summed by ``accumulate`` and taken to ``residues`` (a
    field's, so mod p over GF(p))."""
    def add(x, y):
        if not (x and y):
            return x or y
        v = residues(accumulate(len(a), (x, y), ((0, 1), (1, 1))))
        return tuple((k, c) for k, c in enumerate(v) if c)

    return tuple(tuple(map(add, ra, rb)) for ra, rb in zip(a, b))


def add_first(acc, cols, t, rest, sign=1):
    """acc += sign (M on the first leg) t, over nonzero terms only: the cell
    c * rest + lo of t goes to image * rest + lo."""
    for key, x in t.items():
        if x:
            c, lo = divmod(key, rest)
            x *= sign
            for image, m in cols[c]:
                acc[image * rest + lo] += m * x
    return acc


def add_last(acc, cols, t, width, size, sign=1):
    """acc += sign (M on the last leg, of ``width`` indices) t, over nonzero
    terms only: the cell h * width + c of t goes to h * size + image."""
    for key, x in t.items():
        if x:
            h, c = divmod(key, width)
            base, x = h * size, x * sign
            for image, m in cols[c]:
                acc[base + image] += m * x
    return acc


def zeros(*dims):
    """A dense flat accumulator of shape ``dims``."""
    return [0] * prod(dims)


def from_cells(dims, cells, lift=None):
    """The dense tensor of shape ``dims`` of a flat accumulator, or of a cell
    map, with each value taken through ``lift`` if given and int 0 elsewhere."""
    flat = cells
    if type(cells) is not list:
        flat = zeros(*dims)
        for key, x in cells.items():
            flat[key] = x if lift is None else lift(x)
    for k in range(len(dims) - 1, 0, -1):
        d = dims[k]
        flat = [tuple(flat[i * d:(i + 1) * d]) for i in range(prod(dims[:k]))]
    return tuple(flat)


# ---------------------------------------------------------------------------
# leg contractions against a bilinear product

def legs(t, na, nb):
    """The nonzero cells of an na x nb tensor, a cell map or a flat list,
    grouped by each leg: ({i: [(j, x)]}, {j: [(i, x)]}, na, nb)."""
    by0, by1 = {}, {}
    for key, x in (t.items() if isinstance(t, dict) else enumerate(t)):
        if x:
            i, j = divmod(key, nb)
            by0.setdefault(i, []).append((j, x))
            by1.setdefault(j, []).append((i, x))
    return by0, by1, na, nb


# (legs, order) of the three contractions: the index of u on leg a and of v on
# leg b meet the product; output slot k holds component order[k] of (s, t, p)
C12_13 = ((0, 0), (2, 0, 1))
C13_23 = ((1, 1), (0, 1, 2))
C23_12 = ((0, 1), (1, 2, 0))


def add_contraction(acc, u, v, cells, how):
    """Add the terms of a contraction to the cell map ``acc``.

    ``u`` and ``v`` are the ``legs`` of two tensors and ``cells`` the
    ``table_cells`` of a product.  ``how`` = ((a, b), order): with i the
    index of u on leg a, j the index of v on leg b, and s and t their other
    indices, the term u v c[i][j][p] over the nonzero entries of u, v and c
    lands at ``(s, t, p)`` permuted by ``order``, keyed by its flat index.  A
    cell that no term reaches gets no key, so the keys are the reached cells.
    Returns the output dimensions.
    """
    (a, b), order = how
    dims = (u[3 - a], v[3 - b], len(cells))
    out = tuple(dims[o] for o in order)
    stride = (out[1] * out[2], out[2], 1)
    ss, ts, ps = (stride[order.index(c)] for c in range(3))
    for i, uterms in u[a].items():
        row = cells[i]
        for j, vterms in v[b].items():
            cell = row[j]
            if not cell:
                continue
            for s, x in uterms:
                for t, y in vterms:
                    f = x * y
                    if not f:
                        continue
                    base = s * ss + t * ts
                    for p, z in cell:
                        acc[base + p * ps] += f * z
    return out
