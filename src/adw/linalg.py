"""Exact dense linear algebra over a field.

Vectors are tuples of scalars, matrices tuples of row tuples; ``matmul``
multiplies only their nonzero entries.  Everything is immutable and pure.
Elimination pivots on the first nonzero entry; no numerical heuristics are
involved since all arithmetic is exact; plain ints divide to an int or a
``Fraction``, never to a float.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import InputError


# ---------------------------------------------------------------------------
# vectors

def vzero(n):
    return (0,) * n


def unit(n, i, one=1):
    return tuple(one if j == i else 0 for j in range(n))


def vadd(*vs):
    if not vs:
        raise ValueError("vadd needs at least one vector")
    n = len(vs[0])
    for v in vs:
        if len(v) != n:
            raise InputError("vector length mismatch: %d vs %d" % (len(v), n))
    return tuple(sum(v[i] for v in vs) for i in range(n))


def vsub(u, v):
    return vadd(u, vneg(v))


def vneg(v):
    return tuple(-x for x in v)


def dot(u, v):
    if len(u) != len(v):
        raise InputError("dot: length mismatch")
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# matrices

def shape(m):
    return (len(m), len(m[0]) if m else 0)


def identity(n, one=1):
    return tuple(unit(n, i, one) for i in range(n))


def zeros_mat(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def transpose(m):
    rows, cols = shape(m)
    return tuple(tuple(m[r][c] for r in range(rows)) for c in range(cols))


def matvec(m, v):
    rows, cols = shape(m)
    if len(v) != cols:
        raise InputError("matvec: %dx%d matrix applied to length-%d vector" % (rows, cols, len(v)))
    return tuple(sum(row[j] * v[j] for j in range(cols)) for row in m)


def _nonzeros(m):
    """The nonzero (column, entry) pairs of each row of a matrix."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _row_products(arows, brows, cols):
    """The rows of A B from the nonzero pairs of the rows of A and of B.

    Row p of A B is the sum of a_pk (row k of B) over the nonzero a_pk only,
    accumulated row by row (Gustavson 1978); an entry that no term reaches
    stays int 0.
    """
    out = []
    for arow in arows:
        acc = [0] * cols
        for k, a in arow:
            for j, b in brows[k]:
                acc[j] += a * b
        out.append(tuple(acc))
    return tuple(out)


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise InputError("matmul: inner dimensions %d and %d differ" % (ca, rb))
    return _row_products(_nonzeros(a), _nonzeros(b), cb)


def mat_add(a, b):
    if shape(a) != shape(b):
        raise InputError("matrix shape mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


# ---------------------------------------------------------------------------
# elimination

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
