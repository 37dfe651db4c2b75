"""Exact linear algebra over a field.

Vectors are tuples of scalars, matrices tuples of row tuples; ``matmul``
multiplies only their nonzero entries.  Everything is immutable and pure.

``rref``, ``nullspace``, ``solve_linear``, ``rank`` and ``inverse`` eliminate
sparse rows.  A row is a dict of the entries that differ from its zero, plus
that one zero (int 0, ``Fraction(0)`` or a GF(p) zero) standing for every
other column.  The rows are over GF(p) when some entry is a GF(p) element,
or when the caller names the field; they are then eliminated on int
residues, and every value returned is a GF(p) element.

All but ``rref`` read only the pivot rows of the reduced row echelon form,
which ``_reduced`` gives them in pivot order.  When the rows are over Q and
every nonzero entry is a ``Fraction``, it eliminates on ints
(``_reduce_on_ints``): each row is scaled to coprime ints, each set of
proportional rows is reduced once, fraction-free, the pivot of each column
is a row with the fewest entries, and the pivot rows are lifted back to
``Fraction``s at the end.  The reduced form is unique, and on such rows
dense elimination gives every entry of a pivot row, zeros included, the
type ``Fraction``, so the values and types are those of dense elimination.
Rows over GF(p), rows with a nonzero plain int over Q, whose types follow
the order of the moves, and ``rref``, whose zero rows keep the order and
types of its swaps, go through ``_gauss_jordan``: it makes the moves of
dense Gauss-Jordan elimination in the same order, with a column index so
that no step scans a full row or column.  The pivot of column c is the first
row at or below the current position with a nonzero in c, it is swapped up
and divided through with ``_div``, and every other row with a nonzero in c
becomes x - f*y.  Columns that both rows leave to their zeros get
``zero - f*zero`` once, as the row's new zero.  So every returned value has
the value and the type dense elimination gives it, zeros included: an int
row stays int until a ``Fraction`` pivot row meets it.  It has no
fill-reducing ordering and no numerical heuristic; plain ints divide to an
int or a ``Fraction``, never to a float.  ``sparse_nullspace`` and
``sparse_solve`` take the rows as dicts directly, for systems built row by
row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import GFElement, InputError, PrimeField


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


def has_shape(m, rows, cols):
    """Is m a rows x cols matrix, every row of length cols?  ``()`` is the
    matrix with no rows of every column count."""
    return len(m) == rows and all(len(row) == cols for row in m)


def identity(n, one=1):
    return tuple(unit(n, i, one) for i in range(n))


def zeros_mat(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def transpose(m):
    rows, cols = shape(m)
    return tuple(tuple(m[r][c] for r in range(rows)) for c in range(cols))


def matvec(m, v):
    """m v; ``()``, the matrix with no rows of every column count
    (``has_shape``), takes every vector to ``()``."""
    rows, cols = shape(m)
    if m and len(v) != cols:
        raise InputError("matvec: %dx%d matrix applied to length-%d vector" % (rows, cols, len(v)))
    return tuple(sum(row[j] * v[j] for j in range(cols)) for row in m)


def _nonzeros(m):
    """The nonzero (column, entry) pairs of each row of a matrix."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def accumulate(n, cols, x):
    """The product kernel: sum c cols[k] over the (k, c) of a sparse vector
    x, as a dense tuple of length n, where cols[k] lists the nonzero (l, t)
    of column k; an entry that no term reaches stays int 0.  Row p of A B is
    row p of A against the rows of B (Gustavson 1978); e_i o x on a table
    reads the cells of row i (``adw.tensors.table_cells``)."""
    out = [0] * n
    for k, c in x:
        for l, t in cols[k]:
            out[l] += c * t
    return tuple(out)


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if not has_shape(a, ra, rb):
        ca = next(len(row) for row in a if len(row) != rb)
        raise InputError("matmul: inner dimensions %d and %d differ" % (ca, rb))
    brows = _nonzeros(b)
    return tuple(accumulate(cb, brows, arow) for arow in _nonzeros(a))


def block_matrix(tl, tr, bl, br):
    """The 2x2 block matrix [[tl, tr], [bl, br]] with square diagonal blocks;
    an off-diagonal block given as 0 is the zero block (int 0 entries)."""
    n, m = len(tl), len(br)
    tr = zeros_mat(n, m) if tr == 0 else tr
    bl = zeros_mat(m, n) if bl == 0 else bl
    rows = tuple(tuple(a) + tuple(b) for a, b in zip(tl, tr)) + \
        tuple(tuple(a) + tuple(b) for a, b in zip(bl, br))
    if len(rows) != n + m or any(len(row) != n + m for row in rows):
        raise InputError("block matrix: the blocks do not fit together")
    return rows


def mat_add(a, b):
    if shape(a) != shape(b):
        raise InputError("matrix shape mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


# ---------------------------------------------------------------------------
# elimination

def _div(x, y):
    """x / y, exact on two ints: an int when y divides x, else a Fraction."""
    if type(x) is int and type(y) is int:
        return Fraction(x, y) if x % y else x // y
    return x / y


def _sparse(row):
    """A dense row as (entries, zero).

    ``zero`` is the first of the row's commonest kind of zero (int 0 if it
    has none) and stands for every column missing from ``entries``.
    """
    first, count = {}, {}
    for x in row:
        if not x:
            t = type(x)
            if t in count:
                count[t] += 1
            else:
                first[t], count[t] = x, 1
    zero = first[max(count, key=count.get)] if count else 0
    tz = type(zero)
    return {c: x for c, x in enumerate(row) if x or type(x) is not tz or x != zero}, zero


def _into_field(rows, field):
    """(rows, p): rows over GF(p), where ``field`` is ``PrimeField(p)`` or None
    and some entry is a GF(p) element, as the int residues of their entries
    (``PrimeField.residues``), and p; rows over Q as given, and 0."""
    if field is None:
        field = next((PrimeField(x.p) for e, z in rows for x in (z, *e.values())
                      if type(x) is GFElement), None)
    if not isinstance(field, PrimeField):
        return rows, 0
    residues = field.residues
    return [({c: v for c, x in e.items() if (v := residues(x))}, 0) for e, _ in rows], field.p


def _gauss_jordan(rows, ncols, field=None):
    """Reduce sparse rows; returns (the rows in their final order, pivots).

    A row is (entries, zero): a dict from column to value, and the value of
    every column missing from it.  The rows are first taken ``_into_field``.
    The eliminator makes the moves of dense Gauss-Jordan elimination in the
    same order and on the same values; the sparse layout only changes which
    entries it reads.  Over GF(p) it moves on int residues mod p and returns
    them as ``GFElement``s, the type of every value over GF(p).
    """
    rows, mod = _into_field(rows, field)
    nrows = len(rows)
    entries = [e for e, _ in rows]
    zeros = [z for _, z in rows]
    at = list(range(nrows))          # at[position] = row
    where = list(range(nrows))       # where[row] = position
    # support[c] holds every row with a nonzero in column c when column c
    # comes up (and maybe rows whose entry there has since cancelled)
    support = [set() for _ in range(ncols)]
    for i, e in enumerate(entries):
        for c, x in e.items():
            if x:
                support[c].add(i)
    pivots = []
    r = 0
    for c in range(ncols):
        hits = [i for i in support[c] if entries[i].get(c)]
        below = [where[i] for i in hits if where[i] >= r]
        if not below:
            continue
        pr = min(below)
        p, q = at[pr], at[r]
        at[r], at[pr], where[p], where[q] = p, q, r, pr
        pv = entries[p][c]
        zp = _div(zeros[p], pv)
        tzp = type(zp)
        prow = {}
        inv = mod and pow(pv, -1, mod)
        for k, x in entries[p].items():
            y = x * inv % mod if mod else _div(x, pv)
            if y or type(y) is not tzp or y != zp:
                prow[k] = y
        entries[p], zeros[p] = prow, zp
        for i in hits:
            if i == p:
                continue
            row, zi = entries[i], zeros[i]
            f = row[c]
            fz = f * zp
            tf = type(fz)
            # x - fz is x itself when fz is int 0 or x has fz's type
            nz = zi if tf is int or type(zi) is tf else zi - fz
            tnz = type(nz)
            new = {}
            for k, x in row.items():
                if k in prow:
                    continue
                if tf is not int and type(x) is not tf:
                    x = x - fz
                if x or type(x) is not tnz or x != nz:
                    new[k] = x
            for k, y in prow.items():
                x = row.get(k, zi) - f * y
                if mod:
                    x %= mod
                if x:
                    new[k] = x
                    support[k].add(i)
                elif type(x) is not tnz or x != nz:
                    new[k] = x
            entries[i], zeros[i] = new, nz
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if mod:
        entries = [{k: GFElement(mod, x) for k, x in e.items()} for e in entries]
        zeros = [GFElement(mod, 0)] * nrows
    return [(entries[i], zeros[i]) for i in at], tuple(pivots)


def _int_rows(rows):
    """The sparse rows over Q on ints, or None when some nonzero entry is not
    a ``Fraction`` or some zero is neither an int 0 nor a ``Fraction``.  A row
    becomes its entries scaled to coprime ints whose first is positive.  Zero
    rows are dropped, and of each set of proportional rows only the first is
    kept: neither changes the row space.
    """
    out, seen = [], set()
    for e, z in rows:
        if type(z) is not int and type(z) is not Fraction:
            return None
        row = {}
        for c, x in e.items():
            if type(x) is Fraction:
                if x:
                    row[c] = x
            elif type(x) is not int or x:
                return None
        if not row:
            continue
        if len(row) == 1:
            # most Z1 rows (1,621 of 1,849 at dimension 16): this halves
            # the time of the scaling below
            row = dict.fromkeys(row, 1)
        else:
            den = lcm(*(x.denominator for x in row.values()))
            for c, x in row.items():
                row[c] = x.numerator * (den // x.denominator)
            g = gcd(*row.values())
            if row[min(row)] < 0:
                g = -g
            if g != 1:
                row = {c: v // g for c, v in row.items()}
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _reduce_on_ints(rows, ncols):
    """Gauss-Jordan elimination of ``_int_rows``, fraction-free as in
    Bareiss (1968), but dividing out each row's content rather than the
    previous pivot: a row x meets the pivot row y as (y_c x - x_c y) / g,
    with g = gcd(y_c, x_c), and is divided by its content when the factor
    y_c / g is not 1.  Returns the pivot rows in pivot order, as the
    ``Fraction``s of the reduced row echelon form with ``Fraction(0)`` as
    each row's zero, and the pivot columns.  Columns are taken in order, so
    the pivots are those of ``_gauss_jordan``; which row a pivot comes from
    does not change the unique reduced form.
    """
    support = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c in row:
            support[c].add(i)
    free = set(range(len(rows)))     # rows that hold no pivot yet
    pivots = []
    for c in range(ncols):
        if not free:
            break
        hits = [i for i in support[c] if c in rows[i]]
        below = [i for i in hits if i in free]
        if not below:
            continue
        # a unit pivot needs no scaling, and a short row little fill
        pi = min(below, key=lambda i: (abs(rows[i][c]) != 1, len(rows[i])))
        free.discard(pi)
        prow, pv = rows[pi], rows[pi][c]
        if pv < 0:
            prow = rows[pi] = {k: -v for k, v in prow.items()}
            pv = -pv
        for i in hits:
            if i == pi:
                continue
            row = rows[i]
            g = gcd(pv, row[c])
            a, f = pv // g, row[c] // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, y in prow.items():
                if k in row:
                    v = row[k] - f * y
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                else:
                    row[k] = -f * y
                    support[k].add(i)
            if a != 1 and row:
                g = gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
        pivots.append((c, pi))
    zero = Fraction(0)
    out = []
    for c, i in pivots:
        row = rows[i]
        pv = row[c]
        out.append(({k: Fraction(v, pv) for k, v in row.items()}, zero))
    return out, tuple(c for c, _ in pivots)


def _reduced(rows, ncols, field=None):
    """The pivot rows of the reduced row echelon form of sparse rows, in
    pivot order, and the pivot columns: ``_reduce_on_ints`` when the rows
    are over Q and every nonzero is a ``Fraction`` (``_int_rows``), else
    ``_gauss_jordan``.  Either gives each pivot row the values and types of
    dense Gauss-Jordan elimination: on ``Fraction`` rows every entry of a
    pivot row, zeros included, is a ``Fraction``.  Rows with a nonzero plain
    int over Q stay with ``_gauss_jordan``, whose types depend on its moves,
    and so do rows over GF(p)."""
    ints = None if isinstance(field, PrimeField) else _int_rows(rows)
    if ints is None:
        rr, pivots = _gauss_jordan(rows, ncols, field)
        return rr[:len(pivots)], pivots
    return _reduce_on_ints(ints, ncols)


def rref(m):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    ncols = len(m[0]) if m else 0
    rows, pivots = _gauss_jordan([_sparse(row) for row in m], ncols)
    return tuple(tuple(e.get(c, z) for c in range(ncols)) for e, z in rows), pivots


def _kernel(rows, pivots, ncols):
    """The kernel basis read off the pivot rows, ordered by free column:
    the vector of free column f holds int 1 at f, int 0 at the other free
    columns and -(entry f) of each pivot row at its pivot column."""
    taken = set(pivots)
    basis = {f: [0] * ncols for f in range(ncols) if f not in taken}
    for f, v in basis.items():
        v[f] = 1
    for (e, z), c in zip(rows, pivots):
        nz = -z
        for v in basis.values():
            v[c] = nz
        for f, x in e.items():
            if f in basis:
                basis[f][c] = -x
    return tuple(tuple(v) for v in basis.values())


def _solve(aug, cols, field=None):
    """Solve the sparse rows ``aug`` of [A | b], with b in column ``cols``."""
    rr, pivots = _reduced(aug, cols + 1, field)
    if cols in pivots:
        return None
    particular = [0] * cols
    for (e, z), c in zip(rr, pivots):
        particular[c] = e.get(cols, z)
    return tuple(particular), _kernel(rr, pivots, cols)


def solve_linear(amat, b):
    """Solve A x = b exactly.

    Returns ``(particular, kernel_basis)`` with free variables set to zero and
    the kernel basis ordered by free-column index, or ``None`` if the system
    is inconsistent.
    """
    rows, cols = shape(amat)
    if len(b) != rows:
        raise InputError("solve_linear: %d equations but rhs of length %d" % (rows, len(b)))
    return _solve([_sparse(tuple(amat[r]) + (b[r],)) for r in range(rows)], cols)


def sparse_solve(rows, rhs, ncols, field=None):
    """``solve_linear`` of the ``ncols``-column matrix whose rows are the
    dicts {column: value} of ``rows``, every other entry int 0, over
    ``field`` when it is given."""
    aug = []
    for e, b in zip(rows, rhs):
        if b or type(b) is not int:
            e = dict(e)
            e[ncols] = b
        aug.append((e, 0))
    return _solve(aug, ncols, field)


def nullspace(amat):
    """Basis of the kernel of A, deterministic (ordered by free column)."""
    cols = shape(amat)[1]
    return _kernel(*_reduced([_sparse(row) for row in amat], cols), cols)


def sparse_nullspace(rows, ncols, field=None):
    """``nullspace`` of the ``ncols``-column matrix whose rows are the dicts
    {column: value} of ``rows``, every other entry int 0, over ``field``
    when it is given."""
    # most Z1 rows are empty (22,727 of 24,576 at dimension 16): dropping
    # them here is cheaper than taking each through _reduced
    return _kernel(*_reduced([(e, 0) for e in rows if e], ncols, field), ncols)


def rank(amat):
    return len(_reduced([_sparse(row) for row in amat], shape(amat)[1])[1])


def inverse(amat):
    """Exact inverse, or None if the matrix is singular.  The identity block
    is ``Fraction(1)``s where every nonzero entry is a ``Fraction``."""
    rows, cols = shape(amat)
    if rows != cols:
        raise InputError("inverse: matrix is %dx%d, not square" % (rows, cols))
    one = Fraction(1) if {type(x) for row in amat for x in row if x} == {Fraction} else 1
    aug = [_sparse(tuple(amat[r]) + unit(rows, r, one)) for r in range(rows)]
    rr, pivots = _reduced(aug, 2 * rows)
    if len(pivots) != rows or any(p >= rows for p in pivots):
        return None
    return tuple(tuple(e.get(c, z) for c in range(rows, 2 * rows)) for e, z in rr)
