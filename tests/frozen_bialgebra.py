"""D1-D9, the coalgebra axioms and the coboundary coproducts as they stood
before they moved to sparse cells over ``field.lowering``, kept as oracles.

They compute on the scalars as given with dense order-2 and order-3 tensors:
the leg kernels read the nonzero entries of dense matrices (``t2_apply``),
a coproduct is applied to a leg through one flattened matrix product
(``_cop_leg1``/``_cop_leg2``), and the coproduct of a vector is the dense sum
of the scaled basis coproducts (``coproduct_at``, once ``CoproductPair._at``).
The dense helpers that ``adw.tensors`` no longer has live here, and the other
frozen oracles import them from this file.  ``test_bialgebra_differential``
compares these with ``adw.bialgebra``.  Do not optimise or refactor any of it.
"""

from __future__ import annotations

from adw.algebra import ADAlgebra, BilinearOp, multiplication_operators
from adw.bialgebra import CoproductPair
from adw.fields import InputError
from adw.linalg import _nonzeros, matmul, shape, transpose, unit
from adw.reporting import Report


# ---------------------------------------------------------------------------
# dense tensor arithmetic

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


def t3_dims(t):
    return (len(t), len(t[0]) if t else 0, len(t[0][0]) if t and t[0] else 0)


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


def twist(t):
    """The flip map on A (x) A: (twist t)[i][j] = t[j][i].  Square tensors only."""
    na, nb = shape(t)
    if na != nb:
        raise InputError("twist: tensor is %dx%d, not square" % (na, nb))
    return tuple(tuple(t[j][i] for j in range(na)) for i in range(na))


def _nonzero_cols(mat, cols):
    """The nonzero (row, entry) pairs of each of the first ``cols`` columns."""
    return [[(q, row[j]) for q, row in enumerate(mat) if row[j]] for j in range(cols)]


def _row_products(arows, brows, cols):
    """The rows of A B from the nonzero pairs of the rows of A and of B."""
    out = []
    for arow in arows:
        acc = [0] * cols
        for k, a in arow:
            for j, b in brows[k]:
                acc[j] += a * b
        out.append(tuple(acc))
    return tuple(out)


def t2_apply(mat, t, leg):
    """Apply a matrix to leg 1 or 2 of a Tensor2."""
    nb = shape(t)[1]
    if leg == 1:
        return _row_products(_nonzeros(mat), _nonzeros(t), nb)
    if leg == 2:
        return _row_products(_nonzeros(t), _nonzero_cols(mat, nb), len(mat))
    raise InputError("t2_apply: leg must be 1 or 2")


# ---------------------------------------------------------------------------
# coproducts

def coproduct_at(cp, part, vec):
    """The coproduct ``part`` (cp.dsucc or cp.dprec) at a coordinate vector."""
    scaled = (tuple(tuple(c * x if x else 0 for x in row) for row in part[k])
              for k, c in enumerate(vec) if c)
    return t2_add(t2_zero(cp.dim), *scaled)


def sum_at(cp, vec):
    return t2_add(coproduct_at(cp, cp.dsucc, vec), coproduct_at(cp, cp.dprec, vec))


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


def algebra_from_coproducts(cp: CoproductPair, field) -> ADAlgebra:
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
            out.require_equal(labels[0], (i, j), coproduct_at(cp, cp.dprec, dij),
                              t2_sub(t2_apply(rdot_j, cp.dprec[i], 1),
                                     t2_apply(ls[i], cp.dprec[j], 2)),
                              "coproduct of x.y mismatch (prec side)")
            # D2: Ds(x.y) = (I (x) L.(x))Ds(y) - (R<(y) (x) I)Ds(x)
            out.require_equal(labels[1], (i, j), coproduct_at(cp, cp.dsucc, dij),
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
            dx = sum_at(cp, unit(n, i))
            dy = sum_at(cp, unit(n, j))
            # D4: D(x<y) = (R<(y) (x) I)D(x) - (I (x) L<(x))Ds(y)
            out.require_equal(labels[3], (i, j), sum_at(cp, alg.prec.table[i][j]),
                              t2_sub(t2_apply(rp[j], dx, 1),
                                     t2_apply(lp[i], cp.dsucc[j], 2)),
                              "coproduct of x<y mismatch")
            # D5: D(x>y) = (I (x) L>(x))D(y) - (R>(y) (x) I)Dp(x)
            out.require_equal(labels[4], (i, j), sum_at(cp, alg.succ.table[i][j]),
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
