"""Action families as matrices, and the code that built and read them, kept as an oracle.

``ActionFamily`` as it stood when a family stored one module-dimension
matrix per algebra basis element (``mats[x][r][c]``) with its own
arithmetic, before it became a bilinear table A x V -> V; the
multiplication operators that rebuilt every product entry into matrices,
``op_from_left_family``, the family arithmetic of ``dual_representation``,
the coproduct/table transposes of ``adw.bialgebra``, ``glue`` with its
column transposition, and the O-operator rows on ``ActionFamily.act``.
Verbatim, except that ``dual_representation`` returns the four families (a
library ``ADRep`` takes library families) without its precheck.
``test_tables_differential`` compares against it.  Do not optimise or
refactor it.
"""

from __future__ import annotations

from dataclasses import dataclass

from adw.algebra import BilinearOp
from adw.fields import InputError
from adw.linalg import (mat_add, matvec, shape, transpose, unit, vadd, vzero,
                        zeros_mat)
from adw.reporting import Report
from adw.tensors import t3_entries, t3_from_entries, t3_is_zero
from .frozen_reps import mat_scale


@dataclass(frozen=True)
class ActionFamily:
    alg_dim: int
    mod_dim: int
    mats: tuple  # one mod_dim x mod_dim matrix per algebra basis element

    def __post_init__(self):
        if len(self.mats) != self.alg_dim:
            raise InputError("action family: %d matrices for algebra dimension %d"
                             % (len(self.mats), self.alg_dim))
        for m in self.mats:
            if shape(m) != (self.mod_dim, self.mod_dim):
                raise InputError("action family: matrix shape %r, expected %dx%d"
                                 % (shape(m), self.mod_dim, self.mod_dim))

    @staticmethod
    def zero(alg_dim, mod_dim):
        return ActionFamily(alg_dim, mod_dim, tuple(zeros_mat(mod_dim, mod_dim)
                                                    for _ in range(alg_dim)))

    @staticmethod
    def from_entries(alg_dim, mod_dim, entries):
        """entries: iterable of (x, row, col, value)."""
        return ActionFamily(alg_dim, mod_dim, t3_from_entries((alg_dim, mod_dim, mod_dim),
                                                              entries, "action entry"))

    def act(self, x, w):
        """Apply the action of algebra vector x to module vector w."""
        out = vzero(self.mod_dim)
        for i, xi in enumerate(x):
            if not xi:
                continue
            mw = matvec(self.mats[i], w)
            out = tuple(o + xi * y for o, y in zip(out, mw))
        return out

    def add(self, other):
        self._same_shape(other)
        return ActionFamily(self.alg_dim, self.mod_dim,
                            tuple(mat_add(a, b) for a, b in zip(self.mats, other.mats)))

    def neg(self):
        return ActionFamily(self.alg_dim, self.mod_dim,
                            tuple(mat_scale(-1, m) for m in self.mats))

    def transpose(self):
        return ActionFamily(self.alg_dim, self.mod_dim,
                            tuple(transpose(m) for m in self.mats))

    def is_zero(self):
        return t3_is_zero(self.mats)

    def entries(self):
        return t3_entries(self.mats)

    def _same_shape(self, other):
        if (self.alg_dim, self.mod_dim) != (other.alg_dim, other.mod_dim):
            raise InputError("action family shape mismatch")


@dataclass(frozen=True)
class MulOperators:
    lsucc: ActionFamily
    rsucc: ActionFamily
    lprec: ActionFamily
    rprec: ActionFamily


def multiplication_operators(alg) -> MulOperators:
    """Left/right multiplication operators of both products, as action families."""
    n = alg.dim

    def left(op):
        return ActionFamily(n, n, tuple(
            tuple(tuple(op.table[i][c][r] for c in range(n)) for r in range(n))
            for i in range(n)))

    def right(op):
        return ActionFamily(n, n, tuple(
            tuple(tuple(op.table[c][i][r] for c in range(n)) for r in range(n))
            for i in range(n)))

    return MulOperators(left(alg.succ), right(alg.succ), left(alg.prec), right(alg.prec))


def op_from_left_family(fam: ActionFamily) -> BilinearOp:
    """Rebuild a product table from its left-multiplication family."""
    n = fam.alg_dim
    return BilinearOp(n, tuple(
        tuple(tuple(fam.mats[i][k][j] for k in range(n)) for j in range(n))
        for i in range(n)))


def dual_representation(rep):
    """The contragredient structure on V*.

    With f*(x) the transpose of f(x) in the coordinate pairing, the dual
    quadruple is (-(r<* + r>*), l<*, r>*, -(l<* + l>*)).
    """
    lsT = rep.lsucc.transpose()
    rsT = rep.rsucc.transpose()
    lpT = rep.lprec.transpose()
    rpT = rep.rprec.transpose()
    return (rpT.add(rsT).neg(), lpT, rsT, lpT.add(lsT).neg())


def _cop_to_table(part):
    """The product table t[i][j][k] = part[k][i][j] of a coproduct part."""
    n = len(part)
    return tuple(tuple(tuple(part[k][i][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _table_to_cop(table):
    """The coproduct part part[k][i][j] = table[i][j][k] of a product table."""
    n = len(table)
    return tuple(tuple(tuple(table[i][j][k] for j in range(n)) for i in range(n))
                 for k in range(n))


def glue(na, nv, aa, av, va, vv):
    """Structure constants of a product on A (+) V, placed block by block.

    Each block is a pair (source of the A-part, source of the V-part); None
    marks a zero part.  With e_i in A and f_j in V:

        e_i o e_j = (aa[0][i][j], aa[1][i][j])          tables A x A -> A, V
        e_i o f_j = (av[0](f_j) e_i, av[1](e_i) f_j)    V-on-A, A-on-V matrices
        f_i o e_j = (va[0](f_i) e_j, va[1](e_j) f_i)    V-on-A, A-on-V matrices
        f_i o f_j = (vv[0][i][j], vv[1][i][j])          tables V x V -> A, V

    Tables are ``BilinearOp.table`` vector tables and families are
    ``ActionFamily.mats``, so an action value is a matrix column.
    """
    za, zv = vzero(na), vzero(nv)

    def cell(table, i, j, zero):
        return zero if table is None else tuple(table[i][j])

    def columns(mats):
        # per matrix, its columns
        return None if mats is None else [tuple(zip(*m)) for m in mats]

    def column(cols, k, c, zero):
        return zero if cols is None else cols[k][c]

    av, va = tuple(map(columns, av)), tuple(map(columns, va))

    rows = []
    for i in range(na):
        rows.append(tuple(cell(aa[0], i, j, za) + cell(aa[1], i, j, zv) for j in range(na))
                    + tuple(column(av[0], j, i, za) + column(av[1], i, j, zv)
                            for j in range(nv)))
    for i in range(nv):
        rows.append(tuple(column(va[0], i, j, za) + column(va[1], j, i, zv) for j in range(na))
                    + tuple(cell(vv[0], i, j, za) + cell(vv[1], i, j, zv) for j in range(nv)))
    return tuple(rows)


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


def check_o_operator(tmat, rep, exhaustive: bool = False) -> Report:
    """T(u) o T(v) = T(l_o(T u)v + r_o(T v)u) for both products, all pairs."""
    n, m = rep.algebra.dim, rep.mod_dim
    if shape(tmat) != (n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    alg = rep.algebra
    return _check_o_rows(Report("O-operator identities", exhaustive=exhaustive,
                                field=alg.field), tmat, m, (
        ("O-succ", alg.succ, rep.lsucc, rep.rsucc, "T(u)>T(v) != T(l>(Tu)v + r>(Tv)u)"),
        ("O-prec", alg.prec, rep.lprec, rep.rprec, "T(u)<T(v) != T(l<(Tu)v + r<(Tv)u)")))
