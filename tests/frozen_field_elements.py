"""The A1/A2 check, the YE6 polarization and ``change_basis`` as they stood
when every scalar was a field element, kept as an oracle.

They compute on the tables as given (``GFElement``s over GF(p)), with
``alg.assoc`` as the sum product and the dense inverse in every basis
change.  ``test_residue_differential`` compares them with the residue code
in ``adw.algebra`` and ``adw.bialgebra``.  Do not optimise or refactor them.
"""

from __future__ import annotations

from adw.algebra import A1_TERMS, ADAlgebra, BilinearOp
from adw.bialgebra import adybe_residual, skew_tensor_from_uppers
from adw.fields import InputError
from adw.linalg import inverse, matvec, vneg
from adw.reporting import Report
from adw.tensors import t3_entries
from .frozen_bialgebra import t2_add, t3_add, t3_sub
from .frozen_dense_kernels import lmul, rmul


def check_anti_dendriform(alg: ADAlgebra, exhaustive: bool = False) -> Report:
    """Both defining identities over every basis triple, with witnesses."""
    rep = Report("anti-dendriform axioms", exhaustive=exhaustive)
    n, succ, prec, dot = alg.dim, alg.succ.table, alg.prec.table, alg.assoc.table
    for i in range(n):
        for j in range(n):
            sij, pij, dij = succ[i][j], prec[i][j], dot[i][j]
            for k in range(n):
                chain = (
                    lmul(succ, i, succ[j][k]),
                    vneg(rmul(succ, dij, k)),
                    vneg(lmul(prec, i, dot[j][k])),
                    rmul(prec, pij, k),
                )
                rep.require_chain("A1", (i, j, k), A1_TERMS, chain)
                rep.require_equal("A2", (i, j, k), rmul(prec, sij, k), lmul(succ, i, prec[j][k]),
                                  "(x>y)<z != x>(y<z)")
    return rep


def _ye6_form(alg: ADAlgebra, k, reduce):
    """YE6 at r = sum_a x_a S_a as a quadratic form in the upper entries x_a.

    S_a is the skew unit tensor of the a-th strictly-upper entry (row-major).
    The residual is homogeneous quadratic in r, so each of its components is
    sum_{a<=b} c_ab x_a x_b, read off ``adybe_residual`` by polarization:
    c_aa = res(S_a) and c_ab = res(S_a + S_b) - res(S_a) - res(S_b) for a < b,
    which holds in every characteristic.  Returns, for each t < k, the
    components whose highest variable is x_t, each a list of (a, b, c) with
    c = reduce(coefficient) nonzero.
    """
    n = alg.dim
    units = [skew_tensor_from_uppers(n, [int(a == b) for b in range(k)]) for a in range(k)]
    squares = [adybe_residual(alg, s) for s in units]
    comps = {}
    for b in range(k):
        for a in range(b + 1):
            res = squares[a] if a == b else t3_sub(
                adybe_residual(alg, t2_add(units[a], units[b])),
                t3_add(squares[a], squares[b]))
            for p, q, s, c in t3_entries(res):
                c = reduce(c)
                if c:
                    comps.setdefault((p, q, s), []).append((a, b, c))
    by_last = [[] for _ in range(k)]
    for terms in comps.values():
        # terms were appended in increasing b, so the last one holds the highest
        by_last[terms[-1][1]].append(terms)
    return by_last


def change_basis(alg: ADAlgebra, pmat) -> ADAlgebra:
    """Conjugate both product tables by an invertible matrix.

    Column i of pmat holds the old coordinates of the new basis vector f_i.
    """
    pinv = inverse(pmat)
    if pinv is None:
        raise InputError("change of basis matrix is singular")
    n = alg.dim

    def conj(op):
        table = []
        for i in range(n):
            fi = tuple(pmat[r][i] for r in range(n))
            row = []
            for j in range(n):
                fj = tuple(pmat[r][j] for r in range(n))
                row.append(matvec(pinv, op.apply(fi, fj)))
            table.append(tuple(row))
        return BilinearOp(n, tuple(table))

    return ADAlgebra(n, alg.basis, conj(alg.succ), conj(alg.prec), alg.field)
