"""The representation and bimodule checkers as matrix algebra, kept as an oracle.

R1-R7 and the associative bimodule axioms written as products of action
matrices (``matmul``, ``mat_neg``, and ``mat``, the matrix of an action that
``ActionFamily.mat`` built), as they stood before ``adw.reps`` read them off
the glued semidirect product.  It is independent
of ``adw.unified.glue`` and the glued walks; ``test_reps_differential`` and
the S and M oracle in ``frozen_split_engine`` compare against it.
Do not optimise or refactor it.
"""

from __future__ import annotations

from adw.linalg import mat_add, mat_neg, matmul, zeros_mat
from adw.reporting import PreconditionFailure, Report

R1_TERMS = ("l>(x)l>(y)", "-l>(x.y)", "-l<(x)l.(y)", "l<(x<y)")
R2_TERMS = ("r>(x>y)", "-r>(y)r.(x)", "-r<(x.y)", "r<(y)r<(x)")
R3_TERMS = ("l>(x)r>(y)", "-r>(y)l.(x)", "-l<(x)r.(y)", "r<(y)l<(x)")


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat(fam, x):
    """Matrix of the action of the coordinate vector x."""
    out = None
    for i, xi in enumerate(x):
        if xi:
            term = mat_scale(xi, fam.mats[i])
            out = term if out is None else mat_add(out, term)
    return zeros_mat(fam.mod_dim, fam.mod_dim) if out is None else out


def check_representation(rep, exhaustive=False, require_verified_algebra=True) -> Report:
    alg = rep.algebra
    if require_verified_algebra and not alg.is_verified:
        raise PreconditionFailure("underlying algebra is not anti-dendriform",
                                  alg.check())
    out = Report("representation axioms", exhaustive=exhaustive)
    n = alg.dim
    ls, rs, lp, rp = rep.lsucc.mats, rep.rsucc.mats, rep.lprec.mats, rep.rprec.mats
    ldot = rep.lsucc.add(rep.lprec).mats
    rdot = rep.rsucc.add(rep.rprec).mats
    for i in range(n):
        for j in range(n):
            sij = alg.succ.table[i][j]
            pij = alg.prec.table[i][j]
            dij = alg.assoc.table[i][j]
            out.require_chain("R1", (i, j), R1_TERMS, (
                matmul(ls[i], ls[j]),
                mat_neg(mat(rep.lsucc, dij)),
                mat_neg(matmul(lp[i], ldot[j])),
                mat(rep.lprec, pij),
            ))
            out.require_chain("R2", (i, j), R2_TERMS, (
                mat(rep.rsucc, sij),
                mat_neg(matmul(rs[j], rdot[i])),
                mat_neg(mat(rep.rprec, dij)),
                matmul(rp[j], rp[i]),
            ))
            out.require_chain("R3", (i, j), R3_TERMS, (
                matmul(ls[i], rs[j]),
                mat_neg(matmul(rs[j], ldot[i])),
                mat_neg(matmul(lp[i], rdot[j])),
                matmul(rp[j], lp[i]),
            ))
            out.require_equal("R4", (i, j), mat(rep.lprec, sij), matmul(ls[i], lp[j]),
                              "l<(x>y) != l>(x)l<(y)")
            out.require_equal("R5", (i, j), matmul(rp[j], rs[i]), mat(rep.rsucc, pij),
                              "r<(y)r>(x) != r>(x<y)")
            out.require_equal("R6", (i, j), matmul(rp[j], ls[i]), matmul(ls[i], rp[j]),
                              "r<(y)l>(x) != l>(x)r<(y)")
            out.require_equal("R7", (i, j), matmul(rdot[j], ldot[i]), matmul(ldot[i], rdot[j]),
                              "r.(y)l.(x) != l.(x)r.(y)")
    return out


def check_assoc_bimodule(arep, exhaustive=False) -> Report:
    out = Report("associative bimodule axioms%s" % (" (%s)" % arep.tag if arep.tag else ""),
                 exhaustive=exhaustive)
    n = arep.op.dim
    l, r = arep.left, arep.right
    for i in range(n):
        for j in range(n):
            dij = arep.op.table[i][j]
            out.require_equal("bimod-l", (i, j), mat(l, dij), matmul(l.mats[i], l.mats[j]),
                              "l(x.y) != l(x)l(y)")
            out.require_equal("bimod-r", (i, j), mat(r, dij), matmul(r.mats[j], r.mats[i]),
                              "r(x.y) != r(y)r(x)")
            out.require_equal("bimod-c", (i, j), matmul(r.mats[j], l.mats[i]),
                              matmul(l.mats[i], r.mats[j]), "r(y)l(x) != l(x)r(y)")
    return out
