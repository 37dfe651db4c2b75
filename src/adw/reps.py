"""Representations (bimodules) of anti-dendriform algebras.

A representation is a quadruple of action families (lsucc, rsucc, lprec,
rprec) on a module V subject to six matrix identities, checked for every pair
of algebra basis elements:

    R1:  l>(x)l>(y) = -l>(x.y) = -l<(x)l.(y) = l<(x<y)
    R2:  r>(x>y) = -r>(y)r.(x) = -r<(x.y) = r<(y)r<(x)
    R3:  l>(x)r>(y) = -r>(y)l.(x) = -l<(x)r.(y) = r<(y)l<(x)
    R4:  l<(x>y) = l>(x)l<(y)
    R5:  r<(y)r>(x) = r>(x<y)
    R6:  r<(y)l>(x) = l>(x)r<(y)

with l. = l> + l<, r. = r> + r<.  R7, a consequence of R3 and R6, is checked
as well:  r.(y)l.(x) = l.(x)r.(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .actions import ActionFamily
from .algebra import ADAlgebra, BilinearOp, multiplication_operators, require_field
from .fields import InputError
from .linalg import mat_neg, matmul
from .reporting import PreconditionFailure, Report

R1_TERMS = ("l>(x)l>(y)", "-l>(x.y)", "-l<(x)l.(y)", "l<(x<y)")
R2_TERMS = ("r>(x>y)", "-r>(y)r.(x)", "-r<(x.y)", "r<(y)r<(x)")
R3_TERMS = ("l>(x)r>(y)", "-r>(y)l.(x)", "-l<(x)r.(y)", "r<(y)l<(x)")


@dataclass(frozen=True)
class ADRep:
    algebra: ADAlgebra
    mod_dim: int
    lsucc: ActionFamily
    rsucc: ActionFamily
    lprec: ActionFamily
    rprec: ActionFamily

    def __post_init__(self):
        for fam in (self.lsucc, self.rsucc, self.lprec, self.rprec):
            if fam.alg_dim != self.algebra.dim or fam.mod_dim != self.mod_dim:
                raise InputError("representation family shapes do not match (%d, %d)"
                                 % (self.algebra.dim, self.mod_dim))
        require_field(self.algebra.field, *self.families())

    @staticmethod
    def zero(algebra, mod_dim):
        z = ActionFamily.zero(algebra.dim, mod_dim)
        return ADRep(algebra, mod_dim, z, z, z, z)

    @cached_property
    def is_verified(self) -> bool:
        return check_representation(self).passed

    def families(self):
        return (self.lsucc, self.rsucc, self.lprec, self.rprec)


def regular_representation(alg: ADAlgebra) -> ADRep:
    ops = multiplication_operators(alg)
    return ADRep(alg, alg.dim, ops.lsucc, ops.rsucc, ops.lprec, ops.rprec)


def check_representation(rep: ADRep, exhaustive: bool = False,
                         require_verified_algebra: bool = True) -> Report:
    """All six identities (plus the derived R7) for every algebra basis pair."""
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
                mat_neg(rep.lsucc.mat(dij)),
                mat_neg(matmul(lp[i], ldot[j])),
                rep.lprec.mat(pij),
            ))
            out.require_chain("R2", (i, j), R2_TERMS, (
                rep.rsucc.mat(sij),
                mat_neg(matmul(rs[j], rdot[i])),
                mat_neg(rep.rprec.mat(dij)),
                matmul(rp[j], rp[i]),
            ))
            out.require_chain("R3", (i, j), R3_TERMS, (
                matmul(ls[i], rs[j]),
                mat_neg(matmul(rs[j], ldot[i])),
                mat_neg(matmul(lp[i], rdot[j])),
                matmul(rp[j], lp[i]),
            ))
            out.require_equal("R4", (i, j), rep.lprec.mat(sij), matmul(ls[i], lp[j]),
                              "l<(x>y) != l>(x)l<(y)")
            out.require_equal("R5", (i, j), matmul(rp[j], rs[i]), rep.rsucc.mat(pij),
                              "r<(y)r>(x) != r>(x<y)")
            out.require_equal("R6", (i, j), matmul(rp[j], ls[i]), matmul(ls[i], rp[j]),
                              "r<(y)l>(x) != l>(x)r<(y)")
            out.require_equal("R7", (i, j), matmul(rdot[j], ldot[i]), matmul(ldot[i], rdot[j]),
                              "r.(y)l.(x) != l.(x)r.(y)")
    return out


def dual_representation(rep: ADRep, precheck: bool = True) -> ADRep:
    """The contragredient structure on V*.

    With f*(x) the transpose of f(x) in the coordinate pairing, the dual
    quadruple is (-(r<* + r>*), l<*, r>*, -(l<* + l>*)).
    """
    if precheck and not rep.is_verified:
        raise PreconditionFailure("representation does not satisfy R1-R6",
                                  check_representation(rep, require_verified_algebra=False))
    lsT = rep.lsucc.transpose()
    rsT = rep.rsucc.transpose()
    lpT = rep.lprec.transpose()
    rpT = rep.rprec.transpose()
    return ADRep(rep.algebra, rep.mod_dim,
                 rpT.add(rsT).neg(), lpT, rsT, lpT.add(lsT).neg())


# ---------------------------------------------------------------------------
# associated associative bimodules

@dataclass(frozen=True)
class AssocRep:
    """A bimodule (V, l, r) over an associative product."""

    op: BilinearOp
    mod_dim: int
    left: ActionFamily
    right: ActionFamily
    tag: str = ""


def check_assoc_bimodule(arep: AssocRep, exhaustive: bool = False) -> Report:
    """l(x.y) = l(x)l(y);  r(x.y) = r(y)r(x);  r(y)l(x) = l(x)r(y)."""
    out = Report("associative bimodule axioms%s" % (" (%s)" % arep.tag if arep.tag else ""),
                 exhaustive=exhaustive)
    n = arep.op.dim
    l, r = arep.left, arep.right
    for i in range(n):
        for j in range(n):
            dij = arep.op.table[i][j]
            out.require_equal("bimod-l", (i, j), l.mat(dij), matmul(l.mats[i], l.mats[j]),
                              "l(x.y) != l(x)l(y)")
            out.require_equal("bimod-r", (i, j), r.mat(dij), matmul(r.mats[j], r.mats[i]),
                              "r(x.y) != r(y)r(x)")
            out.require_equal("bimod-c", (i, j), matmul(r.mats[j], l.mats[i]),
                              matmul(l.mats[i], r.mats[j]), "r(y)l(x) != l(x)r(y)")
    return out


def induced_associative_reps(rep: ADRep, precheck: bool = True):
    """The four bimodules over the sum product induced by a representation.

    Returns a list of (AssocRep, Report) pairs; each bimodule is re-checked
    against the associative bimodule axioms.
    """
    if precheck and not rep.is_verified:
        raise PreconditionFailure("representation does not satisfy R1-R6",
                                  check_representation(rep, require_verified_algebra=False))
    dot = rep.algebra.assoc
    ls, rs, lp, rp = rep.families()
    lsT, rsT, lpT, rpT = (f.transpose() for f in rep.families())
    candidates = [
        AssocRep(dot, rep.mod_dim, ls.neg(), rp.neg(), tag="(-l>, -r<)"),
        AssocRep(dot, rep.mod_dim, ls.add(lp), rs.add(rp), tag="(l., r.)"),
        AssocRep(dot, rep.mod_dim, rpT.neg(), lsT.neg(), tag="dual (-r<*, -l>*)"),
        AssocRep(dot, rep.mod_dim, rpT.add(rsT), lpT.add(lsT), tag="dual (r.*, l.*)"),
    ]
    return [(c, check_assoc_bimodule(c)) for c in candidates]


# ---------------------------------------------------------------------------
# semidirect product

def semidirect_product(rep: ADRep, precheck: bool = True) -> ADAlgebra:
    """The split extension on A (+) V:

        (x,a) > (y,b) = (x>y, l>(x)b + r>(y)a)
        (x,a) < (y,b) = (x<y, l<(x)b + r<(y)a)

    Refuses unverified representations unless precheck is disabled.
    """
    if precheck:
        inner = check_representation(rep, require_verified_algebra=False)
        if not rep.algebra.is_verified or not inner.passed:
            raise PreconditionFailure("representation does not satisfy R1-R6", inner)
    alg = rep.algebra
    n, m = alg.dim, rep.mod_dim
    total = n + m

    def build(op, lf, rf):
        entries = list(op.entries())
        for x in range(n):
            for b in range(m):
                for k in range(m):
                    c = lf.mats[x][k][b]
                    if c:
                        entries.append((x, n + b, n + k, c))
        for a in range(m):
            for y in range(n):
                for k in range(m):
                    c = rf.mats[y][k][a]
                    if c:
                        entries.append((n + a, y, n + k, c))
        return BilinearOp.from_entries(total, entries)

    basis = alg.basis + tuple("v%d" % (i + 1) for i in range(m))
    return ADAlgebra(total, basis, build(alg.succ, rep.lsucc, rep.rsucc),
                     build(alg.prec, rep.lprec, rep.rprec), alg.field)
