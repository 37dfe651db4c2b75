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

A quadruple is a representation iff the semidirect product A (+) V is
anti-dendriform, and the identities are read off its glued tables
(``adw.unified.check_columns``): R1-R3 are the V-components of A1 at the
triples (x, y, w), (w, x, y), (x, w, y) with w in V, column w of each matrix
the term at w; R4-R6 are A2 and R7 and the bimodule axioms associativity there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .actions import ActionFamily
from .algebra import ADAlgebra, BilinearOp, check_parts, lowered_walk, multiplication_operators
from .fields import RATIONALS
from .reporting import PreconditionFailure, Report
from .unified import (BIMOD_SLOTS, R_SLOTS, check_columns, glue, glue_parts, glued_algebra,
                      unglue_parts)


@dataclass(frozen=True)
class ADRep:
    algebra: ADAlgebra
    mod_dim: int
    lsucc: ActionFamily
    rsucc: ActionFamily
    lprec: ActionFamily
    rprec: ActionFamily

    PARTS = (("algebra", "algebra", "algebra", "A", ""), ("mod_dim", "modDim", "dim", "V", ""),
             *((k, k, "family", "AV", place) for k, place in (
                 ("lsucc", "l>"), ("rsucc", "r>"), ("lprec", "l<"), ("rprec", "r<"))))
    __post_init__ = check_parts
    glued, unglued = glue_parts, classmethod(unglue_parts)

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


def semidirect_table(op, mod_dim, left, right):
    """Glued table of o on A (+) V with (x,a) o (y,b) = (x o y, left(x)b + right(y)a)."""
    return glue(op.dim, mod_dim, (op.table, None), (None, left.table), (None, right.table),
                (None, None))


def check_representation(rep: ADRep, exhaustive: bool = False,
                         require_verified_algebra: bool = True) -> Report:
    """All six identities (plus the derived R7) for every algebra basis pair."""
    alg = rep.algebra
    if require_verified_algebra and not alg.is_verified:
        raise PreconditionFailure("underlying algebra is not anti-dendriform",
                                  alg.check())
    out = Report("representation axioms", exhaustive=exhaustive, field=alg.field)
    walk = lowered_walk(out, *rep.glued())
    check_columns(walk, alg.dim, rep.mod_dim, R_SLOTS)
    return out.absorb(walk.part)


def dual_representation(rep: ADRep, precheck: bool = True) -> ADRep:
    """The contragredient structure on V*.

    With f*(x) the transpose of f(x) in the coordinate pairing, the dual
    quadruple is (-(r<* + r>*), l<*, r>*, -(l<* + l>*)).
    """
    if precheck and not rep.is_verified:
        raise PreconditionFailure("representation does not satisfy R1-R6",
                                  check_representation(rep, require_verified_algebra=False))
    lsT, rsT, lpT, rpT = map(transposed, rep.families())
    return ADRep(rep.algebra, rep.mod_dim,
                 rpT.add(rsT).neg(), lpT, rsT, lpT.add(lsT).neg())


def transposed(fam: ActionFamily) -> ActionFamily:
    """The family of the transposes l(x)*: its matrices have the columns
    l(x)e_c of the family's as rows, so they are the family's table."""
    return ActionFamily(fam.alg_dim, fam.mod_dim, fam.table)


# ---------------------------------------------------------------------------
# associated associative bimodules

@dataclass(frozen=True)
class AssocRep:
    """A bimodule (V, l, r) over an associative product with scalars in ``field``."""

    op: BilinearOp
    mod_dim: int
    left: ActionFamily
    right: ActionFamily
    tag: str = ""
    field: object = RATIONALS


def check_assoc_bimodule(arep: AssocRep, exhaustive: bool = False) -> Report:
    """l(x.y) = l(x)l(y);  r(x.y) = r(y)r(x);  r(y)l(x) = l(x)r(y)."""
    out = Report("associative bimodule axioms%s" % (" (%s)" % arep.tag if arep.tag else ""),
                 exhaustive=exhaustive, field=arep.field)
    walk = lowered_walk(out, semidirect_table(arep.op, arep.mod_dim, arep.left, arep.right))
    check_columns(walk, arep.op.dim, arep.mod_dim, BIMOD_SLOTS)
    return out.absorb(walk.part)


def induced_associative_reps(rep: ADRep, precheck: bool = True):
    """The four bimodules over the sum product induced by a representation.

    Returns a list of (AssocRep, Report) pairs; each bimodule is re-checked
    against the associative bimodule axioms.
    """
    if precheck and not rep.is_verified:
        raise PreconditionFailure("representation does not satisfy R1-R6",
                                  check_representation(rep, require_verified_algebra=False))
    dot, m, field = rep.algebra.assoc, rep.mod_dim, rep.algebra.field
    ls, rs, lp, rp = rep.families()
    lsT, rsT, lpT, rpT = map(transposed, rep.families())
    candidates = [
        AssocRep(dot, m, ls.neg(), rp.neg(), "(-l>, -r<)", field),
        AssocRep(dot, m, ls.add(lp), rs.add(rp), "(l., r.)", field),
        AssocRep(dot, m, rpT.neg(), lsT.neg(), "dual (-r<*, -l>*)", field),
        AssocRep(dot, m, rpT.add(rsT), lpT.add(lsT), "dual (r.*, l.*)", field),
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
    return glued_algebra(rep)
