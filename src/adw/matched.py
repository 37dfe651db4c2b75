"""Matched pairs and bicrossed products.

A matched pair consists of two algebras acting on each other through four
families each, such that the glued products on the direct sum

    (x,a) > (y,b) = (x >_1 y + l>_2(a)y + r>_2(b)x,  a >_2 b + l>_1(x)b + r>_1(y)a)
    (x,a) < (y,b) = (x <_1 y + l<_2(a)y + r<_2(b)x,  a <_2 b + l<_1(x)b + r<_1(y)a)

are anti-dendriform.  The conditions are: both action quadruples are
representations, plus the twelve mixed conditions M1-M12 (the remaining
components of the defining identities on mixed basis triples).

Summing paired families gives a matched pair of associative algebras; the
conditions AM1-AM6 are the mixed associativity components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import ActionFamily
from .algebra import (ASSOC, ADAlgebra, BilinearOp, check_parts, check_triples,
                      lowered_walk)
from .fields import RATIONALS, InputError
from .reporting import PreconditionFailure, Report
from .unified import (R_SLOTS, check_columns, check_glued, glue, glue_parts, glued_algebra,
                      split_slots, unglue, unglue_parts)


@dataclass(frozen=True)
class MatchedPairDatum:
    alg1: ADAlgebra
    alg2: ADAlgebra
    # actions of alg1 on alg2
    l1s: ActionFamily
    r1s: ActionFamily
    l1p: ActionFamily
    r1p: ActionFamily
    # actions of alg2 on alg1
    l2s: ActionFamily
    r2s: ActionFamily
    l2p: ActionFamily
    r2p: ActionFamily

    PARTS = (("alg1", "alg1", "algebra", "A", ""), ("alg2", "alg2", "algebra", "V", ""),
             *((k, k, "family", "AV", place) for k, place in (
                 ("l1s", "l>"), ("r1s", "r>"), ("l1p", "l<"), ("r1p", "r<"))),
             *((k, k, "family", "VA", place) for k, place in (
                 ("l2s", "l>"), ("r2s", "r>"), ("l2p", "l<"), ("r2p", "r<"))))
    __post_init__ = check_parts
    glued, unglued = glue_parts, classmethod(unglue_parts)

    @staticmethod
    def trivial(alg1: ADAlgebra, alg2: ADAlgebra) -> "MatchedPairDatum":
        n, m = alg1.dim, alg2.dim
        z12, z21 = ActionFamily.zero(n, m), ActionFamily.zero(m, n)
        return MatchedPairDatum(alg1, alg2, z12, z12, z12, z12, z21, z21, z21, z21)


# Slots delegated to the two representation checks carry None; pure triples
# are the factor algebras' own axioms (preconditions).
_A1_MATCHED = {
    ("A", "A", "V"): ("M1", None),
    ("A", "V", "A"): ("M2", None),
    ("V", "A", "A"): ("M3", None),
    ("A", "V", "V"): (None, "M4"),
    ("V", "A", "V"): (None, "M5"),
    ("V", "V", "A"): (None, "M6"),
}
_A2_MATCHED = {
    ("A", "A", "V"): ("M7", None),
    ("A", "V", "A"): ("M8", None),
    ("V", "A", "A"): ("M9", None),
    ("A", "V", "V"): (None, "M10"),
    ("V", "A", "V"): (None, "M11"),
    ("V", "V", "A"): (None, "M12"),
}
_MATCHED_SLOTS = split_slots(_A1_MATCHED, _A2_MATCHED)
# the representation of alg1 on alg2 (rep1) and of alg2 on alg1 (rep2)
_REP1_SLOTS, _REP2_SLOTS = (tuple((tag + ":" + slot[0],) + slot[1:] for slot in R_SLOTS)
                            for tag in ("rep1", "rep2"))


def check_matched_pair(d: MatchedPairDatum, exhaustive: bool = False) -> Report:
    """Both representation conditions (as glued columns) plus M1-M12."""
    for alg, tag in ((d.alg1, "first"), (d.alg2, "second")):
        if not alg.is_verified:
            raise PreconditionFailure("%s factor is not anti-dendriform" % tag, alg.check())
    out = Report("matched pair", exhaustive=exhaustive, field=d.alg1.field)
    n, m, walk = d.alg1.dim, d.alg2.dim, lowered_walk(out, *d.glued())
    check_columns(walk, n, m, _REP1_SLOTS)
    check_columns(walk, n, m, _REP2_SLOTS, acting="V")
    check_glued(walk, n, m, _MATCHED_SLOTS)
    return out.absorb(walk.part)


def bicrossed_product(d: MatchedPairDatum, precheck: bool = True) -> ADAlgebra:
    """The glued algebra on alg1 (+) alg2; refuses failing data."""
    if precheck:
        rep = check_matched_pair(d)
        if not rep.passed:
            raise PreconditionFailure("not a matched pair", rep)
    return glued_algebra(d)


# ---------------------------------------------------------------------------
# associative matched pairs

@dataclass(frozen=True)
class AssocMatchedPair:
    """Two associative products acting on each other, with scalars in ``field``
    (unchecked: GF(p) elements under the default Q are read in GF(p))."""

    op1: BilinearOp
    op2: BilinearOp
    l1: ActionFamily
    r1: ActionFamily
    l2: ActionFamily
    r2: ActionFamily
    field: object = RATIONALS

    def glued(self):
        """Glued product table of the associative bicrossed product."""
        n, m = self.op1.dim, self.op2.dim
        return glue(n, m, (self.op1.table, None), (self.r2.table, self.l1.table),
                    (self.l2.table, self.r1.table), (None, self.op2.table))


def check_assoc_matched_pair(p: AssocMatchedPair, exhaustive: bool = False) -> Report:
    """Bimodule conditions for both actions plus the mixed conditions AM1-AM6.

    Everything is read off the associativity of the glued product on mixed
    basis triples; slot labels:

        AM1 (x,b,c)    AM2 (a,b,z)    AM3 (a,y,z)
        AM4 (x,y,c)    AM5 (a,y,c)    AM6 (x,b,z)
    """
    out = Report("associative matched pair", exhaustive=exhaustive, field=p.field)
    pre1, pre2 = (check_triples(Report("associativity", field=p.field), op.dim, (ASSOC,),
                                op.table) for op in (p.op1, p.op2))
    if not (pre1.passed and pre2.passed):
        raise PreconditionFailure("a factor product is not associative",
                                  pre1 if not pre1.passed else pre2)
    n, m = p.op1.dim, p.op2.dim
    labels = {
        ("A", "A", "V"): ("AM4", "bimod1-l"),
        ("A", "V", "A"): ("AM6", "bimod1-c"),
        ("V", "A", "A"): ("AM3", "bimod1-r"),
        ("A", "V", "V"): ("bimod2-r", "AM1"),
        ("V", "A", "V"): ("bimod2-c", "AM5"),
        ("V", "V", "A"): ("bimod2-l", "AM2"),
    }
    walk = lowered_walk(out, p.glued())
    check_glued(walk, n, m, labels)
    return out.absorb(walk.part)


def induced_associative_matched_pair(d: MatchedPairDatum,
                                     precheck: bool = True):
    """Sum paired families and products; returns (AssocMatchedPair, Report)."""
    if precheck:
        rep = check_matched_pair(d)
        if not rep.passed:
            raise PreconditionFailure("not a matched pair", rep)
    amp = AssocMatchedPair(d.alg1.assoc, d.alg2.assoc,
                           d.l1s.add(d.l1p), d.r1s.add(d.r1p),
                           d.l2s.add(d.l2p), d.r2s.add(d.r2p), d.alg1.field)
    return amp, check_assoc_matched_pair(amp)


def assoc_bicrossed_product(p: AssocMatchedPair) -> BilinearOp:
    """Dense product table of the glued associative algebra."""
    return BilinearOp(p.op1.dim + p.op2.dim, p.glued())


# ---------------------------------------------------------------------------
# factorization

def factorize(calg: ADAlgebra, basis_a, basis_b):
    """Split an algebra through two complementary sub-basis index sets.

    Checks that both spans are subalgebras, reads the eight action families
    off the ``unglue`` blocks of the ambient tables, runs the matched-pair
    check, and verifies that the bicrossed product reproduces the original
    tables.  Returns (MatchedPairDatum or None, Report).

    The reconstruction check is kept although it cannot fail once both spans
    are closed (``unglue`` splits the ambient tables by indexing alone, and
    ``glue`` puts the same blocks back): its 2 dim^2 ticks are part of the
    ``checked`` count that reports and the CLI print, and it guards the
    glue/unglue layouts against drifting apart.
    """
    out = Report("factorization", field=calg.field)
    basis_a, basis_b = tuple(basis_a), tuple(basis_b)
    idx = sorted(basis_a + basis_b)
    if idx != list(range(calg.dim)) or set(basis_a) & set(basis_b):
        raise InputError("basis index sets must partition 0..%d" % (calg.dim - 1))
    blocks = [unglue(op.table, basis_a, basis_b) for op in (calg.succ, calg.prec)]
    # a span is closed iff its products have no part in the other span; the
    # first leaking product of each span is recorded
    for op, (aa, _, _, vv) in zip((calg.succ, calg.prec), blocks):
        for tag, ids, leak in (("A", basis_a, aa[1]), ("B", basis_b, vv[0])):
            hit = next(((gi, gj) for i, gi in enumerate(ids) for j, gj in enumerate(ids)
                        if any(leak[i][j])), None)
            if hit is not None:
                out.record("closure", hit, tuple(op.table[hit[0]][hit[1]]), (),
                           "%s-span is not a subalgebra" % tag)
        if not out.passed:
            return None, out
    succ, prec = blocks
    n, m = len(basis_a), len(basis_b)
    alg_a = ADAlgebra(n, tuple(calg.basis[g] for g in basis_a),
                      BilinearOp(n, succ[0][0]), BilinearOp(n, prec[0][0]), calg.field)
    alg_b = ADAlgebra(m, tuple(calg.basis[g] for g in basis_b),
                      BilinearOp(m, succ[3][1]), BilinearOp(m, prec[3][1]), calg.field)
    datum = MatchedPairDatum.unglued(alg_a, alg_b, succ, prec)
    mp = check_matched_pair(datum)
    out.absorb(mp)
    if not mp.passed:
        return None, out
    rebuilt = bicrossed_product(datum, precheck=False)
    perm = basis_a + basis_b
    for op_r, op_c, tag in ((rebuilt.succ, calg.succ, ">"), (rebuilt.prec, calg.prec, "<")):
        for i, gi in enumerate(perm):
            for j, gj in enumerate(perm):
                want = op_c.table[gi][gj]
                out.require_equal("reconstruction", (i, j), tuple(op_r.table[i][j]),
                                  tuple(want[g] for g in perm),
                                  "bicrossed product does not reproduce %s" % tag)
    if not out.passed:
        return None, out
    return datum, out
