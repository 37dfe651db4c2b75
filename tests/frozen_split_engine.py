"""The split-product engine as it stood before glued tables, kept as an oracle.

This is the callback engine that evaluated the S-, C-, M- and AM-systems on
unit-vector pairs of (A-vector, V-vector) form: ``check_split_axioms``, the
seven ``pair_*`` product formulas (as plain functions of the datum), the
associative-matched-pair triple loop and the unit-vector table assembly.
It is deliberately slow and independent of ``adw.unified.glue``,
``adw.unified.check_glued`` and the ``adw.algebra.lmul``/``rmul`` kernel
(products go through its own copy of the old pair loop), and its R1-R7
checks (S1, and the two representation checks of a matched pair) run the
matrix checker frozen in ``frozen_reps``; ``test_glue_differential``
compares the two.
Do not optimise or refactor it.
"""

from __future__ import annotations

from functools import partial
from itertools import product as iproduct

from adw.algebra import check_associative
from adw.linalg import unit, vadd, vneg, vzero
from adw.reporting import PreconditionFailure, Report
from adw.reps import ADRep

from .frozen_reps import check_representation

A1_CHAIN_TERMS = ("u>(v>w)", "-(u.v)>w", "-u<(v.w)", "(u<v)<w")


# ---------------------------------------------------------------------------
# generic split-product axiom engine

def _pair_add(u, v):
    return (vadd(u[0], v[0]), vadd(u[1], v[1]))


def _pair_neg(u):
    return (vneg(u[0]), vneg(u[1]))


def check_split_axioms(na, nv, succ, prec, a1_labels, a2_labels, name,
                       exhaustive=False, report=None) -> Report:
    rep = report if report is not None else Report(name, exhaustive=exhaustive)

    def dot(u, v):
        return _pair_add(succ(u, v), prec(u, v))

    basis = {
        "A": [(unit(na, i), vzero(nv)) for i in range(na)],
        "V": [(vzero(na), unit(nv, j)) for j in range(nv)],
    }
    comp_tag = ("A", "V")
    for ttype in iproduct("AV", repeat=3):
        la1 = a1_labels.get(ttype, (None, None))
        la2 = a2_labels.get(ttype, (None, None))
        if la1 == (None, None) and la2 == (None, None):
            continue
        tname = "".join(ttype)
        for iu, u in enumerate(basis[ttype[0]]):
            for iv, v in enumerate(basis[ttype[1]]):
                for iw, w in enumerate(basis[ttype[2]]):
                    witness = (tname, iu, iv, iw)
                    if la1 != (None, None):
                        chain = (
                            succ(u, succ(v, w)),
                            _pair_neg(succ(dot(u, v), w)),
                            _pair_neg(prec(u, dot(v, w))),
                            prec(prec(u, v), w),
                        )
                        for comp in (0, 1):
                            if la1[comp] is not None:
                                rep.require_chain(la1[comp], witness, A1_CHAIN_TERMS,
                                                  tuple(e[comp] for e in chain))
                    if la2 != (None, None):
                        lhs = prec(succ(u, v), w)
                        rhs = succ(u, prec(v, w))
                        for comp in (0, 1):
                            if la2[comp] is not None:
                                rep.require_equal(
                                    la2[comp], witness, lhs[comp], rhs[comp],
                                    "(u>v)<w != u>(v<w) [%s-component]" % comp_tag[comp])
    return rep


# ---------------------------------------------------------------------------
# the seven product formulas, on the pair loop that ``BilinearOp.apply`` and
# the fold-map/cocycle class ran before the ``lmul``/``rmul`` kernel

def vscale(c, v):
    return tuple(c * x for x in v)


def apply(op, u, v):
    """Product of two coordinate vectors under a bilinear map."""
    out = vzero(op.out_dim)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            out = vadd(out, vscale(ui * vj, op.table[i][j]))
    return out


def ext_succ(d, u, v):
    x, a = u
    y, b = v
    apart = vadd(apply(d.algebra.succ, x, y), d.rho_succ.act(a, y),
                 d.mu_succ.act(b, x), apply(d.varpi1, a, b))
    vpart = vadd(d.lsucc.act(x, b), d.rsucc.act(y, a),
                 apply(d.succ_v, a, b))
    return (apart, vpart)


def ext_prec(d, u, v):
    x, a = u
    y, b = v
    apart = vadd(apply(d.algebra.prec, x, y), d.rho_prec.act(a, y),
                 d.mu_prec.act(b, x), apply(d.varpi2, a, b))
    vpart = vadd(d.lprec.act(x, b), d.rprec.act(y, a),
                 apply(d.prec_v, a, b))
    return (apart, vpart)


def crossed_succ(d, u, v):
    x, a = u
    y, b = v
    apart = apply(d.algebra.succ, x, y)
    vpart = vadd(apply(d.omega1, x, y), d.lsucc.act(x, b),
                 d.rsucc.act(y, a), apply(d.valgebra.succ, a, b))
    return (apart, vpart)


def crossed_prec(d, u, v):
    x, a = u
    y, b = v
    apart = apply(d.algebra.prec, x, y)
    vpart = vadd(apply(d.omega2, x, y), d.lprec.act(x, b),
                 d.rprec.act(y, a), apply(d.valgebra.prec, a, b))
    return (apart, vpart)


def matched_succ(d, u, v):
    x, a = u
    y, b = v
    apart = vadd(apply(d.alg1.succ, x, y), d.l2s.act(a, y), d.r2s.act(b, x))
    vpart = vadd(apply(d.alg2.succ, a, b), d.l1s.act(x, b), d.r1s.act(y, a))
    return (apart, vpart)


def matched_prec(d, u, v):
    x, a = u
    y, b = v
    apart = vadd(apply(d.alg1.prec, x, y), d.l2p.act(a, y), d.r2p.act(b, x))
    vpart = vadd(apply(d.alg2.prec, a, b), d.l1p.act(x, b), d.r1p.act(y, a))
    return (apart, vpart)


def assoc_mul(p, u, v):
    x, a = u
    y, b = v
    apart = vadd(apply(p.op1, x, y), p.l2.act(a, y), p.r2.act(b, x))
    vpart = vadd(apply(p.op2, a, b), p.l1.act(x, b), p.r1.act(y, a))
    return (apart, vpart)


# ---------------------------------------------------------------------------
# slot labels and the checkers built on the engine

_A1_EXT = {
    ("A", "A", "V"): ("S2", None),
    ("A", "V", "A"): ("S3", None),
    ("V", "A", "A"): ("S4", None),
    ("A", "V", "V"): ("S5", "S6"),
    ("V", "A", "V"): ("S7", "S8"),
    ("V", "V", "A"): ("S9", "S10"),
    ("V", "V", "V"): ("S11", "S12"),
}
_A2_EXT = {
    ("A", "A", "V"): ("S13", None),
    ("A", "V", "A"): ("S14", None),
    ("V", "A", "A"): ("S15", None),
    ("A", "V", "V"): ("S19a", "S19b"),
    ("V", "A", "V"): ("S19c", "S19d"),
    ("V", "V", "A"): ("S19e", "S19f"),
    ("V", "V", "V"): ("S16", "S17"),
}
_A1_CROSSED = {
    ("A", "A", "A"): (None, "C1"),
    ("A", "A", "V"): (None, "C2"),
    ("A", "V", "A"): (None, "C3"),
    ("V", "A", "A"): (None, "C4"),
    ("A", "V", "V"): (None, "C5"),
    ("V", "A", "V"): (None, "C6"),
    ("V", "V", "A"): (None, "C7"),
}
_A2_CROSSED = {
    ("A", "A", "A"): (None, "C8"),
    ("A", "A", "V"): (None, "C9"),
    ("A", "V", "A"): (None, "C9"),
    ("V", "A", "A"): (None, "C10"),
    ("A", "V", "V"): (None, "C10"),
    ("V", "A", "V"): (None, "C11"),
    ("V", "V", "A"): (None, "C11"),
}
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


def check_extending_structure(d, exhaustive=False) -> Report:
    if not d.algebra.is_verified:
        raise PreconditionFailure("base algebra is not anti-dendriform", d.algebra.check())
    out = Report("extending structure", exhaustive=exhaustive)
    rep_check = check_representation(ADRep(d.algebra, d.vdim, d.lsucc, d.rsucc, d.lprec,
                                           d.rprec), exhaustive=exhaustive,
                                     require_verified_algebra=False)
    out.absorb(rep_check)
    check_split_axioms(d.algebra.dim, d.vdim, partial(ext_succ, d), partial(ext_prec, d),
                       _A1_EXT, _A2_EXT, out.name, exhaustive=exhaustive, report=out)
    return out


def check_crossed_system(d, exhaustive=False, include_fibre=True) -> Report:
    if not d.algebra.is_verified:
        raise PreconditionFailure("base algebra is not anti-dendriform", d.algebra.check())
    out = Report("crossed system", exhaustive=exhaustive)
    if include_fibre:
        fib = d.valgebra.check(exhaustive=exhaustive)
        out.tick(fib.checked)
        if not fib.passed:
            for v in fib.violations:
                out.record("C12", v.witness, v.lhs, v.rhs,
                           "fibre algebra violates %s: %s" % (v.equation, v.detail))
            out.violation_count += fib.violation_count - len(fib.violations)
    check_split_axioms(d.algebra.dim, d.vdim, partial(crossed_succ, d),
                       partial(crossed_prec, d), _A1_CROSSED, _A2_CROSSED, out.name,
                       exhaustive=exhaustive, report=out)
    return out


def check_matched_pair(d, exhaustive=False) -> Report:
    for alg, tag in ((d.alg1, "first"), (d.alg2, "second")):
        if not alg.is_verified:
            raise PreconditionFailure("%s factor is not anti-dendriform" % tag, alg.check())
    out = Report("matched pair", exhaustive=exhaustive)
    r1 = check_representation(ADRep(d.alg1, d.alg2.dim, d.l1s, d.r1s, d.l1p, d.r1p),
                              exhaustive=exhaustive, require_verified_algebra=False)
    r2 = check_representation(ADRep(d.alg2, d.alg1.dim, d.l2s, d.r2s, d.l2p, d.r2p),
                              exhaustive=exhaustive, require_verified_algebra=False)
    for rep, tag in ((r1, "rep1"), (r2, "rep2")):
        out.checked += rep.checked
        out.violation_count += rep.violation_count
        for v in rep.violations:
            if out.exhaustive or not out.violations:
                out.violations.append(type(v)(("%s:" % tag) + v.equation, v.witness,
                                              v.lhs, v.rhs, v.detail))
    check_split_axioms(d.alg1.dim, d.alg2.dim, partial(matched_succ, d),
                       partial(matched_prec, d), _A1_MATCHED, _A2_MATCHED, out.name,
                       exhaustive=exhaustive, report=out)
    return out


def check_assoc_matched_pair(p, exhaustive=False) -> Report:
    out = Report("associative matched pair", exhaustive=exhaustive)
    pre1 = check_associative(p.op1)
    pre2 = check_associative(p.op2)
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
    basis = {
        "A": [(unit(n, i), vzero(m)) for i in range(n)],
        "V": [(vzero(n), unit(m, j)) for j in range(m)],
    }
    for ttype, (la, lv) in labels.items():
        tname = "".join(ttype)
        for iu, u in enumerate(basis[ttype[0]]):
            for iv, v in enumerate(basis[ttype[1]]):
                for iw, w in enumerate(basis[ttype[2]]):
                    uv = assoc_mul(p, u, v)
                    vw = assoc_mul(p, v, w)
                    lhs = assoc_mul(p, uv, w)
                    rhs = assoc_mul(p, u, vw)
                    wit = (tname, iu, iv, iw)
                    out.require_equal(la, wit, lhs[0], rhs[0],
                                      "(uv)w != u(vw) [first component]")
                    out.require_equal(lv, wit, lhs[1], rhs[1],
                                      "(uv)w != u(vw) [second component]")
    return out


# ---------------------------------------------------------------------------
# table assembly by evaluation on unit-vector pairs

def assemble(na, nv, pair_fn):
    """Dense glued table: entry (i, j) is pair_fn on the i-th and j-th unit pairs."""
    total = na + nv

    def emb(idx):
        if idx < na:
            return (unit(na, idx), vzero(nv))
        return (vzero(na), unit(nv, idx - na))

    table = []
    for i in range(total):
        row = []
        for j in range(total):
            apart, vpart = pair_fn(emb(i), emb(j))
            row.append(tuple(apart) + tuple(vpart))
        table.append(tuple(row))
    return tuple(table)
