"""Command-line front end.

Exit codes: 0 = checked and passed (or object built), 1 = checked and failed
(including refused preconditions), 2 = usage or input error.  ``--json``
emits the run report as JSON on stdout; the default is human-readable text.
The scalar field is selected by the ADW_FIELD environment variable
("rational" by default, or "fp<prime>" for searches over a prime field).

Each handler imports the modules it calls, so that a process loads only the
layer its command needs: ``adw algebra check`` never loads the
representation, unified, crossed, matched or bialgebra modules.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize as io
from .algebra import check_anti_dendriform
from .fields import InputError, field_from_env
from .reporting import PreconditionFailure, Report


class _Run:
    """Collects the outcome of one subcommand."""

    def __init__(self, field):
        self.field = field
        self.report = None
        self.artifacts = []
        self.data = {}
        self.verdict = None  # derived from report unless set

    def write(self, path, payload):
        io.write_json(path, payload)
        self.artifacts.append(path)


def _fmt_scalar(field):
    def fmt(x):
        try:
            return field.to_str(x)
        except Exception:
            return str(x)
    return fmt


def _emit(run: _Run, command: str, as_json: bool) -> int:
    rep = run.report
    if run.verdict is not None:
        verdict = run.verdict
    elif rep is None:
        verdict = "pass"
    else:
        verdict = "pass" if rep.passed else "fail"
    violations = [v.render(_fmt_scalar(run.field)) for v in (rep.violations if rep else [])]
    if as_json:
        payload = {"command": command, "verdict": verdict, "violations": violations,
                   "artifacts": run.artifacts}
        if rep is not None:
            payload["checked"] = rep.checked
            payload["violationCount"] = rep.violation_count
        if run.data:
            payload["data"] = run.data
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        if rep is not None:
            print(rep.summary())
        print("verdict: %s" % verdict)
        for v in violations:
            print("  [%s] witness %s: %s" % (v["equation"], v["witness"], v["detail"]))
            print("      lhs = %s" % (v["lhs"],))
            print("      rhs = %s" % (v["rhs"],))
        for a in run.artifacts:
            print("wrote %s" % a)
        for k, v in run.data.items():
            print("%s: %s" % (k, v))
    if verdict == "pass":
        return 0
    return 2 if verdict == "error" else 1


# ---------------------------------------------------------------------------
# handlers

def _h_algebra_check(args, run):
    alg = io.load_algebra(args.file, run.field)
    run.report = check_anti_dendriform(alg, exhaustive=args.exhaustive)


def _h_algebra_assoc(args, run):
    alg = io.load_algebra(args.file, run.field)
    run.write(args.out, io.product_to_dict(alg.assoc, alg.basis, run.field))


def _h_algebra_dual(args, run):
    from .bialgebra import dualize_algebra
    alg = io.load_algebra(args.file, run.field)
    run.write(args.out, io.coproducts_to_dict(dualize_algebra(alg), run.field))


def _h_rep_check(args, run):
    from .reps import check_representation
    rep = io.load_rep(args.file, run.field)
    run.report = check_representation(rep, exhaustive=args.exhaustive)


def _h_rep_dual(args, run):
    from .reps import dual_representation
    rep = io.load_rep(args.file, run.field)
    run.write(args.out, io.rep_to_dict(dual_representation(rep), run.field))


def _h_rep_semidirect(args, run):
    from .reps import semidirect_product
    rep = io.load_rep(args.file, run.field)
    alg = semidirect_product(rep)
    run.report = check_anti_dendriform(alg)
    if args.out:
        run.write(args.out, io.algebra_to_dict(alg, run.field))


def _h_unified_check(args, run):
    from .unified import check_extending_structure
    d = io.load_datum(args.file, run.field)
    run.report = check_extending_structure(d, exhaustive=args.exhaustive)


def _h_unified_build(args, run):
    from .unified import unified_product
    d = io.load_datum(args.file, run.field)
    alg = unified_product(d)
    if args.out:
        run.write(args.out, io.algebra_to_dict(alg, run.field))


def _h_unified_extract(args, run):
    from .unified import check_extending_structure, extract_extending_datum
    ealg = io.load_algebra(args.file, run.field)
    incl = io.load_matrix(args.include, run.field)
    proj = io.load_matrix(args.project, run.field)
    res = extract_extending_datum(ealg, incl, proj)
    run.report = check_extending_structure(res.datum)
    if args.out:
        run.write(args.out, io.datum_to_dict(res.datum, run.field))
    run.data["vBasis"] = io._matrix_to_rows(res.v_basis, run.field)


def _h_unified_equiv(args, run):
    from .linalg import identity
    from .unified import EquivWitness, check_equivalence
    d1 = io.load_datum(args.first, run.field)
    d2 = io.load_datum(args.second, run.field)
    zeta = io.load_matrix(args.zeta, run.field)
    eta = (io.load_matrix(args.eta, run.field) if args.eta
           else identity(d1.vdim, run.field.one))
    run.report = check_equivalence(d1, d2, EquivWitness(zeta, eta),
                                   cohomologous=args.cohomologous,
                                   exhaustive=args.exhaustive)


def _h_crossed_check(args, run):
    from .crossed import check_crossed_system
    c = io.load_crossed(args.file, run.field)
    run.report = check_crossed_system(c, exhaustive=args.exhaustive)


def _h_crossed_build(args, run):
    from .crossed import crossed_product
    c = io.load_crossed(args.file, run.field)
    alg = crossed_product(c)
    if args.out:
        run.write(args.out, io.algebra_to_dict(alg, run.field))


def _h_crossed_from_section(args, run):
    from .crossed import check_crossed_system, cocycle_from_section
    ealg = io.load_algebra(args.file, run.field)
    proj = io.load_matrix(args.project, run.field)
    sect = io.load_matrix(args.section, run.field)
    res = cocycle_from_section(ealg, proj, sect)
    run.report = check_crossed_system(res.datum)
    if args.out:
        run.write(args.out, io.crossed_to_dict(res.datum, run.field))
    run.data["vBasis"] = io._matrix_to_rows(res.v_basis, run.field)


def _h_crossed_cohomologous(args, run):
    from .crossed import check_cocycles_cohomologous, find_cohomologous_zeta
    c1 = io.load_crossed(args.first, run.field)
    c2 = io.load_crossed(args.second, run.field)
    if args.zeta:
        zeta = io.load_matrix(args.zeta, run.field)
        run.report = check_cocycles_cohomologous(c1, c2, zeta)
    elif args.search:
        zeta, rep = find_cohomologous_zeta(c1, c2)
        run.report = rep
        if zeta is not None:
            run.data["zeta"] = io._matrix_to_rows(zeta, run.field)
    else:
        raise InputError("supply --zeta FILE or --search")


def _h_gh2_check(args, run):
    from .crossed import check_gh2_tuple
    t = io.load_gh2(args.file, run.field)
    run.report = check_gh2_tuple(t, exhaustive=args.exhaustive)


def _h_gh2_cohomologous(args, run):
    from .crossed import gh2_tuples_cohomologous
    t1 = io.load_gh2(args.first, run.field)
    t2 = io.load_gh2(args.second, run.field)
    w, rep = gh2_tuples_cohomologous(t1, t2)
    run.report = rep
    if w is not None:
        run.data["w"] = [run.field.to_str(v) for v in w]


def _h_inducible_check(args, run):
    from .crossed import check_inducible
    c = io.load_crossed(args.file, run.field)
    pair = io.load_autpair(args.pair, run.field)
    phi = io.load_matrix(args.phi, run.field)
    run.report = check_inducible(c, pair, phi, exhaustive=args.exhaustive)


def _h_wells_eval(args, run):
    from .crossed import wells_map
    c = io.load_crossed(args.file, run.field)
    pair = io.load_autpair(args.pair, run.field)
    zeta = io.load_matrix(args.zeta, run.field) if args.zeta else None
    rec = wells_map(c, pair, zeta)
    run.report = rec.report
    if rec.vanishes is None:
        run.verdict = "error"
        run.data["note"] = "class undecided: non-abelian fibre needs a witness (--zeta)"
    else:
        run.verdict = "pass" if rec.vanishes else "fail"
        run.data["vanishes"] = rec.vanishes
        if rec.zeta is not None:
            run.data["zeta"] = io._matrix_to_rows(rec.zeta, run.field)
    if args.out:
        run.write(args.out, io.crossed_to_dict(rec.transformed, run.field))


def _h_z1_basis(args, run):
    from .crossed import z1_cocycles
    c = io.load_crossed(args.file, run.field)
    basis = z1_cocycles(c)
    run.data["dimension"] = len(basis)
    if args.out:
        run.write(args.out, {"basis": [io._matrix_to_rows(m, run.field) for m in basis]})
    else:
        run.data["basis"] = [io._matrix_to_rows(m, run.field) for m in basis]


def _h_matched_check(args, run):
    from .matched import check_matched_pair
    d = io.load_matched(args.file, run.field)
    run.report = check_matched_pair(d, exhaustive=args.exhaustive)


def _h_matched_build(args, run):
    from .matched import bicrossed_product
    d = io.load_matched(args.file, run.field)
    alg = bicrossed_product(d)
    if args.out:
        run.write(args.out, io.algebra_to_dict(alg, run.field))


def _h_matched_factorize(args, run):
    from .matched import factorize
    calg = io.load_algebra(args.file, run.field)
    try:
        first = [int(s) for s in args.first.split(",") if s != ""]
        second = [int(s) for s in args.second.split(",") if s != ""]
    except ValueError as exc:
        raise InputError("index lists must be comma-separated integers") from exc
    datum, rep = factorize(calg, first, second)
    run.report = rep
    if datum is not None and args.out:
        run.write(args.out, io.matched_to_dict(datum, run.field))


def _h_connes_check(args, run):
    from .bialgebra import check_connes_cocycle
    op, _ = io.load_product(args.file, run.field)
    form = io.load_form(args.form, run.field)
    run.report = check_connes_cocycle(op, form, exhaustive=args.exhaustive, field=run.field)


def _h_connes_derive(args, run):
    from .bialgebra import derive_compatible_ad
    op, _ = io.load_product(args.file, run.field)
    form = io.load_form(args.form, run.field)
    alg = derive_compatible_ad(op, form, field=run.field)
    if args.out:
        run.write(args.out, io.algebra_to_dict(alg, run.field))


def _h_connes_double(args, run):
    from .bialgebra import build_double_construction
    alg = io.load_algebra(args.file, run.field)
    dual_alg = io.load_algebra(args.dual, run.field)
    dc = build_double_construction(alg, dual_alg)
    rep = Report("double construction")
    rep.absorb(dc.matched_report)
    rep.absorb(dc.form_report)
    run.report = rep
    if dc.passed and args.out:
        run.write(args.out, io.product_to_dict(
            dc.assembled, tuple("e%d" % (i + 1) for i in range(dc.assembled.dim)),
            run.field))


def _h_bialgebra_check(args, run):
    from .bialgebra import check_coalgebra, check_d_bialgebra
    alg = io.load_algebra(args.file, run.field)
    cp = io.load_coproducts(args.coproducts, run.field)
    rep = Report("D-bialgebra", exhaustive=args.exhaustive)
    rep.absorb(check_coalgebra(cp, exhaustive=args.exhaustive))
    rep.absorb(check_d_bialgebra(alg, cp, exhaustive=args.exhaustive))
    run.report = rep


def _h_bialgebra_coboundary(args, run):
    from .bialgebra import check_coboundary_conditions, coboundary_coproducts
    alg = io.load_algebra(args.file, run.field)
    rs = io.load_rmatrix(args.rsucc, run.field)
    rp = io.load_rmatrix(args.rprec, run.field)
    run.report = check_coboundary_conditions(alg, rs, rp, exhaustive=args.exhaustive)
    if args.out:
        run.write(args.out, io.coproducts_to_dict(coboundary_coproducts(alg, rs, rp),
                                                  run.field))


def _h_ybe_residual(args, run):
    from .bialgebra import adybe_residual, is_skew
    from .tensors import t3_is_zero
    alg = io.load_algebra(args.file, run.field)
    r = io.load_rmatrix(args.r, run.field)
    residual = adybe_residual(alg, r)
    rep = Report("Yang-Baxter residual")
    rep.tick()
    if not t3_is_zero(residual):
        rep.record("YE6", (), (), (), "residual tensor is nonzero")
    run.report = rep
    fmt = _fmt_scalar(run.field)
    run.data["residual"] = [[[fmt(x) for x in row] for row in plane] for plane in residual]
    run.data["skew"] = is_skew(r)


def _h_ybe_search(args, run):
    from .bialgebra import search_skew_solutions
    alg = io.load_algebra(args.file, run.field)
    if args.grid:
        values = [run.field.parse(s) for s in args.grid.split(",")]
    elif run.field.enumerable:
        values = run.field.elements()
    else:
        raise InputError("supply --grid over the rationals (or set ADW_FIELD=fp<p>)")
    sols = search_skew_solutions(alg, values)
    run.data["solutions"] = len(sols)
    payload = [io.rmatrix_to_dict(r, run.field) for r in sols]
    if args.out:
        run.write(args.out, {"solutions": payload})
    else:
        run.data["r"] = payload


def _h_oop_check(args, run):
    from .bialgebra import check_o_operator
    tmat, rep = io.load_ooperator(args.file, run.field)
    run.report = check_o_operator(tmat, rep, exhaustive=args.exhaustive)


def _h_oop_lift(args, run):
    from .bialgebra import o_operator_to_ybe
    tmat, rep = io.load_ooperator(args.file, run.field)
    res = o_operator_to_ybe(tmat, rep)
    out = Report("skew solution from operator")
    out.tick()
    if not res.is_solution:
        out.record("YE6", (), (), (), "lifted tensor is not a solution")
    run.report = out
    run.data["operatorPasses"] = res.operator_report.passed
    run.data["consistent"] = res.consistent
    if args.out_algebra:
        run.write(args.out_algebra, io.algebra_to_dict(res.ambient, run.field))
    if args.out_r:
        run.write(args.out_r, io.rmatrix_to_dict(res.r, run.field))


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    p = argparse.ArgumentParser(prog="adw",
                                description="exact workbench for anti-dendriform algebras")
    p.add_argument("--json", action="store_true", help="emit a JSON run report")
    sub = p.add_subparsers(dest="group", required=True)
    groups = {}

    def cmd(group, name, handler, *specs):
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest="command", required=True)
        cp = groups[group].add_parser(name)
        for spec in specs:
            flags, kw = spec
            cp.add_argument(*flags, **kw)
        cp.add_argument("--exhaustive", action="store_true",
                        help="collect every violation, not just the first")
        cp.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON run report")
        cp.set_defaults(func=handler)

    def F(*names, **kw):
        return (names, kw)

    cmd("algebra", "check", _h_algebra_check, F("file"))
    cmd("algebra", "assoc", _h_algebra_assoc, F("file"), F("--out", required=True))
    cmd("algebra", "dual", _h_algebra_dual, F("file"), F("--out", required=True))
    cmd("rep", "check", _h_rep_check, F("file"))
    cmd("rep", "dual", _h_rep_dual, F("file"), F("--out", required=True))
    cmd("rep", "semidirect", _h_rep_semidirect, F("file"), F("--out"))
    cmd("unified", "check", _h_unified_check, F("file"))
    cmd("unified", "build", _h_unified_build, F("file"), F("--out"))
    cmd("unified", "extract", _h_unified_extract, F("file"),
        F("--include", required=True), F("--project", required=True), F("--out"))
    cmd("unified", "equiv", _h_unified_equiv, F("first"), F("second"),
        F("--zeta", required=True), F("--eta"), F("--cohomologous", action="store_true"))
    cmd("crossed", "check", _h_crossed_check, F("file"))
    cmd("crossed", "build", _h_crossed_build, F("file"), F("--out"))
    cmd("crossed", "from-section", _h_crossed_from_section, F("file"),
        F("--project", required=True), F("--section", required=True), F("--out"))
    cmd("crossed", "cohomologous", _h_crossed_cohomologous, F("first"), F("second"),
        F("--zeta"), F("--search", action="store_true"))
    cmd("gh2", "check", _h_gh2_check, F("file"))
    cmd("gh2", "cohomologous", _h_gh2_cohomologous, F("first"), F("second"))
    cmd("inducible", "check", _h_inducible_check, F("file"),
        F("--pair", required=True), F("--phi", required=True))
    cmd("wells", "eval", _h_wells_eval, F("file"), F("--pair", required=True),
        F("--zeta"), F("--out"))
    cmd("z1", "basis", _h_z1_basis, F("file"), F("--out"))
    cmd("matched", "check", _h_matched_check, F("file"))
    cmd("matched", "build", _h_matched_build, F("file"), F("--out"))
    cmd("matched", "factorize", _h_matched_factorize, F("file"),
        F("--first", required=True), F("--second", required=True), F("--out"))
    cmd("connes", "check", _h_connes_check, F("file"), F("form"))
    cmd("connes", "derive", _h_connes_derive, F("file"), F("form"), F("--out"))
    cmd("connes", "double", _h_connes_double, F("file"), F("dual"), F("--out"))
    cmd("bialgebra", "check", _h_bialgebra_check, F("file"), F("coproducts"))
    cmd("bialgebra", "coboundary", _h_bialgebra_coboundary, F("file"),
        F("rsucc"), F("rprec"), F("--out"))
    cmd("ybe", "residual", _h_ybe_residual, F("file"), F("r"))
    cmd("ybe", "search", _h_ybe_search, F("file"), F("--grid"), F("--out"))
    cmd("oop", "check", _h_oop_check, F("file"))
    cmd("oop", "lift", _h_oop_lift, F("file"), F("--out-algebra"), F("--out-r"))
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    field = None
    try:
        field = field_from_env()
        run = _Run(field)
        args.func(args, run)
        command = "%s %s" % (args.group, args.command)
        return _emit(run, command, getattr(args, "json", False))
    except PreconditionFailure as exc:
        run = _Run(field or field_from_env())
        run.report = exc.report or Report("precondition")
        if run.report.passed:
            run.report.record("precondition", (), (), (), str(exc))
        run.verdict = "fail"
        print("refused: %s" % exc, file=sys.stderr)
        return _emit(run, "%s %s" % (args.group, args.command),
                     getattr(args, "json", False))
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
