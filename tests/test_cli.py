import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from adw import serialize as io
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, change_basis, direct_sum
from adw.cli import main
from adw.crossed import AutPair, CrossedDatum
from adw.fields import RATIONALS, PrimeField
from adw.matched import MatchedPairDatum
from adw.reps import ADRep, regular_representation
from adw.unified import ExtendingDatum
from .conftest import nilpotent2, rnil2


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        io.write_json(str(p), payload)
        return str(p)

    nil = nilpotent2()
    out = {
        "zero2": write("zero2.json", io.algebra_to_dict(ADAlgebra.zero(2))),
        "nilp2": write("nilp2.json", io.algebra_to_dict(nil)),
        "bad1d": write("bad1d.json", io.algebra_to_dict(
            ADAlgebra.make(1, succ_entries=[(0, 0, 0, Q(1))]))),
        "r_skew": write("r_skew.json", io.rmatrix_to_dict(
            ((Q(0), Q(1)), (Q(-1), Q(0))), nil.field)),
        "rep": write("rep.json", io.rep_to_dict(regular_representation(nil))),
        "datum": write("datum.json", io.datum_to_dict(
            ExtendingDatum.from_representation(regular_representation(nil)))),
        "dir": tmp_path,
    }
    return out


def test_algebra_check_exit_codes(files, capsys):
    assert main(["algebra", "check", files["zero2"]]) == 0
    assert main(["algebra", "check", files["bad1d"]]) == 1
    out = capsys.readouterr().out
    assert "A1" in out
    assert main(["algebra", "check", str(files["dir"] / "missing.json")]) == 2


def test_json_report_schema(files, capsys):
    assert main(["--json", "algebra", "check", files["bad1d"]]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail"
    assert payload["command"] == "algebra check"
    v = payload["violations"][0]
    assert v["equation"] == "A1" and v["witness"] == [0, 0, 0]
    assert v["lhs"] == ["1"] and v["rhs"] == ["-1"]


def test_ybe_residual_json(files, capsys):
    assert main(["ybe", "residual", files["nilp2"], files["r_skew"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    res = payload["data"]["residual"]
    assert all(x == "0" for plane in res for row in plane for x in row)
    assert payload["data"]["skew"] is True


def test_rep_and_build_pipeline(files, tmp_path, capsys):
    assert main(["rep", "check", files["rep"]]) == 0
    out = str(tmp_path / "sd.json")
    assert main(["rep", "semidirect", files["rep"], "--out", out]) == 0
    built = io.load_algebra(out)
    assert built.dim == 4 and built.is_verified
    # written files reload bit-identically
    blob1 = open(out).read()
    io.write_json(out, io.algebra_to_dict(io.load_algebra(out)))
    assert open(out).read() == blob1


def test_unified_commands(files, tmp_path, capsys):
    assert main(["unified", "check", files["datum"]]) == 0
    built = str(tmp_path / "up.json")
    assert main(["unified", "build", files["datum"], "--out", built]) == 0
    e = io.load_algebra(built)
    incl = str(tmp_path / "incl.json")
    proj = str(tmp_path / "proj.json")
    one = Q(1)
    io.write_json(incl, io.matrix_to_dict(
        tuple(tuple(one if (r == c and r < 2) else Q(0) for c in range(2))
              for r in range(4)), e.field))
    io.write_json(proj, io.matrix_to_dict(
        tuple(tuple(one if r == c else Q(0) for c in range(4)) for r in range(2)),
        e.field))
    extracted = str(tmp_path / "ex.json")
    assert main(["unified", "extract", built, "--include", incl,
                 "--project", proj, "--out", extracted]) == 0
    d2 = io.load_datum(extracted)
    assert d2.vdim == 2


def test_crossed_and_gh2_commands(tmp_path, capsys):
    zv = ["0"]
    t1 = {"n": 1, "A": [zv], "B": [zv], "C": [zv], "D": [zv],
          "theta0": ["1"], "epsilon0": ["0"]}
    t2 = dict(t1, theta0=["2"])
    p1 = str(tmp_path / "t1.json")
    p2 = str(tmp_path / "t2.json")
    io.write_json(p1, t1)
    io.write_json(p2, t2)
    assert main(["gh2", "check", p1]) == 0
    assert main(["gh2", "cohomologous", p1, p2]) == 1
    assert main(["gh2", "cohomologous", p1, p1]) == 0


def test_wells_and_inducible_commands(tmp_path, capsys):
    from adw.crossed import CrossedDatum
    from adw.actions import ActionFamily
    base = ADAlgebra.zero(1)
    c = CrossedDatum(base, ADAlgebra.zero(1),
                     ActionFamily.zero(1, 1), ActionFamily.zero(1, 1),
                     ActionFamily.zero(1, 1), ActionFamily.zero(1, 1),
                     BilinearOp.from_entries(1, [(0, 0, 0, Q(1))], 1),
                     BilinearOp.zero(1, 1))
    cpath = str(tmp_path / "c.json")
    io.write_json(cpath, io.crossed_to_dict(c))
    good = str(tmp_path / "pair_good.json")
    badp = str(tmp_path / "pair_bad.json")
    io.write_json(good, io.autpair_to_dict(AutPair(((Q(2),),), ((Q(4),),)), base.field))
    io.write_json(badp, io.autpair_to_dict(AutPair(((Q(2),),), ((Q(3),),)), base.field))
    phi = str(tmp_path / "phi.json")
    io.write_json(phi, io.matrix_to_dict(((Q(0),),), base.field))
    assert main(["inducible", "check", cpath, "--pair", good, "--phi", phi]) == 0
    assert main(["inducible", "check", cpath, "--pair", badp, "--phi", phi]) == 1
    assert main(["wells", "eval", cpath, "--pair", good]) == 0
    assert main(["wells", "eval", cpath, "--pair", badp]) == 1
    assert main(["z1", "basis", cpath]) == 0


def test_search_deterministic(files, capsys):
    assert main(["ybe", "search", files["nilp2"], "--grid=-1,0,1", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)["data"]
    assert main(["ybe", "search", files["nilp2"], "--grid=-1,0,1", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)["data"]
    assert first == second
    assert first["solutions"] == 3


# sha256 of the stdout of `adw ybe search`, recorded from the brute-force
# search, keyed by (algebra, field, --json)
SEARCH_OUTPUT_SHA256 = {
    ("nilp2", "grid", False): "51f2a1bc745a1dd4dd7d585dc4515cdcc2445c4002ecf1ae09cf8072dcef634f",
    ("nilp2", "grid", True): "b64099864bf489657c1a8671ca23214c07ec95def5848f69d9c871bc41eacbf1",
    ("nilp2", "fp3", False): "e77a2139d08bb16a8adc7b9e16f21d746e4d1024f593901f6307b1964c56a212",
    ("nilp2", "fp3", True): "a03f75d1c03e3dfe8688dcb896d7195bbfbd9d6488dbe6177606c263d6dae1c6",
    ("rnil2", "grid", False): "70cf9eb17438d29ff680e4bd46eb134edaea0d0b0d3b99254ef3015aa4c5aed2",
    ("rnil2", "grid", True): "e632ef69b6b34831a5687a821600d7e37d707d089306bf5247e979adbfe9a326",
    ("rnil2", "fp3", False): "ee6f97a55fdcedc68bc329e6839c50d5bce0812a6e5974d33597e6868f280007",
    ("rnil2", "fp3", True): "02727964d871b958d5ee9e715a13a75601a308e8cf626e732e44e2201ba9edfb",
}


@pytest.mark.parametrize("key", sorted(SEARCH_OUTPUT_SHA256),
                         ids=lambda k: "%s-%s-%s" % (k[0], k[1], "json" if k[2] else "text"))
def test_search_output_bytes(key, files, tmp_path, capsys, monkeypatch):
    name, field, as_json = key
    path = files["nilp2"]
    if name == "rnil2":
        path = str(tmp_path / "rnil2.json")
        io.write_json(path, io.algebra_to_dict(rnil2(RATIONALS)))
    argv = ["ybe", "search", path] + (["--json"] if as_json else [])
    if field == "fp3":
        monkeypatch.setenv("ADW_FIELD", "fp3")
    else:
        argv.append("--grid=-1,0,1")
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SEARCH_OUTPUT_SHA256[key]


# sha256 of the stdout of `adw bialgebra coboundary`, recorded with the dense
# kernels, keyed by (case, --json): a passing skew tensor on nil2, and on
# R(nil2) two {-1,0,1} tensors from random.Random(1), checked exhaustively
COBOUNDARY_OUTPUT_SHA256 = {
    ("nilp2-skew", False): "47b195d854c63bad04502a33ec45bd2e5fbffaf87b69e9e010d075cb6e18b885",
    ("nilp2-skew", True): "3e036d6469a1a217308d80db952db75d5b1a4d3dd12ffaa684d156808f624b52",
    ("rnil2-random", False): "6767dac501e86db69ff5663ff575c18bd8bcae49f7667277b2086b2febb647f9",
    ("rnil2-random", True): "a0d2d5bdcecfb8e58bff6c9a0988690457b5a69db4cad40d4c688a4597019eaa",
}


@pytest.mark.parametrize("key", sorted(COBOUNDARY_OUTPUT_SHA256),
                         ids=lambda k: "%s-%s" % (k[0], "json" if k[1] else "text"))
def test_coboundary_output_bytes(key, files, tmp_path, capsys):
    name, as_json = key
    if name == "nilp2-skew":
        argv, code = [files["nilp2"], files["r_skew"], files["r_skew"]], 0
    else:
        rng = random.Random(1)
        paths = [str(tmp_path / f) for f in ("rnil2.json", "rs.json", "rp.json")]
        io.write_json(paths[0], io.algebra_to_dict(rnil2(RATIONALS)))
        for path in paths[1:]:
            r = tuple(tuple(Q(rng.randint(-1, 1)) for _ in range(4)) for _ in range(4))
            io.write_json(path, io.rmatrix_to_dict(r, RATIONALS))
        argv, code = paths + ["--exhaustive"], 1
    assert main(["bialgebra", "coboundary"] + argv + (["--json"] if as_json else [])) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == COBOUNDARY_OUTPUT_SHA256[key]


@pytest.mark.parametrize("field", ["rational", "fp3"])
def test_exhaustive_bialgebra_check_lists_every_violation(field, tmp_path, capsys, monkeypatch):
    """`bialgebra check --exhaustive --json` on nil2 with dsucc(e1) = e1 (x) e1
    and dprec(e2) = e1 (x) e2 (Ca1, Ca2 and D1-D9 break) lists the violations
    of the exhaustive coalgebra check followed by those of the exhaustive
    D check, as many as its violationCount."""
    from adw.bialgebra import check_coalgebra, check_d_bialgebra
    monkeypatch.setenv("ADW_FIELD", field)
    run_field = PrimeField(3) if field == "fp3" else RATIONALS
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, run_field.one)], field=run_field)
    cop = {"dim": 2, "dsucc": [{"x": 0, "i": 0, "j": 0, "c": "1"}],
           "dprec": [{"x": 1, "i": 0, "j": 1, "c": "1"}]}
    paths = [str(tmp_path / f) for f in ("nil.json", "cop.json")]
    io.write_json(paths[0], io.algebra_to_dict(nil, run_field))
    io.write_json(paths[1], cop)
    assert main(["bialgebra", "check"] + paths + ["--exhaustive", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    cp = io.load_coproducts(paths[1], run_field)
    reports = (check_coalgebra(cp, exhaustive=True),
               check_d_bialgebra(nil, cp, exhaustive=True))
    want = [v.render(run_field.to_str) for rep in reports for v in rep.violations]
    assert payload["violationCount"] == sum(rep.violation_count for rep in reports) == 14
    assert payload["violations"] == want and len(want) == 14


def test_connes_derive_over_a_prime_field(tmp_path, monkeypatch):
    """The derived algebra carries the run's field: over GF(3) the form (1)
    on e.e = e derives e>e = e<e = -e = 2e."""
    from adw.bialgebra import BilinearForm
    gf3 = PrimeField(3)
    prod, form, out = (str(tmp_path / f) for f in ("p.json", "f.json", "a.json"))
    io.write_json(prod, io.product_to_dict(BilinearOp.from_entries(1, [(0, 0, 0, gf3.one)]),
                                           ("e",), gf3))
    io.write_json(form, io.form_to_dict(BilinearForm(1, ((gf3.one,),)), gf3))
    monkeypatch.setenv("ADW_FIELD", "fp3")
    assert main(["connes", "derive", prod, form, "--out", out]) == 0
    alg = io.algebra_from_dict(io.read_json(out), gf3)
    assert alg.succ.table == alg.prec.table == (((gf3.coerce(2),),),)


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 2
    assert main(["crossed", "cohomologous", "a.json", "b.json"]) == 2


def test_full_command_surface(tmp_path, capsys):
    """Drive every remaining subcommand once through real files."""
    from adw.matched import MatchedPairDatum
    from adw.bialgebra import BilinearForm, coboundary_coproducts

    nil = nilpotent2()
    field = nil.field

    def write(name, payload):
        p = str(tmp_path / name)
        io.write_json(p, payload)
        return p

    nilp = write("nil.json", io.algebra_to_dict(nil))
    zero2 = write("zero2.json", io.algebra_to_dict(ADAlgebra.zero(2)))
    # algebra assoc / dual
    assoc_out = str(tmp_path / "assoc.json")
    assert main(["algebra", "assoc", nilp, "--out", assoc_out]) == 0
    dual_out = str(tmp_path / "dualcp.json")
    assert main(["algebra", "dual", nilp, "--out", dual_out]) == 0
    assert main(["bialgebra", "check", nilp, dual_out]) == 1  # incompatible pair
    bad_cp = write("badcp.json", {"dim": 2, "dprec": [],
                                  "dsucc": [{"x": 0, "i": 0, "j": 0, "c": "1"}]})
    assert main(["bialgebra", "check", zero2, bad_cp]) == 1  # coalgebra axioms fail
    assert main(["bialgebra", "check", nilp,
                 write("zcp.json", io.coproducts_to_dict(
                     coboundary_coproducts(nil, ((Q(0), Q(1)), (Q(-1), Q(0))),
                                           ((Q(0), Q(1)), (Q(-1), Q(0)))), field))]) == 0
    # rep dual
    rep_path = write("rep.json", io.rep_to_dict(regular_representation(nil)))
    assert main(["rep", "dual", rep_path, "--out", str(tmp_path / "repdual.json")]) == 0
    assert main(["rep", "check", str(tmp_path / "repdual.json")]) == 0
    # matched: check, build, factorize
    mp = write("mp.json", io.matched_to_dict(
        MatchedPairDatum.trivial(nil, ADAlgebra.zero(2))))
    assert main(["matched", "check", mp]) == 0
    built = str(tmp_path / "bc.json")
    assert main(["matched", "build", mp, "--out", built]) == 0
    assert main(["matched", "factorize", built, "--first", "0,1",
                 "--second", "2,3", "--out", str(tmp_path / "fac.json")]) == 0
    # connes: check fails on the cyclic example, passes on the hyperbolic double
    form_bad = write("formbad.json", io.form_to_dict(
        BilinearForm(2, ((Q(0), Q(1)), (Q(1), Q(0)))), field))
    assert main(["connes", "check", assoc_out, form_bad]) == 1
    assert main(["connes", "double", nilp, zero2,
                 "--out", str(tmp_path / "dbl.json")]) == 0
    zero_assoc = str(tmp_path / "zassoc.json")
    assert main(["algebra", "assoc", zero2, "--out", zero_assoc]) == 0
    ident_form = write("id.json", io.form_to_dict(
        BilinearForm(2, ((Q(1), Q(0)), (Q(0), Q(1)))), field))
    assert main(["connes", "derive", zero_assoc, ident_form,
                 "--out", str(tmp_path / "derived.json")]) == 0
    # bialgebra coboundary
    rpath = write("r.json", io.rmatrix_to_dict(((Q(0), Q(1)), (Q(-1), Q(0))), field))
    assert main(["bialgebra", "coboundary", nilp, rpath, rpath,
                 "--out", str(tmp_path / "cp.json")]) == 0
    # crossed build / from-section / cohomologous --search
    t = {"n": 1, "A": [["0"]], "B": [["0"]], "C": [["0"]], "D": [["0"]],
         "theta0": ["1"], "epsilon0": ["0"]}
    from adw.crossed import gh2_to_crossed
    from adw import serialize as _io
    gh = _io.gh2_from_dict(t, field)
    cpath = write("crossed.json", io.crossed_to_dict(gh2_to_crossed(gh)))
    assert main(["crossed", "check", cpath]) == 0
    ext_out = str(tmp_path / "ext.json")
    assert main(["crossed", "build", cpath, "--out", ext_out]) == 0
    proj = write("proj.json", io.matrix_to_dict(((Q(1), Q(0)),), field))
    sect = write("sect.json", io.matrix_to_dict(((Q(1),), (Q(0),)), field))
    assert main(["crossed", "from-section", ext_out, "--project", proj,
                 "--section", sect, "--out", str(tmp_path / "cd2.json")]) == 0
    assert main(["crossed", "cohomologous", cpath, str(tmp_path / "cd2.json"),
                 "--search"]) == 0
    # unified equiv with the identity witness
    datum = write("datum.json", io.datum_to_dict(
        ExtendingDatum.from_representation(regular_representation(nil))))
    zeta = write("zeta.json", io.matrix_to_dict(((Q(0), Q(0)), (Q(0), Q(0))), field))
    assert main(["unified", "equiv", datum, datum, "--zeta", zeta,
                 "--cohomologous"]) == 0
    # oop check / lift
    op_good = write("op.json", io.ooperator_to_dict(((Q(2), Q(0)), (Q(0), Q(1))),
                                                    regular_representation(nil), field))
    assert main(["oop", "check", op_good]) == 0
    assert main(["oop", "lift", op_good, "--out-algebra", str(tmp_path / "amb.json"),
                 "--out-r", str(tmp_path / "lift_r.json")]) == 0
    amb = io.load_algebra(str(tmp_path / "amb.json"))
    assert amb.dim == 4 and amb.is_verified
    op_bad = write("opbad.json", io.ooperator_to_dict(((Q(1), Q(1)), (Q(0), Q(1))),
                                                      regular_representation(nil), field))
    assert main(["oop", "check", op_bad]) == 1
    assert main(["oop", "lift", op_bad]) == 1


def run_child(argv, **env):
    """``python -m adw.cli`` in a child process, on this checkout's sources."""
    import adw

    src = os.path.dirname(os.path.dirname(adw.__file__))
    return subprocess.run([sys.executable, "-m", "adw.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=60)


def assert_input_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("input error:") for line in proc.stderr.splitlines())


def test_fp7_zero_denominator_is_an_input_error(tmp_path):
    """A coefficient 1/7 over GF(7) ends in exit 2 with an input error, not a traceback."""
    payload = io.algebra_to_dict(nilpotent2())
    payload["succ"] = [{"i": 0, "j": 0, "k": 1, "c": "1/7"}]
    path = tmp_path / "seventh.json"
    path.write_text(json.dumps(payload))
    assert_input_error(run_child(["algebra", "check", str(path)], ADW_FIELD="fp7"))


@pytest.mark.parametrize("coeff, field", [("1e-400", "rational"),
                                          ("0.30000000000000001", "rational"),
                                          ("2.0", "rational"), ("2.0", "fp5")])
def test_json_float_coefficient_is_an_input_error(tmp_path, coeff, field):
    """A JSON float has been rounded by the parser: 1e-400 reads as 0.0 and
    0.30000000000000001 as 0.3.  Such a coefficient ends in exit 2, and no
    output is written; `algebra dual --out` used to write an empty and a
    "3/10" table, and 2.0 was read as 2 over Q but refused over GF(5)."""
    path, out = tmp_path / "alg.json", tmp_path / "dual.json"
    path.write_text('{"dimension": 2, "basis": ["e1", "e2"], "prec": [], '
                    '"succ": [{"i": 0, "j": 0, "k": 1, "c": %s}]}' % coeff)
    assert_input_error(run_child(["algebra", "dual", str(path), "--out", str(out)],
                                 ADW_FIELD=field))
    assert not out.exists()


@pytest.mark.parametrize("basis", [5, [], "x"])
def test_product_file_bad_basis_is_an_input_error(tmp_path, basis):
    """A product file whose basis is not a list of its dimension's labels ends in exit 2."""
    prod, form = tmp_path / "prod.json", tmp_path / "form.json"
    prod.write_text(json.dumps({"dimension": 1, "basis": basis, "product": []}))
    form.write_text(json.dumps({"dim": 1, "gram": [["1"]]}))
    assert_input_error(run_child(["connes", "check", str(prod), str(form)]))


# A dimension-3 algebra over GF(5) that fails A1/A2 26 times; "1/2" and "1/3"
# read as 3 and 2.
BAD_FP5 = {"dimension": 3, "basis": ["a", "b", "c"],
           "succ": [{"i": 0, "j": 0, "k": 1, "c": "1"}, {"i": 0, "j": 1, "k": 2, "c": "1/2"},
                    {"i": 1, "j": 0, "k": 2, "c": "3"}, {"i": 2, "j": 2, "k": 0, "c": "4"}],
           "prec": [{"i": 0, "j": 0, "k": 2, "c": "-1"}, {"i": 1, "j": 1, "k": 0, "c": "2"},
                    {"i": 0, "j": 2, "k": 1, "c": "1/3"}]}

BAD_FP5_CHECK_JSON = """{
  "artifacts": [],
  "checked": 54,
  "command": "algebra check",
  "verdict": "fail",
  "violationCount": 26,
  "violations": [
    {
      "detail": "x>(y>z) != -(x.y)>z",
      "equation": "A1",
      "lhs": [
        "0",
        "0",
        "3"
      ],
      "rhs": [
        "0",
        "0",
        "2"
      ],
      "witness": [
        0,
        0,
        0
      ]
    }
  ]
}
"""

# (exit code, sha256 of stdout) of `adw` child processes over prime fields,
# recorded when every scalar was a field element: the failing GF(5) algebra
# above, and `ybe search` on a GF(3) basis change of R(nil2) (63 solutions)
PRIME_FIELD_RUNS = {
    "fp5-check-json": (1, "6c85af07c9949cab1e93284e947402e194c02e393f7edf038e066d319a2acb70"),
    "fp5-check-json-exhaustive": (
        1, "c47a36abb846f900e78071951a6e04474b9a7f94cc1dff37548590d9bccd3ab9"),
    "fp3-search-text": (0, "047c93c2ef94fbc15931900068e530686995906f239ca3601384c0e6a27d35b9"),
    "fp3-search-json": (0, "21bc5b853edfe670b01ffe41d833892aca4875969675161a0db61a50d12d3bc5"),
}


@pytest.mark.parametrize("key", sorted(PRIME_FIELD_RUNS))
def test_prime_field_output_bytes(key, tmp_path):
    path = str(tmp_path / "alg.json")
    if key.startswith("fp5"):
        (tmp_path / "alg.json").write_text(json.dumps(BAD_FP5))
        argv = ["algebra", "check", path, "--json"]
        argv += ["--exhaustive"] if key.endswith("exhaustive") else []
    else:
        gf3 = PrimeField(3)
        pmat = tuple(tuple(gf3.coerce(x) for x in row) for row in
                     ((1, 1, 1, 2), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1)))
        io.write_json(path, io.algebra_to_dict(change_basis(rnil2(gf3), pmat)))
        argv = ["ybe", "search", path] + (["--json"] if key.endswith("json") else [])
    proc = run_child(argv, ADW_FIELD=key[:3])
    assert (proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()) == \
        PRIME_FIELD_RUNS[key]
    if key == "fp5-check-json":
        assert proc.stdout == BAD_FP5_CHECK_JSON


def failing_system(kind, field):
    """A representation, extending datum or matched pair over ``field`` that
    fails its checker in several equations; the module has dimension 3 over
    the 2-dimensional algebra nil2."""
    nil = ADAlgebra.make(2, [(0, 0, 1, field.one)], field=field)

    def fam(alg_dim, mod_dim, *entries):
        return ActionFamily.from_entries(alg_dim, mod_dim,
                                         [e[:3] + (field.parse(e[3]),) for e in entries])

    a_on_v = (fam(2, 3, (0, 0, 1, "1"), (1, 1, 2, "2"), (0, 2, 0, "-1")),
              fam(2, 3, (1, 0, 2, "1")), fam(2, 3, (0, 1, 1, "1/2")),
              fam(2, 3, (1, 2, 1, "3")))
    v_on_a = (fam(3, 2, (0, 1, 0, "1")), fam(3, 2, (2, 0, 1, "-1")),
              fam(3, 2, (1, 0, 0, "2")), fam(3, 2))
    if kind == "rep":
        return io.rep_to_dict(ADRep(nil, 3, *a_on_v))
    if kind == "unified":
        return io.datum_to_dict(ExtendingDatum(
            nil, 3, *a_on_v, *v_on_a,
            BilinearOp.from_entries(3, [(0, 1, 0, field.one)], 2), BilinearOp.zero(3, 2),
            BilinearOp.from_entries(3, [(2, 2, 0, field.one)]), BilinearOp.zero(3)))
    alg2 = direct_sum(nil, ADAlgebra.zero(1, field))
    return io.matched_to_dict(MatchedPairDatum(nil, alg2, *a_on_v, *v_on_a))


# (exit code, sha256 of stdout) of `adw <kind> check FILE --json --exhaustive`
# on the failing systems above, recorded while R1-R7 were still evaluated as
# products of action matrices
SYSTEM_CHECK_RUNS = {
    "rep-rational": (
        1, "1bf353a54555a1bffb1f92fa2048f1f420479b6ddb491379bab0109390fe7694"),
    "rep-fp5": (
        1, "b0bea2524e9733e8928ac0283252c6289c5b4040b59f0c95b1554d392e52b4da"),
    "unified-rational": (
        1, "2955beb0fcac29442fa9ef83a00c8f7fc032e0ff94c0ecc0b1508650551b8cbc"),
    "unified-fp5": (
        1, "02dd5a01a6b1e9ab71e13eeaf67ef2ea92c00cd15d5fe3dc99b539f188fdaf4f"),
    "matched-rational": (
        1, "d3fcaccb94c72c8279ebc763b2acaaab4a35ad3282cf5fd5b24fbbc271ce4762"),
    "matched-fp5": (
        1, "3475929f1b85e4552d37fdbe3ebf73d43d9b6d8b83ce39e4848745c4233dfdd8"),
}


@pytest.mark.parametrize("key", sorted(SYSTEM_CHECK_RUNS))
def test_system_check_output_bytes(key, tmp_path):
    kind, fname = key.split("-")
    field = RATIONALS if fname == "rational" else PrimeField(5)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(failing_system(kind, field)))
    proc = run_child([kind, "check", str(path), "--json", "--exhaustive"], ADW_FIELD=fname)
    assert (proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()) == \
        SYSTEM_CHECK_RUNS[key]


def test_rep_coefficient_outside_the_field_is_an_input_error(tmp_path):
    """An action coefficient 1/5 in a GF(5) representation file ends in exit 2
    with an input error, not a traceback."""
    gf5 = PrimeField(5)
    nil = ADAlgebra.make(2, [(0, 0, 1, gf5.one)], field=gf5)
    payload = io.rep_to_dict(regular_representation(nil))
    payload["lsucc"].append({"x": 1, "r": 0, "c": 1, "v": "1/5"})
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(payload))
    assert_input_error(run_child(["rep", "check", str(path)], ADW_FIELD="fp5"))


def zero_dim_files(tmp_path):
    """A 0-dim algebra, an extending datum over it with a 1-dim complement,
    and the 0x0 matrix."""
    alg = io.algebra_to_dict(ADAlgebra.zero(0))
    datum = dict(io.datum_to_dict(ExtendingDatum.from_representation(regular_representation(
        ADAlgebra.zero(1)))), algebra=alg)
    paths = {}
    for name, payload in (("alg", alg), ("datum", datum),
                          ("empty", {"rows": 0, "cols": 0, "entries": []})):
        paths[name] = str(tmp_path / ("%s.json" % name))
        io.write_json(paths[name], payload)
    return paths


def test_equivalence_over_a_zero_dim_base_passes(tmp_path, capsys):
    """zeta maps the 1-dim complement into the 0-dim base: the 0 x 1 matrix,
    read from a file of 0 rows as ``()``."""
    p = zero_dim_files(tmp_path)
    assert main(["unified", "equiv", p["datum"], p["datum"], "--zeta", p["empty"]]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == \
        ("extending-structure equivalence: pass (4 identities checked)\nverdict: pass\n", "")


def test_extraction_of_a_zero_dim_algebra_passes(tmp_path, capsys):
    p = zero_dim_files(tmp_path)
    assert main(["unified", "extract", p["alg"], "--include", p["empty"],
                 "--project", p["empty"]]) == 0
    assert capsys.readouterr().out == \
        "extending structure: pass (0 identities checked)\nverdict: pass\nvBasis: []\n"


def test_automorphism_pair_of_the_wrong_size_is_an_input_error(tmp_path, capsys):
    nil = ADAlgebra.make(2, [(0, 0, 1, Q(1))])
    crossed = tmp_path / "c.json"
    io.write_json(str(crossed), io.crossed_to_dict(CrossedDatum.split(nil, ADAlgebra.zero(1))))
    pair, phi = tmp_path / "pair.json", tmp_path / "phi.json"
    io.write_json(str(pair), io.autpair_to_dict(AutPair(((Q(1),),), ((Q(1),),)), RATIONALS))
    io.write_json(str(phi), io.matrix_to_dict(((Q(0), Q(0)),), RATIONALS))
    assert main(["inducible", "check", str(crossed), "--pair", str(pair),
                 "--phi", str(phi)]) == 2
    assert capsys.readouterr().err == \
        "input error: homomorphism: the map is not a 2x2 matrix\n"


def test_six_tuple_vector_that_is_not_a_list_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    io.write_json(str(path), {"n": 1, "A": [["0"]], "B": [["0"]], "C": [["0"]], "D": [["0"]],
                              "theta0": ["1"], "epsilon0": None})
    assert main(["gh2", "check", str(path)]) == 2
    assert capsys.readouterr().err == "input error: epsilon0: expected a list of coefficients\n"


@pytest.mark.parametrize("content, reason", [(b"\xff\xfe{}", "is not UTF-8 text"),
                                             (b"[" * 100000, "is nested too deeply")],
                         ids=["not-utf8", "deep-nesting"])
def test_unreadable_json_is_an_input_error(tmp_path, capsys, content, reason):
    """A file that is not UTF-8, and one nested past the decoder's recursion
    limit, end in exit 2 with an input error; both used to end in a traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["algebra", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: %s %s" % (path, reason))


@pytest.mark.parametrize("key", ["c", "dimension"])
def test_overlong_integer_literal_is_an_input_error(tmp_path, capsys, key):
    """A JSON integer literal longer than the interpreter's int-conversion
    limit (4,300 digits by default), as a coefficient or as a dimension, ends
    in exit 2 with an input error; it used to end in a traceback."""
    digits = "7" * 5000
    coefficient = digits if key == "c" else '"1"'
    dimension = digits if key == "dimension" else "2"
    path = tmp_path / "long.json"
    path.write_text('{"dimension": %s, "basis": ["e1", "e2"], "succ": [{"i": 0, "j": 0, '
                    '"k": 1, "c": %s}], "prec": []}' % (dimension, coefficient))
    assert main(["algebra", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: %s holds a number too long to read" % path)
