"""The cli-batch workload: sequential ``python -m adw.cli`` processes.

Set-up writes small JSON inputs (dimensions 2 to 4) into a work directory
and runs one warm-up process, so the bytecode cache exists before timing.
Each request is one child process; half of them ask for ``--json``.  The
malformed-input slice must exit with code 2.  A child that prints a Python
traceback has crashed: that counts as a failed request.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

from workloads import (ONE, Request, permute, semidirect_entries, tensor_on,
                       tower_entries)

SUMMARY = re.compile(r"\((?:(\d+) identities checked|\d+ violations/(\d+) checks)\)")


def _entries(path):
    with open(path, encoding="utf-8") as fh:
        alg = json.load(fh)
    return (sorted((e["i"], e["j"], e["k"], e["c"]) for e in alg["succ"]),
            sorted((e["i"], e["j"], e["k"], e["c"]) for e in alg["prec"]))


def _as_written(ents):
    return sorted((i, j, k, str(c)) for i, j, k, c in ents)


class Command:
    def __init__(self, cid, argv, exit_code, as_json, env=None, out=None, want=None):
        self.id = cid
        self.argv = argv + (["--json"] if as_json else [])
        self.exit_code = exit_code
        self.as_json = as_json
        self.env = env or {}
        self.out = out        # file the command writes
        self.want = want      # expected (succ, prec) entries of that file


def write_inputs(api, seed, workdir):
    """Write the seeded input files; returns the command list."""
    rng = random.Random(seed)
    s = api.serialize
    field = api.fields.RATIONALS
    os.makedirs(workdir, exist_ok=True)

    def path(name):
        return os.path.join(workdir, name)

    def dump(name, payload):
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path(name)

    make = api.algebra.ADAlgebra.make
    perm2 = [0, 1]
    rng.shuffle(perm2)
    nil = permute([(0, 0, 1, ONE)], perm2)
    n, ents = tower_entries(1)
    perm4 = list(range(n))
    rng.shuffle(perm4)
    ents4 = permute(ents, perm4)
    alg2, alg4 = make(2, nil), make(n, ents4)
    rr2 = api.reps.regular_representation(alg2)
    ann = [perm4[1], perm4[3]]
    r_ann = tensor_on(n, [(i, j) for i in ann for j in ann], rng, 3)
    r_rand = tensor_on(n, [(i, j) for i in range(n) for j in range(n)], rng, 11)
    incl = tuple(tuple(ONE if r == perm4[c] else 0 for c in range(2)) for r in range(n))
    proj = tuple(tuple(ONE if c == perm4[r] else 0 for c in range(n)) for r in range(2))
    algebra = s.algebra_to_dict(alg4)
    files = {
        "alg2": dump("alg2.json", s.algebra_to_dict(alg2)),
        "alg4": dump("alg4.json", algebra),
        "bad4": dump("bad4.json", s.algebra_to_dict(
            make(n, ents4 + [(perm4[0], perm4[0], perm4[0], ONE)]))),
        "rep2": dump("rep2.json", s.rep_to_dict(rr2)),
        "datum2": dump("datum2.json", s.datum_to_dict(
            api.unified.ExtendingDatum.from_representation(rr2))),
        "crossed2": dump("crossed2.json", s.crossed_to_dict(api.crossed.CrossedDatum.split(
            alg2, make(2, nil), rr2.lsucc, rr2.rsucc, rr2.lprec, rr2.rprec))),
        "incl": dump("incl.json", s.matrix_to_dict(incl, field)),
        "proj": dump("proj.json", s.matrix_to_dict(proj, field)),
        "r_ann": dump("r_ann.json", s.rmatrix_to_dict(r_ann, field)),
        "r_rand": dump("r_rand.json", s.rmatrix_to_dict(r_rand, field)),
    }
    text = json.dumps(algebra)
    with open(path("truncated.json"), "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    out_of_range = dict(algebra, succ=algebra["succ"] + [{"i": 9, "j": 0, "k": 0, "c": "1"}])
    files["truncated"] = path("truncated.json")
    files["range"] = dump("range.json", out_of_range)
    files["seventh"] = dump("seventh.json", dict(s.algebra_to_dict(alg2), succ=[
        {"i": perm2[0], "j": perm2[0], "k": perm2[1], "c": "1/7"}]))
    r_nil = _as_written(semidirect_entries(2, nil))
    f = files
    return [
        Command("algebra check", ["algebra", "check", f["alg4"]], 0, True),
        Command("algebra check bad", ["algebra", "check", f["bad4"]], 1, False),
        Command("rep check", ["rep", "check", f["rep2"]], 0, True),
        Command("rep semidirect", ["rep", "semidirect", f["rep2"], "--out", path("sd.json")], 0,
                False, out=path("sd.json"), want=(r_nil, [])),
        Command("unified check", ["unified", "check", f["datum2"]], 0, True),
        Command("unified build", ["unified", "build", f["datum2"], "--out", path("ub.json")], 0,
                False, out=path("ub.json"), want=(r_nil, [])),
        Command("unified extract", ["unified", "extract", f["alg4"], "--include", f["incl"],
                                    "--project", f["proj"], "--out", path("ex.json")], 0, True),
        Command("matched factorize", ["matched", "factorize", f["alg4"],
                                      "--first", "%d,%d" % tuple(perm4[:2]),
                                      "--second", "%d,%d" % tuple(perm4[2:])], 0, False),
        Command("z1 basis", ["z1", "basis", f["crossed2"]], 0, True),
        Command("ybe residual ann", ["ybe", "residual", f["alg4"], f["r_ann"]], 0, False),
        Command("ybe residual rand", ["ybe", "residual", f["alg4"], f["r_rand"]], None, True),
        Command("ybe search", ["ybe", "search", f["alg2"], "--grid=-1,0,1"], 0, False),
        Command("bialgebra coboundary ann", ["bialgebra", "coboundary", f["alg4"], f["r_ann"],
                                             f["r_ann"]], 0, True),
        Command("bialgebra coboundary rand", ["bialgebra", "coboundary", f["alg4"],
                                              f["r_rand"], f["r_rand"]], None, False),
        Command("malformed truncated", ["algebra", "check", f["truncated"]], 2, True),
        Command("malformed index", ["algebra", "check", f["range"]], 2, False),
        Command("malformed fp7 1/7", ["algebra", "check", f["seventh"]], 2, True,
                env={"ADW_FIELD": "fp7"}),
    ], [alg2.succ.table, alg2.prec.table, alg4.succ.table, alg4.prec.table]


def child_env(src, extra):
    env = {k: v for k, v in os.environ.items() if k != "ADW_FIELD"}
    env["PYTHONPATH"] = src
    env.update(extra)
    return env


def spawn(src, argv, extra_env=None):
    proc = subprocess.run([sys.executable, "-m", "adw.cli"] + argv, cwd=os.path.dirname(src),
                          env=child_env(src, extra_env or {}), capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(api, cmd):
    """Run a command through adw.cli.main in this process."""
    saved = os.environ.get("ADW_FIELD")
    os.environ.pop("ADW_FIELD", None)
    os.environ.update(cmd.env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = api.cli.main(list(cmd.argv))
            except Exception as exc:  # the process would die with a traceback
                print("Traceback (in-process): %r" % (exc,), file=err)
                code = 1
    finally:
        os.environ.pop("ADW_FIELD", None)
        if saved is not None:
            os.environ["ADW_FIELD"] = saved
    return code, out.getvalue(), err.getvalue()


def observe(cmd, raw):
    code, stdout, stderr = raw
    obs = {"exit": code}
    if "Traceback" in stderr:
        obs["crash"] = True
        return obs
    if cmd.as_json and code in (0, 1):
        payload = json.loads(stdout)
        obs["verdict"] = payload["verdict"]
        if "checked" in payload:
            obs["checked"] = payload["checked"]
            obs["violations"] = payload["violationCount"]
        if payload["violations"]:
            v = payload["violations"][0]
            obs["first"] = [v["equation"], v["witness"]]
        data = payload.get("data", {})
        if "dimension" in data:
            obs["dimension"] = data["dimension"]
    elif code in (0, 1):
        for line in stdout.splitlines():
            if line.startswith("verdict: "):
                obs["verdict"] = line.split(": ", 1)[1]
            elif line.startswith("solutions: "):
                obs["solutions"] = int(line.split(": ", 1)[1])
            m = SUMMARY.search(line)
            if m and "checked" not in obs:
                obs["text_checked"] = int(m.group(1) or m.group(2))
    return obs


def requests(api, src, commands, inproc=False):
    reqs = []
    for cmd in commands:
        if inproc:
            call = (lambda c: lambda: in_process(api, c))(cmd)
        else:
            call = (lambda c: lambda: spawn(src, c.argv, c.env))(cmd)
        expect = {} if cmd.exit_code is None else {"exit": cmd.exit_code}
        if cmd.exit_code in (0, 1):
            expect["verdict"] = "pass" if cmd.exit_code == 0 else "fail"

        def verify(raw, c=cmd):
            if c.out is None or raw[0] != 0:
                return []
            got = _entries(c.out)
            return [] if got == (c.want[0], c.want[1]) else ["%s wrote the wrong algebra" % c.id]

        reqs.append(Request(cmd.id, call, (lambda c: lambda raw: observe(c, raw))(cmd), expect,
                            verify, points=3 if cmd.id == "ybe search" else
                            1 if cmd.id.startswith("ybe residual") else 0))
    return reqs
