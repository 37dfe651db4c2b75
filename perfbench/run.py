#!/usr/bin/env python3
"""Benchmark of the adw library: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tower-sparse --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: the request list
of the workload runs in a closed loop with one client (this process, no extra
threads), pass after pass, while another pass still fits into ``--seconds``.
Its times are scaled to a fixed host speed by a probe of fixed work run
between the requests (see ``host_probe`` and ``CLI_PROBE``).
With ``--trace 1`` it runs one untraced pass, then one pass with every public
adw function wrapped by the tracer, and reports the per-layer metrics.
Every output is checked in both modes; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import cli_batch  # noqa: E402
import workloads  # noqa: E402
from tracer import GF_ARITHMETIC, Tracer  # noqa: E402

perf = time.perf_counter

WORKLOADS = ("tower-sparse", "search-gf", "cli-batch")
SETUP_REPEATS = 5
# req_tail_ms leaves this many samples per pass beyond it: ten at two passes,
# the fewest a run makes on the library workloads.  The percentile,
# 100 * (1 - 5 / requests per pass), stays the same however many passes fit
# into a run, so a faster program that fits more passes does not move the
# tail onto another request of the list.
TAIL_BEYOND_PER_PASS = 5
# The probes' times on this benchmark's reference host (see BASELINE.json):
# timed figures are scaled by PROBE_REF_S / (mean probe time of their pass).
PROBE_REF_S = {"library": 0.016, "cli": 0.090}
MODULES = ("fields", "linalg", "tensors", "reporting", "actions", "algebra", "reps",
           "unified", "crossed", "matched", "bialgebra", "serialize", "cli")


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark shares a virtual machine whose speed drifts: the same
# pure-Python loop takes from 1x to 2x its fastest time for seconds at a
# stretch.  A probe of fixed work, using no adw code, runs before the first
# request of a pass and after every request; a pass's times are divided by
# its mean probe time and multiplied by PROBE_REF_S.  A change to adw moves
# the scaled times as it moves the raw ones; a change of host speed moves
# the probe as well and cancels out.  The library workloads' probe,
# ``host_probe``, does the kinds of work adw spends its time on (Fraction
# arithmetic, dict lookups under tuple keys, arithmetic on small objects
# with dunder methods).  cli-batch's requests are child processes, mostly
# interpreter start-up and imports, which a slow host stretches less than
# pure-Python work (1.35x against 2x in one measured slow spell), so its
# probe is a child interpreter importing the standard modules adw imports.

CLI_PROBE = "import argparse, dataclasses, fractions, functools, itertools, json"

_PROBE_Q = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(64)]


class _Mod3:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 3

    def __add__(self, other):
        return _Mod3(self.v + other.v)

    def __mul__(self, other):
        return _Mod3(self.v * other.v)


_PROBE_G = [_Mod3(i) for i in range(27)]


def host_probe():
    acc = Fraction(0)
    for k in range(16):
        for i in range(64):
            acc += _PROBE_Q[i] * _PROBE_Q[(i * 7 + k) % 64]
    counts = {}
    for i in range(20000):
        key = (i % 13, i % 17)
        counts[key] = counts.get(key, 0) + i * 3
    g = _PROBE_G[0]
    for k in range(240):
        for i in range(27):
            g = g + _PROBE_G[i] * _PROBE_G[(i * 5 + k) % 27]
    return acc, len(counts), g.v


def probe_s(kind):
    """Seconds the host takes for the probe of ``kind`` ("library" or "cli") now."""
    t0 = perf()
    if kind == "cli":
        subprocess.run([sys.executable, "-c", CLI_PROBE], cwd=ROOT, capture_output=True,
                       timeout=60, check=True)
    else:
        host_probe()
    return perf() - t0


def host_scaled(seconds, probes, kind):
    """``seconds`` measured while the probe of ``kind`` took ``probes``, at reference speed."""
    return seconds * PROBE_REF_S[kind] / statistics.mean(probes)


# ---------------------------------------------------------------------------
# set-up

class Api:
    """The adw modules of one import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "adw" or m.startswith("adw.")]:
            del sys.modules[name]
        self.modules = [importlib.import_module("adw")]
        for name in MODULES:
            mod = importlib.import_module("adw." + name)
            setattr(self, name, mod)
            self.modules.append(mod)


class Workload:
    """Inputs, requests and reference expectations of one workload and seed."""

    def __init__(self, name, seed, reference):
        self.name = name
        self.seed = seed
        self.reference = reference
        self.workdir = os.path.join(OUT, "work-%s-%d" % (name, os.getpid()))
        self.probe = "cli" if name == "cli-batch" else "library"

    def setup(self):
        """Import adw, make the inputs, warm up; returns the seconds taken."""
        t0 = perf()
        api = Api()
        if self.name == "cli-batch":
            self.commands, tables = cli_batch.write_inputs(api, self.seed, self.workdir)
            self.requests = cli_batch.requests(api, SRC, self.commands)
            cli_batch.spawn(SRC, self.commands[0].argv)
        else:
            if self.name == "tower-sparse":
                self.requests, tables = workloads.tower_sparse(api, self.seed)
            else:
                self.requests, tables = workloads.search_gf(
                    api, self.seed, self.reference.get("gf_base_solutions"))
            warm = next(r for r in self.requests if r.id.startswith("A"))
            warm.call()
        self.api = api
        self.shares = workloads.table_shares(tables)
        return perf() - t0

    def inprocess_requests(self):
        if self.name == "cli-batch":
            return cli_batch.requests(self.api, SRC, self.commands, inproc=True)
        return self.requests

    def cleanup(self):
        if os.path.isdir(self.workdir):
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)


# ---------------------------------------------------------------------------
# output checks

class Checker:
    """Compares observations with the fixed and the recorded expectations."""

    def __init__(self, workload, seed, reference):
        per_seed = reference.get("seeds", {}).get(workload, {})
        self.recorded = per_seed.get(str(seed))
        self.invariant = reference.get("invariant", {}).get(workload, {})
        # requests that crashed on every recorded seed: known defects
        self.known_crashes = {rid for rid in next(iter(per_seed.values()), {})
                              if all(rec.get(rid, 0) is None for rec in per_seed.values())}
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.crashed = []
        self.unknown_crashes = []
        self.skipped = {}     # request id -> per-seed fields not compared

    @property
    def correct(self):
        return not self.wrong and not self.unknown_crashes

    def crash(self, req, what):
        self.failed += 1
        self.crashed.append((req.id, what))
        if req.id not in self.known_crashes:
            self.unknown_crashes.append(req.id)

    def judge(self, req, raw, error):
        """Returns the observation (None after a crash) and counts the outcome.

        A crash is a failed request; one the reference does not record as a
        known crash also makes the run incorrect.
        """
        self.attempted += 1
        if error is not None:
            self.crash(req, "%r" % (error,))
            return None
        obs = json.loads(json.dumps(req.observe(raw)))
        if obs.get("crash"):
            self.crash(req, "exit %s with a traceback" % (obs.get("exit"),))
            return obs
        problems = ["%s=%r, expected %r" % (k, obs.get(k), v)
                    for k, v in req.expect.items() if obs.get(k) != v]
        if req.verify is not None:
            problems += req.verify(raw)
        if self.recorded is not None:
            want = self.recorded.get(req.id)
            if want is not None and want != obs:
                problems.append("differs from the recorded reference %r" % (want,))
        else:
            inv = self.invariant.get(req.id, {})
            problems += ["%s=%r, reference %r" % (k, obs.get(k), v)
                         for k, v in inv.items() if obs.get(k) != v]
            rest = sorted(set(obs) - set(inv))
            if rest:
                self.skipped[req.id] = rest
        if problems:
            self.failed += 1
            self.wrong.append("%s: %s" % (req.id, "; ".join(problems)))
        return obs


def execute(req, checker, timer=None):
    """Run one request; returns (observation, seconds)."""
    error = raw = None
    t0 = perf()
    try:
        if timer is None:
            raw = req.call()
        else:
            raw, _ = timer(req.id, req.call)
    except Exception as exc:
        error = exc
    dt = perf() - t0
    return checker.judge(req, raw, error), dt


# ---------------------------------------------------------------------------
# end-to-end measurement

def tail(values, beyond):
    """(value, percentile) of ``values`` with ``beyond`` of them above it."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - beyond - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def measure(wl, checker, seconds):
    """Run passes over the request list while another pass fits into ``seconds``.

    Each pass runs every request once, with a probe before the first request
    and after each request.  Every request time is scaled by its pass's
    probes.  ``wall_s`` is the median of the scaled pass times (the sum of the
    pass's request times); the latency percentiles are taken over every
    scaled request sample of every pass; the rates divide totals over all
    passes by scaled time.
    """
    samples = []
    pass_times = []
    raw_pass_times = []
    speeds = []
    checked = checked_time = points = points_time = 0
    gc.collect()
    start = perf()
    while True:
        t_pass = perf()
        probes = [probe_s(wl.probe)]
        times = []
        for req in wl.requests:
            obs, dt = execute(req, checker)
            probes.append(probe_s(wl.probe))
            times.append((req, obs, dt))
        raw_pass_times.append(sum(dt for _, _, dt in times))
        speeds.append(statistics.mean(probes) / PROBE_REF_S[wl.probe])
        for req, obs, dt in times:
            dt = host_scaled(dt, probes, wl.probe)
            samples.append(dt)
            if obs is not None and isinstance(obs.get("checked"), int):
                checked += obs["checked"]
                checked_time += dt
            if req.points:
                points += req.points
                points_time += dt
        pass_times.append(host_scaled(raw_pass_times[-1], probes, wl.probe))
        elapsed = perf() - t_pass
        if perf() - start + elapsed > seconds:
            break
    tail_s, pct = tail(samples, TAIL_BEYOND_PER_PASS * len(pass_times))
    if wl.name == "cli-batch":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(pass_times), "s"),
        "req_p50_ms": (1000 * statistics.median(samples), "ms"),
        "req_tail_ms": (1000 * tail_s, "ms"),
        "checked_per_s": (checked / checked_time if checked_time else 0.0, "1/s"),
        "points_per_s": (points / points_time if points_time else 0.0, "1/s"),
        "peak_rss_mib": (rss / 1024.0, "MiB"),
    }, {"passes": len(pass_times), "samples": len(samples), "tail_pct": pct,
        "measured_s": perf() - start, "raw_pass_s": raw_pass_times, "speeds": speeds}


def setup_time(wl):
    """Median of SETUP_REPEATS set-ups, scaled by probes around them.

    Three probes go into each gap: a set-up repeat is over in 0.1 to 2 s, so
    one probe per gap would give too few to average the host's jitter.
    """
    probes = [probe_s(wl.probe) for _ in range(3)]
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(wl.setup())
        probes += [probe_s(wl.probe) for _ in range(3)]
    return host_scaled(statistics.median(times), probes, wl.probe), statistics.median(times)


# ---------------------------------------------------------------------------
# traced run

CONSTRUCTIONS = {"unified.extract_extending_datum", "unified.unified_product",
                 "matched.factorize", "crossed.z1_cocycles", "reps.semidirect_product",
                 "bialgebra.search_skew_solutions"}
# Calls whose Report the library builds and drops, or keeps out of the
# returned verdict: cached is_verified properties, constructor prechecks and
# the extraction's structural check.
DISCARDED = {"algebra.ADAlgebra.is_verified", "reps.ADRep.is_verified",
             "reps.semidirect_product", "unified.unified_product",
             "unified.extract_extending_datum", "crossed.crossed_product",
             "matched.bicrossed_product"}
PRODUCT_CLASSES = ("algebra.BilinearOp.", "actions.ActionFamily.", "unified.CrossBilinear.")
PAIRS = (".pair_succ", ".pair_prec", ".pair_mul")
LAYERS = ("scalars", "kernels", "product_eval", "checkers", "constructions", "process", "bench")


def layer_of(key):
    if key == "request":
        return "bench"
    mod = key.split(".", 1)[0]
    if mod == "fields":
        return "scalars"
    if mod in ("linalg", "tensors"):
        return "kernels"
    if mod in ("cli", "serialize"):
        return "process"
    if key.startswith(PRODUCT_CLASSES) or key.endswith(PAIRS):
        return "product_eval"
    if key in CONSTRUCTIONS:
        return "constructions"
    return "checkers"


def span_key(key):
    name = key.rsplit(".", 1)[-1]
    return key == "cli.main" or key in CONSTRUCTIONS or (
        layer_of(key) == "checkers" and name.startswith("check_"))


def child_median_ms(argv, runs=5):
    times = []
    env = cli_batch.child_env(SRC, {})
    for _ in range(runs):
        t0 = perf()
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=60, check=True)
        times.append(1000 * (perf() - t0))
    return statistics.median(times)


def traced(wl, checker):
    reqs = wl.inprocess_requests()
    gc.collect()
    untraced = sum(execute(req, checker)[1] for req in reqs)
    report_cls = wl.api.reporting.Report
    tracer = Tracer(is_span=span_key, scope_keys=DISCARDED)
    tracer.install(wl.api.modules)
    ticks = {"checks": 0, "discarded": 0, "violations": 0}
    tick, record = report_cls.__dict__["tick"], report_cls.__dict__["record"]

    def counted_tick(self, n=1):
        if n == 1:
            ticks["discarded" if tracer.scope_depth else "checks"] += 1
        return tick(self, n)

    def counted_record(self, *args, **kwargs):
        if not tracer.scope_depth:
            ticks["violations"] += 1
        return record(self, *args, **kwargs)

    tracer.patch(report_cls, "tick", counted_tick)
    tracer.patch(report_cls, "record", counted_record)
    checked_sum = 0
    solutions = points = 0
    wall = 0.0
    try:
        for req in reqs:
            obs, dt = execute(req, checker, timer=tracer.root)
            wall += dt
            if obs is not None:
                checked_sum += obs.get("checked", 0) + obs.get("text_checked", 0)
                if "solutions" in obs and req.points:
                    solutions += obs["solutions"]
                    points += req.points
    finally:
        tracer.restore()
    spawn_ms = import_ms = 0.0
    if wl.name == "cli-batch":
        spawn_ms = child_median_ms([sys.executable, "-c", "pass"])
        import_ms = child_median_ms([sys.executable, "-c", "import adw.cli"]) - spawn_ms
    return per_layer(tracer, wl, ticks, checked_sum, solutions, points, wall, untraced,
                     spawn_ms, import_ms, len(reqs))


def per_layer(tracer, wl, ticks, checked_sum, solutions, points, wall, untraced,
              spawn_ms, import_ms, nreqs):
    keys = list(tracer.stats)

    def calls(*ks):
        return (tracer.total(ks, "calls"), "count")

    def self_s(*ks):
        return (tracer.total(ks, "self_s"), "s")

    def incl_s(*ks):
        return (tracer.total(ks, "incl_s"), "s")

    upair = ("unified.ExtendingDatum.pair_succ", "unified.ExtendingDatum.pair_prec")
    cpair = ("crossed.CrossedDatum.pair_succ", "crossed.CrossedDatum.pair_prec")
    mpair = ("matched.MatchedPairDatum.pair_succ", "matched.MatchedPairDatum.pair_prec",
             "matched.AssocMatchedPair.pair_mul")
    contract = ("tensors.contract_12_13", "tensors.contract_13_23", "tensors.contract_23_12")
    load = [k for k in keys if k.startswith("serialize.")
            and ("load_" in k or "_from_dict" in k or k.endswith("read_json"))]
    dump = [k for k in keys if k.startswith("serialize.")
            and ("_to_dict" in k or k.endswith("write_json"))]
    gf = ["fields.GFElement.%s" % op for op in GF_ARITHMETIC]
    nonzero, field_zero = wl.shares
    m = {
        "unified.pair.calls": calls(*upair),
        "unified.pair.self_s": self_s(*upair),
        "crossed.pair.calls": calls(*cpair),
        "crossed.pair.self_s": self_s(*cpair),
        "matched.pair.calls": calls(*mpair),
        "matched.pair.self_s": self_s(*mpair),
        "unified.check_split_axioms.self_s": self_s("unified.check_split_axioms"),
        "unified.check_extending_structure.incl_s": incl_s("unified.check_extending_structure"),
        "crossed.check_crossed_system.incl_s": incl_s("crossed.check_crossed_system"),
        "matched.check_matched_pair.incl_s": incl_s("matched.check_matched_pair"),
        "algebra.BilinearOp.apply.calls": calls("algebra.BilinearOp.apply"),
        "algebra.BilinearOp.apply.self_s": self_s("algebra.BilinearOp.apply"),
        "actions.ActionFamily.act.calls": calls("actions.ActionFamily.act"),
        "actions.ActionFamily.act.self_s": self_s("actions.ActionFamily.act"),
        "unified.CrossBilinear.apply.calls": calls("unified.CrossBilinear.apply"),
        "linalg.vadd.calls": calls("linalg.vadd"),
        "linalg.vadd.self_s": self_s("linalg.vadd"),
        "algebra.check_anti_dendriform.self_s": self_s("algebra.check_anti_dendriform"),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matmul.self_s": self_s("linalg.matmul"),
        "reps.check_representation.self_s": self_s("reps.check_representation"),
        "tensors.t2_apply.calls": calls("tensors.t2_apply"),
        "tensors.t2_apply.self_s": self_s("tensors.t2_apply"),
        "tensors.t3_apply.self_s": self_s("tensors.t3_apply"),
        "tensors.contract.calls": calls(*contract),
        "tensors.contract.self_s": self_s(*contract),
        "bialgebra.check_coboundary_conditions.self_s":
            self_s("bialgebra.check_coboundary_conditions"),
        "bialgebra.adybe_residual.self_s": self_s("bialgebra.adybe_residual"),
        "fields.gf_ops": calls(*gf),
        "bialgebra.is_ybe_solution.calls": calls("bialgebra.is_ybe_solution"),
        "bialgebra.search.hit_ratio": (solutions / points if points else 0.0, "ratio"),
        "bialgebra.search_skew_solutions.incl_s": incl_s("bialgebra.search_skew_solutions"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.solve_linear.calls": calls("linalg.solve_linear"),
        "unified.extract_extending_datum.incl_s": incl_s("unified.extract_extending_datum"),
        "unified.unified_product.incl_s": incl_s("unified.unified_product"),
        "matched.factorize.incl_s": incl_s("matched.factorize"),
        "crossed.z1_cocycles.incl_s": incl_s("crossed.z1_cocycles"),
        "reps.semidirect_product.incl_s": incl_s("reps.semidirect_product"),
        "cli.spawn_ms": (spawn_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main.self_s": self_s("cli.main"),
        "serialize.load.self_s": self_s(*load),
        "serialize.dump.self_s": self_s(*dump),
        "reporting.checks": (ticks["checks"], "count"),
        "reporting.checked_sum": (checked_sum, "count"),
        "reporting.discarded_checks": (ticks["discarded"], "count"),
        "reporting.violations": (ticks["violations"], "count"),
        "input.requests": (nreqs, "count"),
        "input.nonzero_share": (nonzero, "ratio"),
        "input.fraction_zero_share": (field_zero, "ratio"),
        "trace.overhead_ratio": (wall / untraced, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in LAYERS:
        m["layer.%s.self_s" % layer] = self_s(*[k for k in keys if layer_of(k) == layer])
    extra = {"traced_wall_s": wall, "untraced_wall_s": untraced,
             "search_points": points, "search_solutions": solutions}
    return m, extra, tracer


def write_trace(tracer, wl):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.json" % (wl.name, wl.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans,
                   "functions": {k: v for k, v in sorted(tracer.stats.items()) if v[0]}},
                  fh)
    return path


# ---------------------------------------------------------------------------

def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adw", "__init__.py")):
        print("perfbench: no adw sources at %s; run from the repository root" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference = load_reference()
    wl = Workload(args.workload, args.seed, reference)
    try:
        setup_s, raw_setup_s = setup_time(wl)
        checker = Checker(args.workload, args.seed, reference)
        if args.trace:
            metrics, extra, tracer = traced(wl, checker)
            path = write_trace(tracer, wl)
            print("traced pass %.3f s, untraced pass %.3f s; spans and per-function totals "
                  "in %s" % (extra["traced_wall_s"], extra["untraced_wall_s"],
                             os.path.relpath(path, ROOT)))
            if extra["search_points"]:
                print("bialgebra.search.hit_ratio base: %d solutions / %d grid points"
                      % (extra["search_solutions"], extra["search_points"]))
            if metrics["reporting.checks"][0] != metrics["reporting.checked_sum"][0]:
                checker.wrong.append("tracer self-check: reporting.checks %d != sum of "
                                     "Report.checked %d" % (metrics["reporting.checks"][0],
                                                             metrics["reporting.checked_sum"][0]))
        else:
            metrics, info = measure(wl, checker, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            print("%s seed %d: %d passes, %d requests in %.2f s"
                  % (args.workload, args.seed, info["passes"], info["samples"],
                     info["measured_s"]))
            print("host speed (mean probe time / %.0f ms) per pass: %s; unscaled pass "
                  "times: %s s; unscaled set-up: %.4f s"
                  % (1000 * PROBE_REF_S[wl.probe], ", ".join("%.3f" % x for x in info["speeds"]),
                     ", ".join("%.3f" % x for x in info["raw_pass_s"]), raw_setup_s))
            print("req_tail_ms is the p%.2f value of %d request samples, with %d beyond it "
                  "(%d passes of %d requests)" % (info["tail_pct"], info["samples"],
                                                  TAIL_BEYOND_PER_PASS * info["passes"],
                                                  info["passes"], len(wl.requests)))
            print("fail_ratio %.4f (%d failed / %d attempted)"
                  % (checker.failed / checker.attempted, checker.failed, checker.attempted))
    finally:
        wl.cleanup()
    print("input.nonzero_share %.4f, input.fraction_zero_share %.4f" % wl.shares)
    if checker.recorded is None:
        print("reference: seed %d not recorded; fixed expectations and seed-invariant "
              "fields checked; per-seed fields skipped: %s" % (args.seed, ", ".join(
                  "%s[%s]" % (rid, ",".join(f)) for rid, f in checker.skipped.items()) or "none"))
    for (rid, what), count in collections.Counter(checker.crashed).items():
        known = "known defect" if rid in checker.known_crashes else "UNEXPECTED"
        print("crashed, %s (%dx): %s: %s" % (known, count, rid, what))
    for line, count in collections.Counter(checker.wrong).items():
        print("WRONG (%dx): %s" % (count, line))
    for name, (value, unit) in metrics.items():
        print("%-48s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
