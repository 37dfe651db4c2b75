#!/usr/bin/env python3
"""Record the expected outputs the benchmark compares against.

    python3 perfbench/record_reference.py --seeds 0-15

For every workload and seed it runs the request list once and stores each
request's observation (verdict, checked, violation count, first violation,
digests of constructed objects) in perfbench/reference.json.  Fields that agree
across all recorded seeds are also stored as invariants, which runs with an
unrecorded seed still compare.  The GF(3) solution lists of the untransformed
search bases are stored too: search-gf derives every seed's expected solutions
from them.  Record only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def base_solutions(api):
    field = api.fields.PrimeField(workloads.GF_P)
    out = {}
    for name, s_ents, p_ents in workloads.gf_bases():
        alg = api.algebra.ADAlgebra.make(
            4, [(i, j, k, field.coerce(c)) for i, j, k, c in s_ents],
            [(i, j, k, field.coerce(c)) for i, j, k, c in p_ents], field=field)
        sols = api.bialgebra.search_skew_solutions(alg, field.elements())
        out[name] = [[x.v for x in workloads.grid_key(r)] for r in sols]
    return out


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = p.parse_args()
    sys.path.insert(0, run.SRC)
    reference = run.load_reference()
    reference["gf_base_solutions"] = base_solutions(run.Api())
    seeds = parse_seeds(args.seeds)
    for name in args.workload or run.WORKLOADS:
        per_seed = {}
        for seed in seeds:
            wl = run.Workload(name, seed, reference)
            try:
                wl.setup()
                checker = run.Checker(name, seed, {})
                # a crashed request records nothing, so a later fix is no mismatch
                per_seed[str(seed)] = {}
                for req in wl.requests:
                    obs = run.execute(req, checker)[0]
                    per_seed[str(seed)][req.id] = None if obs is None or obs.get("crash") else obs
            finally:
                wl.cleanup()
            if checker.wrong:
                sys.exit("%s seed %d fails a fixed expectation: %s"
                         % (name, seed, checker.wrong))
            print("%s seed %d recorded" % (name, seed), flush=True)
        first = per_seed[str(seeds[0])]
        invariant = {}
        for rid, obs in first.items():
            if obs is None:
                continue
            same = {k: v for k, v in obs.items()
                    if all(s[rid] is not None and s[rid].get(k) == v
                           for s in per_seed.values())}
            invariant[rid] = same
        reference.setdefault("seeds", {})[name] = per_seed
        reference.setdefault("invariant", {})[name] = invariant
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
