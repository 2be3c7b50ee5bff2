#!/usr/bin/env python3
"""Compare two sets of benchmark results (records written by run.py).

Usage:
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the .json records run.py wrote under
.bench_build/results/. For every workload and end-to-end metric it prints
each side's median and quartiles, the change in the median as a share of
the base median, and a verdict against the bound in BENCHMARK.json:
"worse" beyond the bound, "unresolved" when the base runs' own quartile
spread is wider than the bound, else "within bound".

Results are compared only when their provenance matches: the same nproc,
jobs, build type, compiler, --seconds, units, warm-up units and trace mode
on both sides, and the same set of seeds. The git revision and source
digest are what a comparison is about, so they may differ. Anything else
differing is refused with exit code 2.
"""

import glob
import json
import os
import statistics
import sys

MUST_MATCH = ("nproc", "jobs", "build_type", "compiler", "seconds", "units",
              "warmup_units", "trace")


def load(directory):
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record["provenance"]["trace"]:
            continue
        by_workload.setdefault(record["provenance"]["workload"], []).append(record)
    return by_workload


def provenance_key(records):
    keys = {tuple(r["provenance"][k] for k in MUST_MATCH) for r in records}
    seeds = sorted(r["provenance"]["seed"] for r in records)
    return keys, seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])

    refused = False
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload, []), change.get(workload, [])
        if not b or not c:
            print(f"{workload}: results on one side only; refused")
            refused = True
            continue
        (bkeys, bseeds), (ckeys, cseeds) = provenance_key(b), provenance_key(c)
        if len(bkeys) != 1 or bkeys != ckeys or bseeds != cseeds:
            print(f"{workload}: provenance differs; refused\n"
                  f"  base   {sorted(bkeys)} seeds {bseeds}\n"
                  f"  change {sorted(ckeys)} seeds {cseeds}")
            refused = True
            continue
        print(f"{workload} ({len(b)} runs a side, seeds {bseeds})")
        for name, (bound, better) in bounds.items():
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c if name in r["metrics"]]
            if not bv or not cv:
                continue
            bm, cm = statistics.median(bv), statistics.median(cv)
            bq, cq = quartiles(bv), quartiles(cv)
            worse = (cm - bm) / bm if better == "lower" else (bm - cm) / bm
            spread = (bq[1] - bq[0]) / bm
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            print(f"  {name:18s} base {bm:12.6g} [{bq[0]:.6g}, {bq[1]:.6g}]"
                  f"  change {cm:12.6g} [{cq[0]:.6g}, {cq[1]:.6g}]"
                  f"  worse by {worse:+.3f} (bound {bound})  {verdict}")
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
