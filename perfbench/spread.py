#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload ladder_net --seeds 1-10

Runs perfbench/run.py once per seed (one after another) and prints, per
metric, the median of the values, the distance between their first and
third quartile (statistics.quantiles, n=4) as a share of the median, and
that share as a fraction of the metric's bound in BENCHMARK.json. The
values are also written to .perfbench_out/spread-<workload>.json. With
--against FILE (such a file from an earlier set of runs) it also prints
how far each median moved from that set's, against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--against", metavar="FILE",
                    help="an earlier set's values file, whose medians are compared")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    values = {}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("seed %d: run.py exited %d" % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(result["metrics"])), flush=True)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    print("%-16s %14s %9s %9s" % ("metric", "median", "iqr/med", "of bound")
          + ("  %14s %9s %9s" % ("earlier median", "change", "of bound") if earlier else ""))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("inf")
        line = "%-16s %14.6g %8.2f%% %8.2f" % (name, med, 100 * share, share / bounds[name])
        if name in earlier:
            # The change as a share of the earlier median, the figure a
            # bound limits.
            before = statistics.median(earlier[name])
            change = (med - before) / before if before else float("inf")
            line += "  %14.6g %+8.2f%% %9.2f" % (before, 100 * change, abs(change) / bounds[name])
        print(line)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "spread-%s.json" % args.workload), "w") as f:
        json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
