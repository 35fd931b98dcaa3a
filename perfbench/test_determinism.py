#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/test_determinism.py [--seed N] [--full]

Runs each workload twice at one seed and once more at domain-pool size 2,
one pass each, and requires bit-identical deterministic figures: every
session's verdict, wire bits, rounds and virtual latency, and every layer
counter. Only wall times and the heap high-water mark may differ (and the
runtime's own GC counters at pool size 2, where allocation is spread over
two domains). graph_million runs its set and multiround stacks; --full runs
all five (minutes, about 2.5 GB of heap for cascade). Exits 1 on any
difference.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DETERMINISTIC_KIND_FIELDS = ["sessions", "ok", "silent", "bits", "rounds", "first_try", "vlat_us"]


def figures(raw, pool2):
    out = {}
    for k in raw["kinds"]:
        for f in DETERMINISTIC_KIND_FIELDS:
            out["%s.%s" % (k["name"], f)] = k[f]
    for name, v in raw["counters"].items():
        if pool2 and name.startswith("runtime."):
            continue
        out[name] = v
    return out


def compare(label, a, b):
    bad = [n for n in sorted(set(a) | set(b)) if a.get(n) != b.get(n)]
    for n in bad[:10]:
        print("  %s: %s differs: %r vs %r" % (label, n, a.get(n), b.get(n)))
    return not bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()
    run.build()
    stacks = run.MILLION_STACKS if args.full else ["set", "multiround"]
    cases = [("graph_million", ["--stack", s, "--part", "session"]) for s in stacks]
    cases += [(w, []) for w in ("ladder_net", "server_churn", "graph_apps")]
    ok = True
    for workload, extra in cases:
        label = " ".join([workload] + extra[1:2])
        raws = []
        for domains in (1, 1, 2):
            # A fresh time budget per process; one pass each.
            runner = run.Runner(0, domains)
            raws.append(runner.run(workload, args.seed, False, extra))
        first = figures(raws[0], False)
        same = compare(label + " (rerun)", first, figures(raws[1], False))
        pool2 = compare(label + " (pool 2)", figures(raws[0], True), figures(raws[2], True))
        print("%-26s rerun %s, pool 2 %s" % (label, "identical" if same else "DIFFERS",
                                               "identical" if pool2 else "DIFFERS"), flush=True)
        ok = ok and same and pool2 and bool(first)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
