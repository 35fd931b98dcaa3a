#!/usr/bin/env python3
"""End-to-end benchmark of the set-of-sets reconciliation library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph_million --seed 1 --seconds 15 --trace 0

It builds perfbench/bench.exe with dune, runs the workload (graph_million
runs one fresh process per protocol stack), checks every session against
ground truth, prints every metric by name with its unit, sample count and
p90, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, from a separate traced run
whose spans are written under .perfbench_out/. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ["graph_million", "ladder_net", "server_churn", "graph_apps"]
MILLION_STACKS = ["set", "naive", "iblt-of-iblts", "cascade", "multiround"]
GRAPH_SCHEMES = ["degree-order", "degree-nbr", "forest"]
ALL_KINDS = MILLION_STACKS + GRAPH_SCHEMES + ["server"]

# Per-layer figures the untraced run also prints, where the workload has them.
HEADLINE = ["reconcile_s." + k for k in ALL_KINDS] + [
    "fail_rate", "vlatency_p50_ms", "vlatency_p99_ms", "apply_ns_per_mutation"]

# Whole-run budget: a run must end within 180 s.
DEADLINE_S = 170.0


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no library sources next to perfbench/ (expected dune-project and lib/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")


class Runner:
    def __init__(self, seconds, domains=1):
        self.seconds = seconds
        self.domains = domains
        self.started = time.monotonic()

    def run(self, workload, seed, trace, extra=()):
        """One bench.exe process; returns its parsed raw result."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            fail("run exceeded its time budget")
        tag = "-".join([workload, str(seed)] + [a for a in extra if not a.startswith("--")])
        cmd = [EXE, workload, "--seed", str(seed), "--seconds", str(self.seconds),
               "--trace", "1" if trace else "0", "--domains", str(self.domains)]
        cmd += list(extra)
        spans = None
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, "spans-%s.json" % tag)
            cmd += ["--spans", spans]
        env = dict(os.environ, SSR_DOMAINS=str(self.domains), OCAMLRUNPARAM="")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            fail("%s timed out" % tag)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.stderr.write(proc.stderr[-4000:])
            fail("%s printed no result (exit %d)" % (tag, proc.returncode))
        raw = json.loads(lines[-1])
        raw["span_file"] = spans
        if proc.returncode == 3:
            raw["silent_exit"] = True
        elif proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail("%s exited %d" % (tag, proc.returncode))
        return raw


# ---------------------------------------------------------------------
# Merging raw results
# ---------------------------------------------------------------------


def merge(raws):
    """Combine the raw results of a workload's processes."""
    out = {"setup_s": [], "kinds": {}, "counters": {}, "extra": {}, "spans": {},
           "peak": {}, "silent_exit": False, "span_files": [], "yardstick_s": []}
    for r in raws:
        out["setup_s"] += r["setup_s"]
        out["yardstick_s"] += r["yardstick_s"]
        for k in r["kinds"]:
            if k["sessions"] == 0 and not k["pass_s"]:
                continue
            out["kinds"][k["name"]] = k
            out["peak"][k["name"]] = r["peak_heap_mb"]
        for name, v in r["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        for name, v in r["extra"].items():
            out["extra"].setdefault(name, []).extend(v)
        for name, (t, n) in r["spans"].items():
            t0, n0 = out["spans"].get(name, (0.0, 0))
            out["spans"][name] = (t0 + t, n0 + n)
        out["peak_all"] = max(out.get("peak_all", 0.0), r["peak_heap_mb"])
        out["silent_exit"] |= r.get("silent_exit", False)
        if r.get("span_file"):
            out["span_files"].append(r["span_file"])
    return out


def p90(values):
    s = sorted(values)
    return s[min(len(s) - 1, (9 * len(s)) // 10)] if s else 0.0


def percentile_ms(vlats, q):
    s = sorted(vlats)
    return s[min(len(s) - 1, (q * len(s)) // 100)] / 1000.0 if s else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(m):
    """The workload-independent figures. A workload's session kinds
    (protocol stacks, graph schemes, server clients) carry equal weight:
    times and bits are geometric means over kinds, so a change by a factor
    r in one of n kinds moves the figure by r**(1/n) whatever the kind's
    size; success_rate is the mean over kinds."""
    kinds = m["kinds"].values()
    return {
        "setup_s": (statistics.median(m["setup_s"]), "s"),
        "reconcile_s": (statistics.geometric_mean(statistics.median(k["pass_s"]) for k in kinds),
                        "s"),
        "wire_bits": (statistics.geometric_mean(ratio(k["bits"], k["sessions"]) for k in kinds),
                      "bits"),
        "success_rate": (statistics.mean(ratio(k["ok"], k["sessions"]) for k in kinds), "ratio"),
        "peak_heap_mb": (m["peak_all"], "MB"),
    }


def per_layer(m):
    kinds = m["kinds"]
    c = m["counters"]
    spans = m["spans"]
    sessions = sum(k["sessions"] for k in kinds.values())
    ok = sum(k["ok"] for k in kinds.values())
    per = lambda v: ratio(v, sessions)  # noqa: E731

    def span_mean(name):
        t, n = spans.get(name, (0.0, 0))
        return ratio(t, n)

    out = {}
    for k in ALL_KINDS:
        out["reconcile_s." + k] = (statistics.median(kinds[k]["pass_s"]) if k in kinds else 0.0, "s")
    vlats = [v for k in kinds.values() for v in k["vlat_us"]]
    out["fail_rate"] = (ratio(sessions - ok, sessions), "ratio")
    out["vlatency_p50_ms"] = (percentile_ms(vlats, 50), "ms")
    out["vlatency_p99_ms"] = (percentile_ms(vlats, 99), "ms")
    apply_ns = m["extra"].get("apply_ns_per_mutation", [])
    out["apply_ns_per_mutation"] = (statistics.median(apply_ns) if apply_ns else 0.0, "ns")
    out["sketch.iblt.cell_updates"] = (per(c["iblt.inserts"] + c["iblt.deletes"]), "count")
    out["sketch.iblt.peels"] = (per(c["iblt.decode.peels"]), "count")
    out["sketch.iblt.decode_success_ratio"] = (
        ratio(c["iblt.decode.success"], c["iblt.decode.attempts"]), "ratio")
    out["sketch.rateless.useful_ratio"] = (
        ratio(c["rateless.cells_useful"], c["rateless.cells_sent"]), "ratio")
    out["field.karatsuba_calls"] = (per(c["field.karatsuba.calls"]), "count")
    out["field.newton_reductions"] = (per(c["field.newton.reductions"]), "count")
    out["transport.frame.crc_rejects"] = (per(c["frame.rejects.crc"]), "count")
    out["transport.arq.retransmits"] = (per(c["arq.retransmits"]), "count")
    out["transport.arq.useful_ratio"] = (
        ratio(c["arq.data_sent"], c["arq.data_sent"] + c["arq.retransmits"]), "ratio")
    resilient = c["resilient.attempts"] > 0
    out["transport.resilient.attempts"] = (per(c["resilient.attempts"]), "count")
    first = sum(k["first_try"] for k in kinds.values())
    out["transport.resilient.first_try_ratio"] = (ratio(first, sessions) if resilient else 0.0,
                                                  "ratio")
    out["transport.resilient.salvage_attempts"] = (per(c["resilient.salvage_attempts"]), "count")
    out["transport.resilient.direct_fallbacks"] = (per(c["resilient.direct_fallbacks"]), "count")
    out["setrecon.comm.rounds"] = (per(sum(k["rounds"] for k in kinds.values())), "count")
    out["setrecon.comm.messages"] = (per(c["comm.messages"]), "count")
    out["server.shard.refreshes_per_kmut"] = (
        ratio(c["server.shard.refreshes"], c["server.mutations.applied"] / 1000.0), "count")
    out["server.sessions.rejected_ratio"] = (
        ratio(c["server.sessions.rejected"], c["server.sessions.opened"]), "ratio")
    out["server.sessions.escalations"] = (per(c["server.sessions.escalations"]), "count")
    out["server.pump.rounds"] = (per(c["server.pump.rounds"]), "count")
    out["server.shard.snapshots"] = (per(c["server.shard.snapshots"]), "count")
    out["runtime.minor_words"] = (per(c["runtime.minor_words"]), "count")
    out["runtime.major_collections"] = (per(c["runtime.major_collections"]), "count")
    for s in MILLION_STACKS:
        peak = m["peak"].get(s, 0.0) if m["workload"] == "graph_million" else 0.0
        out["runtime.peak_heap_mb." + s] = (peak, "MB")
    out["apps.datasets_s"] = (span_mean("apps.datasets_s"), "s")
    out["server.fill_s"] = (span_mean("server.fill_s"), "s")
    for s in MILLION_STACKS:
        core = span_mean("core.protocol_s." + s)
        out["core.protocol_s." + s] = (core, "s")
        session = span_mean("transport.session_s." + s)
        out["transport.ladder_overhead_s." + s] = (session - core if session else 0.0, "s")
    out["server.apply_s"] = (span_mean("server.apply_s"), "s")
    pump_t, _ = spans.get("server.pump_s", (0.0, 0))
    apply_t, _ = spans.get("server.apply_s", (0.0, 0))
    completed = len(kinds["server"]["vlat_us"]) if "server" in kinds else 0
    out["server.pump_s"] = (ratio(pump_t - apply_t, completed), "s")
    for s in GRAPH_SCHEMES:
        out["graphrecon.labeling_s." + s] = (span_mean("graphrecon.labeling_s." + s), "s")
    out["bench.verify_s"] = (span_mean("bench.verify_s"), "s")
    out["bench.yardstick_s"] = (statistics.median(m["yardstick_s"]), "s")
    over = m["extra"].get("trace.overhead_ratio", [])
    out["trace.overhead_ratio"] = (statistics.median(over) if over else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------
# Noise discipline
# ---------------------------------------------------------------------

# Workloads on which each per-layer metric may be non-zero: the layers each
# workload claims to load. A non-zero value elsewhere means a workload runs
# a layer it claims to bypass, and the run fails.
LAYER_WORKLOADS = [
    ("reconcile_s.server", {"server_churn"}),
    ("reconcile_s.degree-", {"graph_apps"}),
    ("reconcile_s.forest", {"graph_apps"}),
    ("reconcile_s.", {"graph_million", "ladder_net"}),
    ("vlatency_", {"ladder_net", "server_churn"}),
    ("apply_ns_per_mutation", {"server_churn"}),
    ("server.", {"server_churn"}),
    ("transport.arq.", {"ladder_net"}),
    ("transport.frame.", {"graph_million", "ladder_net", "server_churn"}),
    ("transport.", {"graph_million", "ladder_net"}),
    ("core.protocol_s.", {"graph_million", "ladder_net"}),
    ("sketch.rateless.", {"graph_million", "ladder_net", "server_churn"}),
    ("graphrecon.", {"graph_apps"}),
    ("runtime.peak_heap_mb.", {"graph_million"}),
]

# Spans around timed calls; set-up and verification must never nest in one.
TIMED_SPANS = ("transport.session_s.", "core.protocol_s.", "server.pump_s", "server.apply_s")
UNTIMED_SPANS = ("apps.datasets_s", "server.fill_s", "bench.verify_s")

MIN_UNIT_S = 0.01


def check_discipline(m, raws, metrics, trace):
    """Fail the run if a measurement breaks the benchmark's own rules."""
    problems = []
    for name, k in m["kinds"].items():
        per_pass = len(k["vlat_us"]) if name == "server" else k["sessions"]
        for t in k["pass_s"]:
            if t * per_pass < MIN_UNIT_S:
                problems.append("%s: a timed pass of %.4f s is shorter than %.2f s"
                                % (name, t * per_pass, MIN_UNIT_S))
    for t in m["setup_s"]:
        if t < MIN_UNIT_S:
            problems.append("set-up of %.4f s is shorter than %.2f s" % (t, MIN_UNIT_S))
    mutations = m["extra"].get("mutations", [0])[0]
    for ns in m["extra"].get("apply_ns_per_mutation", []):
        if ns * mutations / 1e9 < MIN_UNIT_S:
            problems.append("apply phase shorter than %.2f s" % MIN_UNIT_S)
    if m["workload"] == "graph_million":
        session_raws = [r for r in raws if r["kinds"]]
        stacks = [r["kinds"][0]["name"] for r in session_raws]
        if sorted(stacks) != sorted(MILLION_STACKS) or any(len(r["kinds"]) != 1 for r in session_raws):
            problems.append("graph_million: not one stack per process")
        if len({r["pid"] for r in raws}) != len(raws):
            problems.append("graph_million: a process ran more than one part")
        if min(m["extra"]["elements"]) < 1e6:
            problems.append("graph_million: fewer than 10^6 elements")
    if trace:
        for name, (value, _) in metrics.items():
            for prefix, allowed in LAYER_WORKLOADS:
                if name.startswith(prefix):
                    if value != 0 and m["workload"] not in allowed:
                        problems.append("%s is %g on %s, which claims to bypass that layer"
                                        % (name, value, m["workload"]))
                    break
        for path in m["span_files"]:
            with open(path) as f:
                spans = {s["id"]: s for s in json.load(f)}
            for s in spans.values():
                if not s["name"].startswith(UNTIMED_SPANS):
                    continue
                p = s["parent"]
                while p >= 0:
                    if spans[p]["name"].startswith(TIMED_SPANS):
                        problems.append("%s ran inside timed span %s" % (s["name"], spans[p]["name"]))
                        break
                    p = spans[p]["parent"]
    if problems:
        for p in problems[:20]:
            print("perfbench: discipline: " + p, file=sys.stderr)
        fail("%d noise-discipline check(s) failed" % len(problems))


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


def run_workload(runner, workload, seed, trace):
    if workload != "graph_million":
        raws = [runner.run(workload, seed, trace)]
    else:
        # A fresh process per stack: no stack inherits another's encodings
        # or heap high-water mark.
        raws = [runner.run(workload, seed, False, ["--stack", s, "--part", "session"])
                for s in MILLION_STACKS]
        if trace:
            traced = [runner.run(workload, seed, True, ["--stack", s, "--part", part])
                      for part in ("traced", "protocol") for s in MILLION_STACKS]
            untraced = sum(r["extra"]["untraced_session_s"][0] for r in raws)
            traced_s = sum(r["extra"]["traced_session_s"][0] for r in traced
                           if "traced_session_s" in r["extra"])
            for r in traced:
                r["kinds"] = []
                r["setup_s"] = []
                r["counters"] = {}
            raws += traced
            raws[0]["extra"]["trace.overhead_ratio"] = [traced_s / untraced]
    m = merge(raws)
    m["workload"] = workload
    return m, raws


def report(m, metrics, trace):
    kinds = m["kinds"]
    print("workload %s: %d sessions" % (m["workload"], sum(k["sessions"] for k in kinds.values())))
    for name, k in kinds.items():
        # The per-session p90 needs per-session times; server sessions
        # overlap in one event loop and are timed as a phase.
        tail = "p90=%.6g" % p90(k["session_s"]) if k["session_s"] else "p90=n/a"
        print("  %-14s sessions=%-5d ok=%-5d passes=%-3d s/session median=%.6g %s "
              "bits/session=%.0f" % (name, k["sessions"], k["ok"], len(k["pass_s"]),
                                     statistics.median(k["pass_s"]), tail,
                                     ratio(k["bits"], k["sessions"])))
    if "elements" in m["extra"]:
        print("  elements per parent: %d" % min(m["extra"]["elements"]))
    print("  setup_s samples=%d p90=%.6g" % (len(m["setup_s"]), p90(m["setup_s"])))
    y = m["yardstick_s"]
    print("  yardstick readings=%d median=%.6g s p90=%.6g s (wall times here are at the "
          "nominal speed, README.md)" % (len(y), statistics.median(y), p90(y)))
    for name, (value, unit) in metrics.items():
        print("  %-42s %16.6f %s" % (name, value, unit))
    if not trace:
        # The per-workload headline figures, which are per-layer metrics
        # because not every workload has them.
        layer = per_layer(m)
        for name in HEADLINE:
            value, unit = layer[name]
            if value:
                print("  %-42s %16.6f %s" % (name, value, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    build()
    runner = Runner(args.seconds)
    m, raws = run_workload(runner, args.workload, args.seed, bool(args.trace))
    metrics = per_layer(m) if args.trace else end_to_end(m)
    check_discipline(m, raws, metrics, bool(args.trace))
    report(m, metrics, bool(args.trace))
    kinds = m["kinds"].values()
    attempted = sum(k["sessions"] for k in kinds)
    silent = sum(k["silent"] for k in kinds)
    failed = attempted - sum(k["ok"] for k in kinds)
    correct = silent == 0 and not m["silent_exit"] and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    if not correct:
        fail("%d session(s) returned a result their ground-truth check refuted" % silent, 3)


if __name__ == "__main__":
    main()
