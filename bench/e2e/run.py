#!/usr/bin/env python3
"""End-to-end benchmark for stburst: the one command.

Builds the bench_e2e binary from source (bench/e2e/CMakeLists.txt, build
dir build-bench/), runs one workload, checks its outputs, and prints every
metric as `workload name value unit`, then one JSON line:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 bench_e2e records spans and the metrics are the per-layer ones,
derived from the trace (self times) and bench_e2e's work counters.

  python3 bench/e2e/run.py --workload live_tick --seed 1 --seconds 20 --trace 0
  python3 bench/e2e/run.py --workload all --seed 3 --save runs.jsonl
  python3 bench/e2e/run.py --compare parent.jsonl change.jsonl
  python3 bench/e2e/run.py --smoke        # every workload in a few seconds
  python3 bench/e2e/run.py --self-test    # the arithmetic this file relies on

Raw results and traces land in build-bench/results/. The exit code is
nonzero when a check failed, the build failed, or the tree is incomplete.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("live_tick", "search_open_loop", "batch_mine")
ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / "build-bench"
RESULTS_DIR = BUILD_DIR / "results"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SECONDS = 3
MIN_TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it
PERCENTILE_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(Exception):
    """A run that cannot produce a result (no source, a failed build, a crash)."""


# ---------------------------------------------------------------- statistics

def percentile(values, pct):
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_TAIL_SAMPLES beyond it."""
    for pct in PERCENTILE_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct
    return None


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_time_ns(span, children):
    """A span's duration minus the part of it its child spans cover."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - covered_ns([c for c in clipped if c[1] > c[0]])


def spread(values):
    """Interquartile distance as a share of the median (statistics.quantiles)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def compare_metric(parent, change, better, bound):
    """Verdict for one metric: 'ok', 'REGRESSION' or 'unresolved'.

    The change regresses when its median is worse than the parent's by more
    than `bound` (a share of the parent's median). When either side's
    run-to-run spread exceeds the bound the comparison cannot resolve that,
    unless every change run beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    worse = sign * (med_c - med_p) / med_p if med_p else 0.0
    if max(spread(parent), spread(change)) > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return ("ok" if all_better else "unresolved"), worse
    return ("REGRESSION" if worse > bound else "ok"), worse


# --------------------------------------------------------- metric extraction

def spans_by_name(trace):
    """{name: [(start_ns, end_ns, self_ns)]} for every closed span."""
    names = trace["names"]
    spans = trace["spans"]
    children = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        if end < 0:
            continue
        own = self_time_ns((start, end), children.get(idx, []))
        out.setdefault(names[name], []).append((start, end, own))
    return out


def span_stat(spans, name, pct, scale):
    durations = [(e - s) * scale for s, e, _ in spans.get(name, [])]
    return percentile(durations, pct) if durations else 0.0


def end_to_end(result):
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "latency_p50_ms": statistics.median(result["latency_ms"]),
        "throughput_per_s": statistics.median(result["throughput_per_s"]),
        "rss_peak_mb": result["rss_peak_mb"],
    }


def per_layer(result, trace):
    spans = spans_by_name(trace)
    ms, us = 1e-6, 1e-3
    counters = result["counters"]
    samples = result["samples"]

    def sample_stat(name, pct):
        values = samples.get(name, [])
        return percentile(values, pct) if values else 0.0

    # Every traced run reports the whole per-layer list of BENCHMARK.json; a
    # layer the workload does not exercise reads 0.
    metrics = {
        "search.base_p50_us": sample_stat("query_base_us", 50),
        "search.base_p999_us": sample_stat("query_base_us", 99.9),
        "search.peak_p50_us": sample_stat("query_peak_us", 50),
        "search.peak_p999_us": sample_stat("query_peak_us", 99.9),
        "search.wait_p99_us": sample_stat("wait_us", 99),
        "stream.tokenizer.tokenize_ms":
            span_stat(spans, "stream.tokenizer.tokenize", 50, ms),
        "stream.feed_runtime.prepare_ms":
            span_stat(spans, "stream.feed_runtime.prepare", 50, ms),
        "stream.feed_runtime.refresh_select_ms":
            span_stat(spans, "stream.feed_runtime.refresh_select", 50, ms),
        "stream.feed_runtime.stage_ms":
            span_stat(spans, "stream.feed_runtime.stage", 50, ms),
        "stream.feed_runtime.commit_ms":
            span_stat(spans, "stream.feed_runtime.commit", 50, ms),
        "index.threshold_algorithm.service_p50_us":
            span_stat(spans, "index.threshold_algorithm.search", 50, us),
        "index.threshold_algorithm.service_p99_us":
            span_stat(spans, "index.threshold_algorithm.search", 99, us),
        "common.published_ptr.generation_switch_p99_us":
            sample_stat("generation_switch_us", 99),
        "stream.frequency.build_ms":
            span_stat(spans, "stream.frequency.build", 50, ms),
        "core.batch_miner.combinatorial_ms":
            span_stat(spans, "core.batch_miner.combinatorial", 50, ms),
        "core.batch_miner.regional_ms":
            span_stat(spans, "core.batch_miner.regional", 50, ms),
    }
    for name in (
            "stream.feed_runtime.dirty_terms",
            "stream.feed_runtime.refresh_candidates",
            "stream.feed_runtime.refreshed_terms",
            "stream.feed_runtime.search_terms",
            "history.cold_tier.folded_terms",
            "stream.frequency.postings_mb",
            "index.inverted_index.search_postings",
            "core.batch_miner.standing_patterns",
            "index.threshold_algorithm.sorted_accesses",
            "index.threshold_algorithm.random_accesses",
            "index.threshold_algorithm.early_terminated_pct",
            "core.batch_miner.terms_mined",
            "core.batch_miner.combinatorial_patterns",
            "core.batch_miner.regional_windows",
            "common.parallel.threads_used",
            "audit.quiet_slots_structural_drift",
            "audit.quiet_slots_rounding_drift"):
        metrics[name] = counters.get(name, 0.0)
    return metrics


def tick_shares(trace):
    """Each child phase's share of the summed feed.tick durations, in %."""
    names = trace["names"]
    spans = trace["spans"]
    roots = {i for i, s in enumerate(spans)
             if names[s[0]] == "feed.tick" and s[2] >= 0}
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    shares = {}
    for name, start, end, parent, _ in spans:
        if parent in roots and end >= 0:
            shares[names[name]] = shares.get(names[name], 0) + end - start
    return {n: 100.0 * d / total for n, d in shares.items()} if total else {}


def details(result, trace):
    """Every other number worth printing: tails with their sample counts,
    per-rate latencies, generator lateness, trace coverage."""
    rows = []

    def timing(name, values, unit):
        if not values:
            return
        rows.append((name + "_p50", statistics.median(values), unit))
        pct = tail_percentile(len(values))
        if pct is not None:
            label = ("%g" % pct).replace(".", "")
            rows.append((name + "_p" + label, percentile(values, pct), unit))
        rows.append((name + "_samples", len(values), "count"))

    samples = result["samples"]
    timing("latency_ms", result["latency_ms"], "ms")
    timing("freshness_ms", samples.get("freshness_ms", []), "ms")
    timing("query_base_us", samples.get("query_base_us", []), "us")
    timing("query_peak_us", samples.get("query_peak_us", []), "us")
    timing("generator_late_us", samples.get("wait_us", []), "us")
    for name in ("stream.feed_runtime.ticks",
                 "index.threshold_algorithm.queries",
                 "audit.remined_slots_checked"):
        if name in result["counters"]:
            rows.append((name, result["counters"][name], "count"))
    rates = result["throughput_per_s"]
    rows.append(("throughput_p50", statistics.median(rates),
                 result["throughput_unit"]))
    rows.append(("throughput_samples", len(rates), "count"))
    if trace is not None:
        spans = spans_by_name(trace)
        ticks = spans.get("feed.tick", [])
        if ticks:
            rows.append(("trace.feed_tick_covered_pct", statistics.median(
                [100.0 - 100.0 * own / (e - s) for s, e, own in ticks]), "%"))
            for name, share in tick_shares(trace).items():
                rows.append(("trace.tick_share." + name, share, "%"))
        rows.append(("trace.spans", len(trace["spans"]), "count"))
    return rows


# ------------------------------------------------------------------ running

def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds bench_e2e; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "stburst").is_dir():
        raise BenchError("the stburst sources are missing under %s" % ROOT)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                      "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return BUILD_DIR / "bench_e2e"


def run_workload(binary, workload, seed, seconds, traced, smoke):
    """Runs bench_e2e once; returns (result, trace or None)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = "%s-s%d-%gs%s" % (workload, seed, seconds, "-smoke" if smoke else "")
    out = RESULTS_DIR / (stem + ("-traced" if traced else "") + ".json")
    trace_path = RESULTS_DIR / (stem + ".trace.json")
    for stale in (out, trace_path) if traced else (out,):
        if stale.exists():
            stale.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--out", str(out)]
    if traced:
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %ds" % (workload, RUN_TIMEOUT_S))
    if not out.is_file():
        raise BenchError("%s exited %d without a result" %
                         (workload, done.returncode))
    with open(out) as f:
        result = json.load(f)
    result["exit_code"] = done.returncode
    trace = None
    if traced:
        with open(trace_path) as f:
            trace = json.load(f)
    return result, trace


def untraced_twin(workload, seed, seconds, smoke):
    stem = "%s-s%d-%gs%s" % (workload, seed, seconds, "-smoke" if smoke else "")
    path = RESULTS_DIR / (stem + ".json")
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def report(bench, workload, seed, seconds, traced, smoke, binary, save):
    """Runs, prints every metric, returns the JSON line and exit code."""
    result, trace = run_workload(binary, workload, seed, seconds, traced, smoke)
    listed = bench["per_layer"] if traced else bench["end_to_end"]
    values = per_layer(result, trace) if traced else end_to_end(result)
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            raise BenchError("BENCHMARK.json names an unknown metric: %s" %
                             m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%s %s %.6g %s" % (workload, m["name"], values[m["name"]],
                                 m["unit"]))
    if traced:
        for name, value in end_to_end(result).items():
            print("%s traced.%s %.6g" % (workload, name, value))
    for name, value, unit in details(result, trace):
        print("%s %s %.6g %s" % (workload, name, value, unit))
    if traced:
        twin = untraced_twin(workload, seed, seconds, smoke)
        if twin is not None:
            base = statistics.median(twin["latency_ms"])
            now = statistics.median(result["latency_ms"])
            print("%s trace.overhead_latency_p50_pct %.3g %%" %
                  (workload, 100.0 * (now - base) / base))
    for failure in result["failures"]:
        print("%s FAILED %s" % (workload, failure))
    correct = result["exit_code"] == 0 and result["failed"] == 0
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    if save:
        with open(save, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed,
                                "traced": traced, "seconds": seconds,
                                "correct": correct, "metrics": metrics}) + "\n")
    return line, 0 if correct else 1


def compare(bench, path_a, path_b):
    """Applies the BENCHMARK.json bounds per workload row; 1 on regression."""
    def load(path):
        runs = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    if not rec["traced"]:
                        runs.setdefault(rec["workload"], []).append(rec)
        return runs

    parent, change = load(path_a), load(path_b)
    status = 0
    print("%-17s %-17s %12s %12s %8s %8s %6s  %s" % (
        "workload", "metric", "parent_med", "change_med", "worse%",
        "spread%", "bound%", "verdict"))
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in parent[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in change[workload]]
            verdict, worse = compare_metric(a, b, m["better"], m["bound"])
            if verdict == "REGRESSION":
                status = 1
            print("%-17s %-17s %12.6g %12.6g %8.2f %8.2f %6.1f  %s" % (
                workload, m["name"], statistics.median(a),
                statistics.median(b), 100 * worse,
                100 * max(spread(a), spread(b)), 100 * m["bound"], verdict))
    return status


def self_test():
    """Unit checks of the percentile rule, self-time arithmetic and bounds."""
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5
    assert percentile(list(range(101)), 99) == 99
    # The tail needs >= 10 samples beyond it: 24k samples support p99.9
    # (24 beyond), 40 support p75 (10 beyond), 19 support none.
    assert tail_percentile(24000) == 99.9
    assert tail_percentile(96000) == 99.9
    assert tail_percentile(100000) == 99.99
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) is None
    # Union of overlapping children; children clipped to the parent.
    assert covered_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert covered_ns([(0, 10), (2, 3)]) == 10
    assert self_time_ns((0, 100), [(10, 20), (15, 30), (90, 120)]) == 70
    assert self_time_ns((0, 100), []) == 100
    trace = {"names": ["root", "child"],
             "spans": [[0, 0, 100, -1, 7], [1, 10, 40, 0, 7],
                       [1, 50, 60, 0, 7], [1, 200, -1, -1, 8]]}
    spans = spans_by_name(trace)
    assert spans["root"] == [(0, 100, 60)]
    assert len(spans["child"]) == 2  # the unclosed span is dropped
    ticks = {"names": ["feed.tick", "prepare", "stage"],
             "spans": [[0, 0, 100, -1, 0], [1, 0, 30, 0, 0], [2, 30, 90, 0, 0],
                       [0, 100, 200, -1, 1], [1, 100, 130, 3, 1],
                       [2, 130, 190, 3, 1]]}
    assert tick_shares(ticks) == {"prepare": 30.0, "stage": 60.0}
    # Bounds: 10% worse than a steady parent regresses past a 5% bound...
    steady = [100, 100.5, 99.5, 100.2, 99.8]
    assert compare_metric(steady, [110] * 5, "lower", 0.05)[0] == "REGRESSION"
    assert compare_metric(steady, [103] * 5, "lower", 0.05)[0] == "ok"
    # ...a higher-is-better metric regresses when it drops...
    assert compare_metric(steady, [90] * 5, "higher", 0.05)[0] == "REGRESSION"
    assert compare_metric(steady, [110] * 5, "higher", 0.05)[0] == "ok"
    # ...and a parent noisier than the bound cannot resolve a 4% change,
    # unless every change run beats every parent run.
    noisy = [80, 90, 100, 110, 120]
    assert compare_metric(noisy, [104] * 5, "lower", 0.05)[0] == "unresolved"
    assert compare_metric(noisy, [70] * 5, "lower", 0.05)[0] == "ok"
    # statistics.quantiles' default (exclusive) rule: q1 1.5, q3 4.5.
    assert spread([1, 2, 3, 4, 5]) == 1.0
    print("self-test ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="FILE",
                        help="append each run's metrics to FILE (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    # A SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running build step or bench_e2e before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        bench = load_benchmark()
        if args.compare:
            return compare(bench, *args.compare)
        binary = build()
        seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                                   else bench["run_seconds"])
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        status = 0
        for workload in workloads:
            line, code = report(bench, workload, args.seed, seconds,
                                bool(args.trace), args.smoke, binary,
                                args.save)
            status = max(status, code)
            print(json.dumps(line), flush=True)
        return status
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
