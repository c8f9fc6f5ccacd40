#!/usr/bin/env python3
"""Compare two BENCH_*.json perf logs and flag regressions.

The stburst bench harnesses (bench_micro, bench_fig7, bench_fig8) write
machine-readable perf JSON with the schema

    {"benchmark": "bench_micro",
     "corpus": {"documents": D, "streams": n, "terms": V, "timeline": L},
     "results": [{"op": "frequency_build", "ns_per_op": 81.3e6, "items": N},
                 ...]}

This tool joins two such files on "op" and reports the candidate/baseline
ratio per op. Ops slower than baseline by more than --threshold (default
10%) are regressions; any regression makes the exit status nonzero so CI
can gate on it (--soft downgrades regressions to warnings).

A baseline op missing from the candidate run always fails, --soft
included: a deleted or renamed op must take its baseline entry with it,
or the stale entry outlives the benchmark. An op only the candidate has
runs ungated and warns until the baseline is refreshed.

Usage:
    diff_bench.py BASELINE.json CANDIDATE.json [--threshold 0.10]
    diff_bench.py --self-test
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile


def load_results(path):
    """Returns {op: ns_per_op} from one perf JSON file."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("results", []):
        out[entry["op"]] = float(entry["ns_per_op"])
    return out


def diff(baseline, candidate, threshold):
    """Compares {op: ns} maps; returns (report_lines, regressions, missing).

    `missing` lists the baseline ops absent from the candidate run.
    """
    lines = []
    regressions = []
    common = [op for op in baseline if op in candidate]
    for op in common:
        base, cand = baseline[op], candidate[op]
        if base <= 0:
            continue
        ratio = cand / base
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            regressions.append(op)
        elif ratio < 1.0 - threshold:
            verdict = "improved"
        lines.append("%-36s %12.0f -> %12.0f ns/op  %6.2fx  %s"
                     % (op, base, cand, ratio, verdict))
    only_base = sorted(set(baseline) - set(candidate))
    only_cand = sorted(set(candidate) - set(baseline))
    if only_base:
        # Fatal even under --soft: a deleted or renamed op must drop its
        # baseline entry in the same change, or the stale entry outlives it.
        lines.append("ERROR: %d op(s) in the baseline are missing from the "
                     "candidate run: %s — deleted benchmark or renamed op? "
                     "(gated; drop or rename the baseline entry)"
                     % (len(only_base), ", ".join(only_base)))
    if only_cand:
        # Symmetric with the vanished-op case: an op the baseline has never
        # seen runs ungated, so a silently passing new benchmark would stay
        # ungated forever if this stayed quiet.
        lines.append("WARNING: %d op(s) in the candidate are missing from the "
                     "baseline: %s — new benchmark running ungated? "
                     "(not gated; refresh the baseline to start gating it)"
                     % (len(only_cand), ", ".join(only_cand)))
    return lines, regressions, only_base


def run_main(baseline, candidate, *flags):
    """Exit status of a quiet main() over two temporary perf files."""
    paths = []
    try:
        for results in (baseline, candidate):
            fd, path = tempfile.mkstemp(suffix=".json")
            paths.append(path)
            with os.fdopen(fd, "w") as f:
                json.dump({"results": [{"op": op, "ns_per_op": ns}
                                       for op, ns in results.items()]}, f)
        with contextlib.redirect_stdout(io.StringIO()):
            return main(list(flags) + paths)
    finally:
        for path in paths:
            os.remove(path)


def self_test():
    baseline = {"a": 100.0, "b": 200.0, "gone": 1.0}
    candidate = {"a": 105.0, "b": 400.0, "new": 1.0}

    lines, regressions, missing = diff(baseline, candidate, threshold=0.10)
    assert regressions == ["b"], regressions          # 2x slower: flagged
    # A vanished op is an error that names the op; it is reported apart
    # from the regressions because it gates even under --soft. A
    # candidate-only op warns — it runs ungated until the baseline is
    # refreshed — and never gates.
    errors = [l for l in lines if l.startswith("ERROR")]
    assert len(errors) == 1 and "gone" in errors[0], lines
    assert missing == ["gone"], missing
    assert "gone" not in regressions
    warnings = [l for l in lines if l.startswith("WARNING")]
    assert len(warnings) == 1 and "new" in warnings[0], lines
    assert "missing from the baseline" in warnings[0], lines
    assert "new" not in regressions

    err_all, none, gone = diff(baseline, {"a": 109.0}, threshold=0.10)
    assert none == [], none                           # within threshold: ok
    assert gone == ["b", "gone"], gone
    assert any(l.startswith("ERROR") and "b" in l for l in err_all)

    _, loose, _ = diff(baseline, candidate, threshold=2.0)
    assert loose == [], loose                         # threshold respected

    # Exit status: a missing baseline op fails with and without --soft; a
    # candidate-only op or a regression under --soft does not.
    all_ops = dict(candidate, gone=1.0)
    assert run_main(baseline, candidate) == 1
    assert run_main(baseline, candidate, "--soft") == 1
    assert run_main(baseline, all_ops, "--soft") == 0
    assert run_main(baseline, all_ops) == 1           # b regressed
    assert run_main(baseline, dict(baseline, new=1.0)) == 0

    print("diff_bench.py self-test OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files; nonzero exit on regression.")
    parser.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("candidate", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown tolerated per op "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--soft", action="store_true",
                        help="report regressions as warnings and exit 0; "
                             "tooling errors (unreadable/malformed files) "
                             "and baseline ops missing from the candidate "
                             "still exit nonzero — for CI smoke jobs on "
                             "shared runners")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required "
                     "(or use --self-test)")

    baseline = load_results(args.baseline)
    candidate = load_results(args.candidate)
    lines, regressions, missing = diff(baseline, candidate, args.threshold)
    print("diff_bench: %s -> %s (threshold %.0f%%)"
          % (args.baseline, args.candidate, args.threshold * 100))
    for line in lines:
        print("  " + line)
    if missing:
        print("FAIL: %d baseline op(s) missing from the candidate run: %s"
              % (len(missing), ", ".join(missing)))
        return 1
    if regressions:
        if args.soft:
            print("WARNING: %d op(s) regressed >%.0f%%: %s (non-gating: --soft)"
                  % (len(regressions), args.threshold * 100,
                     ", ".join(regressions)))
            return 0
        print("FAIL: %d op(s) regressed >%.0f%%: %s"
              % (len(regressions), args.threshold * 100,
                 ", ".join(regressions)))
        return 1
    print("OK: no op regressed more than %.0f%%" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
