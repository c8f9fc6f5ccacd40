#!/usr/bin/env python3
"""Compare bench_micro runs of a parent and a change build, op by op.

bench_micro writes BENCH_micro.json:

    {"benchmark": "bench_micro",
     "corpus": {"documents": D, "streams": n, "terms": V, "timeline": L},
     "results": [{"op": "frequency_build", "ns_per_op": 81.3e6, "items": N},
                 ...]}

Run the two builds alternately, keeping each run's file as
PARENT_DIR/BENCH_micro.<i>.json or CHANGE_DIR/BENCH_micro.<i>.json (every
BENCH_micro*.json in a directory is one run). Each op's verdict — ok,
REGRESSION or unresolved — is `compare_metric` of bench/e2e/run.py, the
rule the end-to-end benchmark applies, at the 0.25 bound BENCHMARK.json
gives its wall-time metrics. An op whose `items` differ between any two
runs times different work and fails the gate; an op only one side ran is
listed but not gated. The exit code is 1 on any REGRESSION or items
mismatch.

Usage:
    diff_bench.py PARENT_DIR CHANGE_DIR
    diff_bench.py --self-test
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

BOUND = 0.25


def load_compare_metric():
    path = Path(__file__).resolve().parent / "e2e" / "run.py"
    spec = importlib.util.spec_from_file_location("e2e_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_metric


def load_runs(directory):
    """{op: [(ns_per_op, items), ...]} over the runs in `directory`."""
    paths = sorted(Path(directory).glob("BENCH_micro*.json"))
    if not paths:
        sys.exit("diff_bench: no BENCH_micro*.json in %s" % directory)
    runs = {}
    for path in paths:
        with open(path) as f:
            for entry in json.load(f)["results"]:
                runs.setdefault(entry["op"], []).append(
                    (float(entry["ns_per_op"]), entry["items"]))
    return runs


def compare(parent, change):
    """Report lines and the ops that fail the gate."""
    compare_metric = load_compare_metric()
    lines, failures = [], []
    for op in list(parent) + [op for op in change if op not in parent]:
        if op not in change or op not in parent:
            side = "parent" if op in parent else "change"
            lines.append("%-34s only in the %s runs (not gated)" % (op, side))
            continue
        items = sorted({n for _, n in parent[op] + change[op]})
        if len(items) > 1:
            lines.append("%-34s items differ: %s" % (op, items))
            failures.append(op)
            continue
        verdict, worse = compare_metric([ns for ns, _ in parent[op]],
                                        [ns for ns, _ in change[op]],
                                        "lower", BOUND)
        if verdict == "REGRESSION":
            failures.append(op)
        lines.append("%-34s %3d/%-3d %+8.1f%%  %s" % (
            op, len(parent[op]), len(change[op]), 100 * worse, verdict))
    return lines, failures


def run_main(parent, change):
    """Exit status and output of main() over two directories of runs.

    `parent` and `change` are lists of runs, each {op: (ns_per_op, items)}.
    """
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for name, runs in (("parent", parent), ("change", change)):
            d = Path(tmp) / name
            d.mkdir()
            for i, run in enumerate(runs):
                results = [{"op": op, "ns_per_op": ns, "items": n}
                           for op, (ns, n) in run.items()]
                (d / ("BENCH_micro.%d.json" % i)).write_text(
                    json.dumps({"results": results}))
            dirs.append(str(d))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(dirs)
        return status, out.getvalue()


def self_test():
    steady = [{"a": (100.0 + i, 8), "b": (200.0 - i, 8)} for i in range(5)]

    status, out = run_main(steady, steady)
    assert status == 0 and "REGRESSION" not in out, out

    slow_b = [dict(run, b=(2 * run["b"][0], 8)) for run in steady]
    status, out = run_main(steady, slow_b)
    regressed = [l.split()[0] for l in out.splitlines() if "REGRESSION" in l]
    assert status == 1 and regressed == ["b"], out

    # A parent noisier than the bound cannot resolve a 4% move.
    noisy = [{"a": (ns, 8)} for ns in (60.0, 80.0, 100.0, 120.0, 140.0)]
    status, out = run_main(noisy, [{"a": (104.0, 8)}] * 5)
    assert status == 0 and "unresolved" in out, out

    other_items = [dict(run, a=(run["a"][0], 9)) for run in steady]
    status, out = run_main(steady, other_items)
    assert status == 1 and "items differ" in out, out

    with_new = [dict(run, new=(1.0, 1)) for run in steady]
    status, out = run_main(steady, with_new)
    assert status == 0 and "new" in out and "only in the change" in out, out

    print("diff_bench.py self-test OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", nargs="?", help="directory of parent runs")
    parser.add_argument("change", nargs="?", help="directory of change runs")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("PARENT_DIR and CHANGE_DIR are required "
                     "(or use --self-test)")

    lines, failures = compare(load_runs(args.parent), load_runs(args.change))
    print("%-34s %7s %9s  %s" % ("op", "runs", "worse", "verdict"))
    for line in lines:
        print(line)
    if failures:
        print("FAIL: %s" % ", ".join(failures))
        return 1
    print("OK: no op regressed more than %.0f%%" % (100 * BOUND))
    return 0


if __name__ == "__main__":
    sys.exit(main())
