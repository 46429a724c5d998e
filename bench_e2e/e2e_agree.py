#!/usr/bin/env python3
"""Checks that two sets of bench_e2e runs agree within BENCHMARK.json's bounds.

    python3 bench_e2e/e2e_agree.py --a A.json... --b B.json... [--benchmark F]
    python3 bench_e2e/e2e_agree.py --self-test

Each file is what `run.py --json` wrote: one run's record, or a list of them
(`--workload all`). Traced records are skipped. For every (workload,
end-to-end metric) the tool takes the median of each set and the change from
A to B, signed so that positive means worse ("better": "lower" metrics
growing, "higher" metrics shrinking). It prints one row per workload: each
metric's change, then the spread of each set (distance between the first
and third quartile over the median, the largest over the workload's
metrics). A change larger than the metric's bound is marked with `!`, and
the exit code is 1 if any is.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_records(paths):
    """{workload: {metric: [values]}} over the untraced records in paths."""
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        for rec in data if isinstance(data, list) else [data]:
            if rec.get("trace"):
                continue
            metrics = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(bench, set_a, set_b):
    """Rows of (workload, [(metric, worse, bound)], spread_a, spread_b) and
    whether every change is within its bound."""
    rows, ok = [], True
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = set_a.get(workload, {}), set_b.get(workload, {})
        cells, spreads_a, spreads_b = [], [0.0], [0.0]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if not a.get(name) or not b.get(name):
                cells.append((name, None, metric["bound"]))
                ok = False
                continue
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            change = (mb - ma) / ma if ma else 0.0
            worse = change if metric["better"] == "lower" else -change
            cells.append((name, worse, metric["bound"]))
            ok = ok and worse <= metric["bound"]
            if name != "setup_s":
                spreads_a.append(spread(a[name]))
                spreads_b.append(spread(b[name]))
        rows.append((workload, cells, max(spreads_a), max(spreads_b)))
    return rows, ok


def format_rows(rows):
    lines = []
    for workload, cells, sa, sb in rows:
        parts = []
        for name, worse, bound in cells:
            if worse is None:
                parts.append(f"{name} missing!")
            else:
                mark = "!" if worse > bound else ""
                parts.append(f"{name} {100 * worse:+.1f}%{mark}")
        lines.append(f"{workload:14s} " + "  ".join(parts) +
                     f"  | spread A {100 * sa:.1f}% B {100 * sb:.1f}%")
    return lines


def self_test():
    bench = {
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "t", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "q", "unit": "1", "better": "higher", "bound": 0.05},
        ],
    }

    def record(workload, t, q, trace=False):
        return {"workload": workload, "seed": 1, "trace": trace,
                "result": {"metrics": {"t": {"value": t, "unit": "s"},
                                       "q": {"value": q, "unit": "1"}}}}

    def run(a_records, b_records):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, recs in enumerate((a_records, b_records)):
                path = os.path.join(tmp, f"{i}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(recs, f)
                paths.append(path)
            return compare(bench, load_records([paths[0]]),
                           load_records([paths[1]]))

    base = [record("w1", t, 0.8) for t in (1.0, 1.02, 0.98)] + \
           [record("w2", t, 0.5) for t in (2.0, 2.1, 1.9)]
    cases = [
        ("identical sets agree", base, base, True),
        ("slower within bound agrees",
         base, [record("w1", 1.08, 0.8)] + base[3:], True),
        ("slower beyond bound is caught",
         base, [record("w1", 1.2, 0.8)] + base[3:], False),
        ("faster never fails", base, [record("w1", 0.5, 0.8)] + base[3:], True),
        ("higher-better drop is caught",
         base, [record("w1", 1.0, 0.7)] + base[3:], False),
        ("missing workload is caught", base, base[:3], False),
        ("traced records are ignored",
         base, base + [record("w1", 9.0, 0.1, trace=True)], True),
    ]
    failures = 0
    for name, a, b, want in cases:
        _, ok = run(a, b)
        status = "ok" if ok == want else "FAIL"
        failures += ok != want
        print(f"  {status:4s} {name}")
    rows, _ = run(base, base)
    medians_ok = abs(rows[0][2] - spread([1.0, 1.02, 0.98])) < 1e-12
    failures += not medians_ok
    print(f"  {'ok' if medians_ok else 'FAIL':4s} spread is IQR over median")
    print("self-test:", "OK" if failures == 0 else f"{failures} FAILED")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", nargs="+", help="run records of the first set")
    ap.add_argument("--b", nargs="+", help="run records of the second set")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b:
        ap.error("--a and --b are required")
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    rows, ok = compare(bench, load_records(args.a), load_records(args.b))
    print("\n".join(format_rows(rows)))
    print("agree: " + ("yes" if ok else "NO (a change exceeds its bound)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
