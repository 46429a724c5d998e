#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload (or all of them).

    python3 bench_e2e/run.py --workload <name|all> [--seed S] [--seconds T]
                             [--trace 0|1] [--json PATH] [--spans PATH]
                             [--record-golden]

Run from the repository root. The first run configures and builds the engine
and the benchmark in .bench_build/ (Release); later runs only rebuild what
changed. Each workload runs in its own process, so peak RSS is per workload.
The last line of standard output is the run's JSON result; build output goes
to standard error. Exit code: 0 when every check passed, 1 when a check
failed, 2 when the build or the run itself failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
GOLDEN = os.path.join(HERE, "e2e_golden.txt")
RUN_TIMEOUT_S = 170


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_one(args, workload, json_path, spans_path):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    if args.record_golden:
        cmd.append("--record-golden")
    if json_path:
        cmd += ["--json", json_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e {workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2, None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    if result is None:
        sys.stdout.write(proc.stdout)
        print(f"bench_e2e {workload}: exit {proc.returncode}, no result line",
              file=sys.stderr)
        return 2, None
    return proc.returncode, (lines, result)


def suffixed(path, workload):
    if not path:
        return None
    stem, ext = os.path.splitext(path)
    return f"{stem}.{workload}{ext}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    ap.add_argument("--spans")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, out = run_one(args, args.workload, args.json, args.spans)
        if out is not None:
            print("\n".join(out[0]))
        return code

    worst, combined, records = 0, None, []
    for name in workload_names():
        part = os.path.join(BUILD, f"result.{name}.json")
        code, out = run_one(args, name, part, suffixed(args.spans, name))
        worst = max(worst, code)
        if out is None:
            continue
        print("\n".join(out[0][:-1]))
        with open(part, encoding="utf-8") as f:
            records.append(json.load(f))
        res = out[1]
        if combined is None:
            combined = {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(records, f, indent=1)
    if combined is None:
        return 2
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
