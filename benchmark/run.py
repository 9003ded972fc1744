#!/usr/bin/env python3
"""Builds fastreg_benchmark from source and runs one workload.

usage (from the repository root):
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (CMake, Release). The run's report, the
persist directory and trace artifacts stay under .bench_build/ too. The
benchmark's own output is passed through; the last line of standard
output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). Exit status 0 only when the run was correct.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# A run is sized for --seconds of ops; this is its hard limit.
RUN_TIMEOUT_S = 170


def build():
    """Configures (cheap when cached) and builds the benchmark binary."""
    log = sys.stderr
    subprocess.run(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "fastreg_benchmark", "-j4"],
                   stdout=log, stderr=log, check=True)
    return BUILD / "fastreg_benchmark"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; one of {names}")
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"building the benchmark failed: {e}")

    runs = BUILD / "runs"
    tmp = BUILD / "tmp"
    runs.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    report_path = runs / f"{args.workload}-{args.seed}-{args.trace}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(report_path)]
    if args.trace:
        cmd += ["--trace", str(BUILD / "trace" / args.workload)]
    env = dict(os.environ, TMPDIR=str(tmp))
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"fastreg_benchmark did not finish in {RUN_TIMEOUT_S} s")
    if not report_path.exists():
        sys.exit(f"fastreg_benchmark exited {proc.returncode} without a report")

    report = json.loads(report_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = report["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            sys.exit(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json "
                     f"says {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if proc.returncode == 0 and report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
