#!/usr/bin/env python3
"""Runs fastreg_benchmark on every workload for one second of ops,
untraced and traced, and checks that each --json report parses, is
correct, and names every metric BENCHMARK.json lists with its unit:
end-to-end metrics in the untraced report, per-layer metrics in the
traced one.

usage: check_output.py BINARY BENCHMARK_JSON WORKDIR
"""
import json
import os
import subprocess
import sys


def main():
    binary, spec_path, workdir = sys.argv[1:4]
    os.makedirs(workdir, exist_ok=True)
    with open(spec_path) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            out = os.path.join(workdir, f"{name}-{int(traced)}.json")
            cmd = [binary, "--workload", name, "--seed", "1", "--seconds", "1",
                   "--json", out]
            if traced:
                cmd += ["--trace", os.path.join(workdir, f"trace-{name}")]
            env = dict(os.environ, TMPDIR=workdir)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                                  timeout=600)
            if proc.returncode != 0:
                errors.append(f"{cmd}: exit {proc.returncode}")
                continue
            with open(out) as f:
                report = json.load(f)
            if not report["correct"] or report["failed"] != 0:
                errors.append(f"{name} traced={traced}: {report['verdict']}")
            for m in spec[section]:
                got = report["metrics"].get(m["name"])
                if got is None:
                    errors.append(f"{name}: missing {m['name']}")
                elif got["unit"] != m["unit"]:
                    errors.append(f"{name}: {m['name']} unit {got['unit']} "
                                  f"!= {m['unit']}")
    for e in errors:
        print("FAIL", e)
    print("ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
