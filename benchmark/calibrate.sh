#!/usr/bin/env bash
# Calibration: runs every workload in fresh processes and writes the
# spread of every metric to benchmark/CALIBRATION.md, next to the bounds
# BENCHMARK.json sets.
#
#   benchmark/calibrate.sh                 # 5 runs at seed 1, then 5 at seed 2
#   benchmark/calibrate.sh 1 1 2 3 4 5 6 7 8 9 10   # one run at each seed
#
# Arguments: runs per seed, then the seeds. Runs are split into a first
# and a second half in order (seed 1's runs, then seed 2's, by default).
# A gated metric is "steady" when its quartile spread over all runs is
# within a third of its bound and the second half's median is within the
# bound of the first's; "within bound" when the spread only stays within
# the bound itself; "FAIL" otherwise (setup_s is judged on the shift
# alone). One traced run per workload adds the per-layer values. Exit
# status 1 on a FAIL or an incorrect run.
# Run from anywhere; everything is written under .bench_build/ except
# CALIBRATION.md.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
shift || true
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then seeds=(1 2); fi

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=.bench_build/calibration
rm -rf "$out"
mkdir -p "$out"

for w in $workloads; do
  n=0
  for s in "${seeds[@]}"; do
    for _ in $(seq "$runs"); do
      n=$((n + 1))
      echo "calibrate: $w seed $s run $n" >&2
      python3 benchmark/run.py --workload "$w" --seed "$s" \
        --seconds "$seconds" --trace 0 > "$out/$w.$n.log"
      cp ".bench_build/runs/$w-$s-0.json" "$out/$w.$n.json"
    done
  done
  echo "calibrate: $w traced" >&2
  python3 benchmark/run.py --workload "$w" --seed "${seeds[0]}" \
    --seconds "$seconds" --trace 1 > "$out/$w.traced.log"
  cp ".bench_build/runs/$w-${seeds[0]}-1.json" "$out/$w.traced.json"
done

python3 - "$out" "$runs" "${seeds[@]}" <<'EOF'
import glob, json, os, statistics, sys

out, runs, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
gated = {m["name"]: m for m in spec["end_to_end"]}
layer = {m["name"] for m in spec["per_layer"]}

def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3

def g(x):
    return f"{x:.6g}"

lines = [
    "# Calibration",
    "",
    "Written by `benchmark/calibrate.sh " + " ".join([runs] + seeds) + "`: "
    f"{runs} run(s) per seed at seeds {', '.join(seeds)}, each in a fresh "
    f"process, {spec['run_seconds']} s of ops per run. `spread` is "
    "(q3 - q1) / median over all runs, with the quartiles of Python's "
    "`statistics.quantiles(n=4)`; `shift` is how much worse the second "
    "half of the runs' median is than the first half's, as a share of "
    "the first (negative: better). A gated metric is `steady` when its "
    "spread is within a third of its bound and its shift within the bound, "
    "`within bound` when its spread is only within the bound, and `FAIL` "
    "otherwise; `setup_s` is judged on its shift alone. Ungated rows show "
    "the spread of everything an untraced run prints; the simulator's "
    "`proc.cpu_us_per_op` (nearly the same work every run) shows how much "
    "the machine's own speed moved. The per-layer table comes from one "
    "traced run.",
    "",
]
ok = True
loose = 0
for w in spec["workloads"]:
    name = w["name"]
    reports = []
    for path in sorted(glob.glob(f"{out}/{name}.[0-9]*.json"),
                       key=lambda p: int(p.split(".")[-2])):
        reports.append(json.load(open(path)))
    traced = json.load(open(f"{out}/{name}.traced.json"))
    correct = all(r["correct"] and r["failed"] == 0 for r in reports)
    ok = ok and correct and traced["correct"]
    lines += [f"## {name}", "", f"Why: {w['why']}.", "",
              f"{len(reports)} untraced runs, all correct: "
              f"{'yes' if correct else 'NO'}; traced run correct: "
              f"{'yes' if traced['correct'] else 'NO'}.", "",
              "| metric | unit | bound | median | q1 | q3 | min | max | "
              "spread | shift | verdict |",
              "|---|---|---|---|---|---|---|---|---|---|---|"]
    half = len(reports) // 2
    for metric in sorted(reports[0]["metrics"]):
        v = [r["metrics"][metric]["value"] for r in reports]
        unit = reports[0]["metrics"][metric]["unit"]
        q1, med, q3 = quartiles(v)
        spread = (q3 - q1) / med if med else 0.0
        verdict, bound, shift_s = "", "", ""
        if metric in gated and half > 0:
            m = gated[metric]
            bound = g(m["bound"])
            a = statistics.median(v[:half])
            b = statistics.median(v[half:])
            worse = (b - a) if m["better"] == "lower" else (a - b)
            shift = worse / a if a else 0.0
            shift_s = f"{shift:+.4f}"
            exempt = metric == "setup_s"
            if shift > m["bound"] or (not exempt and spread > m["bound"]):
                verdict = "FAIL"
                ok = False
            elif not exempt and spread > m["bound"] / 3:
                verdict = "within bound"
                loose += 1
            else:
                verdict = "steady"
        lines.append(f"| `{metric}` | {unit} | {bound} | {g(med)} | {g(q1)} | "
                     f"{g(q3)} | {g(min(v))} | {g(max(v))} | {spread:.4f} | "
                     f"{shift_s} | {verdict} |")
    lines += ["", "Per-layer (traced run, seed " + seeds[0] + "):", "",
              "| metric | unit | value |", "|---|---|---|"]
    for metric in sorted(traced["metrics"]):
        if metric in layer:
            m = traced["metrics"][metric]
            lines.append(f"| `{metric}` | {m['unit']} | {g(m['value'])} |")
    lines.append("")
lines.append("Overall: " + ("FAILURES above." if not ok else
             "every gated metric is within its bound; "
             f"{loose} spread(s) exceed a third of it."))
open("benchmark/CALIBRATION.md", "w").write("\n".join(lines) + "\n")
print("\n".join(lines))
sys.exit(0 if ok else 1)
EOF
