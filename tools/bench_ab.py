#!/usr/bin/env python3
"""A/B-benchmarks the working tree against a parent commit.

usage (from the repository root):
  python3 tools/bench_ab.py PARENT [--pr N] [--pairs 3] [--trace-pairs 1]
                            [--workload W]... [--seed 1] [--seconds 10]
                            [--profile [--profile-workload W]]

PARENT's committed files are exported (git archive) to
.bench_build/ab/<sha>/, so each side runs its own benchmark/run.py, which
builds its own Release tree. Each pair runs both sides back to back on
one workload; half of the pairs run the parent first and half the change
first, so drift on a shared box does not always favour one side. After
the pairs come --trace-pairs traced pairs (--trace 1), alternating the
same way, for the per-layer metrics.

The report goes to BENCH_<N>.json at the repository root, or to
BENCH_<N>_seed<S>.json for --seed S other than 1, so a confirmation run on
a second seed keeps the first report (without --pr, to
.bench_build/ab/report.json):
  * both shas (the change's with a flag when the tree has uncommitted
    edits), nproc and the date;
  * for each workload and side: every run's end-to-end metrics, their
    median and IQR, the change/parent median ratio, how many pairs the
    change won, and whether the gain rule holds: the change won at least
    9 of every 10 pairs and its median beats the parent's by more than
    the parent's IQR;
  * every traced run's per-layer metrics, plus persist.replay_ms and
    persist.rejoin_ms from the run's full report; for each metric, both
    sides' median and IQR, the ratio and the traced pairs the change won
    (trace_summary), and each side's medians (trace);
  * each side's sim digests;
  * each side's line count per src/ subdirectory (src_lines), so a
    simplicity claim is data in the same file;
  * for each workload that prints a digest (the simulator), a sim_exact
    block: both sides' digests and traced sim.msgs_per_op and
    sim.envelopes_per_op, with the verdict "match" or "DIFFER". A change
    that claims only CPU must show "match";
  * for abd_read_d1 and abd_write_durable, a tcp_exact block: both
    sides' traced medians of the structural TCP counts, which must agree
    within 1% for the verdict "match" (abd_read_d1's frames and bytes
    out per op, abd_write_durable's records and log bytes per put), and
    persist.snapshots_per_kput, printed but not gated.

The exit status is 1 when a sim_exact or tcp_exact verdict is "DIFFER",
else 0: timings never gate.

--profile also builds each side's benchmark with -pg in that side's tree
(.bench_build/gprof/), runs --profile-workload (default sim_abd) once, and
stores the top 15 rows of `gprof -b -p` for each side. The -pg build is
linked with -static, so libc is profiled too: malloc, free, memmove and
the syscall wrappers show up as rows of their own (a dynamically linked
build folds their time into nothing). A TCP workload's samples come from
every thread of the process. The profile runs before the pairs, so a
failed profile build stops the tool before the long part. The percentages
include the atomicity check that runs after the timed window, and the two
sides run different numbers of ops, so compare rows across sides by their
self seconds, not by their percentages.

Timings on one box on one day compare only inside one file, as ratios.
"""
import argparse
import datetime
import io
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB = ROOT / ".bench_build" / "ab"
PROFILE_ROWS = 15
# Metrics a traced run's full report carries outside BENCHMARK.json's
# per_layer list: a durable change states its replay cost.
REPORT_EXTRAS = [
    {"name": "persist.replay_ms", "unit": "ms", "better": "lower"},
    {"name": "persist.rejoin_ms", "unit": "ms", "better": "lower"},
]
# Structural TCP counts per workload: gated ones must agree within
# TCP_TOLERANCE; shown ones are printed with both values.
TCP_EXACT = {
    "abd_read_d1": {"gated": ["net.frames_out_per_op",
                              "net.bytes_out_per_op"], "shown": []},
    "abd_write_durable": {"gated": ["persist.records_per_put",
                                    "persist.log_bytes_per_put"],
                          "shown": ["persist.snapshots_per_kput"]},
}
TCP_TOLERANCE = 0.01


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_parent(sha):
    """The parent's committed tree under .bench_build/ab/<sha>/."""
    dest = AB / sha
    if not (dest / "benchmark" / "run.py").exists():
        dest.mkdir(parents=True, exist_ok=True)
        data = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                              capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest)
    return dest


def run_side(root, workload, seed, seconds, trace):
    """One benchmark/run.py run; returns its JSON line and the digest.

    A traced run's metrics also get REPORT_EXTRAS from the report file
    run.py leaves under the side's .bench_build/runs/."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"{root}: run.py {workload} printed no JSON line")
    report = json.loads(lines[-1])
    digest = None
    for line in lines:
        m = re.match(r"digest (\S+) ", line)
        if m:
            digest = m.group(1)
    if trace:
        full = json.loads((root / ".bench_build" / "runs" /
                           f"{workload}-{seed}-1.json").read_text())
        for m in REPORT_EXTRAS:
            report["metrics"][m["name"]] = full["metrics"][m["name"]]
    return report, digest


def src_lines(root):
    """Line count of every file under each src/ subdirectory of `root`."""
    counts = {}
    for d in sorted(p for p in (root / "src").iterdir() if p.is_dir()):
        counts[d.name] = sum(f.read_bytes().count(b"\n")
                             for f in d.rglob("*") if f.is_file())
    counts["total"] = sum(counts.values())
    return counts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics, runs):
    """Median, IQR, ratio, pairs won and the gain rule for each of
    `metrics` (BENCHMARK.json entries)."""
    out = {}
    for m in metrics:
        name = m["name"]
        side = {s: [r["metrics"][name]["value"] for r in runs[s]]
                for s in ("parent", "change")}
        entry = {"unit": m["unit"], "better": m["better"]}
        for s, vals in side.items():
            q1, q2, q3 = quartiles(vals)
            entry[s] = {"median": q2, "iqr": q3 - q1}
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["ratio"] = c / p if p else None
        higher = m["better"] == "higher"
        entry["change_won"] = sum(
            (cv > pv) if higher else (cv < pv)
            for pv, cv in zip(side["parent"], side["change"]))
        gap = (c - p) if higher else (p - c)
        entry["gain_rule"] = (10 * entry["change_won"] >= 9 * len(vals) and
                              gap > entry["parent"]["iqr"])
        out[name] = entry
    return out


def alternate(roots, workload, args, pairs, trace, digests):
    """`pairs` runs per side, alternating which side goes first; adds each
    side's new digests to `digests`. Returns the runs and the order."""
    runs = {"parent": [], "change": []}
    order = []
    label = "traced pair" if trace else "pair"
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(sides[0] + " first")
        for s in sides:
            rep, digest = run_side(roots[s], workload, args.seed,
                                   args.seconds, trace)
            runs[s].append(rep)
            if digest and digest not in digests[s]:
                digests[s].append(digest)
            print(f"{workload} {label} {i + 1} {s}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in rep["metrics"].items()),
                file=sys.stderr)
    return runs, order


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def medians(summary, units):
    """Each metric's median per side, shaped like a run's metrics."""
    return {s: {name: {"value": e[s]["median"], "unit": units[name]}
                for name, e in summary.items()}
            for s in ("parent", "change")}


def sim_exact(digests, trace):
    """Both sides' digests and traced sim counts, and whether they agree."""
    block = {"digest": digests}
    for name in ("sim.msgs_per_op", "sim.envelopes_per_op"):
        block[name] = {s: trace[s].get(name, {}).get("value")
                       for s in ("parent", "change")}
    same = all(v["parent"] == v["change"] for v in block.values())
    block["verdict"] = "match" if same else "DIFFER"
    return block


def tcp_exact(workload, trace):
    """Both sides' traced structural TCP counts, and whether the gated
    ones agree within TCP_TOLERANCE."""
    names = TCP_EXACT[workload]
    block = {}
    same = True
    for name in names["gated"] + names["shown"]:
        p, c = (trace[s][name]["value"] for s in ("parent", "change"))
        gated = name in names["gated"]
        block[name] = {"parent": p, "change": c, "gated": gated}
        if gated:
            same = same and abs(c - p) <= TCP_TOLERANCE * abs(p)
    block["verdict"] = "match" if same else "DIFFER"
    return block


def gprof_rows(root, workload, seed, seconds):
    """Top rows of a flat gprof profile of a static -pg build of `root`."""
    build = root / ".bench_build" / "gprof"
    log = sys.stderr
    subprocess.run(["cmake", "-S", str(root / "benchmark"), "-B", str(build),
                    "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-pg",
                    "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
                   stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", str(build), "--target",
                    "fastreg_benchmark", "-j4"],
                   stdout=log, stderr=log, check=True)
    binary = build / "fastreg_benchmark"
    (build / "gmon.out").unlink(missing_ok=True)
    subprocess.run([str(binary), "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--json",
                    str(build / "profile-run.json")],
                   cwd=build, stdout=subprocess.DEVNULL, check=True)
    flat = subprocess.run(["gprof", "-b", "-p", str(binary),
                           str(build / "gmon.out")],
                          capture_output=True, text=True, check=True).stdout
    rows = [line for line in flat.splitlines()
            if re.match(r"\s*\d+\.\d+\s", line)]
    return rows[:PROFILE_ROWS]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("--pr", type=int)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--trace-pairs", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--profile-workload", default="sim_abd", metavar="W")
    args = ap.parse_args()
    # Every summary takes quartiles of each side's runs, and tcp_exact
    # compares traced medians: both need at least one pair.
    for flag in ("pairs", "trace_pairs"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag.replace('_', '-')} must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    for w in workloads + [args.profile_workload]:
        if w not in names:
            sys.exit(f"unknown workload {w!r}; one of {names}")

    parent_sha = git("rev-parse", args.parent + "^{commit}")
    roots = {"parent": export_parent(parent_sha), "change": ROOT}
    report = {
        "parent": {"sha": parent_sha,
                   "src_lines": src_lines(roots["parent"])},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted_edits": bool(git("status", "--porcelain",
                                                 "--untracked-files=no")),
                   "src_lines": src_lines(roots["change"])},
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "trace_pairs": args.trace_pairs,
        "workloads": {},
    }
    if args.profile:
        report["profile"] = {
            "workload": args.profile_workload,
            "rows": {s: gprof_rows(roots[s], args.profile_workload,
                                   args.seed, args.seconds)
                     for s in ("parent", "change")},
        }
    traced_metrics = spec["per_layer"] + REPORT_EXTRAS
    units = {m["name"]: m["unit"] for m in traced_metrics}
    for w in workloads:
        digests = {"parent": [], "change": []}
        runs, order = alternate(roots, w, args, args.pairs, 0, digests)
        trace_runs, trace_order = alternate(roots, w, args, args.trace_pairs,
                                            1, digests)
        trace_summary = summarize(traced_metrics, trace_runs)
        trace = medians(trace_summary, units)
        body = report["workloads"][w] = {
            "order": order,
            "runs": runs,
            "summary": summarize(spec["end_to_end"], runs),
            "trace_order": trace_order,
            "trace_runs": {s: [r["metrics"] for r in trace_runs[s]]
                           for s in trace_runs},
            "trace_summary": trace_summary,
            "trace": trace,
            "digest": digests,
        }
        if digests["parent"] or digests["change"]:
            body["sim_exact"] = sim_exact(digests, trace)
        if w in TCP_EXACT:
            body["tcp_exact"] = tcp_exact(w, trace)
    seed_tag = "" if args.seed == 1 else f"_seed{args.seed}"
    out = (ROOT / f"BENCH_{args.pr}{seed_tag}.json" if args.pr is not None
           else AB / "report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    lines = {s: report[s]["src_lines"] for s in ("parent", "change")}
    for d in sorted(set(lines["parent"]) | set(lines["change"]),
                    key=lambda d: (d == "total", d)):
        p, c = lines["parent"].get(d, 0), lines["change"].get(d, 0)
        if p != c:
            print(f"src/{d:16} lines {p} -> {c} ({c - p:+d})")
    differ = []
    for w, body in report["workloads"].items():
        for name, e in body["summary"].items():
            ratio = "-" if e["ratio"] is None else f"{e['ratio']:.3f}"
            rule = "holds" if e["gain_rule"] else "fails"
            print(f"{w:18} {name:12} ratio {ratio}  change won "
                  f"{e['change_won']}/{args.pairs}  gain rule {rule}")
        if args.trace_pairs > 1:
            # Only the per-layer metrics whose median moved by more than
            # the parent's IQR.
            for name, e in body["trace_summary"].items():
                p, c = e["parent"]["median"], e["change"]["median"]
                if abs(c - p) <= e["parent"]["iqr"]:
                    continue
                print(f"{w:18} {name:30} {p:.4g} -> {c:.4g}  change won "
                      f"{e['change_won']}/{args.trace_pairs} traced")
        for verdict in ("sim_exact", "tcp_exact"):
            if verdict not in body:
                continue
            block = body[verdict]
            counts = ", ".join(
                f"{name} {fmt(v['parent'])} -> {fmt(v['change'])}"
                + ("" if v.get("gated", True) else " (not gated)")
                for name, v in block.items()
                if name not in ("digest", "verdict"))
            print(f"{w:18} {verdict} {block['verdict']}  {counts}")
            if block["verdict"] != "match":
                differ.append(f"{w} {verdict}")
    if differ:
        print("exact counts differ: " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
