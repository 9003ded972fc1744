#!/usr/bin/env python3
"""Line coverage per src/ directory, and the src/ functions that never ran.

Reads gcov's JSON format (gcov -j) for a build configured with
-DCMAKE_CXX_FLAGS=--coverage, after the programs of interest have run:

  gcov -j -t $(find build-cov -name '*.gcda') \\
      | python3 tools/coverage_summary.py -
  python3 tools/coverage_summary.py DIR_OR_FILE...

'-' reads the JSON documents gcov -t prints, one per line. A directory is
searched for the *.gcov.json.gz files gcov -j writes; any other argument
is one such file (gzip-compressed or plain).

A source compiled into several objects (a header, mostly) is merged: a
line counts as run if any object ran it, and a function as run if any
instance starting at its line ran (template instantiations included).
Paths are reported relative to --root (default: the current directory);
only files under <root>/src/ are counted.
"""

import argparse
import gzip
import json
import os
import sys
from collections import defaultdict


def read_documents(args):
    for arg in args:
        if arg == "-":
            yield from json_lines(sys.stdin)
        elif os.path.isdir(arg):
            for dirpath, _, names in sorted(os.walk(arg)):
                for name in sorted(names):
                    if name.endswith(".gcov.json.gz"):
                        yield from read_file(os.path.join(dirpath, name))
        else:
            yield from read_file(arg)


def read_file(path):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as f:
        yield from json_lines(f)


def json_lines(f):
    for line in f:
        if line.strip():
            yield json.loads(line)


def collect(documents, root):
    """Returns ({src file: {line: ran}}, {(src file, line): [name, ran]})."""
    lines = defaultdict(dict)
    functions = {}
    src = os.path.join(root, "src") + os.sep
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[rel][n] = lines[rel].get(n, False) or ln["count"] > 0
            for fn in f["functions"]:
                key = (rel, fn["start_line"])
                entry = functions.setdefault(key, [fn["demangled_name"], False])
                entry[1] = entry[1] or fn["execution_count"] > 0
    return lines, functions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="+", help="'-', directories or files")
    ap.add_argument("--root", default=".", help="repository root")
    opts = ap.parse_args()
    root = os.path.abspath(opts.root)

    lines, functions = collect(read_documents(opts.inputs), root)
    if not lines:
        sys.exit("coverage_summary: no src/ coverage data in the input")

    by_dir = defaultdict(lambda: [0, 0])
    for rel, per_line in lines.items():
        d = by_dir[rel.split(os.sep)[1]]
        d[0] += sum(per_line.values())
        d[1] += len(per_line)
    total = [sum(v[0] for v in by_dir.values()),
             sum(v[1] for v in by_dir.values())]

    print("src/ line coverage (executable lines run / executable lines):")
    for name, (ran, n) in sorted(by_dir.items()) + [("total", total)]:
        print(f"  {name:<12} {100.0 * ran / n:5.1f}%  {ran:>6} / {n}")

    never = sorted((rel, line, name)
                   for (rel, line), (name, ran) in functions.items()
                   if not ran)
    print(f"\nsrc/ functions that never ran ({len(never)}):")
    for rel, line, name in never:
        print(f"  {rel}:{line}  {name}")


if __name__ == "__main__":
    main()
