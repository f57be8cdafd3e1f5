#!/usr/bin/env python3
"""ctest helper: every experiment of bench_experiments on ibm01@0.05 must
print the cells of the committed capture tests/experiment_cells.jsonl.

CPU readings differ run to run, so each row drops the keys that contain
"cpu" or "tau" (any case), and the two tables built from CPU readings,
the Pareto frontier and the speed-dependent ranking, are skipped.  What
remains (cuts, skip rates, verdicts, E[best cut]) is a function of the
code and its defaults.

A change that moves a default moves cells: regenerate the capture with
    bench_experiments --experiment all --cases ibm01 --scale 0.05 \\
        --runs 2 --json tests/experiment_cells.jsonl
and list the moved tables in CHANGES.md.

Run: python3 tools/expect_same_cells.py BENCH_EXPERIMENTS CAPTURE
"""

import json
import os
import subprocess
import sys
import tempfile

ARGS = ["--experiment", "all", "--cases", "ibm01", "--scale", "0.05",
        "--runs", "2"]
CPU_TABLES = {"Non-dominated (Pareto) frontier",
              "Speed-dependent ranking diagram"}


def cells(path):
    """title -> rows without CPU-derived keys, for every kept table."""
    tables = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["title"] in CPU_TABLES:
                continue
            tables[record["title"]] = [
                {k: v for k, v in row.items()
                 if "cpu" not in k.lower() and "tau" not in k.lower()}
                for row in record["rows"]]
    return tables


def main():
    bench, capture = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "cells.jsonl")
        subprocess.run([bench, *ARGS, "--json", out], check=True,
                       stdout=subprocess.DEVNULL, timeout=300)
        got = cells(out)
    want = cells(capture)
    moved = [t for t in want if got.get(t) != want[t]]
    moved += [t for t in got if t not in want]
    for title in moved:
        print(f"moved: {title}\n  want {want.get(title)}\n  got  "
              f"{got.get(title)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
