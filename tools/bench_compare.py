#!/usr/bin/env python3
"""Diff a bench_micro JSON run against the committed baseline.

Per benchmark family, compares throughput (items_per_second when the
family reports it, otherwise inverse cpu_time) between a fresh
``bench_micro --benchmark_format=json`` run and ``BENCH_baseline.json``,
and fails when any family regresses by more than the threshold.

Usage:
  # Compare two existing JSON files:
  tools/bench_compare.py --baseline BENCH_baseline.json --current run.json

  # Run the binary first (repeatable local gate):
  tools/bench_compare.py --baseline BENCH_baseline.json \
      --bench build/bench/bench_micro

Exit status: 0 when no family regresses more than --threshold (default
15%), 1 otherwise.  --warn-only always exits 0 (the CI soft gate; the
hard gate is the ctest registered under -DVLSIPART_BENCH_GATE=ON, label
"bench").  --strict REGEX carves a blocking subset out of --warn-only:
families matching REGEX still fail the run (exit 1) even in warn-only
mode.  CI uses this for the low-variance gain-bucket families
(insert/remove/update-key), whose single-digit-nanosecond operations
are stable enough on shared runners for a hard gate, while the
wall-clock-heavy families stay advisory.  A baseline family missing
from the current capture (renamed or deleted benchmark) always exits 1,
even under --warn-only: losing coverage silently is a configuration
error, not measurement noise.

Baselines are only comparable between identical build types: the script
refuses (exit 2) when the two files carry different
``vlsipart_build_type`` context values.  The ``library_build_type``
field emitted by google-benchmark describes how *libbenchmark* was
compiled, not this repository's code, and is ignored.

The ``BM_Parallel*`` families take a thread count as their argument, so
their numbers depend on the core count: when the two captures'
``num_cpus`` differ, those families are listed as not comparable
instead of scored.  A missing one is still an error.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Families whose benchmark argument is a thread count.
THREAD_SCALED = re.compile(r"^BM_Parallel")


def build_type(doc):
    return doc.get("context", {}).get("vlsipart_build_type")


def num_cpus(doc):
    return doc.get("context", {}).get("num_cpus")


def throughput(entry):
    """Items/s when reported, else inverse cpu_time (runs/s)."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    cpu = float(entry["cpu_time"])
    if cpu <= 0:
        return 0.0
    # cpu_time is in entry["time_unit"] (ns by default).
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}
    return scale.get(entry.get("time_unit", "ns"), 1e9) / cpu


def families(doc):
    out = {}
    for entry in doc.get("benchmarks", []):
        # Skip mean/median/stddev rows from --benchmark_repetitions runs.
        if entry.get("run_type") == "aggregate":
            continue
        out[entry["name"]] = throughput(entry)
    return out


def run_bench(bench, out_path, min_time):
    cmd = [
        bench,
        f"--benchmark_min_time={min_time}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    print(f"running: {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--current", help="existing bench_micro JSON run")
    parser.add_argument(
        "--bench", help="bench_micro binary to run when --current is absent"
    )
    parser.add_argument(
        "--min-time",
        default="0.5",
        help="--benchmark_min_time passed to --bench runs (default 0.5)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="max tolerated fractional slowdown per family (default 0.15)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI soft gate)",
    )
    parser.add_argument(
        "--strict",
        metavar="REGEX",
        help="families matching REGEX block (exit 1) even under --warn-only",
    )
    args = parser.parse_args()
    strict_re = re.compile(args.strict) if args.strict else None

    if bool(args.current) == bool(args.bench):
        parser.error("exactly one of --current / --bench is required")

    if args.bench:
        tmp = tempfile.NamedTemporaryFile(
            suffix=".json", prefix="bench_micro.", delete=False
        )
        tmp.close()
        run_bench(args.bench, tmp.name, args.min_time)
        args.current = tmp.name

    baseline_doc = load_json(args.baseline)
    current_doc = load_json(args.current)

    base_bt = build_type(baseline_doc)
    cur_bt = build_type(current_doc)
    if base_bt and cur_bt and base_bt != cur_bt:
        print(
            f"error: build type mismatch: baseline is '{base_bt}', "
            f"current run is '{cur_bt}' — numbers are not comparable",
            file=sys.stderr,
        )
        return 2

    base = families(baseline_doc)
    cur = families(current_doc)
    base_cpus = num_cpus(baseline_doc)
    cur_cpus = num_cpus(current_doc)
    cpus_differ = base_cpus != cur_cpus

    width = max((len(n) for n in set(base) | set(cur)), default=10)
    header = (
        f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
        f"{'ratio':>7}  verdict"
    )
    print(header)
    print("-" * len(header))

    regressions = []
    missing = []
    not_comparable = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"{name:<{width}}  {'-':>12}  {cur[name]:>12.4g}  "
                  f"{'-':>7}  new (no baseline)")
            continue
        if name not in cur:
            print(f"{name:<{width}}  {base[name]:>12.4g}  {'-':>12}  "
                  f"{'-':>7}  MISSING from current run")
            missing.append(name)
            continue
        if cpus_differ and THREAD_SCALED.match(name):
            print(f"{name:<{width}}  {base[name]:>12.4g}  {cur[name]:>12.4g}  "
                  f"{'-':>7}  not comparable (num_cpus)")
            not_comparable.append(name)
            continue
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        if ratio < 1.0 - args.threshold:
            verdict = f"REGRESSION (>{args.threshold:.0%} slower)"
            regressions.append(name)
        elif ratio > 1.0 + args.threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        print(
            f"{name:<{width}}  {base[name]:>12.4g}  {cur[name]:>12.4g}  "
            f"{ratio:>6.2f}x  {verdict}"
        )

    if not_comparable:
        print(
            f"\nnot comparable: baseline has num_cpus={base_cpus}, current "
            f"run has num_cpus={cur_cpus}; thread-count families not "
            f"scored: {', '.join(not_comparable)}"
        )
    if missing:
        # A baseline family absent from the current capture means the
        # benchmark was renamed or deleted without updating the
        # baseline: the comparison silently loses coverage.  That is a
        # configuration error, not a noisy measurement, so it blocks
        # even under --warn-only.
        print(
            f"\n{len(missing)} baseline famil"
            f"{'y' if len(missing) == 1 else 'ies'} missing from the "
            f"current capture: {', '.join(missing)}\n"
            "rename the baseline entry or recapture BENCH_baseline.json",
            file=sys.stderr,
        )
        return 1
    if regressions:
        print(
            f"\n{len(regressions)} famil"
            f"{'y' if len(regressions) == 1 else 'ies'} regressed beyond "
            f"{args.threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        strict_hits = (
            [n for n in regressions if strict_re.search(n)]
            if strict_re
            else []
        )
        if strict_hits:
            print(
                "strict families regressed (blocking even under "
                f"--warn-only): {', '.join(strict_hits)}",
                file=sys.stderr,
            )
            return 1
        if args.warn_only:
            print("warn-only mode: exiting 0", file=sys.stderr)
            return 0
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
