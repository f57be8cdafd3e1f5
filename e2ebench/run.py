#!/usr/bin/env python3
"""End-to-end benchmark of the partitioning library and the vpartd service.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload flat-fm --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --test

The first call configures and builds the benchmark (a Release build of
../src plus e2ebench/src) in $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench.  Later calls only re-check the build.  The binary's
own output is passed through; the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and every
per_layer metric with --trace 1.  Exits non-zero, printing no result, when
the build fails, an op fails to run, or a metric is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_TAG = "E2EBENCH_RESULT "


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, **kwargs):
    """Run `cmd` to completion and return (returncode, stdout).  A SIGTERM
    or SIGINT sent to this script stops the child and waits for it first."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(targets):
    """Configure (once) and build `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to e2ebench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target"] + targets)
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr)[0]:
            fail("build step failed: " + " ".join(cmd))
    return out


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        out = build(["e2ebench_test"])
        sys.exit(run_child([os.path.join(out, "e2ebench_test")])[0])
    if not args.workload:
        parser.error("--workload is required")

    wanted = wanted_metrics(args.trace)
    out = build(["e2ebench"])
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", git_commit(),
           "--trace-dir", trace_dir]
    returncode, stdout = run_child(cmd, stdout=subprocess.PIPE, text=True)
    result = None
    for line in stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    sys.stdout.flush()
    if returncode != 0 or result is None:
        fail("benchmark binary exited with code %d" % returncode)

    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail("metric %s missing from the run" % spec["name"])
        if got["unit"] != spec["unit"]:
            fail("metric %s has unit %s, expected %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
