#!/bin/sh
# Regenerate every experiment artifact: build, test, run all experiments.
# Outputs land in test_output.txt and bench_output.txt.
# Pass --full to each bench manually for paper-faithful (hours-long) runs.
set -e
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
# Every registry experiment once (the significance verdicts
# EXPERIMENTS.md cites included), then the microbenchmark and daemon
# benches.
build/bench/bench_experiments --experiment all 2>&1 | tee bench_output.txt
(for b in bench_micro bench_service; do
  echo "##### build/bench/$b"; "build/bench/$b"; echo
done) 2>&1 | tee -a bench_output.txt
