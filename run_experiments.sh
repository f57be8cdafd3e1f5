#!/bin/sh
# Regenerate every experiment artifact: build, test, run all experiments.
# Outputs land in test_output.txt and bench_output.txt.
# Pass --full to each bench manually for paper-faithful (hours-long) runs.
set -e
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
# Every registry experiment once, then the three binaries it cannot
# express yet (bench_kway, bench_initial, bench_pruning) and the
# microbenchmark and daemon benches.
build/bench/bench_experiments --experiment all 2>&1 | tee bench_output.txt
(for b in build/bench/bench_*; do
  [ "$b" = build/bench/bench_experiments ] && continue
  echo "##### $b"; "$b"; echo
done) 2>&1 | tee -a bench_output.txt
# The significance verdicts EXPERIMENTS.md cites (Sec. 3.2).
(echo "##### build/examples/methodology_study"; build/examples/methodology_study) 2>&1 | tee -a bench_output.txt
