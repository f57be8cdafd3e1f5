#!/usr/bin/env python3
"""Tests for tools/bench_compare.py over the fixture captures in
tests/bench_compare/: a 1-CPU and a 4-CPU capture in which
BM_ParallelRefine/4 is three times slower on the 4-CPU host.

Run: python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "tools", "bench_compare.py")
CAPTURE_1CPU = os.path.join(HERE, "bench_compare", "capture_1cpu.json")
CAPTURE_4CPU = os.path.join(HERE, "bench_compare", "capture_4cpu.json")


def compare(baseline, current, *extra):
    return subprocess.run(
        [sys.executable, SCRIPT, "--baseline", baseline, "--current",
         current, *extra],
        capture_output=True, text=True, check=False)


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def variant(self, edit):
        """The 4-CPU capture, changed by `edit`, written to a temp file."""
        with open(CAPTURE_4CPU, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        path = os.path.join(self.tmp.name, "current.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def test_num_cpus_mismatch_lists_parallel_families_unscored(self):
        r = compare(CAPTURE_1CPU, CAPTURE_4CPU, "--strict", "BM_Parallel")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("BM_ParallelRefine/4", r.stdout)
        self.assertIn("not comparable", r.stdout)
        self.assertNotIn("REGRESSION", r.stdout)

    def test_same_num_cpus_scores_parallel_families(self):
        def one_cpu(doc):
            doc["context"]["num_cpus"] = 1
        r = compare(CAPTURE_1CPU, self.variant(one_cpu))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        self.assertIn("BM_ParallelRefine/4", r.stderr)

    def test_num_cpus_mismatch_still_scores_other_families(self):
        def slow_gain_container(doc):
            for b in doc["benchmarks"]:
                if b["name"] == "BM_GainContainerUpdateKey":
                    b["cpu_time"] = 300.0
        r = compare(CAPTURE_1CPU, self.variant(slow_gain_container))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("not comparable", r.stdout)
        self.assertIn("BM_GainContainerUpdateKey", r.stderr)

    def test_missing_parallel_family_is_still_an_error(self):
        def drop(doc):
            doc["benchmarks"] = [b for b in doc["benchmarks"]
                                 if b["name"] != "BM_ParallelRefine/4"]
        r = compare(CAPTURE_1CPU, self.variant(drop), "--warn-only")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("missing", r.stderr)


if __name__ == "__main__":
    unittest.main()
