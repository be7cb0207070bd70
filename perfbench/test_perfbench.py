#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The input and self-check tests build the
benchmark programs first (as run.py does), which takes a minute on a
fresh checkout.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        value, pct, n = run.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_percentile_rises_with_the_sample_count(self):
        value, pct, _ = run.tail(list(range(1000)))
        self.assertEqual(value, 989)
        self.assertEqual(pct, 99.0)

    def test_smallest_sample_that_meets_the_rule(self):
        value, pct, n = run.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_give_no_tail(self):
        self.assertEqual(run.tail(list(range(10))), (None, None, 10))

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertIsNone(run.median([]))


class Metrics(unittest.TestCase):
    RAW = {"samples": {"op_ms": [10.0] * 20, "op_refs": [5.0] * 20,
                       "ref_ms": [2.0] * 20, "read_us": [1.0] * 20,
                       "setup_s": [0.1], "recover_ms": [20.0],
                       "recover_refs": [10.0]},
           "updates": 0, "loop_s": 0.2, "peak_rss_mb": 19.0}

    def test_names_match_the_spec(self):
        spec = run.load_spec()
        e2e, layer, _ = run.end_to_end(self.RAW, "static-decompose")
        self.assertEqual(sorted(e2e), sorted(m["name"] for m in spec["end_to_end"]))
        self.assertLessEqual(set(layer), {m["name"] for m in spec["per_layer"]})

    def test_times_in_refs_and_in_wall_clock(self):
        e2e, layer, _ = run.end_to_end(self.RAW, "static-decompose")
        self.assertEqual(e2e["latency_ref_p50"], 5.0)
        self.assertEqual(e2e["throughput_per_ref"], 20 / 100.0)
        self.assertEqual(e2e["recover_ref"], 10.0)
        self.assertEqual(layer["wall.latency_ms_p50"], 10.0)
        self.assertEqual(layer["wall.throughput_per_s"], 20 / 0.2)
        self.assertEqual(layer["host.ref_ms"], 2.0)


class Inputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bin_dir = run.build()

    def gen(self, workload, seed, out):
        subprocess.run([os.path.join(self.bin_dir, "perfbench_gen"), "--workload",
                        workload, "--seed", str(seed), "--out", out], check=True)
        return sorted(os.listdir(out))

    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in run.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
                a = os.path.join(tmp, "a")
                b = os.path.join(tmp, "b")
                os.makedirs(a)
                os.makedirs(b)
                files = self.gen(workload, 7, a)
                self.assertEqual(files, self.gen(workload, 7, b))
                match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
                self.assertEqual((mismatch, errors), ([], []), workload)
                self.assertEqual(len(match), len(files))

    def test_another_seed_gives_another_trace(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            a = os.path.join(tmp, "a")
            b = os.path.join(tmp, "b")
            os.makedirs(a)
            os.makedirs(b)
            self.gen("churn-burst", 7, a)
            self.gen("churn-burst", 8, b)
            self.assertFalse(filecmp.cmp(os.path.join(a, "trace-0.txt"),
                                         os.path.join(b, "trace-0.txt"), shallow=False))


class SelfCheck(unittest.TestCase):
    def bench(self, workload, corrupt):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "0", "--corrupt", str(corrupt)],
            cwd=run.ROOT, text=True, capture_output=True, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_clean_run_is_correct(self):
        for workload in ("static-decompose", "churn-burst"):
            result = self.bench(workload, 0)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreaterEqual(result["attempted"], 1, workload)

    def test_corrupted_oracle_is_reported_as_failed_ops(self):
        for workload in run.WORKLOADS:
            result = self.bench(workload, 1)
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)


if __name__ == "__main__":
    unittest.main()
