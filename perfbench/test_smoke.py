#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at reduced size.

Runs each workload briefly, untraced and traced, and checks that the
result line names exactly the metrics BENCHMARK.json declares, with their
units, and that no operation failed (error rate 0).

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class Smoke(unittest.TestCase):
    def check(self, trace, declared):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                result, stdout = run(w["name"], trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0, stdout)
                self.assertTrue(result["correct"])
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in declared})
                for m in declared:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(metrics[m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
