#!/usr/bin/env python3
"""The benchmark's own test: a tiny-size run of every workload, untraced and
traced. Each run must print every metric BENCHMARK.json names, with its unit,
pass the replay oracle and fail no request.

    python3 perfbench/test_perfbench.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "4"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", trace,
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


class TinyRuns(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace, metrics_key):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)  # failed_frac == 0
        self.assertTrue(any(l.startswith("oracle:") and " 0 mismatched" in l
                            for l in lines), "oracle line missing or failed")
        self.assertTrue(any("failed_frac=0.000000" in l for l in lines))
        want = {m["name"]: m["unit"] for m in self.spec[metrics_key]}
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)

    def test_workloads(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], "0", "end_to_end")
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], "1", "per_layer")


if __name__ == "__main__":
    unittest.main()
