#!/usr/bin/env python3
"""Tests of the rtbench benchmark itself.

Run from the repository root (builds through run.py first):

    python3 rtbench/test_rtbench.py

Each workload runs at a tiny size and must print every metric that
BENCHMARK.json names, with its unit. A planted mirror divergence must fail
the store gate. run.py must fail without printing a result when the
library sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--subscribers", "3000", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class PrintsEveryMetric(unittest.TestCase):
    def check(self, workload, trace, section):
        proc, result = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = [m["name"] for m in SPEC[section]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in SPEC[section]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_nt_pair_end_to_end(self):
        self.check("nt_pair", 0, "end_to_end")

    def test_nt_pair_per_layer(self):
        self.check("nt_pair", 1, "per_layer")

    def test_failover_end_to_end(self):
        self.check("failover", 0, "end_to_end")

    def test_failover_per_layer(self):
        self.check("failover", 1, "per_layer")


class CorrectnessGate(unittest.TestCase):
    def test_planted_divergence_fails_the_run(self):
        proc, result = run_bench("nt_pair", 0, "--plant-divergence")
        self.assertEqual(proc.returncode, 1, proc.stdout[-3000:])
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertIn("GATE FAIL: mirror byte-identical to primary", proc.stdout)


class Standalone(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "rtbench-test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "rtbench/run.py", "--workload", "nt_pair",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
