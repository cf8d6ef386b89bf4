#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the program through run.py first (a no-op when it is up to date).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper next to this file)

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def bench(*args):
    return subprocess.run([run.PROGRAM, *args], capture_output=True, text=True, timeout=120)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Flags(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")

    def test_malformed_flags_are_rejected(self):
        bad = [
            [],
            ["--workload"],
            ["--workload", "nope"],
            ["--workload", "sync_ctqo", "--seed", "-1"],
            ["--workload", "sync_ctqo", "--seed", "4x"],
            ["--workload", "sync_ctqo", "--seed", "99999999999999999999999"],
            ["--workload", "sync_ctqo", "--seconds", "0"],
            ["--workload", "sync_ctqo", "--seconds", "1.5"],
            ["--workload", "sync_ctqo", "--seconds", "100000"],
            ["--workload", "sync_ctqo", "--trace", "2"],
            ["--workload", "sync_ctqo", "--trace"],
            ["--workload", "sync_ctqo", "--bogus", "1"],
            ["--seed", "1", "--seconds", "1"],
        ]
        for args in bad:
            with self.subTest(args=args):
                proc = bench(*args)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("error:", proc.stderr)
                self.assertEqual(proc.stdout, "")


class Metrics(unittest.TestCase):
    """Every metric printed is declared in BENCHMARK.json, and vice versa."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")

    def check(self, trace, section):
        proc = bench("--workload", "async_saturated", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        out = result(proc)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in out["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_end_to_end_names(self):
        self.check(0, "end_to_end")

    def test_per_layer_names(self):
        self.check(1, "per_layer")


class Checkout(unittest.TestCase):
    def test_fails_without_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's own
        # files cannot build: run.py must fail without printing a result.
        bare = os.path.join(run.ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path))
        try:
            proc = subprocess.run(
                [*SPEC["command"], "--workload", "sync_ctqo", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
