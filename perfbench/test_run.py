#!/usr/bin/env python3
"""Tests of the benchmark itself: its result line stays valid JSON on
every failure path, and its pinned-row gate rejects perturbed and
missing pins.

Run from the repository root (builds into .bench_build like run.py):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args, env=None):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=900)


def result_line(test, done):
    """The last stdout line, which must parse as the result object."""
    result = json.loads(done.stdout.strip().splitlines()[-1])
    test.assertEqual(set(result),
                     {"correct", "attempted", "failed", "metrics"})
    return result


class ResultLine(unittest.TestCase):
    def test_unmatched_workload_still_prints_valid_json(self):
        done = bench("--workload", "no_such_workload")
        self.assertNotEqual(done.returncode, 0)
        result = result_line(self, done)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})

    def test_failed_build_still_prints_valid_json(self):
        with tempfile.NamedTemporaryFile() as not_a_dir:
            env = dict(os.environ, CARGO_TARGET_DIR=not_a_dir.name)
            done = bench("--workload", "numa_cold", env=env)
        self.assertNotEqual(done.returncode, 0)
        result = result_line(self, done)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_crashed_run_still_prints_valid_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            fake = os.path.join(tmp, "crash")
            with open(fake, "w") as f:
                f.write("#!/bin/sh\necho 'half a line {' \nexit 134\n")
            os.chmod(fake, stat.S_IRWXU)
            done = bench("--workload", "numa_cold", "--binary", fake)
        self.assertNotEqual(done.returncode, 0)
        result = result_line(self, done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class PinnedRowGate(unittest.TestCase):
    def test_perturbed_and_missing_pins_are_failed_operations(self):
        binary = run.build(2)
        self.assertIsNotNone(binary, "the benchmark program did not build")
        perturbed = "numa_cold numa_server:2x4/Base/SyscallStorm "
        dropped = "numa_cold numa_server:2x4/BCPref/ForkChurn "
        with open(run.EXPECTED) as f:
            lines = f.readlines()
        with tempfile.TemporaryDirectory() as tmp:
            expected = os.path.join(tmp, "expected_rows.txt")
            with open(expected, "w") as f:
                for line in lines:
                    if line.startswith(perturbed):
                        digest = line.split()[-1]
                        flipped = "1" if digest[-1] == "0" else "0"
                        line = perturbed + digest[:-1] + flipped + "\n"
                    if not line.startswith(dropped):
                        f.write(line)
            done = subprocess.run(
                [binary, "--workload", "numa_cold", "--seconds", "1",
                 "--jobs", "2", "--scratch", os.path.join(tmp, "scratch"),
                 "--expected", expected],
                capture_output=True, text=True, timeout=300)
        self.assertNotEqual(done.returncode, 0)
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(raw["attempted"], 16)
        self.assertEqual(raw["failed"], 2)
        failures = "\n".join(raw["failures"])
        self.assertIn("differs from pinned", failures)
        self.assertIn("no pinned row", failures)


if __name__ == "__main__":
    unittest.main()
