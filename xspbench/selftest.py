#!/usr/bin/env python3
"""The benchmark's own test: its output checks must fail when the output is
wrong.

    python3 xspbench/selftest.py

Each case runs one short workload through run.py with a fault injected and
asserts that the run is reported as failed (exit status non-zero, result
line with "correct": false and at least one failed operation, the check
named on stderr). A clean run must pass.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))


def run(workload, inject=None, seconds=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return p.returncode, result, p.stderr


class ChecksFail(unittest.TestCase):
    def assert_failed(self, rc, result, stderr, check):
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(check, stderr)

    def test_clean_run_passes(self):
        rc, result, stderr = run("zoo_leveled")
        self.assertEqual(rc, 0, stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 165)

    def test_flipped_digest_fails(self):
        self.assert_failed(*run("zoo_leveled", "digest"), "zoo.profile_digests")

    def test_withheld_span_fails_steady(self):
        self.assert_failed(*run("fleet_steady", "withhold"), "fleet.handed_eq_published")

    def test_withheld_span_fails_burst(self):
        rc, result, stderr = run("fleet_burst", "withhold")
        self.assert_failed(rc, result, stderr, "fleet.handed_eq_published")
        self.assertIn("fleet.content_checksum", stderr)


if __name__ == "__main__":
    unittest.main()
