#!/usr/bin/env python3
"""Unit tests for tools/bench_guard.py, run as the CLI the CI bench job runs.

Each case writes a current and a baseline snapshot to a temp dir and checks
the exit status and message: the ``*_speedup`` and ``*_events_per_sec``
floors with their tolerances, the ``*_count`` ceiling with none, a gauge
missing from the current run, and malformed input.

Usage: bench_guard_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
GUARD = os.path.join(REPO, "tools", "bench_guard.py")


class BenchGuardTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(content, str):
                f.write(content)
            else:
                json.dump(content, f)
        return path

    def guard(self, current, baseline, *flags):
        current_path = self.write("current.json", current)
        baseline_path = self.write("baseline.json", baseline)
        return subprocess.run(
            [sys.executable, GUARD, "--current", current_path,
             "--baseline", baseline_path, *flags],
            capture_output=True, text=True, timeout=60)

    def assert_holds(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("guarded gauges hold", proc.stdout)

    def assert_regressed(self, proc, text):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(text, proc.stderr)

    def test_speedup_floor_uses_tolerance(self):
        base = {"gauges": {"x/a_speedup": 5.0}}
        self.assert_holds(self.guard({"gauges": {"x/a_speedup": 4.0}}, base))
        self.assert_regressed(
            self.guard({"gauges": {"x/a_speedup": 3.9}}, base),
            "x/a_speedup: 3.90x < floor 4.00x")
        self.assert_holds(self.guard({"gauges": {"x/a_speedup": 3.9}}, base,
                                     "--tolerance", "0.25"))

    def test_events_per_sec_floor_uses_throughput_tolerance(self):
        base = {"gauges": {"x/b_events_per_sec": 1000}}
        self.assert_holds(
            self.guard({"gauges": {"x/b_events_per_sec": 850}}, base))
        self.assert_regressed(
            self.guard({"gauges": {"x/b_events_per_sec": 849}}, base),
            "x/b_events_per_sec: 849 ev/s < floor 850 ev/s")

    def test_count_is_a_ceiling_without_tolerance(self):
        base = {"gauges": {"x/c_count": 120}}
        self.assert_holds(self.guard({"gauges": {"x/c_count": 120}}, base))
        self.assert_holds(self.guard({"gauges": {"x/c_count": 7}}, base))
        # The speedup tolerance does not loosen a count.
        self.assert_regressed(
            self.guard({"gauges": {"x/c_count": 121}}, base,
                       "--tolerance", "0.5"),
            "x/c_count: 121 > ceiling 120")

    def test_every_family_guarded_in_one_snapshot(self):
        base = {"gauges": {"x/a_speedup": 2.0, "x/b_events_per_sec": 10,
                           "x/c_count": 3, "x/other_ns": 5.0}}
        proc = self.guard({"gauges": {"x/a_speedup": 2.0,
                                      "x/b_events_per_sec": 10,
                                      "x/c_count": 3}}, base)
        self.assert_holds(proc)
        self.assertIn("all 3 guarded gauges hold", proc.stdout)

    def test_missing_gauge_fails(self):
        for name in ("x/a_speedup", "x/b_events_per_sec", "x/c_count"):
            with self.subTest(name=name):
                self.assert_regressed(
                    self.guard({"gauges": {}}, {"gauges": {name: 1}}),
                    f"{name}: missing from")

    def test_new_gauge_is_reported_not_guarded(self):
        proc = self.guard({"gauges": {"x/a_speedup": 2.0, "x/d_count": 9}},
                          {"gauges": {"x/a_speedup": 2.0}})
        self.assert_holds(proc)
        self.assertIn("x/d_count: 9 (no baseline, unguarded)", proc.stdout)

    def test_malformed_input_exits_2(self):
        good = {"gauges": {"x/c_count": 1}}
        cases = {
            "not json": ("{", good),
            "no gauges object": ({"gauges": [1]}, good),
            "non-numeric gauge": ({"gauges": {"x/c_count": "many"}}, good),
            "boolean gauge": (good, {"gauges": {"x/c_count": True}}),
            "nothing to guard": (good, {"gauges": {"x/other_ns": 1}}),
        }
        for label, (current, baseline) in cases.items():
            with self.subTest(label):
                proc = self.guard(current, baseline)
                self.assertEqual(proc.returncode, 2,
                                 proc.stdout + proc.stderr)
                self.assertIn("bench_guard:", proc.stderr)

    def test_missing_file_exits_2(self):
        baseline = self.write("baseline.json", {"gauges": {"x/c_count": 1}})
        proc = subprocess.run(
            [sys.executable, GUARD, "--current",
             os.path.join(self.tmp.name, "absent.json"),
             "--baseline", baseline],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("cannot read", proc.stderr)


if __name__ == "__main__":
    unittest.main()
