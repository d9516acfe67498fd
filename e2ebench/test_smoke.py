#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark, at its seconds-long smoke scale.

    python3 e2ebench/test_smoke.py

Builds through run.py like a real run (into $CARGO_TARGET_DIR or
.bench_build) and asserts that every named metric prints with its unit,
that every output check passes, and that a corrupted input makes the error
rate non-zero.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORKLOADS = ("flow_netflow", "querylog_k3", "flow_monitor")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(BENCH_DIR, "spec.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace=0, corrupt=False):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    if corrupt:
        cmd.append("--corrupt")
    return subprocess.run(cmd, cwd=ROOT, text=True, timeout=900,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reported(proc):
    """{name: (value, unit)} from the report's '# metric' lines."""
    out = {}
    for line in proc.stdout.splitlines():
        m = re.match(r"# metric (\S+)\s+(\S+) (\S+)", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


class SmokeTest(unittest.TestCase):

    def check_metrics(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = reported(proc)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])
        self.assertEqual(printed["error_rate"], (0.0, "fraction"))
        self.assertIn("# check outputs", proc.stdout)
        self.assertNotIn("failure:", proc.stdout)

    def test_end_to_end_metrics_print_and_checks_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload)
                self.check_metrics(proc, BENCHMARK["end_to_end"])
                for prop in ("events_per_window", "windows_per_event",
                             "dirty_frac", "duplicate_signature_share"):
                    self.assertIn(prop, proc.stdout)

    def test_per_layer_metrics_print_and_trace_is_written(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace=1)
                self.check_metrics(proc, BENCHMARK["per_layer"])
                trace = os.path.join(BUILD_DIR, "traces",
                                     f"{workload}-smoke-seed1.json")
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                self.assertLessEqual({"pipeline/parse", "pipeline/extract",
                                      "apps/multiusage"}, names)

    def test_corrupted_input_makes_error_rate_nonzero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, corrupt=True)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(reported(proc)["error_rate"][0], 0.0)

    def test_spec_names_exist_in_benchmark_json(self):
        workloads = {w["name"] for w in BENCHMARK["workloads"]}
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        metrics = end_to_end | {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertLessEqual(set(SPEC["workloads"]), workloads)
        self.assertLessEqual(set(SPEC["definitions"]), metrics)
        for layer in SPEC["per_layer"]["layers"].values():
            self.assertLessEqual(set(layer["metrics"]), metrics)
            for move in layer.get("moves", []) + layer.get("flat", []):
                self.assertIn(move["metric"], end_to_end)
                self.assertIn(move["workload"], workloads)
        for section in SPEC["measured"].values():
            if isinstance(section, dict):
                self.assertLessEqual(set(section), workloads)
                for values in section.values():
                    self.assertLessEqual(set(values), metrics)


if __name__ == "__main__":
    unittest.main()
