#!/usr/bin/env python3
"""Round-trip gate: docs/obs_schema.json vs a live `commsig stream` run.

The static obs-schema pass proves the schema matches the *source*; this
test proves it matches the *runtime*: every metric the binary actually
exports and every log event it actually emits must be declared in the
schema, and every preregistered metric must be visible in the export even
when nothing incremented it.  Together they pin the schema from both
sides, so a drift in either direction fails CI.

Usage: obs_schema_roundtrip_test.py <path-to-commsig-binary>
(ctest passes $<TARGET_FILE:commsig_cli>.)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

COMMSIG = None  # resolved in main()


def tiny_trace(path: str) -> None:
    """Two windows of traffic from three sources; enough to exercise the
    stream pipeline, checkpointing stays off."""
    rows = []
    for w in (0, 100):
        for t in range(0, 90, 10):
            rows.append(f"src{t % 3},dst{t % 7},{w + t},1.5")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


class ObsSchemaRoundTripTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "docs", "obs_schema.json"),
                  encoding="utf-8") as f:
            cls.schema = json.load(f)
        cls.tmp = tempfile.TemporaryDirectory()
        trace = os.path.join(cls.tmp.name, "trace.csv")
        tiny_trace(trace)
        cls.metrics_path = os.path.join(cls.tmp.name, "metrics.json")
        cls.log_path = os.path.join(cls.tmp.name, "log.jsonl")
        proc = subprocess.run(
            [COMMSIG, "stream", "--trace", trace, "--window-length", "100",
             "--metrics-out", cls.metrics_path, "--log-file", cls.log_path,
             "--log-level", "debug"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with open(cls.metrics_path, encoding="utf-8") as f:
            cls.metrics = json.load(f)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_live_metrics_are_all_declared(self):
        cats = self.schema["categories"]
        for kind in ("counters", "gauges", "histograms"):
            live = set(self.metrics.get(kind, {}))
            declared = set(cats[kind])
            if kind == "histograms":
                # Every COMMSIG_SPAN(s) also exports the histogram
                # span/<s>_us (obs/obs.h): declared exactly when <s> is a
                # declared span.
                declared |= {f"span/{s}_us" for s in cats["spans"]}
            self.assertLessEqual(
                live, declared,
                f"{kind} exported at runtime but missing from "
                f"docs/obs_schema.json: {sorted(live - declared)}")

    def test_preregistered_metrics_are_visible_untouched(self):
        live = set()
        for kind in ("counters", "gauges", "histograms"):
            live |= set(self.metrics.get(kind, {}))
        prereg = set(self.schema["preregistered"])
        self.assertLessEqual(
            prereg, live,
            "preregistered metrics absent from a live export (scrapers "
            f"would never see them): {sorted(prereg - live)}")

    def test_live_log_events_are_all_declared(self):
        declared = set(self.schema["categories"]["log_events"])
        seen = set()
        with open(self.log_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    seen.add(json.loads(line)["event"])
        self.assertTrue(seen, "stream run emitted no log lines")
        self.assertLessEqual(
            seen, declared,
            "log events emitted at runtime but missing from "
            f"docs/obs_schema.json: {sorted(seen - declared)}")


def main() -> int:
    global COMMSIG
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        print("usage: obs_schema_roundtrip_test.py <commsig-binary>",
              file=sys.stderr)
        return 2
    COMMSIG = sys.argv[1]
    unittest.main(argv=[sys.argv[0]] + sys.argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
