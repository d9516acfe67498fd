#!/usr/bin/env python3
"""`--on-error skip` reports and dead-letters every reject, once.

On the corrupt corpus trace, skip must log `records_rejected` with the
number of rows it dropped and write each of them to --quarantine-out;
`quarantine` is no policy of its own and exits 2.

`commsig` retries a failed input read from byte 0 under the library's
default RetryPolicy (4 attempts, 5 ms backoff doubling to 200 ms).  This
test arms the `ingest/frame` fail-point so one framer refill fails with a
transient IO error after some batches were already merged, and checks the
retried run against a fault-free one on a trace with known bad rows: same
stdout, same dead-letter CSV (each bad row once), and no run-wide budget
abort under a --max-total-errors budget the bad rows alone fit into.

Usage: ingest_retry_test.py <path-to-commsig-binary>
(ctest passes $<TARGET_FILE:commsig_cli>.)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

COMMSIG = None  # resolved in main()
BAD_ROWS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data", "corpus", "trace_bad_rows.csv")  # 10 rows, 7 malformed

ROWS = 2000
BAD_EVERY = 50  # 40 rows with a non-positive weight


def write_trace(path: str) -> None:
    rows = []
    for i in range(ROWS):
        weight = "-1" if i % BAD_EVERY == 7 else f"{1 + i % 5}.5"
        rows.append(f"h{i % 13},p{i % 17},{1000 + i},{weight}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


class IngestRetryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.trace = os.path.join(cls.tmp.name, "trace.csv")
        write_trace(cls.trace)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_cli(self, name, *extra):
        quarantine = os.path.join(self.tmp.name, f"{name}.dead.csv")
        log = os.path.join(self.tmp.name, f"{name}.log.jsonl")
        proc = subprocess.run(
            [COMMSIG, "signatures", "--trace", self.trace, "--scheme", "tt",
             "--parse-workers", "2",
             "--io-chunk-kb", "1", "--on-error", "skip",
             "--quarantine-out", quarantine,
             "--max-total-errors", str(ROWS // BAD_EVERY + 4),
             "--log-file", log, *extra],
            capture_output=True, text=True, timeout=120)
        events = []
        if os.path.exists(log):
            with open(log, encoding="utf-8") as f:
                events = [json.loads(line)["event"] for line in f
                          if line.strip()]
        dead = None
        if os.path.exists(quarantine):
            with open(quarantine, encoding="utf-8") as f:
                dead = f.read()
        return proc, dead, events

    def test_retried_read_matches_fault_free_read(self):
        clean, clean_dead, _ = self.run_cli("clean")
        self.assertEqual(clean.returncode, 0, clean.stderr)
        self.assertTrue(clean.stdout.strip(), "no signatures printed")
        self.assertEqual(clean_dead.count("\n") - 1, ROWS // BAD_EVERY)

        faulty, faulty_dead, events = self.run_cli(
            "faulty", "--failpoints", "ingest/frame=eio@5x1")
        if faulty.returncode == 2 and "not compiled in" in faulty.stderr:
            self.skipTest("binary built without fail-points")
        # The fault must really have hit a read in flight and been retried,
        # or this test proves nothing.
        self.assertIn("failpoint_fired", events)
        self.assertIn("io_retry", events)
        self.assertNotIn("budget_exhausted", events)
        self.assertEqual(faulty.returncode, 0, faulty.stderr)
        self.assertEqual(faulty.stdout, clean.stdout)
        self.assertEqual(faulty_dead, clean_dead)


class SkipDeadLetterTest(unittest.TestCase):
    def run_cli(self, *flags):
        return subprocess.run(
            [COMMSIG, "signatures", "--trace", BAD_ROWS, "--scheme", "tt",
             *flags], capture_output=True, text=True, timeout=120)

    def test_skip_reports_and_writes_every_reject(self):
        with tempfile.TemporaryDirectory() as tmp:
            dead = os.path.join(tmp, "dead.csv")
            log = os.path.join(tmp, "log.jsonl")
            proc = self.run_cli("--on-error", "skip", "--quarantine-out",
                                dead, "--log-file", log)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(log, encoding="utf-8") as f:
                events = [json.loads(line) for line in f if line.strip()]
            with open(dead, encoding="utf-8") as f:
                rows = f.read().splitlines()
        def field(event, key):
            return [e[key] for e in events if e["event"] == event]
        self.assertEqual(field("records_rejected", "rejected"), [7])
        self.assertEqual(field("quarantine_written", "records"), [7])
        self.assertEqual(len(rows), 1 + 7, rows)  # a header, then the rejects

    def test_quarantine_policy_rejected(self):
        proc = self.run_cli("--on-error", "quarantine")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("invalid value for --on-error: 'quarantine'",
                      proc.stderr)
        self.assertEqual(proc.stdout, "")


def main() -> int:
    global COMMSIG
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        print("usage: ingest_retry_test.py <commsig-binary>", file=sys.stderr)
        return 2
    COMMSIG = sys.argv[1]
    unittest.main(argv=[sys.argv[0]] + sys.argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
