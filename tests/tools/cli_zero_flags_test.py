#!/usr/bin/env python3
"""The CLI's flag table: every flag, value and range the CLI does not
honour is rejected before it runs.

`--k 0` and `--window-length 0` must be rejected, not run.  A zero
signature length makes every signature empty, and two empty signatures
are at distance 0, so `multiusage` would report every pair of hosts as
aliases and `selfmatch` a perfect persistence; a zero window length
silently degenerates to one-unit windows.  Every subcommand that reads
either flag must exit 2 with the CLI's usual `invalid value for --<flag>`
message before printing any result, while `--k 1` keeps working.  A last
flag given no value at all (`... --k`) is rejected the same way, with
`missing value for --<flag>`, instead of being dropped for its default.

The remaining tests read the flag table back from `commsig --help`: it
lists every flag the CLI has ever accepted, each numeric row rejects one
value below its minimum and one above its maximum, and misspelled flags
or flags a subcommand does not read are rejected instead of ignored.

Usage: cli_zero_flags_test.py <path-to-commsig-binary>
(ctest passes $<TARGET_FILE:commsig_cli>.)
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

COMMSIG = None  # resolved in main()

# src,dst,time,weight; --window-length 200 splits it into three windows.
ROWS = [
    "alice,bob,100,3.0",
    "alice,carol,150,2.0",
    "bob,carol,200,1.5",
    "carol,alice,250,4.0",
    "dave,alice,300,2.5",
    "bob,dave,350,1.0",
    "alice,bob,400,2.0",
    "carol,dave,450,3.5",
]

K_COMMANDS = ["signatures", "selfmatch", "multiusage", "masquerade",
              "anomalies", "timeline", "stream", "faultcheck", "chaoscheck"]
WINDOW_COMMANDS = ["signatures", "selfmatch", "multiusage", "masquerade",
                   "anomalies", "timeline", "faultcheck"]

# Every flag name the CLI accepts; adding, removing or renaming one is a
# deliberate interface change.
FLAG_NAMES = {
    "chaos-dir", "checkpoint-dir", "checkpoint-every",
    "decay", "degrade-checkpoint-stretch",
    "degrade-escalate-after", "degrade-recover-after", "delta-divisor",
    "dist", "ell", "emit-every", "error-budget", "failpoints", "fraction",
    "ingest-queue", "io-chunk-kb", "k", "kill-after", "log-file",
    "log-level", "max-drift", "max-lag", "max-pairs",
    "max-total-errors", "metrics-out", "mode", "netflow", "on-error",
    "parse-workers", "protocol", "quarantine-out",
    "replay-rate", "retry-deadline-ms", "retry-initial-ms",
    "retry-jitter", "retry-max-attempts", "retry-max-ms",
    "retry-multiplier", "scheme", "seed", "stats-linger-ms", "stats-port",
    "stats-stall-ms", "stride", "threads", "threshold", "trace",
    "trace-out", "trials", "window", "window-budget-ms", "window-length",
    "window2",
}

# One usage row: `  --name  kind and bounds  default D  for COMMANDS`.
USAGE_ROW = re.compile(r"^  --(\S+)  (.+?)  default (.+?)  for (\S+)$")
NUMERIC = re.compile(r"^(integer|number) in ([\[(])(\S+), (\S+)([\])])$")


class ZeroFlagsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.trace = os.path.join(cls.tmp.name, "flows.csv")
        with open(cls.trace, "w", encoding="utf-8") as f:
            f.write("\n".join(ROWS) + "\n")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_cli(self, command, *flags):
        if command == "chaoscheck":
            # Keeps a binary that does run the trials quick and inside tmp.
            flags += ("--trials", "1",
                      "--chaos-dir", os.path.join(self.tmp.name, "chaos"))
        return subprocess.run(
            [COMMSIG, command, "--trace", self.trace, *flags],
            capture_output=True, text=True, timeout=120)

    def assert_rejected(self, proc, flag):
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn(f"invalid value for --{flag}: '0'", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_zero_k_rejected(self):
        for command in K_COMMANDS:
            with self.subTest(command=command):
                proc = self.run_cli(command, "--k", "0",
                                    "--window-length", "200")
                if command == "chaoscheck" and \
                        "COMMSIG_FAILPOINTS" in proc.stderr:
                    continue  # built without fail-points: never reads --k
                self.assert_rejected(proc, "k")

    def test_zero_window_length_rejected(self):
        for command in WINDOW_COMMANDS:
            with self.subTest(command=command):
                self.assert_rejected(
                    self.run_cli(command, "--window-length", "0"),
                    "window-length")

    def test_trailing_flag_without_value_rejected(self):
        proc = self.run_cli("signatures", "--window-length", "1000", "--k")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("missing value for --k", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_k_one_still_runs(self):
        proc = self.run_cli("signatures", "--k", "1",
                            "--window-length", "1000")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        self.assertEqual(len(lines), 4, proc.stdout)
        for line in lines:
            # `host<TAB>{node:weight}`: exactly one entry per signature.
            self.assertEqual(line.count(":"), 1, line)

        proc = self.run_cli("multiusage", "--k", "1",
                            "--window-length", "1000")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("candidate alias pair(s)", proc.stdout)


    def usage_rows(self):
        """The flag table as `commsig --help` prints it."""
        proc = subprocess.run([COMMSIG, "--help"], capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertEqual(proc.stdout, "")
        rows = [m.groups() for m in map(USAGE_ROW.match,
                                        proc.stderr.splitlines()) if m]
        self.assertEqual({name for name, *_ in rows}, FLAG_NAMES)
        return rows

    def first_command(self, commands):
        return "signatures" if commands == "all" else commands.split(",")[0]

    def test_help_lists_every_flag_with_default_in_bounds(self):
        for name, kind, default, _ in self.usage_rows():
            m = NUMERIC.match(kind)
            if m is None or default == "none":
                continue
            with self.subTest(flag=name):
                _, lo_end, lo, hi, hi_end = m.groups()
                value = float(default)
                self.assertTrue(value > float(lo) if lo_end == "("
                                else value >= float(lo))
                self.assertTrue(value < float(hi) if hi_end == ")"
                                else value <= float(hi))

    def test_values_out_of_bounds_rejected(self):
        checked = 0
        for name, kind, _, commands in self.usage_rows():
            m = NUMERIC.match(kind)
            if m is None:
                continue
            integer, lo_end, lo, hi, hi_end = m.groups()
            if integer == "integer":
                below = str(int(lo) - 1)
                above = str(int(hi) + 1)
            else:
                below = lo if lo_end == "(" else repr(float(lo) - 1)
                above = (hi if hi_end == ")" else
                         "1e309" if float(hi) > 1e308 else
                         repr(float(hi) + 1))
            command = self.first_command(commands)
            for value in (below, above):
                with self.subTest(flag=name, command=command, value=value):
                    proc = self.run_cli(command, f"--{name}", value)
                    self.assertEqual(proc.returncode, 2,
                                     proc.stdout + proc.stderr)
                    self.assertIn(f"invalid value for --{name}: '{value}'",
                                  proc.stderr)
                    self.assertEqual(proc.stdout, "")
            checked += 1
        self.assertGreater(checked, 40)

    def test_unknown_flag_rejected(self):
        # --backpressure must stay unknown: the ingest queues always block.
        # A stream epoch only updates in-memory sketches, so stream has no
        # epoch retries or dead letters, and --replay-rate is its only
        # pacing flag.
        for command, flag, value in (
                ("signatures", "--windw-length", "200"),
                ("signatures", "--backpressure", "block"),
                ("stream", "--max-epoch-attempts", "3"),
                ("stream", "--dead-letter-out",
                 os.path.join(self.tmp.name, "poison.csv")),
                ("stream", "--replay-delay-us", "200")):
            with self.subTest(command=command, flag=flag):
                proc = self.run_cli(command, flag, value)
                self.assertEqual(proc.returncode, 2,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"unknown flag {flag}", proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_flags_a_command_does_not_read_rejected(self):
        for command, flag, value in (("signatures", "--stride", "7"),
                                     ("stream", "--scheme", "tt")):
            with self.subTest(command=command, flag=flag):
                proc = self.run_cli(command, flag, value)
                self.assertEqual(proc.returncode, 2,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"flag {flag} does not apply to {command}",
                              proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_threads_at_cap_runs(self):
        bounds = {name: kind for name, kind, *_ in self.usage_rows()}
        cap = NUMERIC.match(bounds["threads"]).group(4)
        one = self.run_cli("signatures", "--threads", "1",
                           "--window-length", "1000")
        capped = self.run_cli("signatures", "--threads", cap,
                              "--window-length", "1000")
        self.assertEqual(capped.returncode, 0, capped.stderr)
        self.assertEqual(capped.stdout, one.stdout)

def main() -> int:
    global COMMSIG
    if len(sys.argv) < 2 or not os.path.isfile(sys.argv[1]):
        print("usage: cli_zero_flags_test.py <commsig-binary>",
              file=sys.stderr)
        return 2
    COMMSIG = sys.argv[1]
    unittest.main(argv=[sys.argv[0]] + sys.argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
