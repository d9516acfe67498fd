#!/usr/bin/env python3
"""`--k 0` and `--window-length 0` must be rejected, not run.

A zero signature length makes every signature empty, and two empty
signatures are at distance 0, so `multiusage` would report every pair of
hosts as aliases and `selfmatch` a perfect persistence; a zero window
length silently degenerates to one-unit windows.  Every subcommand that
reads either flag must exit 2 with the CLI's usual
`invalid value for --<flag>` message before printing any result, while
`--k 1` keeps working.  A last flag given no value at all (`... --k`) is
rejected the same way, with `missing value for --<flag>`, instead of
being dropped for its default.

Usage: cli_zero_flags_test.py <path-to-commsig-binary>
(ctest passes $<TARGET_FILE:commsig_cli>.)
"""

import os
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
