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
lists every flag the CLI accepts, each numeric row rejects one value
below its minimum and one above its maximum, and misspelled, retired, or
not-read-by-this-subcommand flags are rejected instead of ignored.
`--failpoints` accepts every site docs/obs_schema.json lists and rejects
any other site name.  `--threads` gives the same output at every worker
count, and a trace whose windows would not fit in memory exits 1 before
the split instead of aborting.  An incremental `timeline` of a c = 0
random walk follows a changed row instead of reusing a stale signature.
A record weighing more than 2^64 is a bad field, so no window sums to
infinity: skipping it prints what the trace without it prints.

Usage: cli_zero_flags_test.py <path-to-commsig-binary>
(ctest passes $<TARGET_FILE:commsig_cli>.)
"""

import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import unittest

COMMSIG = None  # resolved in main()
REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

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
    "chaos-dir", "checkpoint-dir", "checkpoint-every", "decay",
    "delta-divisor", "dist", "ell", "emit-every", "error-budget",
    "failpoints", "fraction", "io-chunk-kb", "k", "kill-after", "log-file",
    "log-level", "max-drift", "max-lag", "max-pairs",
    "max-total-errors", "metrics-out", "netflow", "on-error",
    "parse-workers", "protocol", "quarantine-out", "replay-rate", "scheme",
    "seed", "stats-linger-ms", "stats-port", "stride", "threads",
    "threshold", "trace", "trace-out", "trials", "window",
    "window-budget-ms", "window-length", "window2",
}

# Tuning flags no caller set; the CLI runs the library defaults instead
# (RetryPolicy, DegradationController::Options, PipelineOptions and a fixed
# 30 s /healthz stall threshold).
RETIRED_FLAGS = [
    "retry-max-attempts", "retry-initial-ms", "retry-max-ms",
    "retry-multiplier", "retry-jitter", "retry-deadline-ms",
    "degrade-escalate-after", "degrade-recover-after",
    "degrade-checkpoint-stretch", "ingest-queue", "stats-stall-ms",
]

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

    def run_cli(self, command, *flags, trace=None):
        if command == "chaoscheck":
            # Keeps a binary that does run the trials quick and inside tmp.
            flags += ("--trials", "1",
                      "--chaos-dir", os.path.join(self.tmp.name, "chaos"))
        return subprocess.run(
            [COMMSIG, command, "--trace", trace or self.trace, *flags],
            capture_output=True, text=True, timeout=120)

    def write_trace(self, name, rows):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(rows) + "\n")
        return path

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
        self.assertGreater(checked, 30)

    def test_unknown_flag_rejected(self):
        # --backpressure must stay unknown: the ingest queues always block.
        # A stream epoch only updates in-memory sketches, so stream has no
        # epoch retries or dead letters, and --replay-rate is its only
        # pacing flag. timeline always advances the incremental engine.
        for command, flag, value in (
                ("signatures", "--windw-length", "200"),
                ("signatures", "--backpressure", "block"),
                ("timeline", "--mode", "incremental"),
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

    def test_retired_flags_rejected_before_io(self):
        # A missing trace would exit 1 once read, so exit 2 means the flag
        # stopped the run before any IO.
        missing = os.path.join(self.tmp.name, "no_such_trace.csv")
        for flag in RETIRED_FLAGS:
            for command in ("signatures", "stream"):
                with self.subTest(flag=flag, command=command):
                    proc = self.run_cli(command, f"--{flag}", "1",
                                        trace=missing)
                    self.assertEqual(proc.returncode, 2,
                                     proc.stdout + proc.stderr)
                    self.assertIn(f"unknown flag --{flag}", proc.stderr)
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

    def test_failpoints_arm_only_known_sites(self):
        # The schema's sites are extracted from the IO call sites, so the
        # CLI's list of armable sites cannot drift from the code.
        with open(os.path.join(REPO, "docs", "obs_schema.json"),
                  encoding="utf-8") as f:
            sites = json.load(f)["categories"]["failpoint_sites"]
        self.assertTrue(sites)
        spec = ";".join(f"{site}=eio@1000000" for site in sites)
        proc = self.run_cli("signatures", "--window-length", "1000",
                            "--failpoints", spec)
        if "not compiled in" in proc.stderr:
            self.skipTest("binary built without fail-points")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # A retired site and a typo would arm nothing; both exit 2.
        for site in ("stream/epoch", "checkpoint/wrtie"):
            with self.subTest(site=site):
                proc = self.run_cli("stream", "--failpoints", f"{site}=eio")
                self.assertEqual(proc.returncode, 2,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"unknown failpoint site '{site}'",
                              proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_threads_at_cap_runs(self):
        bounds = {name: kind for name, kind, *_ in self.usage_rows()}
        cap = NUMERIC.match(bounds["threads"]).group(4)
        # The 4-host fixture is one 16-source chunk, so only one worker
        # runs; 50 sources make four chunks.
        rng = random.Random(7)
        rows, t = [], 0
        for _ in range(3000):
            t += rng.randint(1, 5)
            src = rng.randint(0, 49)
            dst = (src * 7 + rng.choice([1, 1, 1, 2, 3])) % 60
            rows.append(f"h{src},p{dst},{t},{rng.random() * 9 + 1:.3f}")
        wide = self.write_trace("wide.csv", rows)
        for trace, scheme, hosts in ((self.trace, "tt", 4),
                                     (wide, "rwr(c=0.1)", 50)):
            runs = {threads: self.run_cli(
                        "signatures", "--threads", threads, "--scheme",
                        scheme, "--window-length", "100000", trace=trace)
                    for threads in ("1", "3", cap)}
            self.assertEqual(len(runs["1"].stdout.splitlines()), hosts)
            for threads, proc in runs.items():
                with self.subTest(scheme=scheme, threads=threads):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(proc.stdout, runs["1"].stdout)

    def test_scheme_with_negative_hops_rejected(self):
        # strtoul would wrap h=-1 to 2^64 - 1 hops, a walk that never ends;
        # run_cli's timeout turns such a hang into a failure.
        proc = self.run_cli("signatures", "--scheme", "rwr(h=-1)")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("invalid value for --scheme", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_far_future_timestamp_exits_before_split(self):
        # One-day windows up to t = 10^18 are ~1.2e13 windows, and one-unit
        # windows up to t = 2^64 - 1 are 2^64: the split must be refused,
        # not die in bad_alloc or wrap its window count.
        for time, window_length in (("1000000000000000000", "86400"),
                                    ("18446744073709551615", "1")):
            trace = self.write_trace(
                "far_future.csv", ["a,b,100,1.0", f"a,c,{time},1.0"])
            for command in WINDOW_COMMANDS:
                with self.subTest(command=command, time=time):
                    proc = self.run_cli(command, "--window-length",
                                        window_length, trace=trace)
                    self.assertEqual(proc.returncode, 1,
                                     proc.stdout + proc.stderr)
                    self.assertIn("too_many_windows", proc.stderr)
                    self.assertEqual(proc.stdout, "")

    def test_unix_time_trace_starts_at_its_first_window(self):
        # Windows used to count from t = 0, so these three rows landed in
        # window 19675 of 19676 and `--window 0` was empty.
        trace = self.write_trace("unix_time.csv", [
            "alice,bob,1700000000,3.0",
            "alice,carol,1700000100,2.0",
            "bob,carol,1700000200,1.5",
        ])
        proc = self.run_cli("signatures", trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn('"windows":1,', proc.stderr)
        labels = sorted(line.split("\t")[0]
                        for line in proc.stdout.splitlines())
        self.assertEqual(labels, ["alice", "bob"])

    def test_zero_reset_timeline_follows_changed_row(self):
        # v has no in-edges, so the one-step c = 0 walk from v is its
        # normalized out-row, Top Talkers' signature. The walk never returns
        # to v, so a drift sum weighed by its final vector missed v's own
        # reweighted row and reused the first window's signature (1.0000).
        trace = self.write_trace("zero_reset.csv", [
            "v,a,1,1.0", "v,b,1,1.0", "x,b,1,1.0",
            "v,a,11,2.0", "v,b,11,1.0", "x,b,11,1.0",
        ])
        persistence = {}
        for scheme in ("tt", "rwr(c=0,h=1)"):
            proc = self.run_cli("timeline", "--window-length", "10",
                                "--scheme", scheme, trace=trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            persistence[scheme] = [line for line in proc.stdout.splitlines()
                                   if "persistence" in line]
        self.assertIn("persistence 0.9224", persistence["tt"][0])
        self.assertEqual(persistence["rwr(c=0,h=1)"], persistence["tt"])

    def test_weight_above_record_bound_is_a_bad_field(self):
        # Each weight is finite, but the first trace sums one edge to
        # infinity and the second a's out-tally: RWR printed no line at all,
        # tt dropped a and ut lost a's edge to b.
        traces = (
            ["a,b,100,1e308", "a,b,150,1e308", "a,c,160,1.0",
             "b,c,200,1.0", "c,a,250,2.0"],
            ["a,b,100,1e308", "a,c,160,1e308", "b,c,200,1.0",
             "c,a,250,2.0"],
        )
        for i, rows in enumerate(traces):
            trace = self.write_trace(f"overflow{i}.csv", rows)
            kept = [row for row in rows if not row.endswith(",1e308")]
            without = self.write_trace(f"overflow{i}_kept.csv", kept)
            senders = sorted({row.split(",")[0] for row in kept})
            for scheme in ("rwr(c=0.1)", "rwr(c=0.1,h=3)", "tt", "ut"):
                with self.subTest(trace=i, scheme=scheme):
                    flags = ("--window-length", "1000", "--scheme", scheme)
                    proc = self.run_cli("signatures", *flags,
                                        "--on-error", "skip", trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    self.assertEqual(
                        sorted(line.split("\t")[0] for line in lines),
                        senders, proc.stdout)
                    for line in lines:
                        for weight in re.findall(r":([^,}]+)", line):
                            self.assertTrue(math.isfinite(float(weight)),
                                            line)
                    self.assertEqual(
                        proc.stdout,
                        self.run_cli("signatures", *flags,
                                     trace=without).stdout)
            proc = self.run_cli("signatures", "--window-length", "1000",
                                trace=trace)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn("bad_field at 1: weight above 2^64", proc.stderr)
            self.assertEqual(proc.stdout, "")


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
