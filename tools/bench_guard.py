#!/usr/bin/env python3
"""Guard benchmark speedup, throughput and work-count gauges.

Compares gauges in a freshly produced bench snapshot (BENCH_timeline.json
and friends) against a checked-in baseline and fails when any gauge
crosses its limit. Three gauge families are guarded:

* ``*_speedup`` ratios (default tolerance 20%): absolute nanosecond
  timings shift with the host, but the optimized-vs-baseline *ratio* is
  what each engine owes the repo.
* ``*_events_per_sec`` sustained-throughput floors (default tolerance
  15%): the ingestion pipeline additionally owes an absolute line rate,
  so its baseline records conservative events/sec values measured on the
  CI class of machine and the guard fails if the current run regresses
  more than ``--throughput-tolerance`` below them.
* ``*_count`` work counts (no tolerance): deterministic amounts of work
  at a fixed seed, such as the pairs a join hands to the distance kernel,
  or the nodes an incremental window recomputes and the RWR iterations
  it runs. The baseline is a ceiling: the guard fails when the current
  count exceeds it, so a regression in algorithmic work fails without
  timing noise.

Ratio and throughput baselines are set conservatively below locally
measured values so the tolerances absorb machine noise rather than real
regressions; count baselines are the measured counts. Gauges with other
suffixes are ignored entirely.

Usage (single pair):
    tools/bench_guard.py --current BENCH_timeline.json \
        --baseline bench/baselines/BENCH_timeline.baseline.json \
        [--tolerance 0.20] [--throughput-tolerance 0.15]

Usage (several snapshots in one invocation):
    tools/bench_guard.py \
        --pair BENCH_timeline.json bench/baselines/BENCH_timeline.baseline.json \
        --pair BENCH_ingest.json bench/baselines/BENCH_ingest.baseline.json

Exit status: 0 when every gauge holds, 1 on any regression or missing
gauge, 2 on malformed input (unreadable JSON, no gauges object, a
non-numeric gauge, or a baseline with nothing to guard).
"""

import argparse
import json
import sys

# (suffix, tolerance-argument attribute, printed unit) per guarded family.
# Families with a tolerance are floors; the one without is a ceiling.
FAMILIES = (
    ("_speedup", "tolerance", "x"),
    ("_events_per_sec", "throughput_tolerance", " ev/s"),
    ("_count", None, ""),
)


def load_gauges(path, suffix):
    """Returns {gauge_name: value} for every gauge ending in `suffix`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_guard: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    gauges = snapshot.get("gauges", {})
    if not isinstance(gauges, dict):
        print(f"bench_guard: {path} has no gauges object", file=sys.stderr)
        sys.exit(2)
    selected = {}
    for name, value in gauges.items():
        if not name.endswith(suffix):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            print(f"bench_guard: {path}: gauge {name} is not a number: "
                  f"{value!r}", file=sys.stderr)
            sys.exit(2)
        selected[name] = float(value)
    return selected


def fmt(value, unit):
    if unit == "x":
        return f"{value:.2f}x"
    return f"{value:,.0f}{unit}"


def check_family(current_path, baseline_path, suffix, tolerance, unit):
    """Guards one gauge family of one snapshot pair.

    A gauge holds when it is at least baseline * (1 - tolerance), or, with
    no tolerance (the count family), at most the baseline.

    Returns (failure_messages, guarded_gauge_count).
    """
    current = load_gauges(current_path, suffix)
    baseline = load_gauges(baseline_path, suffix)

    failures = []
    for name, base_value in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from {current_path} "
                            f"(baseline {fmt(base_value, unit)})")
            continue
        value = current[name]
        if tolerance is None:
            holds = value <= base_value
            limit = f"ceiling {fmt(base_value, unit)}"
            breach = f"{fmt(value, unit)} > {limit}"
        else:
            floor = base_value * (1.0 - tolerance)
            holds = value >= floor
            limit = f"floor {fmt(floor, unit)}"
            breach = (f"{fmt(value, unit)} < {limit} "
                      f"(baseline {fmt(base_value, unit)}, "
                      f"tolerance {tolerance:.0%})")
        status = "ok" if holds else "REGRESSED"
        print(f"{name}: {fmt(value, unit)} vs baseline "
              f"{fmt(base_value, unit)} ({limit}) {status}")
        if not holds:
            failures.append(f"{name}: {breach}")

    # New gauges absent from the baseline are reported but never fail the
    # run — they become guarded once the baseline is refreshed.
    for name in sorted(set(current) - set(baseline)):
        print(f"{name}: {fmt(current[name], unit)} (no baseline, unguarded)")

    return failures, len(baseline)


def check_pair(current_path, baseline_path, args):
    """Guards every family of one current-vs-baseline snapshot pair.

    Returns (failure_messages, guarded_gauge_count); exits with status 2
    on malformed input or a baseline with nothing to guard.
    """
    failures = []
    guarded = 0
    for suffix, tolerance_attr, unit in FAMILIES:
        tolerance = getattr(args, tolerance_attr) if tolerance_attr else None
        family_failures, count = check_family(
            current_path, baseline_path, suffix, tolerance, unit)
        failures.extend(family_failures)
        guarded += count
    if guarded == 0:
        print(f"bench_guard: no guarded gauges in {baseline_path}",
              file=sys.stderr)
        sys.exit(2)
    return failures, guarded


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current",
                        help="snapshot produced by this run")
    parser.add_argument("--baseline",
                        help="checked-in baseline snapshot")
    parser.add_argument("--pair", nargs=2, action="append", default=[],
                        metavar=("CURRENT", "BASELINE"),
                        help="guard CURRENT against BASELINE; repeatable, "
                             "combines with --current/--baseline")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop below baseline for "
                             "*_speedup gauges (default 0.20 = 20%%)")
    parser.add_argument("--throughput-tolerance", type=float, default=0.15,
                        help="allowed fractional drop below baseline for "
                             "*_events_per_sec gauges (default 0.15 = 15%%)")
    args = parser.parse_args()

    pairs = list(args.pair)
    if args.current or args.baseline:
        if not (args.current and args.baseline):
            parser.error("--current and --baseline must be given together")
        pairs.insert(0, (args.current, args.baseline))
    if not pairs:
        parser.error("nothing to guard: give --current/--baseline or --pair")

    failures = []
    guarded = 0
    for current_path, baseline_path in pairs:
        failure_messages, count = check_pair(current_path, baseline_path,
                                             args)
        failures.extend(failure_messages)
        guarded += count

    if failures:
        print("\nbench_guard: bench regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nbench_guard: all {guarded} guarded gauges hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
