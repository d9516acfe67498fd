#!/usr/bin/env python3
"""End-to-end benchmark of commsig: raw trace bytes to per-window
signatures, properties and apps.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload flow_netflow --seed 1 --seconds 10 \
        --trace 0

It builds e2ebench/ (which builds the library from the surrounding source
tree) into $CARGO_TARGET_DIR, or .bench_build when that is unset, generates
the workload's input from the seed, times whole pipeline passes over it for
--seconds, checks the outputs on one more untimed pass, and prints a report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones (and
writes a Chrome trace next to the build). BENCHMARK.json at the root lists
the workloads and metrics; e2ebench/spec.json adds their configurations,
definitions and the layer each per-layer metric belongs to.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("flow_netflow", "querylog_k3", "flow_monitor")
BUILD_TIMEOUT_S = 850
GEN_TIMEOUT_S = 120
CHECK_SLACK_S = 150  # the untimed check pass and the last pass's overrun


class BenchError(Exception):
    pass


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_checked(cmd, timeout, capture=False):
    """Runs `cmd`, waiting for it to end; its stdout goes to our stderr
    unless captured, so our own stdout ends with the result line."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    except OSError as e:
        raise BenchError(f"cannot run {cmd[0]}: {e}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def configured_source(cache):
    """The source directory a CMake build tree was configured for."""
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(build_dir):
    cache =os.path.join(build_dir, "CMakeCache.txt")
    if configured_source(cache) != os.path.realpath(BENCH_DIR):
        # A build tree carried over from another checkout keeps that
        # checkout's paths; configure afresh instead of failing.
        if os.path.exists(cache):
            os.remove(cache)
        shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                      ignore_errors=True)
        run_checked(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "--target", "commsig_e2e",
                 "-j", str(cpu_count())], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "commsig_e2e")


def corrupt(path, netflow):
    """Damages the input so records get rejected: the version field of
    every 50th NetFlow packet, or the weight of every 97th CSV row."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if netflow:
        packet = 24 + 30 * 48  # every packet but the last is full
        for offset in range(0, len(data) - packet, 50 * packet):
            data[offset:offset + 2] = b"\x00\x09"
    else:
        lines = bytes(data).split(b"\n")
        for i in range(0, len(lines), 97):
            if lines[i]:
                lines[i] = lines[i].rsplit(b",", 1)[0] + b",x"
        data = bytearray(b"\n".join(lines))
    with open(path, "wb") as f:
        f.write(data)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a seconds-long scale for the tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the generated input (tests only)")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    tag = f"{args.workload}-{args.scale}-seed{args.seed}"
    input_path = os.path.join(work_dir, tag + ".in")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    try:
        gen = json.loads(run_checked(
            [binary, "gen", "--out", input_path] + common, GEN_TIMEOUT_S,
            capture=True).strip().splitlines()[-1])
        if args.corrupt:
            corrupt(input_path, args.workload == "flow_netflow")
        workers = max(1, cpu_count() - 2)
        cmd = [binary, "run", "--input", input_path, "--seconds",
               str(args.seconds), "--trace", str(args.trace),
               "--parse-workers", str(workers)] + common
        if args.trace:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(trace_dir, tag + ".json")]
        out = run_checked(cmd, args.seconds + CHECK_SLACK_S, capture=True)
    finally:
        if os.path.exists(input_path):
            os.remove(input_path)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": gen["setup_s"], "unit": "s"}
    print(f"# host nproc {cpu_count()} parse_workers {workers} "
          f"input_records {gen['records']} input_bytes {gen['bytes']}")
    print("\n".join(lines[:-1]))
    if not args.trace:
        print(f"# metric {'setup_s':<36} {gen['setup_s']:>16} s")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, ValueError, KeyError, IndexError) as e:
        log(f"failed: {e}")
        sys.exit(1)
