#!/usr/bin/env python3
"""Scenario benchmark of the Hercules simulator (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase_shift_24h --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus the hercules_perfbench
runner) into .bench_build/, runs one workload in a fresh directory
under .bench_tmp/, writes the ledger tables to .bench_ledger/<workload>/
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a
result line, when the program cannot be built or the run crashes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hercules_perfbench")
WORKLOADS = ("phase_shift_24h", "crash_jsq_telemetry", "profile_cold")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
FIRST_RUN_TIMEOUT_S = 890


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Run cmd with its output on stderr; kill it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}", 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "scenario.h")):
        fail(f"no Hercules sources under {ROOT}/src")
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        fail(f"no scenarios under {ROOT}/scenarios")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   max(1.0, deadline - time.monotonic())):
        fail("build failed", 1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--refs", default=os.path.join(HERE, "refs.tsv"),
                   help="reference digests (default perfbench/refs.tsv)")
    p.add_argument("--horizon-hours", type=float,
                   help="replace the scenario's horizon (self-check)")
    p.add_argument("--setup-reps", type=int)
    p.add_argument("--min-reps", type=int)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main():
    args = parse_args()
    start = time.monotonic()
    build()

    tmp_dir = os.path.join(ROOT, ".bench_tmp",
                           f"{args.workload}-{os.getpid()}")
    ledger_dir = os.path.join(ROOT, ".bench_ledger", args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario-dir", os.path.join(ROOT, "scenarios"),
           "--tmp-dir", tmp_dir, "--ledger-dir", ledger_dir,
           "--refs", args.refs]
    for flag in ("horizon_hours", "setup_reps", "min_reps"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag.replace("_", "-"), str(value)]

    # A run must end within RUN_TIMEOUT_S, or within FIRST_RUN_TIMEOUT_S
    # when it also had to build the program.
    elapsed = time.monotonic() - start
    limit = FIRST_RUN_TIMEOUT_S if elapsed > 60 else RUN_TIMEOUT_S
    budget = max(30.0, limit - elapsed)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run timed out", 1)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"hercules_perfbench exited with {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("hercules_perfbench printed no result line", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
