#!/usr/bin/env python3
"""Record the reference digests perfbench/refs.tsv stores.

    python3 perfbench/record_refs.py [--seeds 0-31] [--horizon-hours H]

Runs each workload once per seed, with one setup and one timed call,
and writes one line per (workload, seed, horizon) with the digest of
every simulated statistic. A run whose checks fail is not recorded.

Re-record only when a change is meant to alter simulated results; a
speedup must leave every stored digest as it is.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

import run

REFS = os.path.join(run.HERE, "refs.tsv")
HEADER = """\
# Reference digests of every simulated statistic (perfbench/README.md).
# workload seed horizon_hours digest
# Written by perfbench/record_refs.py; a speedup must not change them.
"""


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    p.add_argument("--horizon-hours", type=float, default=24.0)
    p.add_argument("--out", default=REFS)
    args = p.parse_args()
    run.build()

    rows = []
    tmp_dir = os.path.join(run.ROOT, ".bench_tmp", f"refs-{os.getpid()}")
    for seed in args.seeds:
        for workload in run.WORKLOADS:
            cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
                   "--seconds", "0", "--trace", "0", "--setup-reps", "1",
                   "--min-reps", "1", "--horizon-hours",
                   str(args.horizon_hours),
                   "--scenario-dir", os.path.join(run.ROOT, "scenarios"),
                   "--tmp-dir", tmp_dir]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 timeout=run.RUN_TIMEOUT_S).stdout
            digest = re.search(r"^digest ([0-9a-f]{16}) ", out, re.M)
            if digest is None or '"correct": true' not in out:
                sys.exit(f"record_refs: {workload} seed {seed} failed:\n{out}")
            rows.append(f"{workload} {seed} {args.horizon_hours:g} "
                        f"{digest.group(1)}")
            print(rows[-1], flush=True)
    shutil.rmtree(tmp_dir, ignore_errors=True)
    with open(args.out, "w") as f:
        f.write(HEADER + "\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
