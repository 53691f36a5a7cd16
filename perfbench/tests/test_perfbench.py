#!/usr/bin/env python3
"""Self-check of the scenario benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload on a short horizon, traced and untraced, and
checks that the result line carries every metric BENCHMARK.json names,
with its unit; that a corrupted reference digest is reported as a
failed check; and that run.py fails without a result line when the
program's sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

SHORT = ["--seconds", "0", "--min-reps", "1", "--horizon-hours", "2"]


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class PerfbenchSelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.tmp = os.path.join(run.ROOT, ".bench_tmp", "selfcheck")
        os.makedirs(cls.tmp, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if m["unit"] == "count":
                self.assertIsInstance(got["value"], int, m["name"])

    def test_every_metric_on_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                r = result_of(bench("--workload", workload, "--seed", "1",
                                    "--trace", "0", "--setup-reps", "1",
                                    *SHORT))
                self.check_metrics(r, self.spec["end_to_end"])
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0)
            with self.subTest(workload=workload, trace=1):
                r = result_of(bench("--workload", workload, "--seed", "1",
                                    "--trace", "1", "--setup-reps", "2",
                                    *SHORT))
                self.check_metrics(r, self.spec["per_layer"])
                metrics = r["metrics"]
                self.assertGreater(metrics["core.simulations"]["value"], 0)
                self.assertGreater(metrics["trace_overhead_ratio"]["value"], 0)
                if workload != "profile_cold":
                    self.assertGreater(metrics["sim.events"]["value"], 0)
                    self.assertGreater(metrics["workload.queries"]["value"], 0)
                if workload == "crash_jsq_telemetry":
                    self.assertGreater(metrics["obs.trace_records"]["value"], 0)

    def test_corrupted_reference_is_a_failure(self):
        args = ["--workload", "phase_shift_24h", "--seed", "2", "--trace",
                "0", "--setup-reps", "1", *SHORT]
        first = bench(*args)
        self.assertTrue(result_of(first)["correct"])
        digest = next(line.split()[1] for line in first.stdout.split("\n")
                      if line.startswith("digest "))
        bad = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        refs = os.path.join(self.tmp, "refs.tsv")
        for stored, correct in ((digest, True), (bad, False)):
            with open(refs, "w") as f:
                f.write(f"phase_shift_24h 2 2 {stored}\n")
            r = result_of(bench(*args, "--refs", refs))
            self.assertEqual(r["correct"], correct)
            self.assertEqual(r["failed"] > 0, not correct)

    def test_no_result_without_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "profile_cold", "--seed", "1", *SHORT,
                     cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
