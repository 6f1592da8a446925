#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

  python3 ccbench/test_ccbench.py

Smoke-runs every workload untraced and traced with a short budget, checks
that every named metric arrives with its unit and a finite value and that
failed_frac is 0, that two same-seed sim runs give the same digests, and
that `run.py compare` refuses results from different hosts and compares
only runs of the same length.
"""

import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "ccbench"))
from run import UNGATED_WORKLOADS  # noqa: E402

RUN = [sys.executable, str(ROOT / "ccbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = UNGATED_WORKLOADS + [w["name"] for w in SPEC["workloads"]]
# One round or window of each workload. The history records the run length,
# so `compare` never weighs these runs against full ones.
SMOKE = ["--seconds", "2"]


def run_bench(*args):
    proc = subprocess.run(RUN + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    return proc, proc.stdout.strip().splitlines()


def report_lines(lines, workload):
    """name -> (value, unit) from the human report lines of one workload."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload and parts[1] != "digest":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload, trace):
        proc, lines = run_bench("--workload", workload, "--trace",
                                str(trace), *SMOKE)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        printed = report_lines(lines, workload)
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"])
            self.assertTrue(math.isfinite(entry["value"]), metric["name"])
            self.assertEqual(printed[metric["name"]][1], metric["unit"])
        if not trace:
            self.assertEqual(printed["failed_frac"], (0.0, "fraction"))
            self.assertGreater(result["metrics"]["commits_per_s"]["value"], 0)
        return lines

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_workload(workload, 0)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_workload(workload, 1)

    def test_same_seed_gives_same_digests(self):
        def digests():
            _, lines = run_bench("--workload", "sim_paper", "--seed", "5",
                                 *SMOKE)
            return sorted(line for line in lines if " digest " in line)
        first = digests()
        self.assertEqual(len(first), 5)
        self.assertEqual(first, digests())


class CompareTest(unittest.TestCase):
    def record(self, cores, value, seconds=30):
        return json.dumps({
            "fingerprint": {"cores": cores, "mhz": 2000, "compiler": "GNU-12",
                            "build_type": "Release"},
            "workload": "sim_paper", "seconds": seconds, "trace": 0,
            "metrics": {"commits_per_s": {"value": value,
                                          "unit": "commits/s"}}})

    def compare(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            a.write_text(old + "\n", encoding="utf-8")
            b.write_text(new + "\n", encoding="utf-8")
            return subprocess.run(RUN + ["compare", str(a), str(b)],
                                  capture_output=True, text=True, cwd=ROOT)

    def test_refuses_different_hosts(self):
        proc = self.compare(self.record(4, 100.0), self.record(1, 100.0))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("fingerprints differ", proc.stderr)

    def test_flags_regression_beyond_bound_by_name(self):
        self.assertEqual(
            self.compare(self.record(4, 100.0), self.record(4, 99.0))
            .returncode, 0)
        proc = self.compare(self.record(4, 100.0), self.record(4, 50.0))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("commits_per_s", proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)
        # A short run is not compared with a full one.
        proc = self.compare(self.record(4, 100.0),
                            self.record(4, 50.0, seconds=2))
        self.assertEqual(proc.returncode, 0)
        self.assertNotIn("REGRESSION", proc.stdout)


if __name__ == "__main__":
    unittest.main()
