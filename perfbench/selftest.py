"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

* a short run of every workload prints every metric of BENCHMARK.json
  with its unit, is correct and fails no op;
* a deliberately corrupted expected output makes the run fail;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int = 0, seconds: float = 2.0, cwd: Path = ROOT,
        corrupt: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("PERFBENCH_CORRUPT_EXPECTED", None)
    if corrupt:
        env["PERFBENCH_CORRUPT_EXPECTED"] = "1"
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def check(self, workload: str, trace: int, declared: list) -> None:
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        result = result_line(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)  # error_ratio is 0
        self.assertEqual(
            {name: entry["unit"] for name, entry in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], float)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, SPEC["per_layer"])


class CorruptionTest(unittest.TestCase):
    def test_corrupted_expected_output_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, corrupt=True, seconds=1.0)
                self.assertNotEqual(proc.returncode, 0)
                result = result_line(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_source_tree(self):
        bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(WORKLOADS[0], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
