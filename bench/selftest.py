"""Self-test for the benchmark: python3 bench/selftest.py (from the repository root).

Runs every workload on a handful of items, untraced and traced, and checks
that no item fails, that every metric named in BENCHMARK.json is reported
with its unit, and that two traced runs with the same seed report the same
input digest and the same exact counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITEMS = 2
SEED = 5


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """The report and result lines of one short run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--items", str(ITEMS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    *_, report, result = out.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


class BenchmarkSelfTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_result(self, result: dict, metrics: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        self.assertEqual(got, want)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_workloads(self) -> None:
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                untraced, result = run(workload, 0)
                self.check_result(result, self.spec["end_to_end"])
                first, traced = run(workload, 1)
                self.check_result(traced, self.spec["per_layer"])
                second, _ = run(workload, 1)
                self.assertEqual(untraced["inputs_digest"], first["inputs_digest"])
                self.assertEqual(first["inputs_digest"], second["inputs_digest"])
                self.assertEqual(first["exact_counts"], second["exact_counts"])
                self.assertTrue(first["counts_repeat"])


if __name__ == "__main__":
    unittest.main()
