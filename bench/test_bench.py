"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 -m pytest bench/test_bench.py     (or: python3 bench/test_bench.py)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MONOCAT = run.load_monocat(run.ROOT)


def tiny(name: str, seed: int = 1, trace: bool = False, adjust=None) -> dict:
    """One round of the workload on shrunken inputs."""
    return run.run_workload(MONOCAT, name, seed, 0.0, trace, small=True, adjust=adjust)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for name in WORKLOADS:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    record = tiny(name, trace=trace)
                    self.assertTrue(record["correct"])
                    self.assertEqual(record["failed"], 0)
                    self.assertGreaterEqual(record["attempted"], 1)
                    units = {k: v["unit"] for k, v in record["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[kind]})

    def test_seeds_change_labels_not_answers(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = tiny(name, seed=1), tiny(name, seed=2)
                self.assertTrue(first["invariants"])
                self.assertEqual(first["invariants"], second["invariants"])

    def test_wrong_expected_answer_counts_as_failure(self):
        def wrong_kernel(workload):
            workload.expect["kernel"] += 1

        def wrong_index_count(workload):
            workload.base[0][1]["I"] += 1

        for name, adjust in (("t4_battery", wrong_kernel), ("rees_roundtrip", wrong_index_count)):
            with self.subTest(workload=name):
                record = tiny(name, adjust=adjust)
                self.assertFalse(record["correct"])
                self.assertEqual(record["failed"], 1)

    def test_command_line_contract(self):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "connect_pairs",
                               "--seed", "3", "--seconds", "0", "--trace", "0"],
                              capture_output=True, text=True, cwd=run.ROOT, timeout=180)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])

    def test_refuses_to_run_without_monocat_source(self):
        scratch = run.ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
        try:
            shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            done = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus_suite",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, cwd=bare, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
