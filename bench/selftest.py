"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

They take about two minutes: every workload is set up and measured for
one operation (or one pass) untraced and once traced.  The file is not
named ``test_*.py`` so that the repository's test suite does not collect
it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from argparse import Namespace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (pins BLAS threads before numpy is imported)

sys.path.insert(0, str(run.ROOT / "src"))
import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def input_arrays(state) -> list:
    """Every array a workload's set-up hands to the measured phase."""
    if hasattr(state, "log"):  # train
        with open(state.csv_path, "rb") as fh:
            csv = np.frombuffer(fh.read(), dtype=np.uint8)
        return [state.log, state.fit_rows, state.held_rows, csv]
    arrays = [state.codec.params.to_vector()]
    for b in state.batches:
        arrays += [b.X, b.S, b.means, b.Y]
    arrays += [x for x, *_ in state.stream]
    for ref in state.refs.values():
        arrays += list(ref)
    return arrays


class TestInputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        for wl in WORKLOADS.values():
            with self.subTest(workload=wl.name):
                states = [wl.setup(seed, str(run.OUT_DIR)) for seed in (1, 1, 2)]
                try:
                    a, b, c = (input_arrays(s) for s in states)
                finally:
                    for s in states:
                        wl.cleanup(s)
                self.assertEqual(len(a), len(b))
                for x, y in zip(a, b):
                    np.testing.assert_array_equal(x, y)
                self.assertFalse(all(x.shape == y.shape and np.array_equal(x, y)
                                     for x, y in zip(a, c)))


class TestTracedRun(unittest.TestCase):
    """One traced run per workload: outputs, quality and metric names."""

    @classmethod
    def setUpClass(cls):
        cls.records = {}
        for name in WORKLOADS:
            args = Namespace(workload=name, seed=3, seconds=0.0, trace=1)
            cls.records[name] = run.run(args)

    def test_traced_outputs_identical(self):
        for name, (result, record) in self.records.items():
            with self.subTest(workload=name):
                self.assertTrue(record["traced_outputs_identical"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_metric_names_match_benchmark_json(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layer = [m["name"] for m in SPEC["per_layer"]]
        measured = set()
        for name, (result, record) in self.records.items():
            with self.subTest(workload=name):
                self.assertEqual(list(result["metrics"]), layer)
                self.assertEqual(list(record["end_to_end"]), e2e)
                measured |= set(record["per_layer_measured"])
        self.assertEqual(measured, set(layer))

    def test_end_to_end_metrics_never_zero(self):
        for name, (_, record) in self.records.items():
            for metric, value in record["end_to_end"].items():
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(value, 0.0)


class TestWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "train", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
