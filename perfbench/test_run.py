#!/usr/bin/env python3
"""Tests of the benchmark itself: the percentile rule, the metric names
against BENCHMARK.json, and the determinism of the input generators.

    python3 perfbench/test_run.py

Run from the root of a checkout; the generator test builds the runner
the way run.py does (into $CARGO_TARGET_DIR or .bench_build).
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def synthetic_raw(workload):
    """A runner report with every sample and count the metrics read."""
    metrics = {"counters": {"teleios_server_bytes_out_total": 10,
                            'teleios_exec_tasks_total{pool="global"}': 4},
               "gauges": {}, "histograms": {}}
    samples = {name: [1.0, 2.0, 3.0] for name in (
        "setup_s", "op_ms", "op_traced_ms", "step_ms", "read_ms", "write_ms",
        "sql_ms", "sciql_ms", "sparql_ms", "recovery_s", "plain_op_ms",
        "plain_op_traced_ms", "governor.admit_ms", "server.wire_tax_ms",
        "server.encode_ms")}
    for stage in run.NOA_STAGES:
        samples["stage:" + stage] = [1.0]
    return {"correct": True, "attempted": 10, "failed": 0, "errors": [],
            "samples": samples,
            "counts": {"measured_s": 1.0, "peak_rss_mb": 50.0,
                       "acquisitions": 10.0},
            "snapshots": {"metrics_before": metrics, "metrics_after": metrics}}


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(run.supported(99.0, 1000))   # rank 990, 10 beyond
        self.assertFalse(run.supported(99.0, 999))   # rank 990, 9 beyond
        self.assertTrue(run.supported(90.0, 100))
        self.assertFalse(run.supported(90.0, 99))
        self.assertFalse(run.supported(50.0, 19))
        self.assertTrue(run.supported(50.0, 20))

    def test_highest_supported(self):
        self.assertEqual(run.highest_supported(100000), 99.9)
        self.assertEqual(run.highest_supported(100000, cap=99.0), 99.0)
        self.assertEqual(run.highest_supported(999), 95.0)
        self.assertEqual(run.highest_supported(200), 95.0)
        self.assertEqual(run.highest_supported(199), 90.0)
        self.assertIsNone(run.highest_supported(19))

    def test_tail_falls_back_when_unsupported(self):
        values = list(range(1, 1001))
        self.assertEqual(run.tail(values, 99.0), (990, 99.0))
        self.assertEqual(run.tail(values[:500], 99.0), (475, 95.0))
        self.assertEqual(run.tail([5.0, 7.0], 99.0), (7.0, 100.0))

    def test_windowed_tail_is_median_of_window_tails(self):
        # Five windows of 100 rising values: p90s 90, 190, ..., 490.
        values = list(range(1, 501))
        self.assertEqual(run.windowed_tail(values, 90.0, 5), (290, 90.0))
        self.assertEqual(run.windowed_tail(values, 90.0, 1), run.tail(values, 90.0))
        # Windows of 99 do not support p90; each falls back to p75.
        self.assertEqual(run.windowed_tail(values[:495], 90.0, 5)[1], 75.0)
        self.assertEqual(run.windowed_tail([], 90.0, 5), (0.0, None))

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([3, 1, 2, 4], 50.0), 2)
        self.assertEqual(run.percentile(list(range(1, 101)), 90.0), 90)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.e2e, self.layers = run.load_declared()

    def test_declared_names_are_well_formed(self):
        for name in list(self.e2e) + list(self.layers):
            self.assertRegex(name, NAME)
        self.assertIn("setup_s", self.e2e)
        self.assertEqual(self.e2e["setup_s"], "s")

    def test_every_emitted_metric_is_declared(self):
        for workload in run.WORKLOADS:
            raw = synthetic_raw(workload)
            for trace, declared in ((False, self.e2e), (True, self.layers)):
                line = run.result_line(workload, raw, trace)
                self.assertEqual(set(line["metrics"]), set(declared), workload)
                for name, metric in line["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertEqual(metric["unit"], declared[name])


class Generators(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        with tempfile.TemporaryDirectory(dir=".") as work:
            out = subprocess.run(
                [self.binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--work-dir", work, "--input-digest"],
                check=True, capture_output=True, text=True)
        return out.stdout.strip()

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.digest(workload, 7), self.digest(workload, 7))

    def test_seed_changes_inputs(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(self.digest(workload, 7), self.digest(workload, 8))


if __name__ == "__main__":
    unittest.main()
