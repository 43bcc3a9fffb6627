#!/usr/bin/env python3
"""Unit tests for tools/report_metrics.py: the timing-artifact schema of
bench_serve_throughput's repeated workload (cold, reorder and warm waves)
and how `show` and `diff` render it. Run directly or via ctest
(ReportMetrics.UnitTests)."""

from __future__ import annotations

import copy
import io
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import report_metrics as rm


def serve_artifact() -> dict:
    return {
        "bench": "serve_throughput",
        "records": [{"label": "serve_runners=1", "wall_seconds": 0.02, "n": 40,
                     "samples": 0, "threads": 1, "gflops": 0.0}],
        "repeated_workload": {
            "jobs_per_wave": 12,
            "warm_waves": 3,
            "cold": {"wall_seconds": 0.012, "jobs_per_second": 1000.0},
            "reorder": {"wall_seconds": 0.002, "jobs_per_second": 6000.0, "cache_hits": 12},
            "warm": {"wall_seconds": 0.004, "jobs_per_second": 9000.0},
            "cache_hits": 48,
        },
    }


def errors_of(data: dict) -> list[str]:
    return rm.validate(Path("BENCH_serve_throughput.json"), data)


class RepeatedWorkloadSchemaTest(unittest.TestCase):
    def test_full_artifact_is_valid(self):
        self.assertEqual(errors_of(serve_artifact()), [])

    def test_reorder_wave_is_required(self):
        data = serve_artifact()
        del data["repeated_workload"]["reorder"]
        self.assertTrue(any("repeated_workload.reorder must be an object" in e
                            for e in errors_of(data)))

    def test_reorder_hits_must_be_a_count(self):
        for bad in (-1, 1.5, True, None):
            data = serve_artifact()
            data["repeated_workload"]["reorder"]["cache_hits"] = bad
            self.assertTrue(any("reorder.cache_hits" in e for e in errors_of(data)), bad)

    def test_reorder_throughput_must_be_a_nonnegative_number(self):
        data = serve_artifact()
        data["repeated_workload"]["reorder"]["jobs_per_second"] = -3.0
        self.assertTrue(any("reorder.jobs_per_second" in e for e in errors_of(data)))

    def test_cold_and_warm_waves_need_no_hit_count(self):
        data = serve_artifact()
        self.assertNotIn("cache_hits", data["repeated_workload"]["cold"])
        self.assertNotIn("cache_hits", data["repeated_workload"]["warm"])
        self.assertEqual(errors_of(data), [])


class RenderingTest(unittest.TestCase):
    def test_show_reports_each_wave(self):
        out = io.StringIO()
        with redirect_stdout(out):
            rm.show_timing(serve_artifact())
        text = out.getvalue()
        self.assertIn("cold 1000.00 jobs/s", text)
        self.assertIn("reorder 6000.00 jobs/s (6.0x, 12 hits)", text)
        self.assertIn("warm 9000.00 jobs/s", text)

    def test_diff_lists_the_reorder_wave(self):
        old = serve_artifact()
        new = copy.deepcopy(old)
        new["repeated_workload"]["reorder"]["jobs_per_second"] = 7500.0
        out = io.StringIO()
        with redirect_stdout(out):
            rm.diff_timings(old, new)
        rows = [line for line in out.getvalue().splitlines()
                if "repeated_workload.reorder jobs/s" in line]
        self.assertEqual(len(rows), 1)
        self.assertIn("6000.00", rows[0])
        self.assertIn("7500.00", rows[0])


if __name__ == "__main__":
    unittest.main()
