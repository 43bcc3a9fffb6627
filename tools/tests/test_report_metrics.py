#!/usr/bin/env python3
"""Unit tests for tools/report_metrics.py: the timing-artifact schema of
bench_serve_throughput (the run's utilization, the sweep points'
utilization and withheld throughput, the repeated workload's cold, reorder
and warm waves) and how `show` and `diff` render it. Run directly or via
ctest (ReportMetrics.UnitTests)."""

from __future__ import annotations

import copy
import io
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import report_metrics as rm


def sweep_point(runners: int, utilization: float, jobs_per_second) -> dict:
    pt = {"runners": runners, "repetitions": 50, "jobs": 2000, "wall_seconds": 1.0,
          "process_cpu_seconds": utilization, "utilization": utilization,
          "underutilized": jobs_per_second is None,
          "queue_seconds": {"p50": 0.001, "p99": 0.004},
          "run_seconds": {"p50": 0.0002, "p99": 0.001},
          "outcomes": {"completed": 2000, "failed": 0, "cancelled": 0, "expired": 0,
                       "rejected": 0}}
    if jobs_per_second is not None:
        pt["jobs_per_second"] = jobs_per_second
    return pt


def serve_artifact() -> dict:
    return {
        "bench": "serve_throughput",
        "records": [{"label": "serve_runners=1", "wall_seconds": 0.02, "n": 40,
                     "samples": 0, "threads": 1, "gflops": 0.0}],
        "process_cpu_seconds": 5.5,
        "utilization": 1.6,
        "serve": [sweep_point(1, 1.1, 2000.0), sweep_point(4, 2.2, None)],
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


class UtilizationSchemaTest(unittest.TestCase):
    def test_run_usage_comes_as_a_pair(self):
        for key in ("process_cpu_seconds", "utilization"):
            data = serve_artifact()
            del data[key]
            self.assertTrue(any(f"'{key}' must be" in e for e in errors_of(data)), key)
            data = serve_artifact()
            data[key] = -1.0
            self.assertTrue(any(f"'{key}' must be" in e for e in errors_of(data)), key)

    def test_sweep_point_needs_its_repetitions_and_cpu_seconds(self):
        for key in ("repetitions", "wall_seconds", "process_cpu_seconds"):
            data = serve_artifact()
            del data["serve"][0][key]
            self.assertTrue(any(f"serve[0].{key}" in e for e in errors_of(data)), key)

    def test_artifact_from_before_utilization_stays_valid(self):
        # Older artifacts carry no usage fields and a throughput per point.
        data = serve_artifact()
        del data["process_cpu_seconds"], data["utilization"], data["serve"][1]
        for key in ("repetitions", "wall_seconds", "process_cpu_seconds", "utilization",
                    "underutilized"):
            del data["serve"][0][key]
        self.assertEqual(errors_of(data), [])
        del data["serve"][0]["jobs_per_second"]
        self.assertTrue(any("serve[0].jobs_per_second" in e for e in errors_of(data)))

    def test_underutilized_point_withholds_its_throughput(self):
        data = serve_artifact()
        data["serve"][1]["jobs_per_second"] = 4000.0
        self.assertTrue(any("underutilized but reports jobs_per_second" in e
                            for e in errors_of(data)))

    def test_utilized_point_reports_its_throughput(self):
        data = serve_artifact()
        del data["serve"][0]["jobs_per_second"]
        self.assertTrue(any("serve[0].jobs_per_second" in e for e in errors_of(data)))

    def test_mark_agrees_with_the_utilization(self):
        # Four runners need a utilization of at least 3.0.
        data = serve_artifact()
        data["serve"][1]["utilization"] = 3.5
        self.assertTrue(any("serve[1].underutilized disagrees" in e for e in errors_of(data)))
        data = serve_artifact()
        data["serve"][0]["utilization"] = 0.5
        self.assertTrue(any("serve[0].underutilized disagrees" in e for e in errors_of(data)))


class RenderingTest(unittest.TestCase):
    def test_show_reports_utilization_and_withholds_throughput(self):
        out = io.StringIO()
        with redirect_stdout(out):
            rm.show_timing(serve_artifact())
        text = out.getvalue()
        self.assertIn("process CPU 5.500s   utilization 1.60", text)
        self.assertIn("serve runners=1: 2000.00 jobs/s  utilization 1.10 (50 batches", text)
        self.assertIn("serve runners=4: underutilized, jobs/s withheld  utilization 2.20", text)

    def test_diff_lists_utilization_and_records_on_one_side(self):
        old = serve_artifact()
        new = copy.deepcopy(old)
        new["utilization"] = 2.4
        new["records"] = []
        new["serve"][1] = sweep_point(4, 3.6, 5000.0)
        out = io.StringIO()
        with redirect_stdout(out):
            rm.diff_timings(old, new)
        text = out.getvalue()
        self.assertIn("serve_runners=1", text)
        self.assertIn("only in the old run", text)
        self.assertRegex(text, r"utilization\s+1\.600\s+2\.400")
        self.assertIn("serve runners=4: utilization 2.20 (50 batches, 1.00s) -> utilization "
                      "3.60 (50 batches, 1.00s), underutilized, jobs/s withheld -> "
                      "5000.00 jobs/s", text)

    def test_diff_against_an_artifact_without_utilization(self):
        old = serve_artifact()
        del old["process_cpu_seconds"], old["utilization"]
        for key in ("repetitions", "wall_seconds", "process_cpu_seconds", "utilization",
                    "underutilized"):
            del old["serve"][0][key]
        del old["serve"][1]
        out = io.StringIO()
        with redirect_stdout(out):
            rm.diff_timings(old, serve_artifact())
        text = out.getvalue()
        self.assertRegex(text, r"utilization\s+only in the new run")
        self.assertIn("serve runners=1: utilization not recorded -> utilization 1.10", text)

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
