"""Self-tests of the benchmark's pure helpers.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(999), 95.0)
        self.assertEqual(measure.tail_percentile(500), 95.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(40), 75.0)
        self.assertEqual(measure.tail_percentile(20), 50.0)
        self.assertIsNone(measure.tail_percentile(19))
        self.assertEqual(measure.tail_percentile(10000), 99.9)

    def test_summary_falls_back_to_max(self):
        s = measure.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["median"], s["tail"], s["tail_label"], s["n"]), (2.0, 3.0, "max", 3))

    def test_summary_tail_has_ten_samples_beyond(self):
        values = list(range(1, 101))
        s = measure.summarize(values)
        self.assertEqual(s["tail_label"], "p90")
        self.assertEqual(sum(v > s["tail"] for v in values), 10)

    def test_nearest_rank(self):
        self.assertEqual(measure.nearest_rank([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(measure.nearest_rank([5, 1, 4, 2, 3], 100), 5)
        self.assertEqual(measure.nearest_rank([5, 1, 4, 2, 3], 1), 1)


def span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name,
            "rank": 0, "tid": 1, "thread": "t", "args": {}}


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [span("p", 0, 10, name="parent"), span("a", 1, 3, "p"), span("b", 2, 5, "p"),
                 span("c", 8, 12, "p"), span("g", 1.5, 2.5, "a", name="grandchild")]
        kids = tracing.children_of(spans)
        # children cover [1, 5] and [8, 10] of the parent: 6 of its 10 seconds
        self.assertAlmostEqual(tracing.self_time(spans[0], kids), 4.0)
        self.assertAlmostEqual(tracing.self_time(spans[1], kids), 1.0)
        by_layer = tracing.self_times_by_layer(spans)
        self.assertAlmostEqual(by_layer["parent"], 4.0)
        self.assertAlmostEqual(by_layer["grandchild"], 1.0)

    def test_leaf_self_time_is_its_duration(self):
        leaf = span("a", 2.0, 2.5)
        self.assertAlmostEqual(tracing.self_time(leaf, {}), 0.5)


class MetricNames(unittest.TestCase):
    def test_pattern(self):
        for good in ("fit_s", "nls.us_per_col", "local_ops.mm-flops", "9x"):
            self.assertTrue(measure.valid_metric_name(good), good)
        for bad in ("", "a b", "rate/s", ".hidden", "x" * 65, "é"):
            self.assertFalse(measure.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(measure.valid_metric_name(name), name)


class MatmulCounts(unittest.TestCase):
    def test_flops_match_the_program_count(self):
        from repro.core.local_ops import matmul_flops

        rng = np.random.default_rng(0)
        block = rng.random((37, 23))
        for k in (1, 8, 16):
            flops, nbytes = measure.mm_counts(block, k)
            self.assertEqual(flops, matmul_flops(block, k))
            self.assertGreater(nbytes, 0)

    def test_dense_bytes(self):
        flops, nbytes = measure.mm_counts(np.zeros((10, 20)), 4)
        self.assertEqual(flops, 2 * 10 * 20 * 4)
        self.assertEqual(nbytes, 8 * (10 * 20 + 20 * 4 + 10 * 4))


class Residual(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(3)
        self.W, self.H = rng.random((60, 4)), rng.random((4, 50))
        self.A = rng.random((60, 50))

    def test_matches_numpy(self):
        direct = np.linalg.norm(self.A - self.W @ self.H) / np.linalg.norm(self.A)
        self.assertAlmostEqual(measure.relative_residual(self.A, self.W, self.H, rows=7),
                               direct, places=12)

    def test_scale_equivariant_without_overflow(self):
        base = measure.relative_residual(self.A, self.W, self.H)
        for c in (1e-200, 1e200):
            got = measure.relative_residual(c * self.A, c * self.W, self.H)
            self.assertTrue(np.isfinite(got))
            self.assertAlmostEqual(got, base, places=12)

    def test_quartile_spread(self):
        self.assertEqual(measure.quartile_spread([1.0] * 10), 0.0)
        self.assertGreater(measure.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0.5)


if __name__ == "__main__":
    unittest.main()
