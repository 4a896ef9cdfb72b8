#!/usr/bin/env python3
"""Checks the verdict of tools/ab_bench.py without building anything.

The verdict is fed synthetic per-pair metrics under the end-to-end
bounds of BENCHMARK.json; a failed run is played by a stub run.py.

    python3 tools/test_ab_bench.py
"""

import argparse
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_bench  # noqa: E402

with open(os.path.join(ab_bench.ROOT, "BENCHMARK.json")) as f:
    SPEC = {m["name"]: m for m in json.load(f)["end_to_end"]}

BASE = [40.0, 41.0, 39.0, 42.0, 40.0]  # ns/ref: median 40, IQR 1


def runs(ns_per_ref):
    """Per-pair metric dicts in which only ns_per_ref moves."""
    return [dict({name: 1.0 for name in SPEC}, ns_per_ref=v)
            for v in ns_per_ref]


def verdict(base, change):
    return ab_bench.verdict(SPEC, runs(base), runs(change))


class Verdict(unittest.TestCase):
    def test_every_pair_34_percent_worse_is_slower(self):
        # The size of a 40-iteration spin in processLine on table2.
        self.assertEqual(verdict(BASE, [v * 1.34 for v in BASE]),
                         ["ns_per_ref"])
        self.assertEqual(verdict(BASE[:3], [v * 1.34 for v in BASE[:3]]),
                         ["ns_per_ref"])

    def test_noop_with_one_outlier_is_not_slower(self):
        # Four pairs lost by a hair and one by 30 %: the sign test
        # passes, but the median does not leave the base IQR.
        change = [40.2, 41.3, 38.8, 42.0 * 1.30, 40.1]
        self.assertEqual(
            ab_bench.lost_pairs(SPEC["ns_per_ref"], BASE, change), 4)
        self.assertEqual(verdict(BASE, change), [])

    def test_four_of_five_worse_inside_the_bound_is_not_slower(self):
        # +10 % clears the base IQR but not the 25 % bound.
        change = [v * 1.10 for v in BASE[:4]] + [BASE[4] * 0.99]
        self.assertEqual(verdict(BASE, change), [])

    def test_two_of_three_lost_is_not_slower(self):
        # Fewer than 5 pairs: every pair must be lost, whatever the
        # size of the median shift.
        self.assertEqual(verdict(BASE[:3], [54.0, 55.0, 38.0]), [])

    def test_median_inside_a_wide_base_iqr_is_not_slower(self):
        base = [30.0, 60.0, 30.0, 60.0, 45.0]
        self.assertEqual(verdict(base, [v * 1.30 for v in base]), [])

    def test_higher_is_better_metrics_are_judged_downwards(self):
        metric = SPEC["est_speedup_geomean"]
        base = [1.0, 1.0, 1.0]
        self.assertTrue(ab_bench.is_slower(metric, base, [0.8] * 3))
        self.assertFalse(ab_bench.is_slower(metric, base, [1.2] * 3))


class FailedRun(unittest.TestCase):
    def run_stub(self, body):
        with tempfile.TemporaryDirectory() as tree:
            os.makedirs(os.path.join(tree, "xmig-bench"))
            with open(os.path.join(tree, "xmig-bench", "run.py"),
                      "w") as f:
                f.write(body)
            args = argparse.Namespace(workload="table2", seed=42)
            with self.assertRaises(SystemExit) as stop:
                ab_bench.run_once(tree, args, 1)
            return stop.exception.code

    def test_failed_cells_exit_2(self):
        line = json.dumps({"correct": False, "attempted": 18,
                           "failed": 1, "metrics": {}})
        self.assertEqual(self.run_stub(f"print({line!r})\n"), 2)

    def test_failed_build_or_run_exits_2(self):
        self.assertEqual(self.run_stub("raise SystemExit(1)\n"), 2)


if __name__ == "__main__":
    unittest.main()
