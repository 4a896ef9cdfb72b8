#!/usr/bin/env python3
"""Checks the verdict of tools/ab_bench.py without building anything.

The verdict is fed synthetic per-pair metrics under the end-to-end
bounds of BENCHMARK.json; a failed run, and the pass count beside the
metrics, are played by a stub run.py, and --paper's runs by a stub
xmig_paper.

    python3 tools/test_ab_bench.py
"""

import argparse
import contextlib
import io
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


class Passes(unittest.TestCase):
    SUMMARY = ("xmig-bench table2: seed 42, 2000000 instructions per "
               "kernel/tenant, 31 untraced + 0 traced passes, cells run "
               "serially")

    def test_summary_line_gives_the_untraced_passes(self):
        self.assertEqual(ab_bench.parse_passes(self.SUMMARY + "\n{}\n"),
                         31)

    def test_missing_summary_line_gives_none(self):
        self.assertIsNone(ab_bench.parse_passes('{"correct": true}\n'))

    def test_run_once_reports_passes_beside_the_metrics(self):
        line = json.dumps({"correct": True, "attempted": 18, "failed": 0,
                           "metrics": {"peak_rss_mb": {"value": 6.5}}})
        with tempfile.TemporaryDirectory() as tree:
            os.makedirs(os.path.join(tree, "xmig-bench"))
            with open(os.path.join(tree, "xmig-bench", "run.py"),
                      "w") as f:
                f.write(f"print({self.SUMMARY!r})\nprint({line!r})\n")
            args = argparse.Namespace(workload="table2", seed=42)
            self.assertEqual(ab_bench.run_once(tree, args, 1),
                             {"peak_rss_mb": 6.5, "passes": 31})


LISTING = """usage: xmig_paper EXPERIMENT [flags]

table1      Table 1: benchmark inventory and 16-KB L1 misses (20M instr)
            reads: --instr --bench --seed --jobs
fig1        Figure 1: migration mode vs throughput mode (4M instr, smoke 1M)
            reads: --instr --jobs --smoke --csv --metrics-out --journal-out
resilience  Fault resilience (8M instr, smoke 2M)
            reads: --instr --jobs --smoke --csv-dir
fig3        Figure 3: affinity snapshots, Circular and HalfRandom (fixed size)
            reads: --jobs
"""

# A stand-in xmig_paper: the listing without arguments; otherwise one
# stdout line and, for every artifact flag, a file (two under
# --csv-dir) whose text the stub's OUTPUT sets.
STUB_PAPER = """#!/usr/bin/env python3
import os, sys
OUTPUT = {output!r}
if len(sys.argv) == 1:
    sys.stdout.write({listing!r})
    sys.exit(0)
if sys.argv[1] == "broken":
    sys.exit(1)
args = sys.argv[2:]
for flag in ("--csv", "--metrics-out", "--journal-out"):
    if flag in args:
        with open(args[args.index(flag) + 1], "w") as f:
            f.write(OUTPUT + flag)
if "--csv-dir" in args:
    for name in ("degradation.csv", "recovery.csv"):
        with open(os.path.join(args[args.index("--csv-dir") + 1], name),
                  "w") as f:
            f.write(OUTPUT + name)
print(sys.argv[1], "ran with", " ".join(args))
"""


def write_stub(path, output="x", listing=LISTING):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(STUB_PAPER.format(output=output, listing=listing))
    os.chmod(path, 0o755)


class PaperParser(unittest.TestCase):
    def test_listing_gives_each_experiment_its_flags_in_order(self):
        reads = ab_bench.parse_listing(LISTING)
        self.assertEqual(list(reads), ["table1", "fig1", "resilience",
                                       "fig3"])
        self.assertEqual(reads["fig3"], ["--jobs"])
        self.assertEqual(reads["resilience"],
                         ["--instr", "--jobs", "--smoke", "--csv-dir"])

    def test_experiments_get_the_artifact_flags_both_sides_read(self):
        reads = ab_bench.parse_listing(LISTING)
        older = dict(reads, fig1=["--instr", "--jobs", "--csv"])
        self.assertEqual(
            ab_bench.paper_experiments("fig1,table1", older, reads),
            {"fig1": ["--csv"], "table1": []})
        self.assertEqual(
            ab_bench.paper_experiments("fig1", reads, reads),
            {"fig1": ["--csv", "--metrics-out", "--journal-out"]})

    def test_all_is_every_experiment_in_table_order(self):
        reads = ab_bench.parse_listing(LISTING)
        self.assertEqual(list(ab_bench.paper_experiments("all", reads,
                                                         reads)),
                         ["table1", "fig1", "resilience", "fig3"])

    def test_an_experiment_missing_on_one_side_exits_2(self):
        reads = ab_bench.parse_listing(LISTING)
        older = {k: v for k, v in reads.items() if k != "fig3"}
        for spec, base in (("fig4_5", reads), ("fig3", older)):
            with self.assertRaises(SystemExit) as stop:
                ab_bench.paper_experiments(spec, base, reads)
            self.assertEqual(stop.exception.code, 2)


def by_pair(cpu):
    """{experiment: per-pair CPU s} as one {experiment: CPU s} per pair."""
    return [dict(zip(cpu, values)) for values in zip(*cpu.values())]


def paper_verdict(base, change):
    """verdict() as --paper calls it, on the cpu_s bound."""
    spec = {name: SPEC["cpu_s"] for name in base}
    return ab_bench.verdict(spec, by_pair(base), by_pair(change))


class PaperVerdict(unittest.TestCase):

    def test_identical_runs_differ_in_nothing(self):
        run = (b"table\n", {"out.csv": b"a,b\n"})
        self.assertEqual(ab_bench.output_differences(run, run), [])

    def test_stdout_and_every_differing_file_are_named(self):
        base = (b"table\n", {"out.csv": b"a", "csv/x.csv": b"1"})
        change = (b"table!\n", {"out.csv": b"b", "csv/x.csv": b"1",
                                "extra": b""})
        self.assertEqual(ab_bench.output_differences(base, change),
                         ["stdout", "extra", "out.csv"])

    def test_faster_and_noisy_experiments_are_not_slower(self):
        base = {"fig4_5": [24.0, 25.0, 23.6, 24.4, 25.1],
                "table1": [8.0, 8.1, 7.9, 8.3, 8.0]}
        change = {"fig4_5": [13.0, 12.9, 13.5, 13.1, 13.2],
                  "table1": [8.1, 8.0, 8.2, 7.9, 8.4]}
        self.assertEqual(paper_verdict(base, change), [])

    def test_an_experiment_slower_in_every_pair_is_named(self):
        base = {"linesize": [3.0, 3.1, 2.9, 3.0, 3.0],
                "table1": [8.0, 8.1, 7.9, 8.3, 8.0]}
        change = {"linesize": [v * 1.34 for v in base["linesize"]],
                  "table1": base["table1"]}
        self.assertEqual(paper_verdict(base, change), ["linesize"])


class PaperRuns(unittest.TestCase):
    def test_run_reports_cpu_stdout_and_every_file_it_wrote(self):
        with tempfile.TemporaryDirectory() as tmp:
            stub = os.path.join(tmp, "xmig_paper")
            write_stub(stub)
            seconds, stdout, files = ab_bench.run_paper(
                stub, "resilience", ["--csv-dir"], os.path.join(tmp, "run"))
            self.assertGreaterEqual(seconds, 0.0)
            self.assertEqual(stdout,
                             b"resilience ran with --jobs 1 --csv-dir csv\n")
            self.assertEqual(files, {
                os.path.join("csv", "degradation.csv"): b"xdegradation.csv",
                os.path.join("csv", "recovery.csv"): b"xrecovery.csv"})

    def test_failed_run_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            stub = os.path.join(tmp, "xmig_paper")
            write_stub(stub)
            with self.assertRaises(SystemExit) as stop:
                ab_bench.run_paper(stub, "broken", [],
                                   os.path.join(tmp, "run"))
            self.assertEqual(stop.exception.code, 2)

    def main_paper(self, base_output, change_output):
        """main_paper over two stub sides, building nothing. Every run
        reports 1 CPU s: a stub's own timing is noise that could call
        two pairs "slower" on a loaded host."""
        with tempfile.TemporaryDirectory() as tmp:
            trees = {side: os.path.join(tmp, side)
                     for side in ("base", "change")}
            write_stub(ab_bench.paper_binary(trees["base"]), base_output)
            write_stub(ab_bench.paper_binary(trees["change"]),
                       change_output)
            args = argparse.Namespace(paper="fig1,fig3", pairs=2,
                                      workdir=tmp)
            build, run = ab_bench.build_paper, ab_bench.run_paper
            ab_bench.build_paper = lambda tree: None
            ab_bench.run_paper = lambda *a: (1.0, *run(*a)[1:])
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    ab_bench.main_paper(args, SPEC, trees)
            finally:
                ab_bench.build_paper, ab_bench.run_paper = build, run

    def test_identical_sides_are_not_slower(self):
        self.main_paper("same", "same")

    def test_a_differing_file_exits_2_whatever_the_timing(self):
        with self.assertRaises(SystemExit) as stop:
            self.main_paper("same", "other")
        self.assertEqual(stop.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
