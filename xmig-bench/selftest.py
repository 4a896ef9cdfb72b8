#!/usr/bin/env python3
"""Smoke self-test of xmig-bench at a tiny budget (about a minute).

    python3 xmig-bench/selftest.py

1. Every workload runs untraced and traced through run.py; every cell
   passes its checks, and the result line carries exactly the metrics
   BENCHMARK.json names for that mode, each with its unit.
2. table2 and storm cells equal runQuadcore() at the same budget and
   seed (xmig_bench --check-reference).
3. figure1_pairs cells equal bench_figure1's CSV rows at the same
   budget and seed.

Exits 0 when every check passes, 1 otherwise.
"""

import csv
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = 200_000
SEED = run.DEFAULT_SEED
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def result_lines():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", w, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--instr", str(TINY)],
                stdout=subprocess.PIPE, text=True)
            what = f"{w} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit {proc.returncode}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{what}: every cell correct")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            check(got == want, f"{what}: metrics and units match "
                               f"BENCHMARK.json {key}")


def quad_reference():
    for w in ("table2", "storm"):
        report = run.run_binary(w, SEED, 0, False, TINY, check_ref=True)
        bad = {c["name"]: c["problems"] for c in report["cells"]
               if c["problems"]}
        check(not bad, f"{w}: cells equal runQuadcore {bad or ''}")


def figure1_reference():
    run.build(("xmig_bench", "xmig_bench_refs"))
    out = os.path.join(run.BUILD, "selftest-figure1.csv")
    cmd = [os.path.join(run.BUILD, "bench", "bench_figure1"),
           "--instr", str(TINY), "--seed", str(SEED), "--csv", out]
    report = run.run_binary("figure1_pairs", SEED, 0, False, TINY)
    mixes = sorted({c["name"].split("/")[0] for c in report["cells"]})
    for mix in mixes:
        cmd += ["--bench", mix]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        check(False, "bench_figure1 ran")
        return
    with open(out) as f:
        rows = {f"{r['mix']}/{r['mode']}/{r['policy']}": r
                for r in csv.DictReader(line for line in f
                                        if not line.startswith("#"))}
    for c in report["cells"]:
        r = rows.get(c["name"])
        same = r is not None and all(
            r[col] == f"{c[key]:.3f}" for col, key in (
                ("makespan_mcycles", "makespan_mcycles"),
                ("aggregate_ipc", "aggregate_ipc"),
                ("weighted_speedup", "weighted_speedup"),
                ("unfairness", "unfairness"),
                ("jain_fairness", "jain"))) and \
            int(r["l3_accesses"]) == c["l3_accesses"] and \
            int(r["l3_misses"]) == c["l3_misses"]
        check(same, f"figure1_pairs {c['name']}: equals bench_figure1")


def main():
    run.build()
    result_lines()
    quad_reference()
    figure1_reference()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
