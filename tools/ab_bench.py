#!/usr/bin/env python3
"""Alternating A/B benchmark of two revisions on one host.

Checks out both revisions with `git archive`, builds each once through
its own xmig-bench/run.py, then runs N pairs of

    python3 xmig-bench/run.py --workload W --seed SEED --seconds S

alternating which side goes first in each pair (base first in even
pairs, change first in odd ones), so slow drift on a shared host hits
both sides alike. It prints, for every end-to-end metric of
BENCHMARK.json, each side's median, quartiles and IQR and the number of
pairs the change lost, and for the chosen metric the per-pair deltas.
Next to peak_rss_mb it prints each side's untraced pass count, for
information only: the peak grows with the passes a run completes, so a
faster build reads as a memory rise at a fixed --seconds.

    python3 tools/ab_bench.py --base HEAD~1 --change HEAD \\
        --workload table2 --pairs 10 --seconds 30

The base is extracted to <workdir>/a-<sha12> and the change to
<workdir>/b-<sha12>: names of equal length, so the two binaries, their
argv[0] and every path compiled into them have equal lengths too. The
size of the path and environment strings alone moves a program's
timing (Mytkowicz et al., ASPLOS 2009), and paths of different lengths
give two builds of one source different .rodata layouts and .text
bytes. Both revisions may be the same commit: an A/A run of the host's
noise.

Exit status:
  0  not slower;
  1  "slower": on some metric the change (a) lost every pair, or all
     but one when there are at least 5, (b) has a median worse than the
     base median by more than the base IQR, and (c) by more than the
     metric's BENCHMARK.json bound (a relative fraction);
  2  a build or run failed, or a run reported failed cells.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(msg):
    print(f"ab_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        die(f"git {' '.join(args)} failed")
    return proc.stdout.strip()


def checkout(rev, workdir, side):
    """Extract `rev` into workdir/<side>-<sha12> once; return the tree."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = os.path.join(workdir, f"{side}-{sha[:12]}")
    if not os.path.isfile(os.path.join(tree, "xmig-bench", "run.py")):
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", tree],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            die(f"could not extract {rev} into {tree}")
        if not os.path.isfile(os.path.join(tree, "xmig-bench", "run.py")):
            die(f"{rev} has no xmig-bench/run.py to benchmark")
    return tree, sha


PASSES = re.compile(r"(\d+) untraced \+ (\d+) traced passes")


def parse_passes(stdout):
    """The untraced pass count of run.py's summary line, or None."""
    match = PASSES.search(stdout)
    return int(match.group(1)) if match else None


def run_once(tree, args, seconds):
    """One run.py invocation: the final JSON line's metric values, with
    the untraced pass count under "passes" (None if not printed)."""
    cmd = [sys.executable, os.path.join(tree, "xmig-bench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        die(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        die(f"{tree}: {result.get('failed')} failed cells")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["passes"] = parse_passes(proc.stdout)
    return values


def quartiles(values):
    """(q1, median, q3), inclusive method; one value repeats itself."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worse_by(metric, base, change):
    """How much worse `change` is than `base` (negative: better)."""
    return change - base if metric["better"] == "lower" else base - change


def lost_pairs(metric, base, change):
    """Pairs (base[i], change[i]) in which the change is worse."""
    return sum(worse_by(metric, b, c) > 0 for b, c in zip(base, change))


def is_slower(metric, base, change):
    """The verdict on one metric, from its per-pair values.

    Slower only when all three hold: the change lost every pair (all
    but one from 5 pairs on), its median is worse than the base median
    by more than the base IQR, and by more than the metric's relative
    bound. One outlier pair cannot make a no-op slower, and a median
    inside the host's noise or the bound cannot either.
    """
    n = len(base)
    q1, base_median, q3 = quartiles(base)
    worse = worse_by(metric, base_median, quartiles(change)[1])
    return (lost_pairs(metric, base, change) >= (n if n < 5 else n - 1)
            and worse > q3 - q1
            and worse > metric["bound"] * abs(base_median))


def verdict(spec, base_runs, change_runs):
    """Names of the metrics on which the change is slower.

    `spec` maps each end-to-end metric to its BENCHMARK.json entry;
    `base_runs[i]` and `change_runs[i]` are pair i's metric dicts.
    """
    return [name for name, m in spec.items()
            if is_slower(m, [r[name] for r in base_runs],
                         [r[name] for r in change_runs])]


def print_passes(base_runs, change_runs):
    """The informational passes row: each side's median pass count."""
    base = [r["passes"] for r in base_runs]
    change = [r["passes"] for r in change_runs]
    if None in base or None in change:
        return
    print(f"  {'  passes (info)':22s} {statistics.median(base):12g} "
          f"{'':22s} {'':9s} {statistics.median(change):14g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="revision under test")
    ap.add_argument("--workload", required=True,
                    choices=("table2", "storm", "figure1_pairs"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--metric", default="ns_per_ref",
                    help="metric whose per-pair deltas are printed")
    ap.add_argument("--workdir", default=None,
                    help="where both checkouts and builds live "
                         "(default: a new directory under the system "
                         "temp dir)")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if args.metric not in spec:
        ap.error(f"--metric must be one of {', '.join(spec)}")

    workdir = args.workdir or tempfile.mkdtemp(prefix="xmig-ab-")
    os.makedirs(workdir, exist_ok=True)
    sides = {}
    for side, rev, name in (("base", args.base, "a"),
                            ("change", args.change, "b")):
        tree, sha = checkout(rev, workdir, name)
        print(f"{side}: {rev} = {sha[:12]} in {tree}", flush=True)
        run_once(tree, args, 1)  # build, and warm the host's caches
        sides[side] = {"tree": tree, "runs": []}

    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            sides[side]["runs"].append(
                run_once(sides[side]["tree"], args, args.seconds))
        b = sides["base"]["runs"][-1][args.metric]
        c = sides["change"]["runs"][-1][args.metric]
        print(f"pair {i + 1:2d} ({order[0]} first): {args.metric} "
              f"base {b:.4g}  change {c:.4g}  delta {c - b:+.4g}",
              flush=True)

    base_runs = sides["base"]["runs"]
    change_runs = sides["change"]["runs"]
    print(f"\n{args.workload}, {args.pairs} pairs x {args.seconds} s, "
          f"seed {args.seed}")
    print(f"  {'metric':22s} {'base median':>12s} {'[q1, q3]':>22s} "
          f"{'IQR':>9s} {'change median':>14s} {'[q1, q3]':>22s} "
          f"{'IQR':>9s} {'lost':>5s}")
    for name, m in spec.items():
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        print(f"  {name:22s} {bmed:12.4g} [{bq1:9.4g}, {bq3:9.4g}] "
              f"{bq3 - bq1:9.4g} {cmed:14.4g} [{cq1:9.4g}, {cq3:9.4g}] "
              f"{cq3 - cq1:9.4g} {lost_pairs(m, base, change):5d}")
        if name == "peak_rss_mb":
            print_passes(base_runs, change_runs)

    wins = lost_pairs(spec[args.metric],
                      [r[args.metric] for r in change_runs],
                      [r[args.metric] for r in base_runs])
    print(f"change better on {args.metric} in {wins}/{args.pairs} pairs")
    slower = verdict(spec, base_runs, change_runs)
    if slower:
        print(f"slower: {', '.join(slower)}")
        sys.exit(1)
    print("not slower")

if __name__ == "__main__":
    main()
