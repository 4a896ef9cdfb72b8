#!/usr/bin/env python3
"""xmig-bench: the repository's suite-wide, per-layer benchmark.

Builds the simulator from the surrounding source tree (the repository's
default RelWithDebInfo build) into .bench_build/, runs one workload,
checks every cell's simulated counters against golden.json, and prints
the result. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1). README.md describes workloads and metrics.

    python3 xmig-bench/run.py --workload table2 --seed 42 --seconds 30 --trace 0
    python3 xmig-bench/run.py --record-golden   # after an intended change
"""

import argparse
import fcntl
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "xmig-bench")
BINARY = os.path.join(BUILD, "xmig_bench")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("table2", "storm", "figure1_pairs")
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009


def fail(msg):
    print(f"xmig-bench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(targets=("xmig_bench",)):
    """Configure once, then bring the targets up to date (serialized)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no xmig source tree around {HERE}; nothing to benchmark")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def build_info():
    """Host and build settings that every number is reported with."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = os.path.basename(cache.get("CMAKE_CXX_COMPILER", "?"))
    files = os.path.join(BUILD, "CMakeFiles")
    for sub in sorted(os.listdir(files)):
        path = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            text = open(path).read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            compiler = f"{cid.group(1) if cid else compiler} " \
                       f"{ver.group(1) if ver else '?'}"
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "host_cores": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "compiler": compiler,
        "CMAKE_BUILD_TYPE": cache.get("CMAKE_BUILD_TYPE", "?"),
        "XMIG_AUDIT_LEVEL": cache.get("XMIG_AUDIT_LEVEL", "?"),
        "XMIG_FAULT": cache.get("XMIG_FAULT", "?"),
        "XMIG_JOURNAL": cache.get("XMIG_JOURNAL", "?"),
        "XMIG_TRACE": cache.get("XMIG_TRACE", "?"),
    }


def run_binary(workload, seed, seconds, trace, instr=0, check_ref=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if instr:
        cmd += ["--instr", str(instr)]
    if check_ref:
        cmd.append("--check-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"xmig_bench exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout)


def load_golden():
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def check_golden(report, golden):
    """Flag cells whose counters differ from the recorded digests."""
    seed = str(report["seed"])
    workload = report["workload"]
    digests = golden.get("digests", {}).get(seed, {}).get(workload)
    if digests is None or \
            golden["instructions"].get(workload) != report["instructions"]:
        return False
    for cell in report["cells"]:
        if digests.get(cell["name"]) != cell["digest"]:
            cell["problems"].append("digest differs from golden")
    return True


def record_golden():
    build()
    golden = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
              "instructions": {}, "digests": {}}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for w in WORKLOADS:
            report = run_binary(w, seed, 0, False)
            bad = [c for c in report["cells"] if c["problems"]]
            if bad:
                fail(f"refusing to record: {w} seed {seed}: {bad}")
            golden["instructions"][w] = report["instructions"]
            golden["digests"].setdefault(str(seed), {})[w] = {
                c["name"]: c["digest"] for c in report["cells"]}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")


def show(report, info, trace, golden_checked):
    print(f"xmig-bench {report['workload']}: seed {report['seed']}, "
          f"{report['instructions']} instructions per kernel/tenant, "
          f"{report['passes']} untraced + {report['traced_passes']} traced "
          f"passes, cells run serially")
    print("host/build: " + json.dumps(info, sort_keys=True))
    print("golden digests: " + ("checked" if golden_checked else
                                "not recorded for this seed/budget"))
    print(f"  {'cell':40s} {'ns/ref':>8s}  {'digest':16s}  status")
    for c in report["cells"]:
        extra = ""
        if "ratio" in c:
            extra = f"  ratio {c['ratio']:.3f}"
            if c.get("paper_ratio") is not None:
                extra += f" (paper {c['paper_ratio']:.2f})"
        elif "makespan_mcycles" in c:
            extra = f"  makespan {c['makespan_mcycles']:.3f} Mcyc, " \
                    f"jain {c['jain']:.3f}"
        status = "; ".join(c["problems"]) or "ok"
        print(f"  {c['name']:40s} {c['ns_per_ref']:8.2f}  {c['digest']}  "
              f"{status}{extra}")
    for name, m in report["fidelity"].items():
        print(f"  {name} = {m['value']:.4f} {m['unit']}")
    if not trace:
        for name, m in report["end_to_end"].items():
            print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
        return
    rows = report["self_time_ms_per_pass"]
    total = sum(m["value"] for m in rows.values()) or 1.0
    print("per-layer self time (traced passes, ms per pass):")
    for name, m in rows.items():
        print(f"  {name:28s} {m['value']:10.1f} ms  "
              f"{100.0 * m['value'] / total:5.1f} %")
    dominant = max(rows, key=lambda k: rows[k]["value"])
    print(f"dominant layer: {dominant}")
    overhead = report["layers"]["trace.overhead_ns_per_ref"]["value"]
    print(f"tracing overhead: {overhead:+.2f} ns/ref "
          "(traced minus untraced ns_per_ref)")
    for name, m in report["layers"].items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instr", type=int, default=0,
                    help="override the per-kernel instruction budget "
                         "(golden digests then do not apply)")
    ap.add_argument("--record-golden", action="store_true",
                    help="re-record golden.json for both seeds")
    args = ap.parse_args()
    if args.record_golden:
        record_golden()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if min(args.seed, args.seconds, args.instr) < 0:
        ap.error("--seed, --seconds and --instr must be non-negative")

    build()
    info = build_info()
    report = run_binary(args.workload, args.seed, args.seconds,
                        args.trace == 1, args.instr)
    golden_checked = check_golden(report, load_golden())
    report["host"] = info
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(report, f, indent=1)

    show(report, info, args.trace == 1, golden_checked)
    failed = sum(1 for c in report["cells"] if c["problems"])
    metrics = report["layers"] if args.trace else report["end_to_end"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(report["cells"]),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
