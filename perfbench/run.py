#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it builds into .bench_build/ at the
checkout root and keeps every file it writes there. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(perfbench/README.md lists both). The exit status is non-zero, with no result
line, when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("ring", "mpeg2_observed", "verify")

# An untraced run splits its --seconds over this many processes and pools
# their passes: each process gets its own address-space layout, which alone
# can move its pass times by 10-30%. Each process is also one setup_s sample,
# timed from its start to the end of its cold pass.
PROCESSES = 7
BUILD_TIMEOUT_S = 840
# Wall-clock cap for one benchmark process beyond its measuring budget.
CHILD_SLACK_S = 60


class BenchError(Exception):
    pass


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    try:
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"build failed: {e}") from e


def run_child(args, timeout_s):
    """Run perfbench once; return (seconds from start to the end of its cold
    pass, its result object)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(BINARY), *args], stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    setup_s = None
    last = ""
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "cold-pass-done":
                setup_s = time.perf_counter() - start
            if line.strip():
                last = line
        status = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if status != 0 or setup_s is None:
        raise BenchError(f"perfbench {' '.join(args)} exited with {status}")
    try:
        return setup_s, json.loads(last)
    except json.JSONDecodeError as e:
        raise BenchError(f"unreadable perfbench result: {last!r}") from e


def run(workload, seed, seconds, trace):
    build()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp")
    try:
        common = ["--workload", workload, "--seed", str(seed),
                  "--trace", str(trace), "--tmp-dir", tmp]
        if trace:
            spans = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            _, result = run_child(
                common + ["--seconds", repr(seconds), "--spans", str(spans)],
                3 * seconds + CHILD_SLACK_S)
            print(f"perfbench: spans written to {spans}", file=sys.stderr)
            results = [result]
            metrics = result["metrics"]
        else:
            share = seconds / PROCESSES
            runs = [run_child(common + ["--seconds", repr(share)],
                              3 * share + CHILD_SLACK_S)
                    for _ in range(PROCESSES)]
            results = [r for _, r in runs]
            passes = [p for r in results for p in r.get("passes", [])]
            if not passes:
                raise BenchError("no pass completed")
            print(f"perfbench: {len(passes)} passes pooled from {PROCESSES} "
                  "processes", file=sys.stderr)
            metrics = {
                name: {"value": statistics.median(p[i] for p in passes), "unit": "s"}
                for i, name in enumerate(("wall_s", "proc_wall_s", "thread_wall_s"))}
            metrics["setup_s"] = {"value": statistics.median(s for s, _ in runs),
                                  "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": statistics.median(r["metrics"]["peak_rss_mb"]["value"]
                                           for r in results),
                "unit": "MB"}
        failed = sum(r["failed"] for r in results)
        return {"correct": all(r["correct"] for r in results) and failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
