#!/usr/bin/env python3
"""Self-check of the repository benchmark at its shortest run length.

    python3 perfbench/selfcheck.py

Runs every workload in BENCHMARK.json for one second through perfbench/run.py,
untraced and traced, and fails unless every run passes its correctness gate,
prints exactly the metrics BENCHMARK.json declares (end-to-end untraced,
per-layer traced) with the declared units, leaves no temporary files behind,
and every traced run writes its span file. Count metrics must be identical
in all traced runs: each one traces a pass of every workload. It prints every
metric it received, per workload.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SPAN_KEYS = {"name", "start_ns", "end_ns", "parent", "counts"}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(where, result, declared, problems):
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correctness gate failed ({result['failed']} "
                        f"of {result['attempted']} operations)")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted = {result['attempted']!r}")
    metrics = result["metrics"]
    for name, got in sorted(metrics.items()):
        print(f"{where:26} {name:38} {got.get('value')!s:>22} {got.get('unit')}")
    for name in sorted(set(declared) ^ set(metrics)):
        problems.append(f"{where}: metric {name} "
                        f"{'missing' if name in declared else 'not declared'}")
    for name, spec in declared.items():
        got = metrics.get(name)
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != spec["unit"]:
            problems.append(f"{where}: {name} unit {got.get('unit')!r}, "
                            f"declared {spec['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")


def check_spans(where, path, problems):
    if not path.is_file():
        problems.append(f"{where}: no span file {path}")
        return
    lines = path.read_text().splitlines()
    if not lines:
        problems.append(f"{where}: empty span file")
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if set(rec) != SPAN_KEYS or rec["end_ns"] < rec["start_ns"] \
                or not -1 <= rec["parent"] < i:
            problems.append(f"{where}: bad span record {i}: {line}")
            return


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    tmp = ROOT / ".bench_build" / "tmp"
    problems = []
    counts = {}
    for seed, w in enumerate(bench["workloads"], start=1):
        name = w["name"]
        check_result(f"{name} untraced", run(name, seed, 0), end_to_end, problems)
        traced = run(name, seed, 1)
        check_result(f"{name} traced", traced, per_layer, problems)
        check_spans(f"{name} traced",
                    ROOT / ".bench_build" / "spans" / f"{name}-seed{seed}.jsonl",
                    problems)
        for metric, spec in per_layer.items():
            if spec["unit"] == "count" and metric in traced["metrics"]:
                counts.setdefault(metric, set()).add(
                    traced["metrics"][metric]["value"])
        if tmp.is_dir() and any(tmp.iterdir()):
            problems.append(f"{name}: left files in {tmp}")
    for metric, values in sorted(counts.items()):
        if len(values) != 1:
            problems.append(f"count {metric} differs between runs: {sorted(values)}")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
