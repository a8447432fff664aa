#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs the demo shape (workloads.py; not a BENCHMARK.json workload) at
minimum length, untraced and traced, and checks
that the result line has the agreed keys, that every metric BENCHMARK.json
names is reported with its unit and nothing else, that no operation failed
(failed_share 0), that layers.json maps every per-layer metric, and that
every stage metric layers.json names is printed as a stage line. Then
checks that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, declared, problems, label):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    if not any(line.split()[:2] == ["failed_share", "0"] for line in lines):
        problems.append(f"{label}: no 'failed_share 0' line")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in declared.items():
        if got.get(name) != unit:
            problems.append(f"{label}: {name} reported with unit {got.get(name)!r}, "
                            f"declared {unit!r}")
    for name in set(got) - set(declared):
        problems.append(f"{label}: {name} is reported but not declared")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    untraced = run(ROOT, 0)
    check_result(untraced, end_to_end, problems, "untraced")
    stages = {line.split()[1] for line in untraced.stdout.splitlines()
              if line.startswith("stage ")}
    check_result(run(ROOT, 1), per_layer, problems, "traced")

    for name in per_layer:
        layer = name.rsplit(".", 1)[0]
        if layer not in layers:
            problems.append(f"layers.json does not map {layer}")
    for layer, entry in layers.items():
        for metric in entry["moves"]:
            if metric not in end_to_end:
                problems.append(f"layers.json: {layer} moves unknown {metric}")
        for metric in entry["stages"]:
            if metric not in stages:
                problems.append(f"layers.json: {layer} names unprinted stage {metric}")
        for workload in entry["on"]:
            if workload not in workloads:
                problems.append(f"layers.json: {layer} names unknown {workload}")

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", "demo", "--seed", "7",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
