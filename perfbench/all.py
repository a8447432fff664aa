#!/usr/bin/env python3
"""Run every workload in BENCHMARK.json once and print its metrics.

    python3 perfbench/all.py [--seed 7] [--trace 0]

Run from the root of a checkout. Prints "<workload> <metric> <value> <unit>"
for every metric, then the ungated stage throughputs as
"<workload> stage <name> <value> <unit>" and failed_share per workload;
exits 1 if any workload's outputs were wrong or a run did not finish.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(opts.seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", str(opts.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:11s} {name:45s} {m['value']:.6g} {m['unit']}")
        for line in lines:
            if line.startswith("stage "):
                print(f"{workload:11s} {line}")
        print(f"{workload:11s} {'failed_share':45s} "
              f"{result['failed'] / result['attempted']:.6g} share")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
