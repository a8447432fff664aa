#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark on two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload catalog20k \
        --seed 41 --pairs 10 [--seconds 40] [--out BENCH.json]

PARENT and CHANGE are two source checkouts (for example a ``git archive`` of
the parent commit and one of the change). Each pair runs
``perfbench/run.py --trace 0`` once in each, from the checkout's root; the
parent runs first in odd-numbered pairs and the change first in even ones, so
drift over the session falls on both sides alike. Nothing under
``perfbench/`` is changed.

A command's peak RSS moves with the length of the path it runs from, so the
script warns when the two checkout paths differ in length.

For each end-to-end metric that BENCHMARK.json declares it reports both
sides' median, quartiles and IQR, the pairs in which the change is better,
and the median difference; for each command, the median over runs of its
per-run median peak RSS; each run's per-command peak RSS and the command
that set the run's peak (the largest of them, as the benchmark takes it),
and how often each command set it on each side, so that a flip of one
command's heap layout shows as one; for each command, the median over runs
of its per-run median wall time and the pairs in which the change's was
lower, so a slowdown of one command shows even where round_s, a sum of
them, spreads too widely to tell; failed operations; and whether every
artifact sha256 is the same in every run of both sides. The summary goes under
``workloads.<workload>.seed<seed>`` of --out, which is updated in place if it
exists (other workloads and seeds are kept), after every pair, so a stopped
session keeps the pairs it finished. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run: its JSON result plus, from its detail file, the
    per-command peak RSS and wall-time medians, the command with the largest
    peak RSS (which sets the run's peak_rss_mib) and the artifact digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {checkout}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail_line = next(line for line in lines if line.startswith("detail: "))
    detail = json.loads((checkout / detail_line[len("detail: "):]).read_text())
    rss, wall = {}, {}
    for rec in detail["commands"]:
        if rec["phase"] != "warm-up":
            rss.setdefault(rec["step"], []).append(rec["rss_mib"])
            wall.setdefault(rec["step"], []).append(rec["wall_s"])
    command_rss = {step: statistics.median(v) for step, v in rss.items()}
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "command_rss_mib": command_rss,
        "peak_command": max(command_rss, key=command_rss.get),
        "command_wall_s": {step: statistics.median(v) for step, v in wall.items()},
        "artifacts_sha256": detail.get("artifacts_sha256", {}),
    }


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "iqr": round(q3 - q1, 4),
            "runs": [round(v, 4) for v in values]}


def summarize(runs, end_to_end):
    """The summary of a list of {"parent": run, "change": run} pairs."""
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        pairs = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                 for p in runs]
        if len(pairs) < 2:
            break
        parent, change = (spread([pair[i] for pair in pairs]) for i in (0, 1))
        difference = change["median"] - parent["median"]
        metrics[name] = {
            "unit": spec["unit"], "bound": spec.get("bound"),
            "parent": parent, "change": change,
            "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "median_difference": round(difference, 4),
            "change_over_parent_median": round(change["median"] / parent["median"], 4),
            "difference_exceeds_parent_iqr": abs(difference) > parent["iqr"],
        }
    steps = sorted({s for p in runs for side in SIDES for s in p[side]["command_rss_mib"]})
    per_command = {step: {side: round(statistics.median(
        [p[side]["command_rss_mib"][step] for p in runs]), 4) for side in SIDES}
        for step in steps}
    per_command_wall = {}
    for step in steps:
        pairs = [(p["parent"]["command_wall_s"][step], p["change"]["command_wall_s"][step])
                 for p in runs]
        per_command_wall[step] = {
            **{side: round(statistics.median(w[i] for w in pairs), 4)
               for i, side in enumerate(SIDES)},
            "change_wins": sum(c < p for p, c in pairs)}
    digests = [p[side]["artifacts_sha256"] for p in runs for side in SIDES]
    return {
        "pairs": len(runs),
        "end_to_end": metrics,
        "per_command_peak_rss_mib": per_command,
        "per_command_wall_s": per_command_wall,
        "peak_command_counts": {side: dict(Counter(
            p[side]["peak_command"] for p in runs).most_common()) for side in SIDES},
        "runs": {side: [{"peak_command": p[side]["peak_command"],
                         "command_rss_mib": {step: round(v, 4) for step, v
                                             in p[side]["command_rss_mib"].items()},
                         "command_wall_s": {step: round(v, 4) for step, v
                                            in p[side]["command_wall_s"].items()}}
                        for p in runs] for side in SIDES},
        "failed": {side: sum(p[side]["failed"] for p in runs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in runs) for side in SIDES},
        "artifacts": len(digests[0]) if digests else 0,
        "artifacts_identical": bool(digests) and all(d == digests[0] for d in digests),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--out", type=Path, default=Path("bench_pairs.json"))
    opts = ap.parse_args(argv)

    checkouts = dict(zip(SIDES, (opts.parent.resolve(), opts.change.resolve())))
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print(f"bench_pairs: warning: the checkout paths differ in length "
              f"({len(str(checkouts['parent']))} and {len(str(checkouts['change']))} "
              "characters), which moves peak RSS by about the benchmark's bound",
              file=sys.stderr)
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    for i in range(opts.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]  # pair 1 (i = 0): parent first
        pair = {"order": list(order)}
        for side in order:
            started = time.monotonic()
            pair[side] = run_once(checkouts[side], opts.workload, opts.seed, opts.seconds)
            shown = ", ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items())
            print(f"pair {i + 1} {side}: {shown} ({time.monotonic() - started:.0f} s)",
                  flush=True)
        runs.append(pair)

        record = json.loads(opts.out.read_text()) if opts.out.exists() else {}
        record.setdefault("command", f"python3 perfbench/run.py --workload W --seed S "
                                     f"--seconds {opts.seconds:g} --trace 0")
        record.setdefault("checkouts", {s: str(c) for s, c in checkouts.items()})
        summary = summarize(runs, end_to_end)
        summary["orders"] = [p["order"][0] + " first" for p in runs]
        record.setdefault("workloads", {}).setdefault(opts.workload, {})[
            f"seed{opts.seed}"] = summary
        opts.out.write_text(json.dumps(record, indent=1) + "\n")

    summary = summarize(runs, end_to_end)
    for name, m in summary["end_to_end"].items():
        print(f"{name}: {m['parent']['median']} -> {m['change']['median']} "
              f"(change better in {m['change_wins']}/{summary['pairs']}, "
              f"parent IQR {m['parent']['iqr']})")
    for step, w in summary["per_command_wall_s"].items():
        print(f"{step}: wall {w['parent']} -> {w['change']} s (change lower in "
              f"{w['change_wins']}/{summary['pairs']}); peak RSS "
              f"{summary['per_command_peak_rss_mib'][step]['parent']} -> "
              f"{summary['per_command_peak_rss_mib'][step]['change']} MiB")
    for side in SIDES:
        counts = summary["peak_command_counts"][side]
        counts = ", ".join(f"{step} {k}" for step, k in counts.items())
        print(f"{side} peak set by: {counts}")
    print(f"artifacts identical: {summary['artifacts_identical']}; failed: "
          f"{summary['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
