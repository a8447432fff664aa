#!/usr/bin/env python3
"""The groundrec benchmark: the paper's experiment loop through the CLI.

    python3 perfbench/run.py --workload {catalog20k,timelines,demo} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the CLI runs from ``src/``.
From the seed it writes a synthetic dataset of the workload's shape (see
workloads.py), then drives ``groundrec``, one command at a time and with
``--threads`` at most 2, through:

  set-up   split, popularity, embed (hash, dim 256), collab-fit
  round    generate (ngram) for a seeded subset of test samples,
           ground l2 with injection, ground bm25, eval plain and injected
           (--sample-n), tune-gamma injected (--sample-n), report compare

With --trace 0 it repeats rounds for at least S seconds, with a further
set-up after each of the first rounds, and reports the end-to-end metrics as
medians over the repeats: setup_s (one set-up), round_s (one round) and
peak_rss_mib. It also prints, ungated, each round command's own throughput
(the STAGES below).
With --trace 1 it makes one untraced and one traced set-up and round; the
traced commands run under spans.py, and it reports the per-layer metrics and
the tracing overhead. Every round's outputs are checked: the first against
the brute force in reference.py, later ones (and the traced one) by sha256
against the first. The last line of standard output is the JSON result; a
detail file with every artifact's sha256, the per-command timings and the
workload's properties goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from reference import Reference, parse_sample
from workloads import SHAPES, make_dataset

HERE = Path(__file__).resolve().parent
DEADLINE_S = 165  # a run must end within 180 s
TOPK = 20
GAMMA = 1.0
DIM = 256
TUNE_METRIC = "ndcg@10"
GRID_POINTS = 200
KS = (1, 3, 5, 10, 20)

SETUP_STEPS = ("split", "popularity", "embed", "collab-fit")
ROUND_STEPS = ("generate", "ground-l2", "ground-bm25", "eval-plain",
               "eval-inject", "tune-gamma", "report")
PER_SAMPLE_STEPS = ROUND_STEPS[:-1]
OUTPUTS = {
    "split": ["splits/" + f for f in (
        "train.tsv", "valid.tsv", "test.tsv", "samples_train.tsv",
        "samples_valid.tsv", "samples_test.tsv", "split.meta", "run.manifest")],
    "popularity": ["pop.tsv", "pop.tsv.manifest", "deciles.txt"],
    "embed": ["items.emb", "items.emb.manifest"],
    "collab-fit": ["co.bin", "co.bin.manifest"],
    "generate": ["round/gen.tsv", "round/gen.tsv.manifest"],
    "ground-l2": ["round/ground_l2.tsv", "round/ground_l2.tsv.manifest"],
    "ground-bm25": ["round/ground_bm25.tsv", "round/ground_bm25.tsv.manifest"],
    "eval-plain": ["round/report_plain.txt", "round/report_plain.txt.manifest",
                   "round/ranks_plain.tsv"],
    "eval-inject": ["round/report_inject.txt",
                    "round/report_inject.txt.manifest", "round/ranks_inject.tsv"],
    "tune-gamma": ["round/sweep.tsv", "round/sweep.tsv.manifest"],
    "report": ["round/compare.txt"],
}

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mib", "MiB"),
]
# Printed as "stage" lines, not in the result line. Each rests on one command
# of 1-2 s per round, so a run holds only a few seconds of it; on a 2-vCPU VM
# shared with other tenants their spread over ten seeds reached 0.26-0.38 of
# the median. round_s sums the commands of a round, so it rests on most of
# the run.
STAGES = [  # name, unit
    ("eval_samples_per_s", "1/s"),
    ("tune_points_per_s", "1/s"),
    ("ground_l2_queries_per_s", "1/s"),
    ("ground_bm25_queries_per_s", "1/s"),
    ("total_s", "s"),
]

# Spans whose time is reported; the value is the suffix of the total.
TIMED = {
    "ingest.parse_interactions": "s", "ingest.build_samples": "s",
    "ingest.write_samples": "s", "ingest.read_samples": "s",
    "pop.compute_popularity": "s",
    "embed.load_embeddings": "s", "embed.embed_catalog": "s",
    "embed.hash_embed": "s",
    "generate.train_ngram": "s", "generate.generate": "s",
    "ground.l2_distances": "s", "ground.rank": "s",
    "ground.RankedList.position": "s", "ground.normalize_distances": "s",
    "ground.inject": "s", "ground.BM25Index": "build_s", "ground.bm25_rank": "s",
    "collab.fit_cooccurrence": "s", "collab.score": "s",
    "harness.evaluate": "s", "harness.Pipeline.exclusions": "s",
    "tune.tune_gamma": "s",
    "manifest.sha256_file": "s",
}
SELF_TIMED = ("harness.evaluate", "tune.tune_gamma")
COUNTERS = {  # metric -> (span whose counters are summed, unit)
    "ingest.write_samples.bytes": ("ingest.write_samples", "B"),
    "ingest.read_samples.rows": ("ingest.read_samples", "count"),
    "ground.l2_distances.bytes_moved": ("ground.l2_distances", "B"),
    "ground.rank.items_sorted": ("ground.rank", "count"),
    "manifest.sha256_file.bytes": ("manifest.sha256_file", "B"),
}


def per_layer_spec():
    """(name, unit, better) for every metric of a traced run."""
    out = []
    for name, total in TIMED.items():
        out += [(f"{name}.{total}", "s", "lower"),
                (f"{name}.calls", "count", "lower"),
                (f"{name}.median_s", "s", "lower"),
                (f"{name}.tail_s", "s", "lower")]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    out += [(metric, unit, "lower") for metric, (_, unit) in COUNTERS.items()]
    out += [("ground.rank.useful_ratio", "ratio", "higher"),
            ("harness.evaluate.parallel_efficiency", "ratio", "higher")]
    out += [(f"cli.{step}.s", "s", "lower") for step in SETUP_STEPS + ROUND_STEPS]
    out += [(f"cli.{step}.setup_s", "s", "lower") for step in PER_SAMPLE_STEPS]
    out += [("trace.overhead", "ratio", "lower")]
    return out


class TimeUp(Exception):
    pass


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def draw(n_total, n, seed):
    """The indices `--sample-n n --seed seed` selects (ingest.sample_eval)."""
    if n >= n_total:
        return list(range(n_total))
    return random.Random(seed).sample(range(n_total), n)


def draw_ranked(skipped, want, seed):
    """Smallest --sample-n whose draw holds `want` samples that are not
    skipped for repeat consumption, so every seed ranks the same number."""
    for n in range(want, len(skipped) + 1):
        idx = draw(len(skipped), n, seed)
        if sum(not skipped[i] for i in idx) >= want:
            return idx
    return list(range(len(skipped)))


def l3_bytes():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    m = re.search(r"^L3 cache:\s+([\d.]+)\s*([KMG])i?B?", out, re.MULTILINE)
    if not m:
        return None
    return int(float(m.group(1)) * 1024 ** " KMG".index(m.group(2)))


class Bench:
    def __init__(self, root, shape, seed, deadline):
        self.shape = shape
        self.seed = seed
        self.deadline = deadline
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.work = root / ".perfbench_work" / f"{shape.name}-{seed}-{os.getpid()}"
        # started first, while this process is small: see spawn.py
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.texts = None  # generated text per subset sample, from generate
        self.commands = []  # every command run: dict of step, phase, wall, rss

    # --- running commands -------------------------------------------------

    def run(self, step, args, cwd, phase, spans_to=None):
        """Run one groundrec command; returns (returncode, output, record)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise TimeUp(f"no time left for {step}")
        if spans_to is None:
            argv = [sys.executable, "-m", "groundrec.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), str(spans_to), "--", *args]
        log = self.work / "logs" / f"{phase}-{step}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        self.spawner.stdin.write(json.dumps({
            "argv": argv, "cwd": str(cwd), "log": str(log), "timeout": remaining,
        }) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        rc = reply["returncode"]
        record = {"step": step, "phase": phase,
                  "wall_s": (reply["end_ns"] - reply["start_ns"]) / 1e9,
                  "rss_mib": reply["maxrss_kib"] / 1024,
                  "start_ns": reply["start_ns"], "returncode": rc}
        self.commands.append(record)
        if rc != 0 and time.monotonic() >= self.deadline - 1:
            raise TimeUp(f"{step} was stopped at the deadline")
        return rc, log.read_text(encoding="utf-8", errors="replace"), record

    def operation(self, step, phase, returncode, output, problems):
        """Count one command plus its output check."""
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit code {returncode}: {output.strip()[-300:]}"]
        self.failed += bool(problems)
        self.failures += [f"{phase} {step}: {p}" for p in problems]

    # --- set-up -----------------------------------------------------------

    def setup_commands(self):
        s = str(self.seed)
        return {
            "split": ["split", "--interactions", "interactions.tsv", "--out", "splits"],
            "popularity": ["popularity", "--train", "splits/train.tsv",
                           "--catalog", "catalog.tsv", "--out", "pop.tsv",
                           "--deciles", "deciles.txt"],
            "embed": ["embed", "--catalog", "catalog.tsv", "--dim", str(DIM),
                      "--seed", s, "--out", "items.emb"],
            "collab-fit": ["collab-fit", "--train", "splits/train.tsv",
                           "--catalog", "catalog.tsv", "--out", "co.bin"],
        }

    def run_steps(self, commands, d, phase, check, reference_hashes, spans_dir):
        """Run commands in d, hash what each wrote and check it: against
        reference_hashes when given, else with check(step, d, stdout).
        Returns ({step: wall}, {path: sha256})."""
        walls, hashes = {}, {}
        for step, args in commands.items():
            spans_to = spans_dir / f"{step}.json" if spans_dir else None
            rc, out, rec = self.run(step, args, d, phase, spans_to)
            walls[step] = rec["wall_s"]
            problems = []
            if rc == 0:
                for rel in OUTPUTS[step]:
                    if not (d / rel).is_file():
                        problems.append(f"missing {rel}")
                        continue
                    hashes[rel] = sha256(d / rel)
                    if reference_hashes is not None and hashes[rel] != reference_hashes.get(rel):
                        problems.append(f"{rel} differs from the first checked run")
                if reference_hashes is None and not problems:
                    try:
                        problems += check(step, d, out)
                    except (ValueError, KeyError, IndexError) as e:
                        problems.append(f"unreadable output: {e!r}")
            self.operation(step, phase, rc, out, problems)
        return walls, hashes

    def setup(self, dest, phase, reference_hashes=None, spans_dir=None):
        """One set-up in dest; returns ({step: wall}, {path: sha256})."""
        dest.mkdir(parents=True)
        shutil.copy(self.work / "data" / "interactions.tsv", dest)
        shutil.copy(self.work / "data" / "catalog.tsv", dest)
        return self.run_steps(self.setup_commands(), dest, phase, self.check_setup,
                              reference_hashes, spans_dir)

    def check_setup(self, step, dest, stdout):
        shape = self.shape
        if step == "split":
            meta = dict(line.split("=", 1) for line in
                        (dest / "splits" / "split.meta").read_text().splitlines())
            if int(meta["n_total"]) != shape.n_users * shape.events:
                return [f"split.meta n_total={meta['n_total']}"]
        elif step == "embed":
            if (dest / "items.emb").stat().st_size != 8 + shape.n_items * DIM * 4:
                return ["items.emb has the wrong size"]
        elif step == "popularity":
            rows = (dest / "pop.tsv").read_text().splitlines()[1:]
            if len(rows) != shape.n_items or sum(int(r.split("\t")[1]) for r in rows) \
                    != len((dest / "splits" / "train.tsv").read_text().splitlines()):
                return ["pop.tsv counts do not add up to the training split"]
        return []

    # --- rounds -----------------------------------------------------------

    def choose_subsets(self, setup_dir):
        """Seeded eval/ground and tune subsets; writes sub.tsv. Only the
        drawn test samples are kept parsed: on timelines all of them would
        hold a few hundred MB of known sets in this process."""
        def skip_flags(lines):
            return [f[2] in f[4].split(",") for f in (line.split("\t") for line in lines)]

        test_lines = (setup_dir / "splits" / "samples_test.tsv").read_text().splitlines()
        skipped = skip_flags(test_lines)
        self.eval_draw = draw_ranked(skipped, self.shape.queries, self.seed)
        self.ranked = [i for i in self.eval_draw if not skipped[i]]
        self.test = {i: parse_sample(test_lines[i]) for i in self.eval_draw}
        self.subset = "".join(test_lines[i] + "\n" for i in self.ranked)
        index = self.reference.index
        self.test_stats = {
            "repeat_consumption_share": sum(skipped) / len(skipped),
            "mean_exclusions_per_sample": statistics.fmean(
                sum(i in index for i in set(line.split("\t")[4].split(",")) if i)
                for line in test_lines),
        }
        valid_skipped = skip_flags(
            (setup_dir / "splits" / "samples_valid.tsv").read_text().splitlines())
        self.tune_draw = draw_ranked(valid_skipped, self.shape.tune_samples, self.seed)
        self.tune_ranked = sum(not valid_skipped[i] for i in self.tune_draw)

    def round_commands(self):
        s, t = str(self.seed), str(self.threads)
        inject = self.shape.inject
        inject_args = (["--inject", "pop", "--popularity", "pop.tsv"] if inject == "pop"
                       else ["--inject", "collab", "--scorer", "co.bin"])
        ground = ["ground", "--emb", "items.emb", "--gen", "round/gen.tsv",
                  "--catalog", "catalog.tsv", "--samples", "sub.tsv",
                  "--topk", str(TOPK), "--seed", s]
        pipeline = ["--catalog", "catalog.tsv", "--emb", "items.emb",
                    "--train", "splits/train.tsv", "--generator", "ngram",
                    "--seed", s, "--threads", t]
        evaluate = ["eval", "--test", "splits/samples_test.tsv", *pipeline,
                    "--sample-n", str(len(self.eval_draw))]
        return {
            "generate": ["generate", "--samples", "sub.tsv", "--catalog", "catalog.tsv",
                         "--generator", "ngram", "--train", "splits/train.tsv",
                         "--seed", s, "--out", "round/gen.tsv"],
            "ground-l2": ground + inject_args + ["--gamma", str(GAMMA),
                                                 "--out", "round/ground_l2.tsv"],
            "ground-bm25": ground + ["--strategy", "bm25",
                                     "--out", "round/ground_bm25.tsv"],
            "eval-plain": evaluate + ["--inject", "none",
                                      "--dump-ranks", "round/ranks_plain.tsv",
                                      "--out", "round/report_plain.txt"],
            "eval-inject": evaluate + ["--inject", inject, "--gamma", str(GAMMA),
                                       "--dump-ranks", "round/ranks_inject.tsv",
                                       "--out", "round/report_inject.txt"],
            "tune-gamma": ["tune-gamma", "--valid", "splits/samples_valid.tsv",
                           *pipeline, "--inject", inject, "--metric", TUNE_METRIC,
                           "--sample-n", str(len(self.tune_draw)),
                           "--out", "round/sweep.tsv"],
            "report": ["report", "round/report_plain.txt", "round/report_inject.txt",
                       "--mode", "compare", "--out", "round/compare.txt"],
        }

    def round(self, setup_dir, phase, reference_hashes=None, spans_dir=None):
        """One round in setup_dir; returns ({step: wall}, {path: sha256})."""
        if not (setup_dir / "sub.tsv").exists():
            (setup_dir / "sub.tsv").write_text(self.subset)
        shutil.rmtree(setup_dir / "round", ignore_errors=True)
        (setup_dir / "round").mkdir()
        return self.run_steps(self.round_commands(), setup_dir, phase, self.check_round,
                              reference_hashes, spans_dir)

    # --- output checks ----------------------------------------------------

    def check_round(self, step, d, stdout):
        ref = self.reference
        checked = self.ranked[: self.shape.checked]
        samples = [self.test[i] for i in checked]
        inject = self.shape.inject
        if step == "generate":
            rows = [line.split("\t") for line in
                    (d / "round" / "gen.tsv").read_text().splitlines()]
            if [int(r[0]) for r in rows] != list(range(len(self.ranked))):
                return ["gen.tsv does not hold one row per subset sample"]
            self.texts = [r[1] for r in rows]
            # for the property report: distinct distances per checked query
            self.distinct = [int(np.unique(ref.raw_distances(t)).size)
                             for t in self.texts[: len(checked)]]
            return []
        if self.texts is None:
            return ["no generated text to check against"]
        if step in ("ground-l2", "ground-bm25"):
            name = "ground_l2.tsv" if step == "ground-l2" else "ground_bm25.tsv"
            by_row = {}
            with open(d / "round" / name, encoding="utf-8") as fh:
                for line in fh:
                    by_row.setdefault(int(line.split("\t", 1)[0]), []).append(line)
            if sorted(by_row) != list(range(len(self.ranked))):
                return [f"{name} does not hold every query"]
            bad = []
            for j, sample in enumerate(samples):
                want = ref.ground_rows(j, self.texts[j], sample,
                                       "l2" if step == "ground-l2" else "bm25",
                                       TOPK, inject, GAMMA)
                if by_row[j] != want:
                    bad.append(f"{name} row {j} differs from the brute force")
            return bad
        if step in ("eval-plain", "eval-inject"):
            kind = "plain" if step == "eval-plain" else "inject"
            lines = (d / "round" / f"ranks_{kind}.tsv").read_text().splitlines()
            got = [line.split("\t")[1] for line in lines]
            if len(got) != len(self.eval_draw):
                return [f"ranks_{kind}.tsv has {len(got)} lines"]
            bad = []
            ranked_at = 0
            positions = []
            for i, pos in zip(self.eval_draw, got):
                sample = self.test[i]
                if sample["target"] in sample["known"]:
                    if pos != "skipped":
                        bad.append(f"repeat-consumption sample {i} was ranked")
                    continue
                positions.append(int(pos))
                if ranked_at < len(checked):
                    want = ref.position(self.texts[ranked_at], sample,
                                        inject if kind == "inject" else None, GAMMA)
                    if int(pos) != want:
                        bad.append(f"sample {i}: position {pos}, brute force {want}")
                ranked_at += 1
            if not positions:
                return bad + [f"ranks_{kind}.tsv ranks no sample"]
            report = read_report(d / "round" / f"report_{kind}.txt")
            if report["n_samples"] != len(positions) or \
                    report["skipped"] != len(got) - len(positions):
                bad.append(f"report_{kind}.txt counts differ from the dumped ranks")
            for k in KS:
                hr = sum(1.0 if p <= k else 0.0 for p in positions) / len(positions)
                ndcg = sum(1.0 / math.log2(p + 1) if p <= k else 0.0
                           for p in positions) / len(positions)
                if report[f"hr@{k}"] != f"{hr:.10g}" or report[f"ndcg@{k}"] != f"{ndcg:.10g}":
                    bad.append(f"report_{kind}.txt @{k} differs from the dumped ranks")
            return bad
        if step == "tune-gamma":
            rows = [line.split("\t") for line in
                    (d / "round" / "sweep.tsv").read_text().splitlines()]
            col = rows[0].index(TUNE_METRIC)
            grid = [float(r[0]) for r in rows[1:]]
            want = [i / 100 for i in range(101)] + [float(g) for g in range(2, 101)]
            if len(grid) != GRID_POINTS or grid != want:
                return ["sweep.tsv does not hold the 200-point gamma grid"]
            best = float(re.search(r"best_gamma=(\S+)", stdout).group(1))
            self.best_gamma = best
            values = [float(r[col]) for r in rows[1:]]
            if values[grid.index(best)] != max(values):
                return [f"best_gamma={best} is not a best row of sweep.tsv"]
            return []
        if step == "report":
            plain = read_report(d / "round" / "report_plain.txt")
            injected = read_report(d / "round" / "report_inject.txt")
            lines = (d / "round" / "compare.txt").read_text().splitlines()
            want = ["metric\treport_plain.txt\treport_inject.txt"] + [
                f"{m}\t{float(plain[m]):.6g}\t{float(injected[m]):.6g}"
                for m in [f"hr@{k}" for k in KS] + [f"ndcg@{k}" for k in KS]]
            return [] if lines == want else ["compare.txt differs from the reports"]
        return []


def read_report(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition("\t")
        out[key] = int(value) if key in ("n_samples", "skipped") else value
    return out


def end_to_end(bench, setups, rounds):
    """(metrics, stages) of an untraced run."""
    queries = len(bench.ranked)
    setup_s = statistics.median([sum(w.values()) for w in setups])
    round_s = statistics.median([sum(w.values()) for w in rounds])
    rss = {}
    for rec in bench.commands:
        rss.setdefault(rec["step"], []).append(rec["rss_mib"])

    # each command's median wall over the rounds
    wall = {step: statistics.median(r[step] for r in rounds) for step in ROUND_STEPS}

    def rate(work, steps):
        return work / sum(wall[s] for s in steps)

    metrics = {
        "setup_s": setup_s,
        "round_s": round_s,
        "peak_rss_mib": max(statistics.median(v) for v in rss.values()),
    }
    stages = {
        "eval_samples_per_s": rate(2 * queries, ("eval-plain", "eval-inject")),
        "tune_points_per_s": rate(bench.tune_ranked * GRID_POINTS, ("tune-gamma",)),
        "ground_l2_queries_per_s": rate(queries, ("ground-l2",)),
        "ground_bm25_queries_per_s": rate(queries, ("ground-bm25",)),
        "total_s": setup_s + round_s,
    }
    return metrics, stages


def per_layer(bench, traced_dir, traced_walls, plain_walls):
    """Per-layer metrics from the traced set-up and round."""
    all_spans, by_step = [], {}
    for step in traced_walls:
        path = traced_dir / f"{step}.json"
        step_spans = json.loads(path.read_text()) if path.exists() else []
        by_step[step] = step_spans
        all_spans += step_spans
    selfs = spans.self_times(all_spans)
    by_name = {}
    for s in all_spans:
        by_name.setdefault(s[0], []).append(s)

    def durations(name):
        return [(s[2] - s[1]) / 1e9 for s in by_name.get(name, ())]

    metrics = {}
    # every span's tail level and self time, for the detail file
    stats = {name: {"self_s": sum(selfs[s[3]] for s in group) / 1e9,
                    "tail_level": spans.tail(durations(name))[0]}
             for name, group in by_name.items()}
    for name, total in TIMED.items():
        d = durations(name)
        value = spans.tail(d)[1] if d else 0.0
        metrics[f"{name}.{total}"] = sum(d)
        metrics[f"{name}.calls"] = len(d)
        metrics[f"{name}.median_s"] = statistics.median(d) if d else 0.0
        metrics[f"{name}.tail_s"] = value
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = sum(selfs[s[3]] for s in by_name.get(name, ())) / 1e9
    for metric, (name, _) in COUNTERS.items():
        metrics[metric] = sum(s[7] or 0 for s in by_name.get(name, ()))
    l2_rows = len((bench.traced_setup / "round" / "ground_l2.tsv").read_text().splitlines())
    sorted_items = metrics["ground.rank.items_sorted"]
    useful = metrics["ground.RankedList.position.calls"] + l2_rows
    metrics["ground.rank.useful_ratio"] = useful / sorted_items if sorted_items else 0.0
    busy = sum(durations("harness.sample"))
    evaluate = sum(durations("harness.evaluate"))
    metrics["harness.evaluate.parallel_efficiency"] = (
        busy / (bench.threads * evaluate) if evaluate else 0.0)
    for step, (start_ns, wall) in traced_walls.items():
        metrics[f"cli.{step}.s"] = wall
        if step in PER_SAMPLE_STEPS:
            first = min((s[1] for s in by_step[step] if s[0] in spans.PER_SAMPLE),
                        default=None)
            metrics[f"cli.{step}.setup_s"] = (
                (first - start_ns) / 1e9 if first is not None else wall)
    metrics["trace.overhead"] = (sum(w for _, w in traced_walls.values())
                                 / sum(plain_walls.values()))
    return metrics, stats


def properties(bench):
    matrix = bench.reference.matrix
    l3 = l3_bytes()
    return {
        **bench.test_stats,
        "median_distinct_distances": statistics.median(bench.distinct)
        if getattr(bench, "distinct", None) else None,
        "catalog_items": matrix.shape[0],
        "matrix_bytes_float32": int(matrix.nbytes),
        "matrix_bytes_float64_copy": int(matrix.size * 8),
        "l3_bytes_lscpu": l3,
        "matrix_float64_over_l3": matrix.size * 8 / l3 if l3 else None,
        "eval_sample_n": len(bench.eval_draw),
        "eval_ranked": len(bench.ranked),
        "tune_sample_n": len(bench.tune_draw),
        "tune_ranked": bench.tune_ranked,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "groundrec" / "cli.py").is_file():
        print(f"perfbench: no groundrec sources under {root / 'src'}; "
              "run from the root of a groundrec checkout", file=sys.stderr)
        return 2
    shape = SHAPES[opts.workload]
    bench = Bench(root, shape, opts.seed, started + DEADLINE_S)
    detail = {"workload": shape.name, "seed": opts.seed, "trace": opts.trace,
              "threads": bench.threads, "shape": vars(shape).copy()}
    metrics, stages = {}, {}
    try:
        shutil.rmtree(bench.work, ignore_errors=True)
        (bench.work / "data").mkdir(parents=True)
        make_dataset(bench.work / "data", shape, opts.seed)
        # compile and cache the package before anything is timed
        bench.run("warm-up", ["--help"], bench.work, "warm-up")
        bench.commands.clear()

        first = bench.work / "setup0"
        # the first set-up's hashes are the reference for every other one
        walls, base_hashes = bench.setup(first, "setup0")
        setups = [walls]
        bench.reference = Reference(first, opts.seed)
        bench.choose_subsets(first)
        if opts.trace:
            traced_dir = bench.work / "spans"
            traced_dir.mkdir()
            bench.traced_setup = bench.work / "traced"
            traced_setup, _ = bench.setup(bench.traced_setup, "traced-setup",
                                          base_hashes, traced_dir)
            plain_round, round_hashes = bench.round(first, "round0")
            traced_round, _ = bench.round(bench.traced_setup, "traced-round",
                                          {**base_hashes, **round_hashes}, traced_dir)
            starts = {rec["step"]: rec["start_ns"] for rec in bench.commands
                      if rec["phase"].startswith("traced")}
            traced_walls = {step: (starts[step], wall) for step, wall in
                            {**traced_setup, **traced_round}.items()}
            metrics, detail["spans"] = per_layer(bench, traced_dir, traced_walls,
                                                 {**setups[0], **plain_round})
        else:
            # set-ups alternate with rounds, so that the samples of every
            # metric spread over the whole run, not over one part of it
            measured = time.monotonic()
            round_walls = []
            round_hashes = None
            while (len(round_walls) < shape.min_rounds
                   or len(setups) < shape.setup_repeats
                   or time.monotonic() - measured < opts.seconds):
                walls, hashes = bench.round(first, f"round{len(round_walls)}",
                                            round_hashes and {**base_hashes, **round_hashes})
                round_hashes = round_hashes or hashes
                round_walls.append(walls)
                if len(setups) < shape.setup_repeats:
                    r = len(setups)
                    setups.append(bench.setup(bench.work / f"setup{r}", f"setup{r}",
                                              base_hashes)[0])
                    shutil.rmtree(bench.work / f"setup{r}")
            metrics, stages = end_to_end(bench, setups, round_walls)
        detail["artifacts_sha256"] = {**base_hashes, **round_hashes}
        detail["properties"] = properties(bench)
        detail["best_gamma"] = getattr(bench, "best_gamma", None)
    except (TimeUp, OSError, ValueError, KeyError, IndexError) as e:
        # a missing or unreadable artifact stops the run; it counts as failed
        bench.attempted += 1
        bench.failed += 1
        bench.failures.append(f"run stopped: {e!r}")
    finally:
        bench.spawner.stdin.close()
        bench.spawner.wait()
        bench.spawner.stdout.close()
        shutil.rmtree(bench.work, ignore_errors=True)

    detail["commands"] = bench.commands
    detail["failures"] = bench.failures
    failed = bench.failed
    attempted = max(bench.attempted, 1)
    detail["failed_share"] = failed / attempted
    detail["metrics"] = metrics
    detail["stages"] = stages
    out_dir = root / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    detail_path = out_dir / f"{shape.name}-seed{opts.seed}-trace{opts.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    units = dict(END_TO_END) if not opts.trace else {
        n: u for n, u, _ in per_layer_spec()}
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    for name, unit in STAGES:
        if name in stages:
            print(f"stage {name:39s} {stages[name]:.6g} {unit}")
    print(f"{'failed_share':45s} {failed / attempted:.6g} share "
          f"({failed} of {attempted} operations)")
    for key, value in detail.get("properties", {}).items():
        print(f"property {key:36s} {value}")
    for f in bench.failures:
        print(f"FAILED {f}")
    digests = detail.get("artifacts_sha256", {})
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"artifacts: {len(digests)} files, combined sha256 {combined}")
    print(f"detail: {detail_path.relative_to(root)}")
    result = {
        "correct": not bench.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
