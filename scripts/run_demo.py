#!/usr/bin/env python3
"""End-to-end demo of the groundrec pipeline on a synthetic dataset.

Generates a small interaction log plus an item catalog, then drives the CLI
through the full experiment flow:

    split -> popularity -> embed -> collab-fit -> generate -> ground
          -> eval -> tune-gamma -> report

ground runs with popularity and collaborative injection and with BM25; eval
runs plain, with both injections at the tuned gamma, and as the Most-Pop
baseline.

Everything lands in a scratch directory (default: ./demo_run) and is fully
deterministic for a given --seed, so running twice gives byte-identical
artifacts.

Usage:
    python3 scripts/run_demo.py [--out demo_run] [--seed 7] [--threads 4]
"""

import argparse
import random
import subprocess
import sys
from pathlib import Path

ADJECTIVES = ["silent", "crimson", "lost", "electric", "midnight", "golden",
              "broken", "distant", "hidden", "savage", "gentle", "frozen"]
NOUNS = ["river", "empire", "garden", "signal", "harbor", "echo", "storm",
         "mirror", "canyon", "lantern", "orbit", "meadow"]


def make_dataset(out: Path, seed: int, n_users=60, n_items=120, events=30):
    rng = random.Random(seed)
    titles = {}
    for k in range(n_items):
        adj = ADJECTIVES[k % len(ADJECTIVES)]
        noun = NOUNS[(k // len(ADJECTIVES)) % len(NOUNS)]
        titles[f"m{k:03d}"] = f"{adj} {noun} volume {k}"
    items = sorted(titles)
    # zipf-ish popularity so the injection step has something to bite on
    weights = [1.0 / (k + 1) for k in range(n_items)]
    rows = []
    ts = 0
    for u in range(n_users):
        for _ in range(events):
            item = rng.choices(items, weights=weights, k=1)[0]
            rows.append(f"u{u:03d}\t{item}\t{ts}")
            ts += 1
    (out / "interactions.tsv").write_text("\n".join(rows) + "\n")
    (out / "catalog.tsv").write_text(
        "\n".join(f"{i}\t{titles[i]}" for i in items) + "\n"
    )


def run(args, capture=False):
    args = [str(a) for a in args]
    print("+ " + " ".join(args))
    res = subprocess.run(args, check=True,
                         capture_output=capture, text=capture)
    return res.stdout if capture else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=4)
    opts = ap.parse_args()

    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    make_dataset(out, opts.seed)

    g = [sys.executable, "-m", "groundrec.cli"]
    cat = out / "catalog.tsv"
    train = out / "splits" / "train.tsv"
    seed = str(opts.seed)
    threads = str(opts.threads)

    run(g + ["split", "--interactions", out / "interactions.tsv",
             "--out", out / "splits"])
    run(g + ["popularity", "--train", train, "--catalog", cat,
             "--out", out / "pop.tsv", "--deciles", out / "deciles.txt"])
    run(g + ["embed", "--catalog", cat, "--dim", "256", "--seed", seed,
             "--out", out / "items.emb"])
    run(g + ["collab-fit", "--train", train, "--catalog", cat,
             "--out", out / "co.bin"])

    # generate descriptions for the test samples and rank the catalog for them
    run(g + ["generate", "--samples", out / "splits" / "samples_test.tsv",
             "--catalog", cat, "--generator", "ngram", "--train", train,
             "--seed", seed, "--out", out / "gen_test.tsv"])
    ground = g + ["ground", "--emb", out / "items.emb", "--gen", out / "gen_test.tsv",
                  "--catalog", cat, "--samples", out / "splits" / "samples_test.tsv",
                  "--topk", "10", "--seed", seed]
    run(ground + ["--inject", "pop", "--popularity", out / "pop.tsv",
                  "--gamma", "1.0", "--out", out / "ranks.tsv"])
    run(ground + ["--inject", "collab", "--scorer", out / "co.bin",
                  "--gamma", "1.0", "--out", out / "ranks_collab.tsv"])
    run(ground + ["--strategy", "bm25", "--out", out / "ranks_bm25.tsv"])

    common = ["--catalog", cat, "--emb", out / "items.emb", "--train", train,
              "--generator", "ngram", "--seed", seed, "--threads", threads]

    # plain grounding on the test partition
    run(g + ["eval", "--test", out / "splits" / "samples_test.tsv",
             "--inject", "none"] + common + ["--out", out / "report_plain.txt"])

    # tune gamma on validation, then evaluate injection with the winner
    stdout = run(g + ["tune-gamma", "--valid", out / "splits" / "samples_valid.tsv",
                      "--inject", "pop", "--metric", "ndcg@10"] + common +
                 ["--out", out / "sweep.tsv"], capture=True)
    print(stdout, end="")
    best = next(line.split("=")[1].split()[0]
                for line in stdout.splitlines() if line.startswith("best_gamma="))
    print(f"using gamma={best}")

    run(g + ["eval", "--test", out / "splits" / "samples_test.tsv",
             "--inject", "pop", "--gamma", best] + common +
        ["--out", out / "report_injected.txt"])

    run(g + ["eval", "--test", out / "splits" / "samples_test.tsv",
             "--inject", "collab", "--gamma", best] + common +
        ["--out", out / "report_collab.txt"])

    # the Most-Pop baseline ranks by training popularity alone
    run(g + ["eval", "--test", out / "splits" / "samples_test.tsv",
             "--catalog", cat, "--train", train, "--generator", "most-pop",
             "--seed", seed, "--out", out / "report_most_pop.txt"])

    run(g + ["report", out / "report_plain.txt", out / "report_injected.txt",
             "--mode", "compare", "--out", out / "compare.txt"])

    print("\n--- comparison (plain vs popularity-injected) ---")
    print((out / "compare.txt").read_text())


if __name__ == "__main__":
    main()
