"""Dataset shapes and the seeded synthetic data the benchmark runs on.

The data follows ``scripts/run_demo.py``: titles "<adjective> <noun> volume
<k>", and each user draws events from a zipf-like popularity (weight 1/(k+1)
for the k-th item) with one global timestamp per event. The seed only drives
the event draws, so a shape's catalog is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

ADJECTIVES = ["silent", "crimson", "lost", "electric", "midnight", "golden",
              "broken", "distant", "hidden", "savage", "gentle", "frozen"]
NOUNS = ["river", "empire", "garden", "signal", "harbor", "echo", "storm",
         "mirror", "canyon", "lantern", "orbit", "meadow"]


@dataclass(frozen=True)
class Shape:
    name: str
    n_items: int
    n_users: int
    events: int
    inject: str  # injection mode for ground and the injected eval/tune
    queries: int  # test samples given to generate, ground and each eval
    tune_samples: int  # validation samples given to tune-gamma
    checked: int  # queries whose ranks the brute force recomputes
    setup_repeats: int  # setups per run; setup_s is their median
    min_rounds: int  # experiment rounds per run, at least
    why: str


SHAPES = {
    "catalog20k": Shape(
        "catalog20k", n_items=20_000, n_users=2_000, events=50, inject="pop",
        queries=48, tune_samples=8, checked=8, setup_repeats=2, min_rounds=3,
        why="20k items x 100k zipf events: distance, rank and BM25 kernels "
            "dominate; timelines are short"),
    "timelines": Shape(
        "timelines", n_items=2_000, n_users=200, events=500, inject="collab",
        queries=320, tune_samples=32, checked=24, setup_repeats=2, min_rounds=3,
        why="200 users x 500 events: build_samples, the samples TSV and ~130 "
            "exclusions per sample dominate; distances are cheap"),
    # not a BENCHMARK.json workload: its runs are too short to be steady on a
    # shared host; smoke_test.py runs it as the quickest full pass
    "demo": Shape(
        "demo", n_items=120, n_users=60, events=30, inject="pop",
        queries=40, tune_samples=20, checked=40, setup_repeats=2, min_rounds=2,
        why="the run_demo.py shape: process start, parsing and per-command "
            "set-up dominate every command"),
}


def item_id(shape: Shape, k: int) -> str:
    width = max(3, len(str(shape.n_items - 1)))
    return f"m{k:0{width}d}"


def make_dataset(out: Path, shape: Shape, seed: int):
    """Write interactions.tsv and catalog.tsv; same seed, same bytes."""
    rng = random.Random(seed)
    titles = {}
    for k in range(shape.n_items):
        adj = ADJECTIVES[k % len(ADJECTIVES)]
        noun = NOUNS[(k // len(ADJECTIVES)) % len(NOUNS)]
        titles[item_id(shape, k)] = f"{adj} {noun} volume {k}"
    items = sorted(titles)
    # run_demo.py passes weights= per draw; precomputed cumulative weights
    # give the same draws without re-summing the catalog for every event
    cum = list(accumulate(1.0 / (k + 1) for k in range(shape.n_items)))
    rows = []
    ts = 0
    for u in range(shape.n_users):
        for _ in range(shape.events):
            item = rng.choices(items, cum_weights=cum, k=1)[0]
            rows.append(f"u{u:03d}\t{item}\t{ts}")
            ts += 1
    (out / "interactions.tsv").write_text("\n".join(rows) + "\n")
    (out / "catalog.tsv").write_text(
        "\n".join(f"{i}\t{titles[i]}" for i in items) + "\n"
    )
