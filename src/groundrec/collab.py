"""Co-occurrence prediction scores used as collaborative information.

A first-order transition scorer over adjacent (prev, next) item pairs in each
user's training timeline. Scoring a sample combines the last up-to-3 real
history items with geometric recency weights 1.0, 0.5, 0.25.

Scorer file format: magic b"GRCO", u32 pair count, then (u32 prev, u32 next,
u32 count) triples, all little-endian, keyed by canonical item index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, open_input
from .ingest import PAD, InteractionLog, ItemCatalog, SequenceSample
from .pop import minmax

MAGIC = b"GRCO"
RECENCY_WEIGHTS = (1.0, 0.5, 0.25)


@dataclass
class CoScorer:
    n_items: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)
    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.by_prev: dict[int, dict[int, int]] = {}
        for (pi, ni), c in self.counts.items():
            self.by_prev.setdefault(pi, {})[ni] = c


def fit_cooccurrence(train: InteractionLog, catalog: ItemCatalog, alpha=0.0) -> CoScorer:
    if len(train) == 0:
        raise DataError("cannot fit co-occurrence scorer on an empty training log")
    by_user: dict[str, list[str]] = {}
    for rec in train.records:  # records already in (timestamp, pos) order
        by_user.setdefault(rec.user_id, []).append(rec.item_id)
    counts: dict[tuple[int, int], int] = {}
    for items in by_user.values():
        for prev, nxt in zip(items, items[1:]):
            pi = catalog.index_of.get(prev)
            ni = catalog.index_of.get(nxt)
            if pi is None or ni is None:
                continue
            counts[(pi, ni)] = counts.get((pi, ni), 0) + 1
    return CoScorer(n_items=len(catalog), counts=counts, alpha=alpha)


def score(scorer: CoScorer, sample: SequenceSample, catalog: ItemCatalog) -> np.ndarray:
    """Per-item raw scores; all zeros when the effective history is empty."""
    raw = np.zeros(scorer.n_items, dtype=np.float64)
    recent = [h for h in sample.history if h != PAD][-len(RECENCY_WEIGHTS):]
    recent.reverse()  # most recent first
    if not recent:
        return raw
    for w, item_id in zip(RECENCY_WEIGHTS, recent):
        prev = catalog.index_of.get(item_id)
        if prev is None:
            continue
        raw += w * scorer.alpha
        for ni, c in scorer.by_prev.get(prev, {}).items():
            raw[ni] += w * c
    return raw


def normalize_scores(raw) -> np.ndarray:
    """Per-query min-max to [0,1]; all-equal input maps to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise DataError("non-finite collaborative score")
    return minmax(raw)


def save_scorer(path, scorer: CoScorer):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(scorer.counts)))
        for (pi, ni) in sorted(scorer.counts):
            fh.write(struct.pack("<III", pi, ni, scorer.counts[(pi, ni)]))


def load_scorer(path, n_items, alpha=0.0) -> CoScorer:
    with open_input(path, "scorer", "rb") as fh:
        header = fh.read(8)
        if len(header) < 8 or header[:4] != MAGIC:
            raise DataError(f"{path} is not a GRCO scorer file")
        (n_pairs,) = struct.unpack("<I", header[4:])
        counts = {}
        for _ in range(n_pairs):
            chunk = fh.read(12)
            if len(chunk) < 12:
                raise DataError(f"truncated scorer file {path}")
            pi, ni, c = struct.unpack("<III", chunk)
            counts[(pi, ni)] = c
    return CoScorer(n_items=n_items, counts=counts, alpha=alpha)
