"""Co-occurrence prediction scores used as collaborative information.

A first-order transition scorer over adjacent (prev, next) item pairs in each
user's training timeline. Scoring a sample combines the last up-to-3 real
history items with geometric recency weights 1.0, 0.5, 0.25. As a Pipeline
weight source, a CoScorer gives each sample those scores, min-max normalized.

Fitting counts the adjacent pairs of each user's timeline with one np.unique
over (prev, next) canonical-index keys; a pair with an item outside the
catalog is not counted.

Scorer file format: magic b"GRCO", u32 pair count, then (u32 prev, u32 next,
u32 count) triples sorted by (prev, next), all little-endian, keyed by
canonical item index. load_scorer checks the pair count against the file
size before reading, and every index against the catalog.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError, open_input
from .ingest import PAD, InteractionLog, ItemCatalog, SequenceSample
from .pop import minmax

MAGIC = b"GRCO"
U32_MAX = 0xFFFFFFFF
RECENCY_WEIGHTS = (1.0, 0.5, 0.25)


@dataclass
class CoScorer:
    """counts maps (prev, next) canonical indices to a transition count. For
    scoring, the pairs are also held sorted by prev: the pairs of a prev item
    p < n_items are nexts[starts[p]:starts[p + 1]], with float64 weights[...]."""

    n_items: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.counts)
        pairs = np.fromiter(chain.from_iterable(self.counts), np.int64, 2 * n).reshape(n, 2)
        order = np.argsort(pairs[:, 0], kind="stable")
        self.nexts = pairs[order, 1]
        self.weights = np.fromiter(self.counts.values(), np.float64, n)[order]
        self.starts = np.searchsorted(pairs[order, 0], np.arange(self.n_items + 1))

    def sample_weights(self, sample: SequenceSample, catalog: ItemCatalog) -> np.ndarray:
        """The injection weights of one sample: its scores, min-max normalized."""
        return normalize_scores(score(self, sample, catalog))


def fit_cooccurrence(train: InteractionLog, catalog: ItemCatalog) -> CoScorer:
    if len(train) == 0:
        raise DataError("cannot fit co-occurrence scorer on an empty training log")
    order = train.user_order()  # each user's timeline, in (timestamp, pos) order
    users = train.user_codes[order]
    idx = catalog.indices(train.item_ids)[order]
    prev, nxt = idx[:-1], idx[1:]
    adjacent = (users[:-1] == users[1:]) & (prev >= 0) & (nxt >= 0)
    n = len(catalog)
    keys, counts = np.unique(prev[adjacent] * n + nxt[adjacent], return_counts=True)
    return CoScorer(n_items=n, counts=_pair_counts(keys // n, keys % n, counts))


def _pair_counts(prev, nxt, counts) -> dict[tuple[int, int], int]:
    return dict(zip(zip(prev.tolist(), nxt.tolist()), counts.tolist()))


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
        lo, hi = scorer.starts[prev], scorer.starts[prev + 1]
        # the nexts of one prev are distinct: each item gets the one addition
        # per recent item, in recency order, that a per-pair loop makes
        raw[scorer.nexts[lo:hi]] += w * scorer.weights[lo:hi]
    return raw


def normalize_scores(raw) -> np.ndarray:
    """Per-query min-max to [0,1]; all-equal input maps to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise DataError("non-finite collaborative score")
    return minmax(raw)


def save_scorer(path, scorer: CoScorer):
    n = len(scorer.counts)
    pairs = np.fromiter(chain.from_iterable(scorer.counts), np.int64, 2 * n).reshape(n, 2)
    counts = np.fromiter(scorer.counts.values(), np.int64, n)
    triples = np.column_stack((pairs, counts))[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    if n and (triples.min() < 0 or triples.max() > U32_MAX):
        raise DataError(f"scorer holds a value outside u32; cannot write {path}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", n))
        fh.write(triples.astype("<u4").tobytes())


def load_scorer(path, n_items) -> CoScorer:
    with open_input(path, "scorer", "rb") as fh:
        header = fh.read(8)
        if len(header) < 8 or header[:4] != MAGIC:
            raise DataError(f"{path} is not a GRCO scorer file")
        (n_pairs,) = struct.unpack("<I", header[4:])
        if 8 + 12 * n_pairs > os.fstat(fh.fileno()).st_size:
            raise DataError(f"truncated scorer file {path}: the header counts "
                            f"{n_pairs} pairs")
        body = fh.read(12 * n_pairs)
    triples = np.frombuffer(body, dtype="<u4").reshape(-1, 3)
    if n_pairs and triples[:, :2].max() >= n_items:
        raise DataError(f"scorer file {path} holds item index {triples[:, :2].max()}, "
                        f"outside the catalog of {n_items} items")
    counts = _pair_counts(triples[:, 0], triples[:, 1], triples[:, 2])
    return CoScorer(n_items=n_items, counts=counts)
