"""Co-occurrence prediction scores used as collaborative information.

A first-order transition scorer over adjacent (prev, next) item pairs in each
user's training timeline. Scoring a sample combines the last up-to-3 real
history indices with geometric recency weights 1.0, 0.5, 0.25. As a Pipeline
weight source, a CoScorer gives each sample those scores, min-max normalized.

A CoScorer is one form from fit to file to score: int64 arrays prevs, nexts
and counts, sorted by (prev, next), each pair once. Fitting gets them from
one np.unique over (prev, next) canonical-index keys; a pair with an item
outside the catalog is not counted.

Scorer file format: magic b"GRCO", u32 pair count, then those arrays as
(u32 prev, u32 next, u32 count) triples, little-endian. load_scorer checks
that the body is exactly 12 bytes a pair before reading it, every index
against the catalog, and that the pairs strictly increase in (prev, next).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, open_input
from .ingest import PAD_INDEX, InteractionLog, ItemCatalog, SequenceSample
from .pop import minmax

MAGIC = b"GRCO"
U32_MAX = 0xFFFFFFFF
RECENCY_WEIGHTS = (1.0, 0.5, 0.25)


@dataclass
class CoScorer:
    """Transition counts of (prev, next) canonical indices: int64 arrays
    sorted by (prev, next), each pair once. The pairs of a prev item
    p < n_items are nexts[starts[p]:starts[p + 1]], with counts[...]."""

    n_items: int
    prevs: np.ndarray
    nexts: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.starts = np.searchsorted(self.prevs, np.arange(self.n_items + 1))

    def sample_weights(self, sample: SequenceSample) -> np.ndarray:
        """The injection weights of one sample: its scores, min-max normalized."""
        return normalize_scores(score(self, sample))


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
    return CoScorer(n, keys // n, keys % n, counts)


def score(scorer: CoScorer, sample: SequenceSample) -> np.ndarray:
    """Per-item raw scores; all zeros when the effective history is empty. An
    item outside the catalog (OUTSIDE_INDEX) takes its slot and adds nothing."""
    raw = np.zeros(scorer.n_items, dtype=np.float64)
    recent = [h for h in sample.history if h != PAD_INDEX][-len(RECENCY_WEIGHTS):]
    recent.reverse()  # most recent first
    for w, prev in zip(RECENCY_WEIGHTS, recent):
        if prev < 0:
            continue
        lo, hi = scorer.starts[prev], scorer.starts[prev + 1]
        # the nexts of one prev are distinct: each item gets the one addition
        # per recent item, in recency order, that a per-pair loop makes
        raw[scorer.nexts[lo:hi]] += w * scorer.counts[lo:hi]
    return raw


def normalize_scores(raw) -> np.ndarray:
    """Per-query min-max to [0,1]; all-equal input maps to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise DataError("non-finite collaborative score")
    return minmax(raw)


def save_scorer(path, scorer: CoScorer):
    triples = np.column_stack((scorer.prevs, scorer.nexts, scorer.counts))
    if len(triples) and (triples.min() < 0 or triples.max() > U32_MAX):
        raise DataError(f"scorer holds a value outside u32; cannot write {path}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(triples)))
        fh.write(triples.astype("<u4").tobytes())


def load_scorer(path, n_items) -> CoScorer:
    with open_input(path, "scorer", "rb") as fh:
        header = fh.read(8)
        if len(header) < 8 or header[:4] != MAGIC:
            raise DataError(f"{path} is not a GRCO scorer file")
        (n_pairs,) = struct.unpack("<I", header[4:])
        size = os.fstat(fh.fileno()).st_size - len(header)
        if size != 12 * n_pairs:
            raise DataError(f"{'truncated' if size < 12 * n_pairs else 'overlong'} scorer "
                            f"file {path}: the header counts {n_pairs} pairs, "
                            f"{12 * n_pairs} bytes, but {size} bytes follow it")
        body = fh.read(size)
    triples = np.frombuffer(body, dtype="<u4").reshape(-1, 3)
    if n_pairs and triples[:, :2].max() >= n_items:
        raise DataError(f"scorer file {path} holds item index {triples[:, :2].max()}, "
                        f"outside the catalog of {n_items} items")
    prevs, nexts, counts = triples.T.astype(np.int64, order="C")
    bad = np.flatnonzero(np.diff(prevs * n_items + nexts) <= 0)  # keyed as in fitting
    if len(bad):
        k = bad[0] + 1
        raise DataError(f"scorer file {path}: pair {k + 1} of {n_pairs}, ({prevs[k]}, "
                        f"{nexts[k]}), does not come after ({prevs[k - 1]}, {nexts[k - 1]}); "
                        "the pairs must be strictly increasing in (prev, next)")
    return CoScorer(n_items, prevs, nexts, counts)
