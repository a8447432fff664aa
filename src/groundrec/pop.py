"""Per-item popularity factors and the decile interaction-share analysis.

C_i is each item's share of training interactions; P_i is its min-max
normalization over the catalog. When all counts are equal (including all-zero)
P is defined as 0 everywhere, which makes popularity injection a no-op.
As a Pipeline weight source, a PopularityTable gives every sample the one
array P.
The counts come from one np.bincount over the canonical indices of the
training log's item column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import InteractionLog, ItemCatalog


@dataclass
class PopularityTable:
    counts: np.ndarray  # int, per canonical index
    factor: np.ndarray  # C_i
    normalized: np.ndarray  # P_i
    rejected: int = 0  # train interactions referencing unknown items

    @classmethod
    def from_counts(cls, counts: np.ndarray, rejected=0) -> PopularityTable:
        """C_i = count_i / total (all zeros when the total is 0), P = minmax(C)."""
        total = counts.sum()
        if total > 0:
            factor = counts / total
        else:
            factor = np.zeros(len(counts), dtype=np.float64)
        return cls(counts=counts, factor=factor, normalized=minmax(factor),
                   rejected=rejected)

    def sample_weights(self, sample, catalog) -> np.ndarray:
        """The injection weights of any sample: P, the same array each time."""
        return self.normalized


@dataclass
class DecileReport:
    groups: list[list[int]]  # 10 buckets of canonical indices, popularity desc
    share: list[float]
    small_catalog: bool = False


def minmax(values: np.ndarray) -> np.ndarray:
    """Min-max to [0,1]; all-equal input maps to all zeros."""
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def compute_popularity(train: InteractionLog, catalog: ItemCatalog) -> PopularityTable:
    if len(catalog) == 0:
        raise DataError("cannot compute popularity over an empty catalog")
    idx = catalog.indices(train.item_ids)
    known = idx[idx >= 0]
    counts = np.bincount(known, minlength=len(catalog)).astype(np.int64, copy=False)
    return PopularityTable.from_counts(counts, rejected=len(idx) - len(known))


def decile_report(table: PopularityTable, num_buckets: int = 10) -> DecileReport:
    n = len(table.counts)
    order = np.lexsort((np.arange(n), -table.counts))  # count desc, index asc
    base, rem = divmod(n, num_buckets)
    sizes = [base + 1 if k < rem else base for k in range(num_buckets)]
    groups = []
    acc = 0
    for s in sizes:
        groups.append([int(i) for i in order[acc : acc + s]])
        acc += s
    total = table.counts.sum()
    if total > 0:
        share = [float(table.counts[g].sum() / total) for g in groups]
    else:
        share = [0.0] * num_buckets
    return DecileReport(groups=groups, share=share, small_catalog=n < num_buckets)
