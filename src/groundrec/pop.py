"""Per-item popularity factors and the decile interaction-share analysis.

C_i is each item's share of training interactions; P_i is its min-max
normalization over the catalog. When all counts are equal (including all-zero)
P is defined as 0 everywhere, which makes popularity injection a no-op.
As a Pipeline weight source, a PopularityTable gives every sample the one
array P.
The counts come from one np.bincount over the canonical indices of the
training log's item column. pop.tsv, which the popularity command writes and
ground --popularity reads, holds one line per catalog item: id, count, C, P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, parse_int, rows
from .ingest import InteractionLog, ItemCatalog, period_sizes


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

    def sample_weights(self, sample) -> np.ndarray:
        """The injection weights of any sample: P, the same array each time."""
        return self.normalized

    def order(self) -> np.ndarray:
        """Canonical indices by count descending, index ascending on ties."""
        return np.argsort(-self.counts, kind="stable")


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


def write_popularity(path, table: PopularityTable, catalog: ItemCatalog):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# item_id\tcount\tC\tP\n")
        for i, item_id in enumerate(catalog.ids):
            fh.write(f"{item_id}\t{table.counts[i]}\t{table.factor[i]:.10g}"
                     f"\t{table.normalized[i]:.10g}\n")


def read_popularity(path, catalog: ItemCatalog) -> PopularityTable:
    """The table of a pop.tsv, from its counts alone. A malformed line, an
    item outside the catalog or given twice, a count outside int64, alone or
    summed over the file, and a catalog item the file omits are each a
    DataError naming the file."""
    counts = np.zeros(len(catalog), dtype=np.int64)
    line_of = {}  # canonical index -> the line that gave its count
    total = 0
    for lineno, parts in rows(path, "popularity"):
        if len(parts) < 2:
            raise DataError(f"malformed popularity line {lineno} in {path}")
        idx = catalog.index_of.get(parts[0])
        if idx is None:
            raise DataError(f"popularity item {parts[0]!r} not in catalog "
                            f"(line {lineno} in {path})")
        if idx in line_of:
            raise DataError(f"popularity item {parts[0]!r} is given twice, at "
                            f"lines {line_of[idx]} and {lineno} in {path}")
        count = parse_int(parts[1], "popularity count", lineno, path)
        if not 0 <= count < 2**63:
            raise DataError(f"popularity count {count} outside 0..2^63-1 "
                            f"at line {lineno} in {path}")
        line_of[idx] = lineno
        counts[idx] = count
        total += count
    if total >= 2**63:  # from_counts sums in int64, which would wrap
        raise DataError(f"popularity counts in {path} sum to {total}, beyond 2^63-1")
    if len(line_of) < len(catalog):  # an omitted item would count 0 without a word
        missing = [item_id for i, item_id in enumerate(catalog.ids) if i not in line_of]
        raise DataError(f"{len(missing)} catalog items missing popularity counts in {path}: "
                        f"{', '.join(missing[:10])}")
    return PopularityTable.from_counts(counts)


def decile_report(table: PopularityTable, num_buckets: int = 10) -> DecileReport:
    n = len(table.counts)
    order = table.order()
    groups = []
    acc = 0
    for s in period_sizes(n, num_buckets):
        groups.append([int(i) for i in order[acc : acc + s]])
        acc += s
    total = table.counts.sum()
    if total > 0:
        share = [float(table.counts[g].sum() / total) for g in groups]
    else:
        share = [0.0] * num_buckets
    return DecileReport(groups=groups, share=share, small_catalog=n < num_buckets)
