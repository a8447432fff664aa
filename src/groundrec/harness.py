"""All-ranking evaluation: run generator -> embedder -> grounding over samples
and give each sample's target position, plus the Most-Pop baseline's. A
position list is the one result of every ranking path; metrics.aggregate
alone turns it into HR@K / NDCG@K, and metrics holds the report format.

Pipeline is the one grounding path: Pipeline.query is every L2 query's
exclusion and weight-check step, adjusted its (1 + w)^gamma divide. ground
ranks the top k of each adjusted query; target_positions counts prepared
samples' target positions over it, eval at its gamma and tune-gamma at each
grid point. Most-Pop shares query and the skip/target step, candidates.
Every step runs on the calling thread. A sample's exclusions are its known
array of canonical indices, from ingest.

Every item the user has not interacted with is a candidate; there is no
negative sampling.
"""

from __future__ import annotations

import numpy as np

from .ground import (
    check_weights,
    exclude,
    l2_distances,
    normalize_distances,
    target_position,
)
from .ingest import ItemCatalog, SequenceSample
from .pop import PopularityTable


class Pipeline:
    """The one grounding path of the ground, eval and tune-gamma commands:
    query text -> normalized L2 distances -> +inf at the items seen before
    the target -> checked weights, then adjusted's division by (1 + w)^gamma.

    The generator turns a sample into query text; ground passes its text in
    directly and has no generator. The weight source, if any, is a
    PopularityTable or a CoScorer: source.sample_weights(sample).
    """

    def __init__(self, generator, provider, matrix, gamma=0.0, source=None):
        self.generator = generator
        self.provider = provider
        self.matrix = matrix
        self.gamma = gamma
        self.source = source

    def distances(self, text) -> np.ndarray:
        """Min-max normalized L2 distances from the embedded text to every item."""
        return normalize_distances(l2_distances(self.matrix, self.provider.embed(text)))

    def normalized_distances(self, sample: SequenceSample) -> np.ndarray:
        return self.distances(self.generator.generate(sample).text())

    def weights(self, sample: SequenceSample):
        """Per-item injection weights in [0,1], or None without a source."""
        return None if self.source is None else self.source.sample_weights(sample)

    def exclusions(self, sample: SequenceSample):
        return sample.known

    def candidates(self, sample: SequenceSample):
        """The target index (every item not seen before it is a candidate), or
        None for a repeat consumption, whose target is its own exclusion."""
        return None if sample.knows(sample.target) else sample.target

    def query(self, norm, sample):
        """(values, weights or None), gamma-independent: norm, a fresh float64
        array, with +inf written in place at the sample's exclusions
        (ground.exclude; ground without --samples has none), and the checked
        weights in the form adjusted divides by: a PopularityTable's one array
        as it is, any other source's as (nonzero indices, 1 + w at them)."""
        weights = self.weights(sample)
        if weights is not None:
            norm, weights = check_weights(norm, weights)
            if not isinstance(self.source, PopularityTable):
                at = np.flatnonzero(weights)
                weights = at, 1.0 + weights[at]
        if sample is not None:
            exclude(norm, self.exclusions(sample))
        return norm, weights

    def prepare(self, sample: SequenceSample):
        """(values, weights) of query and the target index; None if candidates skips."""
        target = self.candidates(sample)
        if target is None:
            return None
        return (*self.query(self.normalized_distances(sample), sample), target)


def adjusted(queries, gamma):
    """Each (values, weights) query's values divided by (1 + w)^gamma, or as
    they are without weights. Queries that hold one weight array share its
    divisor; weights held as (indices, 1 + w at them) divide a copy there
    alone, as x / (1 + 0)^gamma == x. Nothing is written; +inf stays +inf."""
    shared = divisor = None  # the last weight array and its divisor
    for values, weights in queries:
        if isinstance(weights, tuple):  # (indices, 1 + w at them)
            values = values.copy()
            values[weights[0]] /= weights[1] ** gamma  # array **, as the dense divisor
        elif weights is not None:
            if weights is not shared:
                shared, divisor = weights, (1.0 + weights) ** gamma
            values = values / divisor
        yield values


def target_positions(prepared, gamma):
    """The target positions of a list of prepared samples (none skipped) at
    gamma, each counted over its adjusted values."""
    values = adjusted([(v, w) for v, w, _ in prepared], gamma)
    # map holds no adjusted array while adjusted makes the next one
    return list(map(target_position, values, [t for _, _, t in prepared]))


def _target_position(pipeline, sample):
    """1-based rank of the target, or None when the sample is skipped."""
    prepared = pipeline.prepare(sample)
    return None if prepared is None else target_positions([prepared], pipeline.gamma)[0]


def evaluate(samples, pipeline: Pipeline):
    """Each sample's target position (None where skipped), in sample order."""
    return [_target_position(pipeline, s) for s in samples]


def most_pop_baseline(table, samples, catalog: ItemCatalog):
    """Target positions ranked by global training popularity (PopularityTable.order)
    through Pipeline.candidates, query and target_positions; an item's place
    stands in for its value, copied into one reused array."""
    n = len(catalog)
    place = np.empty(n, dtype=np.float64)
    place[table.order()] = np.arange(n)
    values = np.empty(n, dtype=np.float64)
    pipeline = Pipeline(None, None, None)

    def position(sample):
        target = pipeline.candidates(sample)
        if target is None:
            return None
        np.copyto(values, place)
        return target_positions([(*pipeline.query(values, sample), target)], 0.0)[0]

    return [position(s) for s in samples]
