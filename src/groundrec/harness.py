"""All-ranking evaluation: run generator -> embedder -> grounding over samples
and give each sample's target position, plus the Most-Pop baseline's. A
position list is the one result of every ranking path; metrics.aggregate
alone turns it into HR@K / NDCG@K, and metrics holds the report format.

Pipeline is the one grounding path. ground ranks the top k for the text it
is given through Pipeline.distances, weights and reweighted. eval and
tune-gamma take each sample's gamma-independent part from Pipeline.prepare,
and target_positions divides and counts: eval at its one gamma, tune-gamma at
every grid point. Pipeline.candidates is the one skip/target/exclusion step,
which Most-Pop shares. fan_out runs a per-sample or per-gamma step on threads.
A sample's exclusions are its known array of canonical indices, from ingest.

Every item the user has not interacted with is a candidate; there is no
negative sampling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .ground import (
    check_weights,
    exclude,
    inject,
    l2_distances,
    normalize_distances,
    target_position,
)
from .ingest import ItemCatalog, SequenceSample


class Pipeline:
    """The one grounding path of the ground, eval and tune-gamma commands:
    query text -> normalized L2 distances -> +inf at the items seen before
    the target -> checked weights -> division by (1 + w)^gamma.

    The generator turns a sample into query text; ground passes its text in
    directly and has no generator. The weight source, if any, is a
    PopularityTable or a CoScorer: source.sample_weights(sample).
    """

    def __init__(self, generator, provider, matrix, catalog: ItemCatalog,
                 gamma=0.0, source=None):
        self.generator = generator
        self.provider = provider
        self.matrix = matrix
        self.catalog = catalog
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

    def reweighted(self, norm, weights, gamma=None) -> np.ndarray:
        """ground's query: norm divided by (1 + w)^gamma (ground.inject);
        norm itself without weights. gamma defaults to the pipeline's."""
        gamma = self.gamma if gamma is None else gamma
        return norm if weights is None else inject(norm, weights, gamma)

    def candidates(self, sample: SequenceSample):
        """(exclusions, target index): every item not seen before the target.
        None skips a repeat consumption, whose target is its own exclusion."""
        if sample.knows(sample.target):
            return None
        return self.exclusions(sample), sample.target

    def prepare(self, sample: SequenceSample):
        """(values, checked weights or None, target index), gamma-independent:
        values are the normalized distances, a fresh array with +inf written
        at the exclusions (ground.exclude); None where candidates skips."""
        found = self.candidates(sample)
        if found is None:
            return None
        excluded, target = found
        values = self.normalized_distances(sample)
        weights = self.weights(sample)
        if weights is not None:
            values, weights = check_weights(values, weights)
        return exclude(values, excluded), weights, target


def fan_out(fn, items, threads=1):
    """[fn(item) for item in items], on a pool of threads when threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def target_positions(prepared, gamma):
    """The target positions of prepared samples (none skipped) at gamma: the
    values divided by (1 + w)^gamma where there are weights, then counted.
    Samples that hold one weight array share its divisor; nothing is written."""
    positions = []
    shared = divisor = None  # the last weight array and its divisor
    for values, weights, target in prepared:
        if weights is not None:
            if weights is not shared:
                shared, divisor = weights, (1.0 + weights) ** gamma
            values = values / divisor
        positions.append(target_position(values, target))
    return positions


def _target_position(pipeline, sample):
    """1-based rank of the target, or None when the sample is skipped."""
    prepared = pipeline.prepare(sample)
    return None if prepared is None else target_positions([prepared], pipeline.gamma)[0]


def evaluate(samples, pipeline: Pipeline, threads=1):
    """Each sample's target position (None where skipped), in sample order
    for any thread count."""
    return fan_out(lambda s: _target_position(pipeline, s), samples, threads)


def most_pop_baseline(table, samples, catalog: ItemCatalog):
    """Target positions when ranking by global training popularity
    (PopularityTable.order), minus the exclusions of Pipeline.candidates; an
    item's place stands in for its value, copied into one reused array."""
    n = len(catalog)
    place = np.empty(n, dtype=np.float64)
    place[table.order()] = np.arange(n)
    values = np.empty(n, dtype=np.float64)

    def position(excluded, target):
        np.copyto(values, place)
        return target_position(exclude(values, excluded), target)

    found = map(Pipeline(None, None, None, catalog).candidates, samples)
    return [None if f is None else position(*f) for f in found]
