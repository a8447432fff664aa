"""All-ranking evaluation: run generator -> embedder -> grounding over samples
and give each sample's target position, plus the Most-Pop baseline's. A
position list is the one result of every ranking path; metrics.aggregate
alone turns it into HR@K / NDCG@K, and metrics holds the report format.

Pipeline is the one grounding path. ground ranks the top k for the text it
is given through Pipeline.distances, weights and reweighted. eval and
tune-gamma take each sample's gamma-independent part from Pipeline.prepare;
eval divides by (1 + w)^gamma at one gamma, tune-gamma at every point of the
grid. Pipeline.candidates is the one skip/target/exclusion step, which
Most-Pop shares. fan_out runs a per-sample or per-gamma step on threads.
A sample's exclusions are its known array of canonical indices, from ingest.

Every item the user has not interacted with is a candidate; there is no
negative sampling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .ground import (
    check_weights,
    exclusion_mask,
    inject,
    l2_distances,
    normalize_distances,
    target_position,
)
from .ingest import ItemCatalog, SequenceSample


class Pipeline:
    """The one grounding path of the ground, eval and tune-gamma commands:
    query text -> normalized L2 distances -> checked weights -> division by
    (1 + w)^gamma -> exclusion of the items seen before the target.

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
        """norm divided by (1 + w)^gamma; norm itself without weights or at
        gamma 0. gamma defaults to the pipeline's."""
        gamma = self.gamma if gamma is None else gamma
        return inject(norm, weights, gamma) if (weights is not None and gamma > 0) else norm

    def candidates(self, sample: SequenceSample):
        """(keep mask, target index): every item not seen before the target.
        None skips a repeat consumption, whose target is its own exclusion."""
        if sample.knows(sample.target):
            return None
        return exclusion_mask(len(self.catalog), self.exclusions(sample)), sample.target

    def prepare(self, sample: SequenceSample):
        """(normalized distances, checked weights or None, keep mask, target
        index), all gamma-independent; None where candidates skips."""
        found = self.candidates(sample)
        if found is None:
            return None
        norm = self.normalized_distances(sample)
        weights = self.weights(sample)
        if weights is not None:
            norm, weights = check_weights(norm, weights)
        return (norm, weights, *found)


def fan_out(fn, items, threads=1):
    """[fn(item) for item in items], on a pool of threads when threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _target_position(pipeline, sample):
    """1-based rank of the target, or None when the sample is skipped."""
    prepared = pipeline.prepare(sample)
    if prepared is None:
        return None
    norm, weights, keep, target = prepared
    return target_position(pipeline.reweighted(norm, weights), keep, target)


def evaluate(samples, pipeline: Pipeline, threads=1):
    """Each sample's target position (None where skipped), in sample order
    for any thread count."""
    return fan_out(lambda s: _target_position(pipeline, s), samples, threads)


def most_pop_baseline(table, samples, catalog: ItemCatalog):
    """Target positions when ranking by global training popularity
    (PopularityTable.order), minus the exclusions of Pipeline.candidates; an
    item's place stands in for its value."""
    n = len(catalog)
    place = np.empty(n, dtype=np.int64)
    place[table.order()] = np.arange(n)
    pipeline = Pipeline(None, None, None, catalog)
    positions = []
    for sample in samples:
        found = pipeline.candidates(sample)
        positions.append(None if found is None else target_position(place, *found))
    return positions
