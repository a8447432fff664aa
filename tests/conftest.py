import random
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from groundrec.collab import CoScorer
from groundrec.embed import EmbeddingMatrix
from groundrec.ingest import (
    HISTORY_LEN,
    OUTSIDE_INDEX,
    PAD_INDEX,
    InteractionLog,
    ItemCatalog,
    SequenceSample,
)


def concurrent_calls(fn, callers):
    """fn() from each of `callers` threads started together, as a caller
    sharing one pipeline across threads of its own would; results in thread
    order. No groundrec command starts a thread."""
    start = threading.Barrier(callers)

    def call(_):
        start.wait(timeout=10)
        return fn()

    with ThreadPoolExecutor(max_workers=callers) as pool:
        return list(pool.map(call, range(callers), timeout=120))


def make_log(triples):
    """triples: (user, item, timestamp) in file order."""
    code_of = {}
    codes = array("q", [code_of.setdefault(u, len(code_of)) for u, _, _ in triples])
    return InteractionLog.from_columns(
        list(code_of), codes, [i for _, i, _ in triples],
        array("q", [t for _, _, t in triples]),
    )


def user_ids(log):
    """The user id of each row of an InteractionLog."""
    return [log.users[c] for c in log.user_codes]


def held(vectors):
    """The catalog matrix (an EmbeddingMatrix) of an array, as
    ground.l2_distances takes it."""
    vectors = np.asarray(vectors)
    return EmbeddingMatrix.of(vectors)


def masked_position(values, excluded, target):
    """The brute-force 1-based position of target over a keep mask: the
    kept items with a smaller value, or an equal value and a smaller index,
    come before it."""
    keep = np.ones(values.size, dtype=bool)
    keep[list(excluded)] = False
    assert keep[target]
    at = values[target]
    return int(np.count_nonzero(keep & (values < at))
               + np.count_nonzero(keep[:target] & (values[:target] == at))) + 1


def make_catalog(entries):
    return ItemCatalog(dict(entries))


def make_sample(catalog, history, target, user="u", ts=100, known=(), line=1):
    """The SequenceSample of item ids, mapped through the catalog as a samples
    line is read: the history left-padded with PAD_INDEX, an id outside the
    catalog OUTSIDE_INDEX there and dropped from the known set."""
    index_of = catalog.index_of
    history = [PAD_INDEX] * (HISTORY_LEN - len(history)) + [
        index_of.get(i, OUTSIDE_INDEX) for i in history]
    known = array("i", sorted({index_of[i] for i in known if i in index_of}))
    return SequenceSample(tuple(history), index_of[target], user, ts, known, line)


def make_scorer(n_items, counts):
    """The CoScorer of {(prev, next): count}: its arrays in (prev, next) order."""
    pairs = sorted(counts)
    return CoScorer(n_items, np.array([p for p, _ in pairs], dtype=np.int64),
                    np.array([n for _, n in pairs], dtype=np.int64),
                    np.array([counts[pair] for pair in pairs], dtype=np.int64))


def scorer_counts(scorer):
    """A CoScorer's pairs as {(prev, next): count}, in Python ints."""
    pairs = zip(scorer.prevs.tolist(), scorer.nexts.tolist())
    return dict(zip(pairs, scorer.counts.tolist()))


@pytest.fixture
def small_catalog():
    return make_catalog({"a": "alpha movie", "b": "beta film", "c": "gamma show"})


def synthetic_dataset(n_users=40, n_items=30, events_per_user=8, seed=11):
    """Deterministic interaction log + catalog with distinct titles."""
    rng = random.Random(seed)
    ids = [f"i{k:03d}" for k in range(n_items)]
    catalog = make_catalog(
        {i: f"story {k} of the {i} chronicle" for k, i in enumerate(ids)}
    )
    triples = []
    t = 0
    for u in range(n_users):
        for item in rng.sample(ids, min(events_per_user, n_items)):
            triples.append((f"u{u:03d}", item, t))
            t += 1
    return make_log(triples), catalog
