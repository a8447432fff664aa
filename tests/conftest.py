import random

import pytest

from groundrec.ingest import (
    InteractionLog,
    ItemCatalog,
    SequenceSample,
    PAD,
)


def make_log(triples):
    """triples: (user, item, timestamp) in file order."""
    return InteractionLog.from_columns(
        [u for u, _, _ in triples], [i for _, i, _ in triples],
        [t for _, _, t in triples], [None] * len(triples),
    )


def make_catalog(entries):
    return ItemCatalog(dict(entries))


def make_sample(history, target, user="u", ts=100, known=()):
    history = list(history)
    history = [PAD] * (10 - len(history)) + history
    return SequenceSample(
        history=tuple(history),
        target=target,
        user_id=user,
        target_timestamp=ts,
        known_items=frozenset(known),
    )


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
