"""Toy text generators standing in for a fine-tuned LLM's item descriptions.

Three generators, all deterministic under a fixed config/seed:
  oracle  - echoes the target title (perfect generation, used as a test oracle)
  pop     - title of the most popular item the user has not seen
  ngram   - greedy n-gram walk over catalog titles; may produce titles that
            exist in no catalog entry, which is the point: the grounding step
            then has real work to do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DataError
from .ingest import PAD, ItemCatalog, SequenceSample
from .pop import PopularityTable
from .text import tokenize

MAX_GEN_TOKENS = 16


@dataclass(frozen=True)
class GeneratedText:
    tokens: tuple[str, ...]
    source: str

    def text(self):
        return " ".join(self.tokens)


class OracleEchoGenerator:
    """Returns the target item's title tokens verbatim."""

    name = "oracle"

    def __init__(self, catalog: ItemCatalog):
        self.catalog = catalog

    def generate(self, sample: SequenceSample) -> GeneratedText:
        title = self.catalog.entries.get(sample.target)
        if title is None:
            raise DataError(f"target item {sample.target!r} not in catalog")
        return GeneratedText(tuple(tokenize(title)), self.name)


class PopTitleGenerator:
    """Title of the most popular item outside the user's known set."""

    name = "pop"

    def __init__(self, catalog: ItemCatalog, table: PopularityTable):
        self.catalog = catalog
        # popularity desc, canonical index asc on ties
        order = sorted(range(len(catalog)), key=lambda i: (-table.counts[i], i))
        self.order = order

    def generate(self, sample: SequenceSample) -> GeneratedText:
        for idx in self.order:
            if self.catalog.ids[idx] not in sample.known_items:
                return GeneratedText(
                    tuple(tokenize(self.catalog.title(self.catalog.ids[idx]))),
                    self.name,
                )
        top = self.catalog.ids[self.order[0]]
        return GeneratedText(tuple(tokenize(self.catalog.title(top))), self.name)


END = "</s>"


@dataclass
class NGramModel:
    order: int
    transitions: dict[tuple[str, ...], dict[str, int]]


def train_ngram(titles, order=1) -> NGramModel:
    if order < 1:
        raise ValueError("order must be >= 1")
    transitions: dict[tuple[str, ...], dict[str, int]] = {}
    for title in titles:
        tokens = tokenize(title) if isinstance(title, str) else list(title)
        seq = tokens + [END]
        for i in range(len(seq)):
            ctx = tuple(seq[max(0, i - order) : i])
            nxt = seq[i]
            transitions.setdefault(ctx, {})[nxt] = (
                transitions.get(ctx, {}).get(nxt, 0) + 1
            )
    return NGramModel(order=order, transitions=transitions)


class NGramGenerator:
    """Greedy walk with a seeded tie-break, seeded from the last history title."""

    name = "ngram"

    def __init__(self, catalog: ItemCatalog, model: NGramModel, seed=0):
        if not model.transitions:
            raise DataError("n-gram model is empty")
        self.catalog = catalog
        self.model = model
        self.seed = seed
        # context -> its sorted most-frequent successors, filled on first use;
        # a fill is idempotent, so threads sharing the generator may race on it
        self._tied: dict[tuple[str, ...], list[str]] = {}

    def _next(self, ctx, rng):
        model = self.model
        while ctx not in model.transitions and ctx:
            ctx = ctx[1:]
        tied = self._tied.get(ctx)
        if tied is None:
            choices = model.transitions.get(ctx)
            if not choices:
                return END
            best = max(choices.values())
            tied = sorted(t for t, c in choices.items() if c == best)
            self._tied[ctx] = tied
        return tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]

    def generate(self, sample: SequenceSample) -> GeneratedText:
        # str seeding is deterministic across processes (tuple hashing is not)
        rng = random.Random(f"{self.seed}:{sample.user_id}:{sample.target_timestamp}")
        seed_tokens: list[str] = []
        for item_id in reversed(sample.history):
            if item_id != PAD and item_id in self.catalog.entries:
                seed_tokens = tokenize(self.catalog.title(item_id))[: self.model.order]
                break
        out = list(seed_tokens)
        while len(out) < MAX_GEN_TOKENS:
            ctx = tuple(out[-self.model.order :]) if out else ()
            nxt = self._next(ctx, rng)
            if nxt == END:
                break
            out.append(nxt)
        if not out:
            out = [END.strip("</>")]
        return GeneratedText(tuple(out), self.name)
