"""Toy text generators standing in for a fine-tuned LLM's item descriptions.

Three generators, all deterministic under a fixed config/seed:
  oracle  - echoes the target title (perfect generation, used as a test oracle)
  pop     - title of the most popular item the user has not seen
  ngram   - greedy n-gram walk over catalog titles; may produce titles that
            exist in no catalog entry, which is the point: the grounding step
            then has real work to do.

The n-gram model keeps the titles as a text.TermColumn and the column's
positions grouped by term, not a dict of successors per context: a
context's successor counts are read from the positions of its last token
when the walk first needs them, and the walk memoizes its choice per
context. No numpy is loaded.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .errors import DataError
from .ingest import PAD, ItemCatalog, SequenceSample
from .text import END, TITLE_END, TermColumn, tokenize

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
    """Title of the most popular item outside the user's known set, by the
    counts of a pop.PopularityTable."""

    name = "pop"

    def __init__(self, catalog: ItemCatalog, table):
        self.catalog = catalog
        self.order = table.order().tolist()

    def generate(self, sample: SequenceSample) -> GeneratedText:
        for idx in self.order:
            if self.catalog.ids[idx] not in sample.known_items:
                return GeneratedText(
                    tuple(tokenize(self.catalog.title(self.catalog.ids[idx]))),
                    self.name,
                )
        top = self.catalog.ids[self.order[0]]
        return GeneratedText(tuple(tokenize(self.catalog.title(top))), self.name)


@dataclass
class NGramModel:
    """The titles as a text.TermColumn, with the column's positions grouped
    by term id (TITLE_END first): term t's positions, ascending, are
    positions[starts[t]:starts[t + 1]]. Successor counts are read from it
    per context, as successors() is asked."""

    order: int
    column: TermColumn
    positions: array
    starts: array

    def successors(self, ctx) -> dict[str, int]:
        """The tokens that follow the context ctx (a tuple of tokens) in the
        titles, each closed by END, with their counts, in order of first
        appearance; empty where ctx never occurs. A context of `order`
        tokens is counted wherever it occurs, a shorter one only as a
        title's first tokens."""
        column, n = self.column, len(ctx)
        tokens = column.tokens
        if n > self.order:
            return {}
        if n == 0:  # the TITLE_END before each title; the first title's is at -1
            ends = self.positions[self.starts[TITLE_END]:self.starts[TITLE_END + 1]]
            heads = [-1, *ends[:-1]] if ends else []
        else:
            ids = [column.vocab.get(t) for t in ctx]
            if None in ids:
                return {}
            heads = self.positions[self.starts[ids[-1]]:self.starts[ids[-1] + 1]]
            # a head p that survives step j has p >= j, so p - j - 1 >= -1,
            # and tokens[-1] is TITLE_END: no index runs off the column's start
            for j in range(1, n):
                want = ids[-1 - j]
                heads = [p for p in heads if tokens[p - j] == want]
            if n < self.order:
                heads = [p for p in heads if tokens[p - n] == TITLE_END]
        counts = Counter([tokens[p + 1] for p in heads])
        return dict(zip(map(column.terms.__getitem__, counts), counts.values()))


def train_ngram(titles, order=1) -> NGramModel:
    """The n-gram model of the titles (text, or token sequences): their term
    column and its positions grouped by term, by one counting sort."""
    if order < 1:
        raise ValueError("order must be >= 1")
    column = TermColumn(titles)
    tokens = column.tokens
    counts = [0] * len(column.terms)
    for t in tokens:
        counts[t] += 1
    starts = array("i", accumulate(counts, initial=0))
    fill = starts.tolist()
    positions = array("i", bytes(tokens.itemsize * len(tokens)))
    for p, t in enumerate(tokens):
        at = fill[t]
        positions[at] = p
        fill[t] = at + 1
    return NGramModel(order, column, positions, starts)


class NGramGenerator:
    """Greedy walk with a seeded tie-break, seeded from the last history title."""

    name = "ngram"

    def __init__(self, catalog: ItemCatalog, model: NGramModel, seed=0):
        if not model.column.tokens:
            raise DataError("n-gram model is empty")
        self.catalog = catalog
        self.model = model
        self.seed = seed
        # context -> the sorted most-frequent successors of its longest suffix
        # that occurs, filled on first use; a fill is idempotent, so threads
        # sharing the generator may race on it
        self._tied: dict[tuple[str, ...], list[str]] = {}

    def _next(self, ctx, rng):
        tied = self._tied.get(ctx)
        if tied is None:  # back off to the longest suffix of ctx that occurs;
            suffix = ctx  # () does, in every model the constructor takes
            choices = self.model.successors(suffix)
            while not choices:
                suffix = suffix[1:]
                choices = self.model.successors(suffix)
            best = max(choices.values())
            tied = self._tied[ctx] = sorted(t for t, c in choices.items() if c == best)
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
