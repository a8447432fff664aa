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
when the walk first needs them, and the walk memoizes per context the term
ids of its tied successors, not their text. No numpy is loaded.
"""

from __future__ import annotations

import random
import threading
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .errors import DataError
from .ingest import ItemCatalog, SequenceSample
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
        title = self.catalog.title(self.catalog.ids[sample.target])
        return GeneratedText(tuple(tokenize(title)), self.name)


class PopTitleGenerator:
    """Title of the most popular item outside the user's known set, by the
    counts of a pop.PopularityTable."""

    name = "pop"

    def __init__(self, catalog: ItemCatalog, table):
        self.catalog = catalog
        self.order = table.order().tolist()

    def generate(self, sample: SequenceSample) -> GeneratedText:
        top = next((idx for idx in self.order if not sample.knows(idx)), self.order[0])
        title = self.catalog.title(self.catalog.ids[top])
        return GeneratedText(tuple(tokenize(title)), self.name)


@dataclass
class NGramModel:
    """The titles as a text.TermColumn, with the column's positions grouped
    by term id (TITLE_END first): term t's positions, ascending, are
    positions[starts[t]:starts[t + 1]]. Successor counts are read from it
    per context, as successor_ids() is asked."""

    order: int
    column: TermColumn
    positions: array
    starts: array

    def successor_ids(self, ctx) -> Counter:
        """The term ids (TITLE_END for END) that follow the context ctx (a
        tuple of tokens) in the titles, with their counts, in order of first
        appearance; empty where ctx never occurs. A context of `order`
        tokens is counted wherever it occurs, a shorter one only as a
        title's first tokens."""
        column, n = self.column, len(ctx)
        tokens = column.tokens
        if n > self.order:
            return Counter()
        if n == 0:  # the TITLE_END before each title; the first title's is at -1
            ends = self.positions[self.starts[TITLE_END]:self.starts[TITLE_END + 1]]
            heads = [-1, *ends[:-1]] if ends else []
        else:
            ids = [column.terms.get(t) for t in ctx]
            if None in ids:
                return Counter()
            heads = self.positions[self.starts[ids[-1]]:self.starts[ids[-1] + 1]]
            # a head p that survives step j has p >= j, so p - j - 1 >= -1,
            # and tokens[-1] is TITLE_END: no index runs off the column's start
            for j in range(1, n):
                want = ids[-1 - j]
                heads = [p for p in heads if tokens[p - j] == want]
            if n < self.order:
                heads = [p for p in heads if tokens[p - n] == TITLE_END]
        return Counter([tokens[p + 1] for p in heads])


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
    """Greedy walk with a seeded tie-break, seeded from the last history title.

    Each context's choices are memoized on first use as the term ids of its
    most frequent successors, sorted by term text, in an array("i"); only
    the id drawn at a step is turned into text. A model with no term (every
    title tokenizes to nothing) is refused.
    """

    name = "ngram"

    def __init__(self, catalog: ItemCatalog, model: NGramModel, seed=0):
        if len(model.column.terms) == 1:
            raise DataError("n-gram model is empty: no catalog title has a token")
        self.catalog = catalog
        self.model = model
        self.seed = seed
        # context -> the term ids of the most-frequent successors of its longest
        # suffix that occurs, filled on first use, one fill at a time: threads sharing
        # the generator start on the same contexts, and two concurrent fills of a
        # context whose last token is in every title each held a catalog-long list
        self._tied: dict[tuple[str, ...], array] = {}
        self._filling = threading.Lock()

    def _next(self, ctx, rng):
        tied = self._tied.get(ctx)
        if tied is None:
            with self._filling:
                tied = self._tied.get(ctx)  # filled while this thread waited?
                if tied is None:  # back off to the longest suffix of ctx that
                    suffix = ctx  # occurs; () does, in every model the constructor takes
                    choices = self.model.successor_ids(suffix)
                    while not choices:
                        suffix = suffix[1:]
                        choices = self.model.successor_ids(suffix)
                    best = max(choices.values())
                    # ids are numbered in text order, but END is id 0: it goes
                    # after the ids of the tokens that sort below it (digits)
                    tied = sorted(t for t, c in choices.items() if c == best)
                    if tied[0] == TITLE_END:
                        del tied[0]
                        above = bisect_left(self.model.column.terms, END, 1)
                        tied.insert(bisect_left(tied, above), TITLE_END)
                    tied = self._tied[ctx] = array("i", tied)
        t = tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]
        return self.model.column.terms[t]

    def generate(self, sample: SequenceSample) -> GeneratedText:
        # str seeding is deterministic across processes (tuple hashing is not)
        rng = random.Random(f"{self.seed}:{sample.user_id}:{sample.target_timestamp}")
        out: list[str] = []  # seeded from the last history item in the catalog
        for idx in reversed(sample.history):
            if idx >= 0:  # PAD_INDEX and OUTSIDE_INDEX are negative
                out = tokenize(self.catalog.title(self.catalog.ids[idx]))[: self.model.order]
                break
        while len(out) < MAX_GEN_TOKENS:
            ctx = tuple(out[-self.model.order :]) if out else ()
            nxt = self._next(ctx, rng)
            if nxt == END:
                break
            out.append(nxt)
        if not out:
            out = [END.strip("</>")]
        return GeneratedText(tuple(out), self.name)
