import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_catalog, make_log, make_sample
from groundrec.errors import DataError
from groundrec.generate import (
    END,
    NGramGenerator,
    OracleEchoGenerator,
    PopTitleGenerator,
    train_ngram,
)
from groundrec.ingest import PAD, read_samples
from groundrec.pop import compute_popularity
from groundrec.text import tokenize


class TestOracleEcho:
    def test_echoes_target_title(self):
        cat = make_catalog({"f": "Fargo (1996)", "g": "Other"})
        gen = OracleEchoGenerator(cat)
        out = gen.generate(make_sample(cat, ["g"], "f"))
        assert out.tokens == tuple(tokenize("Fargo (1996)"))

    def test_deterministic(self):
        cat = make_catalog({"f": "Fargo (1996)", "g": "Other"})
        gen = OracleEchoGenerator(cat)
        s = make_sample(cat, ["g"], "f")
        assert gen.generate(s) == gen.generate(s)

    def test_missing_target_errors(self, tmp_path):
        # a target outside the catalog is refused where the samples are read,
        # so no generator is handed one
        cat = make_catalog({"g": "Other"})
        path = tmp_path / "samples.tsv"
        path.write_text("u\t" + ",".join([PAD] * 9 + ["g"]) + "\tnope\t5\tg\n")
        with pytest.raises(DataError, match="sample target 'nope' at line 1 "):
            read_samples(path, cat)


class TestPopTitle:
    def cat_and_table(self, counts):
        cat = make_catalog({i: f"title {i}" for i in counts})
        triples = []
        t = 0
        for item, n in counts.items():
            for _ in range(n):
                triples.append(("u", item, t))
                t += 1
        return cat, compute_popularity(make_log(triples), cat)

    def test_most_popular_unknown(self):
        cat, table = self.cat_and_table({"a": 3, "b": 2})
        gen = PopTitleGenerator(cat, table)
        out = gen.generate(make_sample(cat, ["a"], "b", known={"a"}))
        assert out.tokens == tuple(tokenize("title b"))

    def test_empty_known(self):
        cat, table = self.cat_and_table({"a": 3, "b": 2})
        gen = PopTitleGenerator(cat, table)
        assert gen.generate(make_sample(cat, ["b"], "a")).tokens == tuple(tokenize("title a"))

    def test_tie_by_canonical_index(self):
        cat, table = self.cat_and_table({"a": 2, "b": 2})
        gen = PopTitleGenerator(cat, table)
        assert gen.generate(make_sample(cat, ["b"], "a")).tokens == tuple(tokenize("title a"))

    def test_all_known_falls_back_to_global_top(self):
        cat, table = self.cat_and_table({"a": 3, "b": 2})
        gen = PopTitleGenerator(cat, table)
        out = gen.generate(make_sample(cat, ["a"], "b", known={"a", "b"}))
        assert out.tokens == tuple(tokenize("title a"))


class TestNGram:
    def test_tie_break_can_pick_lexicographic_first(self):
        cat = make_catalog({"h": "a", "x": "filler"})
        model = train_ngram(["a b", "a c"], order=1)
        sample = make_sample(cat, ["h"], "x")
        outputs = set()
        for seed in range(20):
            gen = NGramGenerator(cat, model, seed=seed)
            outputs.add(gen.generate(sample).tokens)
        # both tied continuations are reachable over seeds, incl. lex-first
        assert ("a", "b") in outputs
        assert outputs <= {("a", "b"), ("a", "c")}

    def test_single_path(self):
        cat = make_catalog({"h": "x", "o": "other"})
        model = train_ngram(["x y z"], order=1)
        gen = NGramGenerator(cat, model, seed=0)
        assert gen.generate(make_sample(cat, ["h"], "o")).tokens == ("x", "y", "z")
        # an item outside the catalog is passed over for the seed
        assert gen.generate(make_sample(cat, ["o", "zz"], "h")).tokens == \
            ("other", "x", "y", "z")

    def test_deterministic_per_seed(self):
        cat = make_catalog({f"i{k}": f"word{k} common tail phrase" for k in range(6)})
        model = train_ngram(cat.titles(), order=1)
        gen = NGramGenerator(cat, model, seed=7)
        s = make_sample(cat, ["i3"], "i1")
        assert gen.generate(s) == gen.generate(s)

    def test_can_produce_title_outside_catalog(self):
        # two titles sharing a bigram let the walk splice a nonexistent title
        cat = make_catalog({
            "a": "dark night falls",
            "b": "night of wonder",
            "c": "dawn rises",
        })
        titles = set(tuple(tokenize(t)) for t in cat.titles())
        model = train_ngram(cat.titles(), order=1)
        produced = set()
        for seed in range(30):
            gen = NGramGenerator(cat, model, seed=seed)
            for item in ("a", "b", "c"):
                produced.add(gen.generate(make_sample(cat, [item], "a")).tokens)
        assert produced - titles, "expected at least one generated non-catalog title"

    def test_empty_model_errors(self):
        cat = make_catalog({"a": "x"})
        with pytest.raises(DataError):
            NGramGenerator(cat, train_ngram([], order=1), seed=0)

    def test_titles_without_a_token_error(self):
        # the column holds a TITLE_END per title, but no term
        cat = make_catalog({"a": "!!!", "b": "-- --"})
        with pytest.raises(DataError, match="no catalog title has a token"):
            NGramGenerator(cat, train_ngram(["!!!", "-- --"]), seed=0)

    def test_length_cap(self):
        cat = make_catalog({"a": "loop", "b": "other"})
        model = train_ngram(["loop loop loop loop"], order=1)
        gen = NGramGenerator(cat, model, seed=0)
        out = gen.generate(make_sample(cat, ["a"], "b"))
        assert len(out.tokens) <= 16


class ScanEveryStep(NGramGenerator):
    """The walk that ran max and sorted over all successors at every step, of
    the reference fit's transitions dict."""

    def __init__(self, catalog, titles, order, seed):
        super().__init__(catalog, train_ngram(titles, order=order), seed=seed)
        self.transitions = train_ngram_reference(titles, order=order)

    def _next(self, ctx, rng):
        while ctx not in self.transitions and ctx:
            ctx = ctx[1:]
        choices = self.transitions.get(ctx)
        if not choices:
            return END
        best = max(choices.values())
        tied = sorted(t for t, c in choices.items() if c == best)
        return tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]


class TestNGramTiedMemo:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_same_text_as_scanning_every_step(self, order):
        # "volume" has 60 tied successors; order 3 backs off to shorter contexts
        cat = make_catalog({f"m{k:03d}": f"{('lost', 'red', 'far')[k % 3]} "
                                          f"{('river', 'echo')[k % 2]} volume {k}"
                            for k in range(60)})
        titles = list(cat.titles())
        for seed in (0, 5, 11):
            memo = NGramGenerator(cat, train_ngram(titles, order=order), seed=seed)
            scan = ScanEveryStep(cat, titles, order, seed)
            for k in range(60):
                sample = make_sample(cat, [f"m{(7 * k) % 60:03d}"], "m000", ts=k)
                assert memo.generate(sample) == scan.generate(sample)
            assert memo.generate(make_sample(cat, [], "m000")) == \
                scan.generate(make_sample(cat, [], "m000"))

    def test_end_tied_with_digit_tokens_keeps_its_text_place(self):
        # after "part": "1", "2" and END once each, and "x" once; END ("</s>")
        # sorts after the digits and before the letters, though its id is 0
        cat = make_catalog({"a": "part 1", "b": "part 2", "c": "part", "d": "part x"})
        titles = list(cat.titles())
        for seed in range(12):
            memo = NGramGenerator(cat, train_ngram(titles), seed=seed)
            scan = ScanEveryStep(cat, titles, 1, seed)
            for k in range(8):
                sample = make_sample(cat, ["a"], "b", ts=k)
                assert memo.generate(sample) == scan.generate(sample)
        tied = memo._tied[("part",)]
        assert [memo.model.column.terms[t] for t in tied] == ["1", "2", END, "x"]

    def test_threads_fill_each_context_once(self):
        """A generator shared by a caller's threads fills each context
        once: 8 threads that switch as often as they can, started together
        on samples that walk the same contexts, ask the model for the same
        successors, as often, as one thread does, and get its texts."""
        cat = make_catalog({f"m{k:03d}": f"{('lost', 'red', 'far')[k % 3]} "
                                          f"{('river', 'echo')[k % 2]} volume {k}"
                            for k in range(60)})
        samples = [make_sample(cat, [f"m{k % 60:03d}"], "m000", ts=k) for k in range(64)]

        def run(threads):
            model = train_ngram(cat.titles(), order=2)
            asked, successor_ids = [], model.successor_ids
            model.successor_ids = lambda ctx: asked.append(ctx) or successor_ids(ctx)
            gen = NGramGenerator(cat, model, seed=3)
            start = threading.Barrier(threads)

            def walk(part):
                start.wait(timeout=10)
                return [gen.generate(s) for s in part]

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    parts = [pool.submit(walk, samples[i::threads]) for i in range(threads)]
                    texts = [part.result(timeout=60) for part in parts]
            finally:
                sys.setswitchinterval(switch)
            return Counter(asked), texts

        alone, (texts,) = run(1)
        racing, parts = run(8)
        assert racing == alone
        assert [t for i in range(8) for t in parts[i]] == \
            [texts[j] for i in range(8) for j in range(i, 64, 8)]


def train_ngram_reference(titles, order=1):
    """The fit that built each context from a list slice and allocated two
    throwaway dicts per token (setdefault, get)."""
    transitions = {}
    for title in titles:
        tokens = tokenize(title) if isinstance(title, str) else list(title)
        seq = tokens + [END]
        for i in range(len(seq)):
            ctx = tuple(seq[max(0, i - order) : i])
            nxt = seq[i]
            transitions.setdefault(ctx, {})[nxt] = (
                transitions.get(ctx, {}).get(nxt, 0) + 1
            )
    return transitions


# few distinct tokens, so titles repeat tokens and contexts; "" is an empty title
ALPHABET = ["red", "river", "echo", "volume", "1", "2"]
token = st.sampled_from(ALPHABET)
title = st.one_of(st.lists(token, max_size=6).map(" ".join),
                  st.lists(token, max_size=6).map(tuple),
                  st.sampled_from(["", "Red  RIVER, red!", "-- --"]))


def contexts(order):
    """Every tuple of up to order + 1 tokens of ALPHABET (1,555 at order 3)."""
    return [ctx for n in range(order + 2) for ctx in product(ALPHABET, repeat=n)]


class TestTrainNGramOnePass:
    @given(st.lists(title, max_size=12), st.integers(1, 3))
    def test_same_transitions_as_reference(self, titles, order):
        model = train_ngram(titles, order=order)
        reference = train_ngram_reference(titles, order=order)
        every = contexts(order)
        assert set(reference) <= set(every)
        terms = model.column.terms
        for ctx in every:  # each context's successors in first-seen order
            counts = model.successor_ids(ctx)
            assert list(zip(map(terms.__getitem__, counts), counts.values())) == \
                list(reference.get(ctx, {}).items())
