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
from groundrec.pop import compute_popularity
from groundrec.text import tokenize


class TestOracleEcho:
    def test_echoes_target_title(self):
        cat = make_catalog({"f": "Fargo (1996)", "g": "Other"})
        gen = OracleEchoGenerator(cat)
        out = gen.generate(make_sample(["g"], "f"))
        assert out.tokens == tuple(tokenize("Fargo (1996)"))

    def test_deterministic(self):
        cat = make_catalog({"f": "Fargo (1996)", "g": "Other"})
        gen = OracleEchoGenerator(cat)
        s = make_sample(["g"], "f")
        assert gen.generate(s) == gen.generate(s)

    def test_missing_target_errors(self):
        cat = make_catalog({"g": "Other"})
        with pytest.raises(DataError):
            OracleEchoGenerator(cat).generate(make_sample(["g"], "nope"))


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
        out = gen.generate(make_sample(["a"], "b", known={"a"}))
        assert out.tokens == tuple(tokenize("title b"))

    def test_empty_known(self):
        cat, table = self.cat_and_table({"a": 3, "b": 2})
        gen = PopTitleGenerator(cat, table)
        assert gen.generate(make_sample(["b"], "a")).tokens == tuple(tokenize("title a"))

    def test_tie_by_canonical_index(self):
        cat, table = self.cat_and_table({"a": 2, "b": 2})
        gen = PopTitleGenerator(cat, table)
        assert gen.generate(make_sample(["b"], "a")).tokens == tuple(tokenize("title a"))

    def test_all_known_falls_back_to_global_top(self):
        cat, table = self.cat_and_table({"a": 3, "b": 2})
        gen = PopTitleGenerator(cat, table)
        out = gen.generate(make_sample(["a"], "b", known={"a", "b"}))
        assert out.tokens == tuple(tokenize("title a"))


class TestNGram:
    def test_tie_break_can_pick_lexicographic_first(self):
        cat = make_catalog({"h": "a", "x": "filler"})
        model = train_ngram(["a b", "a c"], order=1)
        sample = make_sample(["h"], "x")
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
        assert gen.generate(make_sample(["h"], "o")).tokens == ("x", "y", "z")

    def test_deterministic_per_seed(self):
        cat = make_catalog({f"i{k}": f"word{k} common tail phrase" for k in range(6)})
        model = train_ngram(cat.titles(), order=1)
        gen = NGramGenerator(cat, model, seed=7)
        s = make_sample(["i3"], "i1")
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
                produced.add(gen.generate(make_sample([item], "a")).tokens)
        assert produced - titles, "expected at least one generated non-catalog title"

    def test_empty_model_errors(self):
        cat = make_catalog({"a": "x"})
        from groundrec.generate import NGramModel
        with pytest.raises(DataError):
            NGramGenerator(cat, NGramModel(order=1, transitions={}), seed=0)

    def test_length_cap(self):
        cat = make_catalog({"a": "loop", "b": "other"})
        model = train_ngram(["loop loop loop loop"], order=1)
        gen = NGramGenerator(cat, model, seed=0)
        out = gen.generate(make_sample(["a"], "b"))
        assert len(out.tokens) <= 16


class ScanEveryStep(NGramGenerator):
    """The walk that ran max and sorted over all successors at every step."""

    def _next(self, ctx, rng):
        while ctx not in self.model.transitions and ctx:
            ctx = ctx[1:]
        choices = self.model.transitions.get(ctx)
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
        model = train_ngram(cat.titles(), order=order)
        memo = NGramGenerator(cat, model, seed=5)
        scan = ScanEveryStep(cat, model, seed=5)
        for k in range(60):
            sample = make_sample([f"m{(7 * k) % 60:03d}"], "m000", ts=k)
            assert memo.generate(sample) == scan.generate(sample)
        assert memo.generate(make_sample([], "m000")) == \
            scan.generate(make_sample([], "m000"))


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
token = st.sampled_from(["red", "river", "echo", "volume", "1", "2"])
title = st.one_of(st.lists(token, max_size=6).map(" ".join),
                  st.lists(token, max_size=6).map(tuple),
                  st.sampled_from(["", "Red  RIVER, red!", "-- --"]))


class TestTrainNGramOnePass:
    @given(st.lists(title, max_size=12), st.integers(1, 3))
    def test_same_transitions_as_reference(self, titles, order):
        model = train_ngram(titles, order=order)
        reference = train_ngram_reference(titles, order=order)
        assert model.transitions == reference
        # same insertion order too, of contexts and of each context's successors
        assert [(ctx, list(succ.items())) for ctx, succ in model.transitions.items()] \
            == [(ctx, list(succ.items())) for ctx, succ in reference.items()]
