import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    concurrent_calls,
    held,
    make_catalog,
    make_log,
    make_sample,
    synthetic_dataset,
)
from groundrec.embed import HashEmbedder, embed_catalog
from groundrec.errors import DataError
from groundrec.generate import OracleEchoGenerator
from groundrec.ground import rank
from groundrec.harness import Pipeline, evaluate, most_pop_baseline
from groundrec.ingest import build_samples, temporal_split
from groundrec.metrics import (
    DEFAULT_KS,
    MetricsReport,
    aggregate,
    hr_from_rank,
    improve2lv,
    ndcg_from_rank,
    read_report,
    write_report,
)
from groundrec.pop import compute_popularity
from groundrec.tune import tune_gamma


class TestPointMetrics:
    def test_hr_rank1_k1(self):
        assert hr_from_rank(1, 1) == 1.0

    def test_hr_rank6_k5(self):
        assert hr_from_rank(6, 5) == 0.0

    def test_hr_boundary_inclusive(self):
        assert hr_from_rank(5, 5) == 1.0

    def test_ndcg_rank1(self):
        for k in (1, 3, 20):
            assert ndcg_from_rank(1, k) == 1.0

    def test_ndcg_rank3_k5(self):
        assert ndcg_from_rank(3, 5) == pytest.approx(0.5)  # 1/log2(4)

    def test_ndcg_rank7_k5(self):
        assert ndcg_from_rank(7, 5) == 0.0

    def test_on_ranked_list(self):
        r = rank(np.array([0.3, 0.1, 0.2]))
        # order: 1, 2, 0 -> item 0 at rank 3
        assert hr_from_rank(r.position(0), 5) == 1.0
        assert ndcg_from_rank(r.position(0), 5) == pytest.approx(0.5)
        assert hr_from_rank(r.position(0), 1) == 0.0

    def test_excluded_target_errors(self):
        r = rank(np.array([0.3, 0.1]), exclusions={0})
        with pytest.raises(DataError):
            hr_from_rank(r.position(0), 5)

    def test_exhaustive_rank_k_table(self):
        for position in range(1, 26):
            for k in DEFAULT_KS:
                assert hr_from_rank(position, k) == (1.0 if position <= k else 0.0)
                expected = 1.0 / math.log2(position + 1) if position <= k else 0.0
                assert ndcg_from_rank(position, k) == pytest.approx(expected)

    @given(st.integers(min_value=1, max_value=1000))
    def test_ndcg_le_hr_and_monotone(self, position):
        prev_hr = prev_ndcg = 0.0
        for k in DEFAULT_KS:
            hr = hr_from_rank(position, k)
            ndcg = ndcg_from_rank(position, k)
            assert ndcg <= hr
            assert hr >= prev_hr and ndcg >= prev_ndcg
            prev_hr, prev_ndcg = hr, ndcg


def oracle_pipeline(catalog, dim=256, seed=5, **kw):
    provider = HashEmbedder(dim=dim, seed=seed)
    matrix = embed_catalog(catalog, provider)
    return Pipeline(OracleEchoGenerator(catalog), provider, matrix, **kw)


class TestEvaluate:
    def test_oracle_echo_perfect(self):
        log, catalog = synthetic_dataset()
        samples = build_samples(temporal_split(log), catalog)["test"]
        report = aggregate(evaluate(samples, oracle_pipeline(catalog)))
        assert report.hr[1] == 1.0
        assert report.ndcg[1] == 1.0

    def test_single_sample_rank3(self):
        # three items; craft embeddings so the target lands at rank 3
        catalog = make_catalog({"a": "ta", "b": "tb", "c": "tc"})

        class FixedProvider:
            dim = 2

            def embed(self, text):
                return np.array([0.0, 0.0], dtype=np.float32)

        class EchoGen:
            def generate(self, sample):
                from groundrec.generate import GeneratedText
                return GeneratedText(("x",), "fixed")

        matrix = held([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        pipe = Pipeline(EchoGen(), FixedProvider(), matrix)
        sample = make_sample(catalog, ["a"], "c")  # target 'c' = farthest = rank 3
        report = aggregate(evaluate([sample], pipe))
        assert report.hr[5] == 1.0
        assert report.hr[1] == 0.0
        assert report.ndcg[5] == pytest.approx(0.5)

    def test_skips_repeat_consumption(self):
        log, catalog = synthetic_dataset()
        samples = build_samples(temporal_split(log), catalog)["test"]
        bad = make_sample(catalog, ["i000"], "i000", known={"i000"})
        report = aggregate(evaluate(samples + [bad], oracle_pipeline(catalog)))
        assert report.skipped == 1
        assert report.n_samples == len(samples)

    def test_order_invariance(self):
        log, catalog = synthetic_dataset()
        samples = build_samples(temporal_split(log), catalog)["test"]
        pipe = oracle_pipeline(catalog)
        a = aggregate(evaluate(samples, pipe))
        b = aggregate(evaluate(list(reversed(samples)), pipe))
        assert a.hr == b.hr and a.ndcg == b.ndcg

    def test_thread_count_invariance(self):
        """Eight callers sharing one fresh pipeline, each on a thread of its
        own, each get the positions of one call on a pipeline of their own."""
        log, catalog = synthetic_dataset()
        samples = build_samples(temporal_split(log), catalog)["test"]
        want = evaluate(samples, oracle_pipeline(catalog))
        pipe = oracle_pipeline(catalog)
        assert concurrent_calls(lambda: evaluate(samples, pipe), 8) == [want] * 8

    def test_exclusions_never_ranked(self):
        log, catalog = synthetic_dataset()
        samples = build_samples(temporal_split(log), catalog)["test"]
        pipe = oracle_pipeline(catalog)
        for s in samples:
            ranked = rank(pipe.normalized_distances(s), pipe.exclusions(s))
            assert not (set(ranked.indices.tolist()) & set(s.known))

    def test_brute_force_oracle_small(self):
        # naive re-sort per sample must agree with the harness on tiny instances
        rng = random.Random(3)
        log, catalog = synthetic_dataset(n_users=6, n_items=15, events_per_user=5)
        samples = build_samples(temporal_split(log), catalog)["test"][:10]
        pipe = oracle_pipeline(catalog, dim=64)
        report = aggregate(evaluate(samples, pipe))
        positions = []
        for s in samples:
            if s.target in s.known:
                continue
            gen = pipe.generator.generate(s)
            oracle = pipe.provider.embed(gen.text())
            dists = [
                math.sqrt(float(((row - oracle) ** 2).sum()))
                for row in pipe.matrix.vectors.astype(np.float64)
            ]
            lo, hi = min(dists), max(dists)
            norm = [0.0] * len(dists) if hi == lo else [(d - lo) / (hi - lo) for d in dists]
            excl = set(s.known)
            cand = sorted(
                (i for i in range(len(dists)) if i not in excl),
                key=lambda i: (norm[i], i),
            )
            positions.append(cand.index(s.target) + 1)
        for k in DEFAULT_KS:
            hr = sum(1.0 for p in positions if p <= k) / len(positions)
            ndcg = sum(
                1.0 / math.log2(p + 1) if p <= k else 0.0 for p in positions
            ) / len(positions)
            assert report.hr[k] == pytest.approx(hr)
            assert report.ndcg[k] == pytest.approx(ndcg)


class TestMostPopBaseline:
    def fixture(self, counts, n_items=None):
        ids = sorted(counts) if n_items is None else [f"i{k}" for k in range(n_items)]
        catalog = make_catalog({i: f"title {i}" for i in ids})
        triples = []
        t = 0
        for item, c in counts.items():
            for _ in range(c):
                triples.append(("u", item, t))
                t += 1
        table = compute_popularity(make_log(triples), catalog)
        return catalog, table

    def test_target_is_top_unseen(self):
        catalog, table = self.fixture({"a": 5, "b": 3, "c": 1})
        samples = [make_sample(catalog, ["a"], "b", known={"a"})]
        report = aggregate(most_pop_baseline(table, samples, catalog))
        assert report.hr[1] == 1.0

    def test_least_popular_of_20_missed_at_10(self):
        counts = {f"i{k}": 20 - k for k in range(20)}
        catalog, table = self.fixture(counts, n_items=20)
        samples = [make_sample(catalog, ["i0"], "i19")]
        report = aggregate(most_pop_baseline(table, samples, catalog))
        assert report.hr[10] == 0.0

    def test_uniform_popularity_canonical_order(self):
        # 5 items, all count 1 -> ranking = canonical index order
        catalog, table = self.fixture({f"i{k}": 1 for k in range(5)}, n_items=5)
        # target i2 with i0 known -> candidates (i1,i2,i3,i4), rank 2
        report = aggregate(most_pop_baseline(
            table, [make_sample(catalog, ["i0"], "i2", known={"i0"})], catalog
        ))
        assert report.hr[1] == 0.0
        assert report.hr[3] == 1.0
        assert report.ndcg[3] == pytest.approx(1.0 / math.log2(3))


class TestNoSharedArrayWritten:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from([0.0, 0.5, 3.0]), st.sampled_from([1, 2]))
    def test_weights_and_place_order_unchanged(self, seed, gamma, threads):
        """The popularity weights every sample shares and the order Most-Pop
        places items by hold the same bits after evaluate and tune_gamma (from
        `threads` callers sharing the pipeline) and most_pop_baseline, which
        write each sample's exclusions into an array of their own; Most-Pop's
        reused buffer gives the brute-force positions."""
        log, catalog = synthetic_dataset(n_users=8, n_items=12, events_per_user=6,
                                         seed=seed)
        split = temporal_split(log)
        samples = build_samples(split, catalog)["test"]
        table = compute_popularity(split.train, catalog)
        weights, order = table.normalized.copy(), table.order()
        pipe = oracle_pipeline(catalog, dim=32, gamma=gamma, source=table)
        concurrent_calls(lambda: (evaluate(samples, pipe),
                                  tune_gamma(samples, pipe, grid=[0.0, gamma, 7.0])), threads)
        got = most_pop_baseline(table, samples, catalog)
        assert table.normalized.tobytes() == weights.tobytes()
        assert table.order().tobytes() == order.tobytes()
        for s, position in zip(samples, got):
            if s.target in s.known:
                assert position is None
            else:
                ranked = [i for i in order.tolist() if i not in set(s.known)]
                assert position == ranked.index(s.target) + 1


class TestImprove2lv:
    def rep(self, value):
        return MetricsReport(
            hr={k: value for k in DEFAULT_KS},
            ndcg={k: value for k in DEFAULT_KS},
            n_samples=10,
        )

    def test_hand_example(self):
        out = improve2lv(self.rep(0.02), self.rep(0.03), self.rep(0.036))
        assert out["hr@1"] == pytest.approx(0.2)

    def test_combined_equals_max(self):
        out = improve2lv(self.rep(0.02), self.rep(0.03), self.rep(0.03))
        assert out["ndcg@20"] == 0.0

    def test_zero_baselines_null(self):
        out = improve2lv(self.rep(0.0), self.rep(0.0), self.rep(0.5))
        assert out["hr@1"] is None

    def test_mismatched_ks_fatal(self):
        a = MetricsReport(hr={1: 0.5}, ndcg={1: 0.5}, n_samples=1)
        with pytest.raises(DataError):
            improve2lv(a, self.rep(0.1), self.rep(0.1))

    def test_mismatched_ks_names_the_report(self):
        one = MetricsReport(hr={1: 0.5}, ndcg={1: 0.5}, n_samples=1)
        with pytest.raises(DataError, match="mismatched K sets: a and combined$"):
            improve2lv(self.rep(0.1), self.rep(0.1), one)
        with pytest.raises(DataError, match="mismatched K sets: a and b$"):
            improve2lv(self.rep(0.1), one, one)


class TestReportIO:
    def test_text_roundtrip(self, tmp_path):
        report = MetricsReport(
            hr={1: 0.25, 3: 0.5}, ndcg={1: 0.25, 3: 0.375},
            n_samples=8, skipped=1, fingerprint={"generator": "oracle", "seed": "7"},
        )
        path = tmp_path / "report.tsv"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded == report

    def test_metric_lookup(self):
        report = MetricsReport(hr={5: 0.4}, ndcg={5: 0.2}, n_samples=1)
        assert report.metric("hr@5") == 0.4
        with pytest.raises(KeyError):
            report.metric("mrr@5")


class TestAggregateProperties:
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
            min_size=1, max_size=200,
        )
    )
    def test_invariants(self, positions):
        report = aggregate(positions)
        prev_hr = prev_ndcg = 0.0
        for k in report.ks:
            assert 0.0 <= report.ndcg[k] <= report.hr[k] <= 1.0
            assert report.hr[k] >= prev_hr and report.ndcg[k] >= prev_ndcg
            prev_hr, prev_ndcg = report.hr[k], report.ndcg[k]
        assert report.n_samples + report.skipped == len(positions)

    @given(
        st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=30)), max_size=60),
        st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=6, unique=True),
    )
    def test_equals_a_sum_per_k(self, positions, ks):
        """Each K's means have the bits of a sum over every kept sample, in
        sample order, of hr_from_rank and ndcg_from_rank at that K."""
        kept = [p for p in positions if p is not None]
        n = max(len(kept), 1)
        report = aggregate(positions, ks)
        for k in ks:
            assert report.hr[k] == sum(hr_from_rank(p, k) for p in kept) / n
            assert report.ndcg[k] == sum(ndcg_from_rank(p, k) for p in kept) / n
