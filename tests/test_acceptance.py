"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import make_catalog, make_log, make_sample, synthetic_dataset
from groundrec import cli
from groundrec.embed import HashEmbedder, embed_catalog
from groundrec.generate import GeneratedText, OracleEchoGenerator
from groundrec.ground import (
    BM25Index,
    bm25_rank,
    inject,
    l2_distances,
    normalize_distances,
    rank,
)
from groundrec.harness import Pipeline, evaluate, hr_from_rank, ndcg_from_rank
from groundrec.ingest import build_samples, temporal_split
from groundrec.pop import compute_popularity
from groundrec.tune import gamma_grid

WORDS = (
    "amber basalt cedar dune ember fjord garnet harbor iris juniper krill "
    "lagoon marble nectar onyx prairie quartz reef sierra tundra umber "
    "violet willow xenon yarrow zephyr"
).split()


def big_catalog(n, prefix="entry"):
    entries = {}
    for k in range(n):
        w1 = WORDS[k % len(WORDS)]
        w2 = WORDS[(k * 7 + 3) % len(WORDS)]
        entries[f"{prefix}{k:04d}"] = f"{w1} {w2} {prefix} number {k} code{k} tag{k * 13}"
    return make_catalog(entries)


def report_line(num, name):
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


class TestCriterion1OracleRecovery:
    def test_oracle_recovery_500_items(self):
        catalog = big_catalog(500)
        provider = HashEmbedder(dim=512, seed=17)
        matrix = embed_catalog(catalog, provider)
        # titles must be pairwise distinct in embedding space for exact recovery
        assert len({matrix.vectors[i].tobytes() for i in range(500)}) == 500
        rng = random.Random(5)
        samples = [
            make_sample([rng.choice(catalog.ids)], rng.choice(catalog.ids))
            for _ in range(200)
        ]
        samples = [s for s in samples if s.target not in s.known_items]
        assert len(samples) == 200
        pipe = Pipeline(OracleEchoGenerator(catalog), provider, matrix, catalog)
        start = time.perf_counter()
        report = evaluate(samples, pipe)
        elapsed = time.perf_counter() - start
        assert report.hr[1] == 1.0
        assert report.ndcg[1] == 1.0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        report_line(1, "grounding oracle recovery")


class TestCriterion2PopularityFactor:
    def test_1000_randomized_count_vectors(self):
        rng = random.Random(99)
        for trial in range(1000):
            n = rng.randint(1, 40)
            if trial % 10 == 0:
                counts = [rng.randint(0, 5)] * n  # force the degenerate case
            else:
                counts = [rng.randint(0, 50) for _ in range(n)]
            catalog = make_catalog({f"i{k:03d}": f"t {k}" for k in range(n)})
            log = make_log(
                [("u", f"i{k:03d}", t) for k, c in enumerate(counts) for t in [k] * c]
            )
            table = compute_popularity(log, catalog)
            total = sum(counts)
            if total > 0:
                assert abs(table.factor.sum() - 1.0) < 1e-9
            if len(set(counts)) > 1:
                assert table.normalized.min() == 0.0
                assert table.normalized.max() == 1.0
            else:
                assert np.all(table.normalized == 0.0)
        report_line(2, "popularity factor conformance")


class TestCriterion3InjectionIdentityAndBound:
    def test_10000_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(1, 12))
            norm = rng.random(n)
            w = rng.random(n)
            # gamma = 0 identity: values and ranking bitwise equal
            out0 = inject(norm, w, 0.0)
            assert np.array_equal(out0, norm)
            assert np.array_equal(rank(out0).indices, rank(norm).indices)
            # bound for arbitrary gamma
            gamma = float(rng.random() * 100.0)
            out = inject(norm, w, gamma)
            assert np.all(out <= norm + 1e-15)
        report_line(3, "injection identity and bound")


class TestCriterion4GammaMonotonicity:
    def test_full_grid_50_instances(self):
        grid = gamma_grid()
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 12)
            norm = np.array([rng.random() for _ in range(n)])
            w = np.array([rng.random() * 0.9 for _ in range(n)])
            star = rng.randrange(n)
            w[star] = 1.0
            if norm[star] == 0.0:
                norm[star] = 0.5
            prev_above = None
            for gamma in grid:
                order = list(rank(inject(norm, w, gamma)).indices)
                above = set(order[: order.index(star)])
                if prev_above is not None:
                    assert above <= prev_above, f"gamma={gamma}"
                prev_above = above
        report_line(4, "gamma monotonicity of max-weight item")


class TestCriterion5BruteForceEquivalence:
    def test_100_instances(self):
        rng = random.Random(77)
        for trial in range(100):
            n = rng.randint(2, 50)
            dim = rng.randint(1, 6)
            vectors = [[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(n)]
            oracle = [rng.uniform(-3, 3) for _ in range(dim)]
            weights = [rng.random() for _ in range(n)]
            gamma = rng.choice([0.0, 0.01, 0.5, 1.0, 10.0, 100.0])
            excl = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
            # independent naive re-implementation, scalar math end to end
            dists = [
                math.sqrt(sum((v - o) ** 2 for v, o in zip(row, oracle)))
                for row in vectors
            ]
            lo, hi = min(dists), max(dists)
            naive_norm = (
                [0.0] * n if hi == lo else [(d - lo) / (hi - lo) for d in dists]
            )
            if gamma > 0:
                naive_adj = [
                    d / (1.0 + w) ** gamma for d, w in zip(naive_norm, weights)
                ]
            else:
                naive_adj = naive_norm
            expected = sorted(
                (i for i in range(n) if i not in excl),
                key=lambda i: (naive_adj[i], i),
            )
            norm = normalize_distances(l2_distances(np.array(vectors), np.array(oracle)))
            adj = inject(norm, np.array(weights), gamma) if gamma > 0 else norm
            got = list(rank(adj, excl).indices)
            assert got == expected, f"trial {trial}"
        report_line(5, "brute-force ranking equivalence")


class TestCriterion6MetricOracles:
    def test_exhaustive_rank_k_table(self):
        for position in range(1, 26):
            for k in (1, 3, 5, 10, 20):
                hand_hr = 1.0 if position <= k else 0.0
                hand_ndcg = (1.0 / math.log2(position + 1)) if position <= k else 0.0
                assert hr_from_rank(position, k) == hand_hr
                assert ndcg_from_rank(position, k) == pytest.approx(hand_ndcg, abs=0)
        rng = random.Random(4)
        for _ in range(10_000):
            position = rng.randint(1, 500)
            prev_hr = prev_ndcg = 0.0
            for k in (1, 3, 5, 10, 20):
                hr = hr_from_rank(position, k)
                ndcg = ndcg_from_rank(position, k)
                assert ndcg <= hr
                assert hr >= prev_hr and ndcg >= prev_ndcg
                prev_hr, prev_ndcg = hr, ndcg
        report_line(6, "metric oracles")


class TestCriterion7NullModelCalibration:
    def test_random_oracle_hr10_in_binomial_ci(self):
        n_items, n_samples = 100, 2500
        catalog = big_catalog(n_items, prefix="null")
        provider = HashEmbedder(dim=256, seed=8)
        matrix = embed_catalog(catalog, provider)
        rng = random.Random(12345)

        class JunkGen:
            # per-sample pseudo-random text, independent of the target
            def generate(self, sample):
                r = random.Random(f"junk:{sample.user_id}")
                toks = tuple(
                    f"{random.Random(r.random()).randbytes(0) or ''}nonsense{r.randrange(10 ** 9)}"
                    for _ in range(4)
                )
                return GeneratedText(toks, "junk")

        samples = [
            make_sample(
                ["x"], rng.choice(catalog.ids), user=f"s{k}", ts=k
            )
            for k in range(n_samples)
        ]
        pipe = Pipeline(JunkGen(), provider, matrix, catalog)
        report = evaluate(samples, pipe, threads=4)
        p = 0.1
        margin = 2.576 * math.sqrt(p * (1 - p) / n_samples)
        assert abs(report.hr[10] - p) < margin, (
            f"hr@10={report.hr[10]:.4f} outside 99% CI {p}+-{margin:.4f}"
        )
        report_line(7, "null-model calibration")


class TestCriterion8TemporalLeakage:
    def test_no_leakage_and_no_excluded_items_ranked(self):
        log, catalog = synthetic_dataset(n_users=50, n_items=40, events_per_user=10)
        split = temporal_split(log)
        max_train_ts = max(split.train.timestamps)
        samples = build_samples(split)["test"]
        assert samples
        provider = HashEmbedder(dim=128, seed=2)
        matrix = embed_catalog(catalog, provider)
        pipe = Pipeline(OracleEchoGenerator(catalog), provider, matrix, catalog)
        for s in samples:
            assert s.target_timestamp >= max_train_ts
            ranked = rank(pipe.normalized_distances(s), pipe.exclusions(s))
            ranked_ids = {catalog.ids[i] for i in ranked.indices}
            assert not (ranked_ids & s.known_items)
        report_line(8, "temporal-leakage freedom")


class TestCriterion9GammaGrid:
    def test_grid_exactness(self):
        grid = gamma_grid()
        assert len(grid) == 200
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[:3] == [0.0, 0.01, 0.02]
        assert grid[-1] == 100.0
        assert grid[100] == 1.0 and grid[101] == 2.0
        report_line(9, "gamma grid exactness")


class TestCriterion10PopularityInjectionEffect:
    def test_injected_beats_plain_with_larger_gap_at_20(self):
        n_items = 200
        catalog = big_catalog(n_items, prefix="skew")
        # zipf-ish training counts: popular head, long tail
        counts = {cid: max(1, int(500 / (k + 1))) for k, cid in enumerate(catalog.ids)}
        train = make_log(
            [("u", cid, t) for t, (cid, c) in enumerate(
                (cid, c) for cid, c in counts.items() for _ in range(c)
            )]
        )
        table = compute_popularity(train, catalog)
        rng = random.Random(6)
        ids = catalog.ids
        weights = [counts[c] for c in ids]
        samples = [
            make_sample(["x"], rng.choices(ids, weights=weights)[0],
                        user=f"s{k}", ts=k)
            for k in range(300)
        ]

        class JunkGen:
            def generate(self, sample):
                r = random.Random(f"noise:{sample.user_id}")
                return GeneratedText(
                    tuple(f"blob{r.randrange(10 ** 9)}" for _ in range(4)), "junk"
                )

        provider = HashEmbedder(dim=256, seed=21)
        matrix = embed_catalog(catalog, provider)
        plain = evaluate(
            samples, Pipeline(JunkGen(), provider, matrix, catalog)
        )
        injected = evaluate(
            samples,
            Pipeline(JunkGen(), provider, matrix, catalog, gamma=100.0, source=table),
        )
        assert injected.ndcg[20] > plain.ndcg[20]
        assert injected.hr[20] > plain.hr[20]
        gap_20 = injected.hr[20] - plain.hr[20]
        gap_1 = injected.hr[1] - plain.hr[1]
        assert gap_20 >= gap_1
        report_line(10, "popularity-injection effect (qualitative)")


class TestCriterion11BM25NoiseSensitivity:
    def test_l2_beats_bm25_on_noisy_lexical_overlap(self):
        # query shares only the low-signal token "the" with the wrong title,
        # but is embedding-close to the right title
        catalog = make_catalog({
            "right": "galactic conquest saga",
            "wrong": "the last stand",
            "pad1": "ocean mystery",
            "pad2": "silent dawn",
        })
        query = "epic space opera about the stars"

        class TableProvider:
            dim = 3

            def embed(self, text):
                if text == query:
                    return np.array([1.0, 0.0, 0.0])
                raise AssertionError("unexpected text")

        # file-backed-style matrix: right title adjacent to the query vector
        vectors = {
            "right": [0.9, 0.1, 0.0],
            "wrong": [-1.0, 0.5, 0.5],
            "pad1": [0.0, 1.0, 0.0],
            "pad2": [0.0, 0.0, 1.0],
        }
        matrix = np.array([vectors[i] for i in catalog.ids])
        bm25 = BM25Index(catalog)
        bm25_list = bm25_rank(query, bm25)
        bm25_top = catalog.ids[bm25_list.indices[0]]
        assert bm25_top == "wrong"  # lexical overlap misleads BM25
        l2_list = rank(normalize_distances(
            l2_distances(matrix, TableProvider().embed(query))
        ))
        pos = {catalog.ids[i]: p + 1 for p, i in enumerate(l2_list.indices)}
        assert pos["right"] < pos[bm25_top]
        report_line(11, "bm25 noise sensitivity vs l2")


class TestCriterion12CliDeterminism:
    def test_rerun_and_threads_byte_identical(self, tmp_path):
        rng = random.Random(3)
        ids = [f"i{k:03d}" for k in range(25)]
        cat = tmp_path / "catalog.tsv"
        cat.write_text("".join(f"{i}\tsaga {k} of {i}\n" for k, i in enumerate(ids)))
        lines = []
        t = 0
        for u in range(30):
            for item in rng.sample(ids, 8):
                lines.append(f"u{u:03d}\t{item}\t{t}")
                t += 1
        inter = tmp_path / "interactions.tsv"
        inter.write_text("\n".join(lines) + "\n")

        def run_all(tag, threads):
            d = tmp_path / tag
            d.mkdir()
            argvs = [
                ["split", "--interactions", inter, "--out", d / "sp"],
                ["popularity", "--train", d / "sp" / "train.tsv", "--catalog", cat,
                 "--out", d / "popularity.tsv", "--deciles", d / "deciles.tsv"],
                ["embed", "--catalog", cat, "--dim", 64, "--seed", 17,
                 "--out", d / "emb.bin"],
                ["generate", "--samples", d / "sp" / "samples_test.tsv",
                 "--catalog", cat, "--generator", "ngram", "--seed", 5,
                 "--out", d / "gen.tsv"],
                ["collab-fit", "--train", d / "sp" / "train.tsv", "--catalog", cat,
                 "--out", d / "scorer.bin"],
                ["ground", "--emb", d / "emb.bin", "--gen", d / "gen.tsv",
                 "--catalog", cat, "--samples", d / "sp" / "samples_test.tsv",
                 "--seed", 17, "--topk", 5, "--out", d / "ranks.tsv"],
                ["eval", "--test", d / "sp" / "samples_test.tsv", "--catalog", cat,
                 "--train", d / "sp" / "train.tsv", "--generator", "oracle",
                 "--inject", "pop", "--gamma", 0.5, "--seed", 3, "--dim", 64,
                 "--threads", threads, "--out", d / "report.tsv"],
                ["tune-gamma", "--valid", d / "sp" / "samples_valid.tsv",
                 "--catalog", cat, "--train", d / "sp" / "train.tsv",
                 "--generator", "oracle", "--inject", "pop", "--seed", 3,
                 "--dim", 64, "--threads", threads, "--out", d / "sweep.tsv"],
            ]
            for argv in argvs:
                assert cli.run([str(a) for a in argv]) == 0
            artifacts = [
                "sp/train.tsv", "sp/samples_test.tsv", "sp/split.meta",
                "popularity.tsv", "deciles.tsv", "emb.bin", "gen.tsv",
                "scorer.bin", "ranks.tsv", "report.tsv", "sweep.tsv",
            ]
            return {a: (d / a).read_bytes() for a in artifacts}

        first = run_all("one", 1)
        second = run_all("two", 8)
        for name in first:
            assert first[name] == second[name], f"artifact {name} differs"
        report_line(12, "cli determinism incl. thread counts")
