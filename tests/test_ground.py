import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import held, make_catalog
from groundrec.errors import DataError
from groundrec.ground import (
    BM25Index,
    bm25_rank,
    inject,
    l2_distances,
    normalize_distances,
    rank,
)


def naive_full_sort(vectors, oracle, weights=None, gamma=0.0, exclusions=frozenset()):
    """Independent scalar re-implementation: distances, min-max, reweight, sort."""
    dists = [
        math.sqrt(sum((v - o) ** 2 for v, o in zip(row, oracle))) for row in vectors
    ]
    lo, hi = min(dists), max(dists)
    if hi == lo:
        norm = [0.0] * len(dists)
    else:
        norm = [(d - lo) / (hi - lo) for d in dists]
    if weights is not None and gamma > 0:
        adj = [n / (1.0 + w) ** gamma for n, w in zip(norm, weights)]
    else:
        adj = norm
    cand = [i for i in range(len(dists)) if i not in exclusions]
    cand.sort(key=lambda i: (adj[i], i))
    return cand


class TestL2Distances:
    def test_3_4_5(self):
        assert l2_distances(held([[0.0, 0.0]]), [3.0, 4.0])[0] == pytest.approx(5.0)

    def test_identity_zero(self):
        assert l2_distances(held([[1.5, -2.0]]), [1.5, -2.0])[0] == 0.0

    def test_equidistant_pair(self):
        d = l2_distances(held([[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0])
        assert np.allclose(d, [1.0, 1.0])

    def test_dim_mismatch_fatal(self):
        with pytest.raises(DataError):
            l2_distances(held([[1.0, 0.0]]), [1.0, 1.0, 1.0])

    @given(
        st.lists(
            st.lists(st.floats(-100, 100), min_size=3, max_size=3),
            min_size=1, max_size=10,
        ),
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
    )
    def test_coordinate_permutation_invariance(self, rows, oracle, perm):
        mat = np.array(rows)
        orc = np.array(oracle)
        a = l2_distances(held(mat), orc)
        b = l2_distances(held(mat[:, perm]), orc[perm])
        assert np.allclose(a, b, rtol=1e-12, atol=1e-9)


class TestNormalizeDistances:
    def test_hand_example(self):
        assert np.allclose(normalize_distances([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_all_equal_degenerate(self):
        assert np.all(normalize_distances([3.0, 3.0, 3.0]) == 0.0)

    def test_already_normalized(self):
        assert np.allclose(normalize_distances([0.0, 1.0]), [0.0, 1.0])

    def test_empty_fatal(self):
        with pytest.raises(DataError):
            normalize_distances([])


class TestInject:
    def test_gamma_zero_identity(self):
        norm = np.array([0.1, 0.9, 0.4])
        out = inject(norm, np.array([0.0, 1.0, 0.5]), 0.0)
        assert np.array_equal(out, norm)

    def test_hand_example_half(self):
        # 0.5 / (1+1)^1 = 0.25
        assert inject([0.5], [1.0], 1.0)[0] == pytest.approx(0.25)

    def test_zero_weight_inert(self):
        for gamma in (0.0, 1.0, 7.3, 50.0):
            assert inject([0.5], [0.0], gamma)[0] == pytest.approx(0.5)

    def test_weight_out_of_range_fatal(self):
        with pytest.raises(DataError, match="normalize"):
            inject([0.5], [1.5], 1.0)

    def test_high_gamma_no_underflow(self):
        # at the grid maximum the divisor is 2^100 ~ 1.3e30; results stay
        # positive, finite, and exactly equal to direct division
        norm = np.linspace(0.0, 1.0, 11)
        w = np.linspace(0.0, 1.0, 11)
        out = inject(norm, w, 100.0)
        assert np.array_equal(out, norm / (1.0 + w) ** 100.0)
        assert np.all(np.isfinite(out))
        assert out[-1] > 0.0

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=20),
        st.floats(0, 100),
        st.randoms(use_true_random=False),
    )
    def test_bound_never_exceeds_normalized(self, norm, gamma, rnd):
        norm = np.array(norm)
        w = np.array([rnd.random() for _ in norm])
        out = inject(norm, w, gamma)
        assert np.all(out <= norm + 1e-15)
        assert np.all(out >= 0)


class TestRank:
    def test_sort_order(self):
        r = rank(np.array([0.2, 0.1, 0.3]))
        assert list(r.indices) == [1, 0, 2]

    def test_tie_break_by_index(self):
        r = rank(np.array([0.1, 0.1]))
        assert list(r.indices) == [0, 1]

    def test_exclusion_of_best(self):
        r = rank(np.array([0.1, 0.2, 0.3]), exclusions={0})
        assert list(r.indices) == [1, 2]

    def test_all_excluded_fatal(self):
        with pytest.raises(DataError):
            rank(np.array([0.1]), exclusions={0})

    def test_full_permutation(self):
        vals = np.array([0.4, 0.1, 0.1, 0.9, 0.0])
        r = rank(vals)
        assert sorted(r.indices) == list(range(5))

    def test_monotone_transform_invariance_gamma_zero(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(2, 20)
            norm = np.array([rng.random() for _ in range(n)])
            w = np.array([rng.random() for _ in range(n)])
            assert np.array_equal(
                rank(inject(norm, w, 0.0)).indices, rank(norm).indices
            )


class TestBruteForceEquivalence:
    def test_matches_naive_on_random_instances(self):
        rng = random.Random(42)
        for trial in range(100):
            n = rng.randint(2, 50)
            dim = rng.randint(1, 8)
            vectors = [[rng.uniform(-5, 5) for _ in range(dim)] for _ in range(n)]
            oracle = [rng.uniform(-5, 5) for _ in range(dim)]
            weights = [rng.random() for _ in range(n)]
            gamma = rng.choice([0.0, 0.3, 1.0, 5.0, 30.0])
            k_excl = rng.randint(0, n - 1)
            exclusions = frozenset(rng.sample(range(n), k_excl))
            expected = naive_full_sort(vectors, oracle, weights, gamma, exclusions)
            mat = np.array(vectors)
            norm = normalize_distances(l2_distances(held(mat), np.array(oracle)))
            adj = inject(norm, np.array(weights), gamma) if gamma > 0 else norm
            got = list(rank(adj, exclusions).indices)
            assert got == expected, f"trial {trial}"


class TestGammaMonotonicity:
    def test_above_set_shrinks_with_gamma(self):
        rng = random.Random(7)
        gammas = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 100.0]
        for _ in range(30):
            n = rng.randint(3, 15)
            norm = np.array([rng.random() for _ in range(n)])
            w = np.array([rng.random() * 0.8 for _ in range(n)])
            star = rng.randrange(n)
            w[star] = 1.0  # unique max weight
            if norm[star] == 0:
                norm[star] = 0.5
            prev_above = None
            for gamma in gammas:
                adj = inject(norm, w, gamma)
                order = list(rank(adj).indices)
                above = set(order[: order.index(star)])
                if prev_above is not None:
                    assert above <= prev_above
                prev_above = above


class TestBM25:
    def make_index(self, titles, **kw):
        cat = make_catalog({f"i{k}": t for k, t in enumerate(titles)})
        return cat, BM25Index(cat, **kw)

    def test_exact_title_match_ranks_first(self):
        cat, idx = self.make_index(
            ["galactic conquest saga", "ocean deep mystery", "silent hill dawn"]
        )
        r = bm25_rank("galactic conquest saga", idx)
        assert cat.ids[r.indices[0]] == "i0"

    def test_disjoint_query_index_order_with_warning(self):
        cat, idx = self.make_index(["alpha one", "beta two"])
        with pytest.warns(UserWarning, match="empty BM25 query"):
            r = bm25_rank("", idx)
        assert list(r.indices) == [0, 1]

    def test_no_overlap_query_index_order(self):
        cat, idx = self.make_index(["alpha one", "beta two"])
        r = bm25_rank("zzz qqq", idx)
        assert list(r.indices) == [0, 1]

    def test_rare_term_beats_common_term_hand_check(self):
        # d0 = "common rare", d1 = "common filler" ; query = "rare"
        cat, idx = self.make_index(["common rare", "common filler"])
        query = ["rare"]
        # independent hand evaluation of Okapi BM25 with idf = ln(1+(N-df+.5)/(df+.5))
        k1, b = 1.5, 0.75
        n_docs, avgdl = 2, 2.0
        idf_rare = math.log(1 + (2 - 1 + 0.5) / (1 + 0.5))
        norm = k1 * (1 - b + b * 2 / avgdl)
        expected_d0 = idf_rare * 1 * (k1 + 1) / (1 + norm)
        scores = idx.scores(query)
        assert scores[0] == pytest.approx(expected_d0)
        assert scores[1] == 0.0
        r = bm25_rank(query, idx)
        assert list(r.indices) == [0, 1]

    def test_zero_score_items_after_positive_in_index_order(self):
        cat, idx = self.make_index(["zebra", "apple pie", "unrelated thing", "zebra two"])
        r = bm25_rank("zebra", idx)
        got = list(r.indices)
        # positive-score docs (0 and 3) first, then the rest by index
        assert set(got[:2]) == {0, 3}
        assert got[2:] == [1, 2]

    def test_exclusions(self):
        cat, idx = self.make_index(["match here", "match there"])
        r = bm25_rank("match", idx, exclusions={0})
        assert list(r.indices) == [1]
