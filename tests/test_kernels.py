"""The ranking kernels against the formulas they replace: every output must be
bit-identical, not merely close."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import held, make_catalog, masked_position
from groundrec.embed import (
    EmbeddingMatrix,
    HashEmbedder,
    embed_catalog,
    load_embeddings,
    save_embeddings_tsv,
)
from groundrec.errors import DataError
from groundrec.ground import (
    L2_BLOCK,
    BM25Index,
    bm25_rank,
    exclude,
    grid_exponent,
    l2_distances,
    rank,
    target_position,
)
from groundrec.text import tokenize


def one_shot_l2(vectors, oracle):
    """The full-copy formula: widen the whole matrix, then one diff."""
    diff = vectors.astype(np.float64) - np.asarray(oracle, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def per_document_bm25(catalog, query_tokens, k1=1.5, b=0.75):
    """The per-document scoring loop over term-frequency dicts."""
    docs = [tokenize(catalog.title(i)) for i in catalog.ids]
    doc_lens = np.array([len(d) for d in docs], dtype=np.float64)
    avgdl = float(doc_lens.mean())
    df, term_freqs = {}, []
    for doc in docs:
        tf = {}
        for t in doc:
            tf[t] = tf.get(t, 0) + 1
        term_freqs.append(tf)
        for t in tf:
            df[t] = df.get(t, 0) + 1
    idf = {t: math.log(1.0 + (len(docs) - n + 0.5) / (n + 0.5)) for t, n in df.items()}
    scores = np.zeros(len(docs), dtype=np.float64)
    terms = [t for t in query_tokens if t in idf]
    for i, tf in enumerate(term_freqs):
        norm = k1 * (1.0 - b + b * doc_lens[i] / avgdl)
        s = 0.0
        for t in terms:
            f = tf.get(t)
            if f:
                s += idf[t] * f * (k1 + 1.0) / (f + norm)
        scores[i] = s
    return scores


def mixed_magnitude(rng, n, dim):
    """float32 values spread over many orders of magnitude, with exact ties."""
    scale = 10.0 ** rng.integers(-6, 7, size=(n, dim))
    vectors = (rng.standard_normal((n, dim)) * scale).astype(np.float32)
    vectors[n // 2:: 3] = vectors[0]  # duplicate rows: equal distances
    return vectors


def assert_prefix(got, full, k):
    """got is the first k entries of full, values with the same sign bits
    (zero BM25 scores are printed as -0)."""
    assert np.array_equal(got.indices, full.indices[:k])
    assert np.array_equal(got.values, full.values[:k])
    assert np.array_equal(np.signbit(got.values), np.signbit(full.values[:k]))


class TestBlockedL2:
    @pytest.mark.parametrize("n", [1, L2_BLOCK - 1, L2_BLOCK, L2_BLOCK + 1,
                                   2 * L2_BLOCK + 3])
    @pytest.mark.parametrize("dim", [1, 7, 300])
    def test_equals_one_shot_formula(self, n, dim):
        rng = np.random.default_rng(n * 1000 + dim)
        vectors = mixed_magnitude(rng, n, dim)
        oracle = rng.standard_normal(dim) * 10.0 ** rng.integers(-6, 7, size=dim)
        got = l2_distances(held(vectors), oracle)
        assert got.dtype == np.float64
        assert np.array_equal(got, one_shot_l2(vectors, oracle))

    def test_float64_and_matrix_object(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((L2_BLOCK + 9, 4))
        m = held(vectors.astype(np.float32))
        oracle = rng.standard_normal(4)
        assert np.array_equal(l2_distances(held(vectors), oracle),
                              one_shot_l2(vectors, oracle))
        assert np.array_equal(l2_distances(m, oracle), one_shot_l2(m.vectors, oracle))

    def test_empty_matrix(self):
        assert l2_distances(held(np.zeros((0, 3), dtype=np.float32)),
                            [1.0, 2.0, 3.0]).size == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_random_shapes(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = mixed_magnitude(rng, n, dim)
        oracle = vectors[rng.integers(n)].astype(np.float64) + rng.standard_normal(dim)
        assert np.array_equal(l2_distances(held(vectors), oracle),
                              one_shot_l2(vectors, oracle))


class OffsetEmbedder:
    """A provider whose vectors are another's plus a constant."""

    def __init__(self, provider, offset):
        self.provider, self.offset = provider, np.float32(offset)

    def embed(self, text):
        return self.provider.embed(text) + self.offset


def sparse_path(vectors, oracle):
    """The sparse path's distances, or None where it refuses the inputs."""
    return EmbeddingMatrix.of(vectors).distances(np.asarray(oracle, dtype=np.float64))


def assert_both_forms_exact(vectors, oracle):
    """l2_distances of the array's EmbeddingMatrix equals the one-shot
    formula bit for bit; returns whether the sparse path ran."""
    expected = one_shot_l2(vectors, oracle)
    assert np.array_equal(l2_distances(held(vectors), oracle), expected)
    fast = sparse_path(vectors, oracle)
    if fast is not None:
        assert np.array_equal(fast, expected)
    return fast is not None


# k/2^m (on the grid) and k/3, k/5, k/7 (off it); mostly zero, like hashed titles
grid_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda k, m: k / 2.0 ** m, st.integers(-2**12, 2**12), st.integers(0, 30)),
    st.builds(lambda k, d: k / d, st.integers(-40, 40), st.sampled_from([3, 5, 7])),
)
dyadic_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda k, m: k / 2.0 ** m, st.integers(-64, 64), st.integers(0, 6)))


def entry_matrix(entries):
    return st.integers(1, 12).flatmap(lambda dim: st.tuples(
        st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=1, max_size=30),
        st.lists(entries, min_size=dim, max_size=dim)))


class TestSparseL2:
    @settings(max_examples=150, deadline=None)
    @given(entry_matrix(grid_entries))
    def test_equals_one_shot_formula(self, rows_and_query):
        rows, query = rows_and_query
        vectors = np.array(rows, dtype=np.float32)
        assert_both_forms_exact(vectors, np.array(query, dtype=np.float32))
        assert_both_forms_exact(vectors.astype(np.float64), np.array(query))

    @settings(max_examples=60, deadline=None)
    @given(entry_matrix(dyadic_entries))
    def test_fast_path_taken_on_dyadic_inputs(self, rows_and_query):
        rows, query = rows_and_query
        assert assert_both_forms_exact(np.array(rows, dtype=np.float32),
                                       np.array(query, dtype=np.float32))

    @pytest.mark.parametrize("dim", [8, 64])
    def test_hash_embedded_titles_of_1_to_16_tokens(self, dim):
        rng = np.random.default_rng(dim)
        words = [f"w{k}" for k in range(40)]

        def text(n_tokens):
            return " ".join(rng.choice(words, size=n_tokens))

        provider = HashEmbedder(dim=dim, seed=3)
        mixed = make_catalog({f"i{k}": text(1 + k % 16) for k in range(300)})
        dyadic = make_catalog({f"i{k}": text([1, 2, 4, 8, 16][k % 5]) for k in range(300)})
        for catalog in (mixed, dyadic):
            matrix = embed_catalog(catalog, provider)
            for n_tokens in range(1, 17):
                query = provider.embed(text(n_tokens))
                fast = assert_both_forms_exact(matrix.vectors, query)
                if catalog is dyadic and n_tokens in (1, 2, 4, 8, 16):
                    assert fast  # hash embeddings stay on the 2^-4 grid
        assert matrix.grid <= 4

    @pytest.mark.parametrize("vectors, oracle", [
        ([[1.0, -2.0], [0.0, 0.0], [0.5, 0.25]], [0.0, 0.0]),  # zero query, zero row
        ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]),  # nothing nonzero
        ([[-0.0, 1.0], [0.0, -0.0]], [-0.0, 1.0]),  # signed zeros
        ([[5e-324, 0.0], [1.0, 2.0]], [0.0, 1.0]),  # a subnormal entry
        ([[1.0, 2.0]], [2.2250738585072014e-308, 0.0]),  # smallest normal in the query
        ([[np.nan, 0.0], [1.0, 2.0]], [0.5, 0.5]),
        ([[np.inf, 0.0], [1.0, 2.0]], [0.5, 0.5]),
        ([[1.0, 0.0], [1.0, 2.0]], [-np.inf, 0.5]),
        ([[1.0, 0.0], [1.0, 2.0]], [np.nan, 0.5]),
        ([[1e200, 0.0]], [1e200, 0.0]),  # squares overflow: dense path
    ])
    def test_edge_inputs(self, vectors, oracle):
        vectors = np.array(vectors)
        if not np.isfinite(vectors).all():  # refused where the matrix is made
            with pytest.raises(DataError, match="non-finite"):
                held(vectors)
            return
        expected = one_shot_l2(vectors, oracle)
        got = l2_distances(held(vectors), oracle)
        assert np.array_equal(got, expected, equal_nan=True)
        assert not np.signbit(got[~np.isnan(got)]).any()

    def test_edge_paths(self):
        assert sparse_path(np.array([[-0.0, 1.0]]), [-0.0, 1.0]) is not None
        assert sparse_path(np.zeros((2, 3)), np.zeros(3)) is not None
        for vectors, oracle in [([[5e-324]], [0.0]), ([[1.0]], [np.inf]), ([[1e200]], [0.0])]:
            assert sparse_path(np.array(vectors), oracle) is None
        with pytest.raises(DataError, match="non-finite"):  # refused where the matrix is made
            sparse_path(np.array([[np.nan]]), [0.0])

    def test_refused_at_the_bound(self):
        # integers (e = 0): the bound is max_row sum(v^2) + sum(q^2) < 2^51
        vectors = np.array([[2.0 ** 25, 0.0], [3.0, 1.0]])
        assert sparse_path(vectors, [0.0, 2.0 ** 25]) is None  # 2^50 + 2^50
        assert sparse_path(vectors, [0.0, 2.0 ** 25 - 1]) is not None
        # the same shape at e = 3: the values scaled by 2^-3, the bound by 2^-6
        assert sparse_path(vectors / 8, [0.0, 2.0 ** 22]) is None
        assert sparse_path(vectors / 8, [0.0, 2.0 ** 22 - 0.125]) is not None
        for scale in (1, 8):
            for q in (2.0 ** 25, 2.0 ** 25 - 1, 2.0 ** 26 + 1):
                oracle = np.array([3.0, q]) / scale
                assert np.array_equal(l2_distances(held(vectors / scale), oracle),
                                      one_shot_l2(vectors / scale, oracle))

    def test_refused_where_the_grid_step_squared_underflows(self):
        # 2^-538 squared is below the smallest subnormal; 2^-537 squared is not
        assert sparse_path(np.array([[2.0 ** -538]]), [0.0]) is None
        assert sparse_path(np.array([[2.0 ** -537]]), [0.0]) is not None

    @pytest.mark.parametrize("values, e", [
        ([0.0], 0), ([1.0, -3.0, 2.0 ** 60], 0), ([0.75], 2), ([0.5, 0.125], 3),
        ([-2.0 ** -30], 30), ([5e-324], 1074), ([2.2250738585072014e-308], 1022),
        ([np.float32(1 / 3)], 25), ([1 / 3], 54),
    ])
    def test_grid_exponent(self, values, e):
        assert grid_exponent(np.array(values, dtype=np.float64)) == e

    @staticmethod
    def raced(fn):
        """fn() called 64 times from 8 threads that switch as often as they can."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                return list(pool.map(lambda _: fn(), range(64)))
        finally:
            sys.setswitchinterval(switch)

    def test_plan_made_with_the_matrix(self, tmp_path):
        # plan-held on the grid, dense-held off it; each made, read from TSV
        # and built from an array
        catalog = make_catalog({f"i{k}": f"w{k} w{k % 3}" for k in range(50)})
        provider = HashEmbedder(dim=16, seed=1)
        off_grid = OffsetEmbedder(provider, 0.1)  # entries on the 2^-27 grid, sum(v^2) >= 1/8
        query = provider.embed("w1 w2")
        for embedder, held in ((provider, True), (off_grid, False)):
            rows = np.array([embedder.embed(catalog.title(i)) for i in catalog.ids])
            expected = one_shot_l2(rows, query)
            made = embed_catalog(catalog, embedder)
            save_embeddings_tsv(tmp_path / "emb.tsv", made, catalog)
            for matrix in (made, load_embeddings(tmp_path / "emb.tsv", catalog),
                           EmbeddingMatrix.of(rows)):
                plan = matrix.rows  # there before the first distance query
                assert (plan is not None) is held
                assert (matrix._vectors is None) is held
                assert all(np.array_equal(d, expected)
                           for d in self.raced(lambda m=matrix: l2_distances(m, query)))
                assert matrix.rows is plan

    def test_plan_held_vectors_made_once(self):
        catalog = make_catalog({f"i{k}": f"w{k} w{k % 3}" for k in range(50)})
        matrix = embed_catalog(catalog, HashEmbedder(dim=16, seed=1))
        assert matrix._vectors is None  # held as its plan alone
        plan = matrix.rows
        arrays = self.raced(lambda: matrix.vectors)
        assert all(a is arrays[0] for a in arrays)
        assert matrix.vectors is arrays[0] and matrix.rows is plan


# values from a small set, so tie groups are large
tied_values = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 1.0]),
                       min_size=1, max_size=60)


class TestTargetPosition:
    @settings(max_examples=200, deadline=None)
    @given(tied_values, st.data())
    def test_equals_rank_position(self, values, data):
        adjusted = np.array(values)
        n = adjusted.size
        target = data.draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != target]
        excluded = frozenset(data.draw(st.lists(st.sampled_from(others), unique=True))
                             if others else [])
        got = target_position(exclude(adjusted.copy(), excluded), target)
        assert got == rank(adjusted, excluded).position(target)
        assert got == masked_position(adjusted, excluded, target)

    def test_all_tied_is_index_order(self):
        values = exclude(np.zeros(10), {1, 3})
        assert [target_position(values, t) for t in (0, 2, 4, 9)] == [1, 2, 3, 8]

    def test_excluded_target_fatal(self):
        with pytest.raises(DataError, match="not in the ranked list"):
            target_position(exclude(np.zeros(3), {1}), 1)


class TestExclude:
    def test_marks_excluded(self):
        values = np.array([0.5, 0.25, 0.0, 1.0])
        assert exclude(values, {0, 2}) is values
        assert list(values) == [np.inf, 0.25, np.inf, 1.0]

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_fatal(self, bad):
        values = np.zeros(4)
        with pytest.raises(DataError, match=f"exclusion index {bad} out of range"):
            exclude(values, {1, bad})
        assert not values.any()  # nothing written


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(tied_values, st.data())
    def test_rank_prefix_of_full_rank(self, values, data):
        adjusted = np.array(values)
        n = adjusted.size
        excluded = frozenset(data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                                max_size=n - 1)))
        k = data.draw(st.integers(0, n + 2))
        full = rank(adjusted, excluded)
        got = rank(adjusted, excluded, k=k)
        assert_prefix(got, full, k)

    def test_tie_group_crossing_k_cut_by_index(self):
        adjusted = np.array([0.5, 0.1, 0.5, 0.9, 0.5, 0.5])
        got = rank(adjusted, {2}, k=3)
        assert list(got.indices) == [1, 0, 4]

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 100])
    def test_edge_k(self, k):
        adjusted = np.array([0.3, 0.3, 0.1, 0.2])
        full = rank(adjusted, {3})
        got = rank(adjusted, {3}, k=k)
        assert list(got.indices) == list(full.indices[:k])

    def test_all_excluded_fatal_even_for_k_zero(self):
        with pytest.raises(DataError, match="all items excluded"):
            rank(np.array([0.1]), {0}, k=0)


TITLES = [
    "red fox jumps", "red red fox", "blue whale song", "fox and hound",
    "quiet night", "red sky at night", "whale of a tale", "hound dog blues",
    "the red fox returns", "night fox", "a b c", "blue blue blue", "...",
]
VOCAB = sorted({t for title in TITLES for t in tokenize(title)}) + ["unknown", "zzz"]
BM25_PARAMS = [(1.5, 0.75), (1.2, 0.0), (2.0, 1.0)]
# a small alphabet, so titles repeat tokens; some titles have no token
BM25_WORDS = ["red", "fox", "blue", "night", "a", "1"]
bm25_titles = st.one_of(st.lists(st.sampled_from(BM25_WORDS), min_size=1, max_size=6)
                        .map(" ".join),
                        st.sampled_from(["...", "-- !", "Red RED red", "fox-fox 1"]))
item_ids = st.text("i01x", min_size=1, max_size=3)


class TestBM25PostingLists:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(VOCAB), max_size=8),
           st.sampled_from(BM25_PARAMS))
    def test_scores_equal_per_document_loop(self, query, params):
        catalog = make_catalog({f"i{k}": t for k, t in enumerate(TITLES)})
        k1, b = params
        index = BM25Index(catalog, k1=k1, b=b)
        assert np.array_equal(index.scores(query),
                              per_document_bm25(catalog, query, k1=k1, b=b))

    def test_repeated_and_unknown_terms(self):
        catalog = make_catalog({f"i{k}": t for k, t in enumerate(TITLES)})
        index = BM25Index(catalog)
        query = ["red", "zzz", "fox", "red", "unknown", "red"]
        got = index.scores(query)
        assert np.array_equal(got, per_document_bm25(catalog, query))
        assert got[1] > index.scores(["red", "fox"])[1]  # repeats count again

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(item_ids, bm25_titles, min_size=1, max_size=10),
           st.lists(st.sampled_from([*BM25_WORDS, "zzz"]), max_size=6))
    def test_scores_on_drawn_catalogs(self, entries, query):
        # ids drawn in any order, so canonical (sorted) order is not the
        # order the catalog was given in
        catalog = make_catalog(entries)
        for k1, b in BM25_PARAMS:
            # with no token in any title the loop's norm is 0/0, and unread
            with np.errstate(invalid="ignore"):
                expected = per_document_bm25(catalog, query, k1=k1, b=b)
            assert np.array_equal(BM25Index(catalog, k1=k1, b=b).scores(query), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(VOCAB), max_size=5),
           st.lists(st.integers(0, len(TITLES) - 1), unique=True,
                    max_size=len(TITLES) - 1),
           st.integers(0, len(TITLES) + 2))
    def test_bm25_rank_prefix_of_full_rank(self, query, excluded, k):
        catalog = make_catalog({f"i{k}": t for k, t in enumerate(TITLES)})
        index = BM25Index(catalog)
        full = bm25_rank(query or ["zzz"], index, frozenset(excluded))
        got = bm25_rank(query or ["zzz"], index, frozenset(excluded), k=k)
        assert_prefix(got, full, k)


class TestNoSharedArrayWritten:
    @settings(max_examples=100, deadline=None)
    @given(tied_values, st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5),
           st.data())
    def test_rank_and_bm25_rank_exclude_on_a_copy(self, values, query, data):
        """Two calls on one array, and on one BM25 index, with different
        exclusions give what calls on fresh copies give, and leave the
        caller's array and the index's scores as they were."""
        adjusted = np.array(values)
        before = adjusted.copy()
        catalog = make_catalog({f"i{k}": t for k, t in enumerate(TITLES)})
        index = BM25Index(catalog)
        scores = index.scores(query)

        def exclusions(n):
            return [frozenset(data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                                 max_size=n - 1))) for _ in range(2)]

        for excluded in exclusions(adjusted.size):
            got, want = rank(adjusted, excluded), rank(before.copy(), excluded)
            assert np.array_equal(got.indices, want.indices)
            assert got.values.tobytes() == want.values.tobytes()
            assert adjusted.tobytes() == before.tobytes()
        for excluded in exclusions(len(TITLES)):
            got = bm25_rank(query, index, excluded)
            want = bm25_rank(query, BM25Index(catalog), excluded)
            assert np.array_equal(got.indices, want.indices)
            assert got.values.tobytes() == want.values.tobytes()
            assert index.scores(query).tobytes() == scores.tobytes()
