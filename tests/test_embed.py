import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from groundrec import embed
from groundrec.embed import (
    EmbeddingMatrix,
    HashEmbedder,
    embed_catalog,
    hash_embed,
    load_embeddings,
    load_embeddings_tsv,
    save_embeddings_bin,
    save_embeddings_tsv,
)
from groundrec.errors import DataError
from groundrec.ground import L2_BLOCK, l2_distances
from groundrec.text import tokenize


def cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b) / (na * nb)


class TestHashEmbed:
    def test_empty_text_zero_vector(self):
        assert np.all(hash_embed("", 16, seed=0) == 0)

    def test_deterministic(self):
        a = hash_embed("Fargo (1996)", 128, seed=5)
        b = hash_embed("Fargo (1996)", 128, seed=5)
        assert np.array_equal(a, b)

    def test_seed_changes_vector(self):
        a = hash_embed("Fargo (1996)", 128, seed=5)
        b = hash_embed("Fargo (1996)", 128, seed=6)
        assert not np.array_equal(a, b)

    def test_similar_titles_closer_than_disjoint(self):
        dim, seed = 256, 17
        q = hash_embed("Iron Man 2", dim, seed)
        near = hash_embed("Iron Man 2 (2010)", dim, seed)
        far = hash_embed("Fargo", dim, seed)
        assert cosine(q, near) > cosine(q, far)

    def test_entries_bounded_by_one(self):
        v = hash_embed("the the the and and of", 8, seed=1)
        assert np.abs(v).max() <= 1.0

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            hash_embed("x", 0, seed=1)


class TestEmbedCatalog:
    def test_rows_match_hash_embed(self, small_catalog):
        provider = HashEmbedder(dim=32, seed=3)
        mat = embed_catalog(small_catalog, provider)
        assert mat.vectors.shape == (3, 32)
        for i, item_id in enumerate(small_catalog.ids):
            expected = hash_embed(small_catalog.title(item_id), 32, 3)
            assert np.array_equal(mat.vectors[i], expected)

    def test_identical_titles_identical_rows(self):
        cat = make_catalog({"a": "same title", "b": "same title"})
        mat = embed_catalog(cat, HashEmbedder(dim=16, seed=0))
        assert np.array_equal(mat.vectors[0], mat.vectors[1])

    def test_bitwise_determinism(self, small_catalog):
        p = HashEmbedder(dim=64, seed=9)
        a = embed_catalog(small_catalog, p)
        b = embed_catalog(small_catalog, p)
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_normalize_flag(self, small_catalog):
        mat = embed_catalog(small_catalog, HashEmbedder(dim=64, seed=9), normalize=True)
        norms = np.linalg.norm(mat.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)


class TestFinitenessByBlock:
    N = 2 * L2_BLOCK + 7  # two full blocks and a partial one

    @pytest.mark.parametrize("row", [L2_BLOCK - 1, N - 1],
                             ids=["last-row-of-full-block", "in-partial-block"])
    def test_non_finite_in_any_block_raises(self, row):
        vectors = np.zeros((self.N, 3), dtype=np.float32)
        vectors[row, 2] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingMatrix.of(vectors)


class TestNormalizeInPlace:
    def test_bytes_equal_dividing_a_copy(self):
        titles = {f"m{k:04d}": f"long road volume {k % 31}" for k in range(L2_BLOCK + 40)}
        titles["m0003"] = titles["m0700"] = "?!"  # no tokens: a zero row
        cat = make_catalog(titles)
        provider = HashEmbedder(dim=16, seed=5)
        rows = np.vstack([hash_embed(cat.title(i), 16, 5) for i in cat.ids])
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        expected = np.divide(rows, norms, out=rows.copy(), where=norms > 0)
        got = embed_catalog(cat, provider, normalize=True).vectors
        assert got.tobytes() == expected.tobytes()
        assert not got[cat.index_of["m0700"]].any()


class TestMemoizedHashEmbedder:
    TEXTS = ["silent river volume 1", "silent river volume 2", "lost echo volume 1",
             "", "Silent  RIVER!", "volume volume volume 3"] * 3

    def test_vectors_bit_identical_to_unmemoized(self):
        provider = HashEmbedder(dim=32, seed=4)
        for text in self.TEXTS:
            assert provider.embed(text).tobytes() == hash_embed(text, 32, 4).tobytes()

    def test_each_distinct_token_hashed_once(self, monkeypatch):
        from groundrec import embed

        hashed = []
        original = embed._token_slot
        monkeypatch.setattr(embed, "_token_slot",
                            lambda tok, dim, seed: hashed.append(tok) or original(tok, dim, seed))
        provider = HashEmbedder(dim=32, seed=4)
        for text in self.TEXTS:
            provider.embed(text)
        assert sorted(hashed) == sorted({t for text in self.TEXTS for t in tokenize(text)})

    @pytest.mark.parametrize("dim, seed", [(1, 0), (7, 3), (256, 41), (1000, -5)])
    def test_token_slot_is_hashlib_blake2b(self, dim, seed):
        import hashlib

        for tok in ["silent", "river", "1", "", "ünïcode", "x" * 300]:
            digest = hashlib.blake2b(f"{seed}\x00{tok}".encode(), digest_size=8).digest()
            h = int.from_bytes(digest, "little")
            assert embed._token_slot(tok, dim, seed) == ((h >> 1) % dim,
                                                          1.0 if h & 1 else -1.0)

    def test_threads_sharing_one_embedder(self):
        provider = HashEmbedder(dim=16, seed=2)
        texts = [f"title {k % 7} volume {k % 13}" for k in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-fill
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(provider.embed, texts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for text, vec in zip(texts, got):
            assert vec.tobytes() == hash_embed(text, 16, 2).tobytes()

    def test_catalog_file_bytes_unchanged(self, tmp_path):
        cat = make_catalog({f"m{k:03d}": f"gentle storm volume {k % 40}" for k in range(120)})
        path = tmp_path / "items.emb"
        save_embeddings_bin(path, embed_catalog(cat, HashEmbedder(dim=24, seed=7)))
        rows = np.vstack([hash_embed(cat.title(i), 24, 7) for i in cat.ids])
        assert path.read_bytes()[8:] == rows.astype("<f4").tobytes()


class TestLoadEmbeddings:
    def test_tsv_roundtrip(self, tmp_path, small_catalog):
        mat = embed_catalog(small_catalog, HashEmbedder(dim=4, seed=0))
        path = tmp_path / "emb.tsv"
        save_embeddings_tsv(path, mat, small_catalog)
        loaded = load_embeddings(path, small_catalog)
        assert np.allclose(loaded.vectors, mat.vectors)

    def test_bin_roundtrip_bitwise(self, tmp_path, small_catalog):
        mat = embed_catalog(small_catalog, HashEmbedder(dim=8, seed=2))
        path = tmp_path / "emb.bin"
        save_embeddings_bin(path, mat)
        loaded = load_embeddings(path, small_catalog)
        assert loaded.vectors.tobytes() == mat.vectors.tobytes()

    def test_simple_tsv(self, tmp_path, small_catalog):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1\t0\t0\t0\nb\t0\t1\t0\t0\nc\t0\t0\t1\t0\n")
        mat = load_embeddings_tsv(path, small_catalog)
        assert mat.dim == 4 and mat.vectors.shape == (3, 4)

    def test_nan_fatal(self, tmp_path, small_catalog):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1\t0\nb\tnan\t1\nc\t0\t1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_embeddings_tsv(path, small_catalog)

    def test_duplicate_row_fatal(self, tmp_path, small_catalog):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1\t0\na\t0\t1\nb\t0\t1\nc\t1\t1\n")
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings_tsv(path, small_catalog)

    def test_missing_item_fatal(self, tmp_path, small_catalog):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1\t0\nb\t0\t1\n")
        with pytest.raises(DataError, match="missing"):
            load_embeddings_tsv(path, small_catalog)

    def test_dim_mismatch_fatal(self, tmp_path, small_catalog):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1\t0\nb\t0\t1\t3\nc\t0\t1\n")
        with pytest.raises(DataError, match="dim mismatch"):
            load_embeddings_tsv(path, small_catalog)

    def test_shuffled_tsv_bit_identical_to_grec(self, tmp_path):
        cat = make_catalog({f"m{k:03d}": f"open field volume {k % 9}" for k in range(60)})
        mat = embed_catalog(cat, HashEmbedder(dim=12, seed=4), normalize=True)
        save_embeddings_bin(tmp_path / "emb.bin", mat)
        save_embeddings_tsv(tmp_path / "emb.tsv", mat, cat)
        lines = (tmp_path / "emb.tsv").read_text().splitlines(keepends=True)
        random.Random(8).shuffle(lines)
        (tmp_path / "shuffled.tsv").write_text("".join(lines))
        loaded = load_embeddings(tmp_path / "shuffled.tsv", cat)
        assert loaded.vectors.dtype == np.float32
        assert (loaded.vectors.tobytes()
                == load_embeddings(tmp_path / "emb.bin", cat).vectors.tobytes())

    def test_bad_magic_fatal(self, tmp_path, small_catalog):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"GRXX" + b"\x00" * 16)
        from groundrec.embed import load_embeddings_bin
        with pytest.raises(DataError, match="not a GREC"):
            load_embeddings_bin(path, small_catalog)


# row counts around the block edges of the readers and the plan
BLOCK_EDGE_ROWS = st.sampled_from([1, L2_BLOCK - 1, L2_BLOCK, L2_BLOCK + 1, 2 * L2_BLOCK + 3])


def grec_file(path, rows):
    """rows (float32) as a GREC file; returns its body bytes."""
    body = rows.astype("<f4").tobytes()
    path.write_bytes(b"GREC" + rows.shape[1].to_bytes(4, "little") + body)
    return body


def sparse_rows(n, dim, seed):
    """n x dim float32 rows, about one entry in five nonzero, each a
    multiple of 1/16 in [-1, 1]: on the sparse plan's grid."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(-16, 17, size=(n, dim)) / 16.0
    rows[rng.random((n, dim)) > 0.2] = 0.0
    return rows.astype(np.float32)


def one_shot_l2(rows, query):
    """The distances of the full-copy formula."""
    diff = rows.astype(np.float64) - query.astype(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def numbered_catalog(n):
    return make_catalog({f"m{k:04d}": f"t{k}" for k in range(n)})


class TestPlanHeldMatrix:
    """A matrix the sparse plan can hold is held as the plan alone, and gives
    back exactly the bytes it was read from or made of."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plan_held")

    @settings(max_examples=25, deadline=None)
    @given(BLOCK_EDGE_ROWS, st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_vectors_and_saved_file_equal_the_grec_body(self, scratch, n, dim, seed):
        rows = sparse_rows(n, dim, seed)
        body = grec_file(scratch / "in.emb", rows)
        matrix = load_embeddings(scratch / "in.emb", numbered_catalog(n))
        assert matrix._vectors is None  # held as its plan
        save_embeddings_bin(scratch / "out.emb", matrix)
        assert (scratch / "out.emb").read_bytes() == (scratch / "in.emb").read_bytes()
        assert matrix.vectors.tobytes() == body

    @settings(max_examples=25, deadline=None)
    @given(BLOCK_EDGE_ROWS, st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_negative_zero_keeps_its_bytes(self, scratch, n, dim, seed, data):
        rows = sparse_rows(n, dim, seed)
        rows[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, dim - 1))] = -0.0
        body = grec_file(scratch / "in.emb", rows)
        matrix = load_embeddings(scratch / "in.emb", numbered_catalog(n))
        assert matrix._vectors is None  # a negative zero is one more kept entry
        query = sparse_rows(1, dim, seed + 1)[0]
        assert l2_distances(matrix, query).tobytes() == one_shot_l2(rows, query).tobytes()
        save_embeddings_bin(scratch / "out.emb", matrix)
        assert (scratch / "out.emb").read_bytes() == (scratch / "in.emb").read_bytes()
        assert matrix.vectors.tobytes() == body

    @settings(max_examples=20, deadline=None)
    @given(BLOCK_EDGE_ROWS, st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_tsv_held_as_its_plan_on_the_grid(self, scratch, n, dim, seed, on_grid):
        rows = sparse_rows(n, dim, seed)
        if not on_grid:  # 0.1 needs the 2^-27 grid, too fine for a sum of squares of 9.6
            rows[0, :2] = 3.1, 0.1
        catalog = numbered_catalog(n)
        (scratch / "in.tsv").write_text("".join(
            item_id + "".join(f"\t{float(v)!r}" for v in row) + "\n"
            for item_id, row in zip(catalog.ids, rows)))
        matrix = load_embeddings(scratch / "in.tsv", catalog)
        assert (matrix._vectors is None) is on_grid
        assert (matrix.rows is None) is not on_grid
        query = sparse_rows(1, dim, seed + 1)[0]
        assert l2_distances(matrix, query).tobytes() == one_shot_l2(rows, query).tobytes()
        assert matrix.vectors.tobytes() == rows.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(BLOCK_EDGE_ROWS)
    def test_off_grid_query_takes_the_dense_path_exactly(self, n):
        # titles of 5 distinct tokens: entries k/5, on the 2^-26 grid, and
        # sums of squares near 1/5, small enough for the plan to hold them
        catalog = make_catalog({f"m{k:04d}": " ".join(f"w{(k + j) % 50}" for j in range(5))
                                for k in range(n)})
        provider = HashEmbedder(dim=64, seed=2)
        matrix = embed_catalog(catalog, provider)
        query = provider.embed("w1 w2 w3")  # entries k/3: too fine a grid for those sums
        assert matrix._vectors is None
        assert matrix.distances(query.astype(np.float64)) is None
        got = l2_distances(matrix, query)
        diff = matrix.vectors.astype(np.float64) - query.astype(np.float64)
        assert np.array_equal(got, np.sqrt(np.sum(diff * diff, axis=1)))

    @settings(max_examples=20, deadline=None)
    @given(BLOCK_EDGE_ROWS, st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_value_in_any_block_refused(self, scratch, n, bad, data):
        rows = sparse_rows(n, 3, n)
        rows[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))] = bad
        path = scratch / "bad.emb"
        grec_file(path, rows)
        with pytest.raises(DataError, match=f"non-finite embedding value in {path}"):
            load_embeddings(path, numbered_catalog(n))

    @settings(max_examples=20, deadline=None)
    @given(BLOCK_EDGE_ROWS, st.booleans(), st.data())
    def test_file_shrunk_mid_read_refused(self, scratch, n, on_grid, data):
        rows = sparse_rows(n, 3, n)
        if not on_grid:  # refused by the plan at the first block: read a second time
            rows += np.float32(0.1)
            rows[0, 0] = 3.1
        path = scratch / "shrinks.emb"
        grec_file(path, rows)
        whole = SimpleNamespace(st_size=path.stat().st_size)
        os.truncate(path, 8 + data.draw(st.integers(0, 12 * n - 1)))
        # the size check sees the whole file; the reads find only its first bytes
        with mock.patch.object(embed.os, "fstat", lambda fd: whole), \
                pytest.raises(DataError, match=f"embedding file {path} changed while it was read"):
            load_embeddings(path, numbered_catalog(n))


class TestRowIdWidths:
    """A plan's row ids take the smallest unsigned type that holds n - 1;
    on each side of a width's edge, either form of the matrix gives back
    what its dense array gives."""

    @pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
    def test_matrix_equals_its_dense_array(self, tmp_path, n):
        on_grid = sparse_rows(n, 2, n)
        off_grid = on_grid + np.float32(0.1)  # the 2^-27 grid: too fine for the plan
        grid_query = sparse_rows(1, 2, n + 1)[0]
        off_query = np.array([1 / 3, 0.5], dtype=np.float32)
        catalog = numbered_catalog(n)
        for rows in (on_grid, off_grid):
            body = grec_file(tmp_path / "in.emb", rows)
            read = load_embeddings(tmp_path / "in.emb", catalog)
            for matrix in (EmbeddingMatrix.of(rows), read):
                held_as_plan = rows is on_grid
                assert (matrix.rows is not None) is held_as_plan
                if held_as_plan:
                    assert matrix.rows.dtype == np.min_scalar_type(n - 1)
                    assert matrix.distances(grid_query.astype(np.float64)) is not None
                blocks = np.concatenate([block.copy() for block in matrix.row_blocks()])
                assert blocks.tobytes() == body
                save_embeddings_bin(tmp_path / "out.emb", matrix)
                assert (tmp_path / "out.emb").read_bytes() == (tmp_path / "in.emb").read_bytes()
                for query in (grid_query, off_query):  # sparse path where it may run, dense
                    assert (l2_distances(matrix, query).tobytes()
                            == one_shot_l2(rows, query).tobytes())
                assert matrix.vectors.tobytes() == body

    def test_off_grid_array_held_as_it_is(self):
        a = sparse_rows(L2_BLOCK + 3, 4, 5) + np.float32(0.1)
        matrix = EmbeddingMatrix.of(a)
        assert matrix.rows is None
        assert matrix._vectors is a and matrix.vectors is a
