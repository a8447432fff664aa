import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import make_catalog
from groundrec.embed import (
    HashEmbedder,
    embed_catalog,
    hash_embed,
    load_embeddings,
    load_embeddings_tsv,
    save_embeddings_bin,
    save_embeddings_tsv,
)
from groundrec.errors import DataError
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

    def test_bad_magic_fatal(self, tmp_path, small_catalog):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"GRXX" + b"\x00" * 16)
        from groundrec.embed import load_embeddings_bin
        with pytest.raises(DataError, match="not a GREC"):
            load_embeddings_bin(path, small_catalog)
