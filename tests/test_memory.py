"""Memory bounds of the steps that hold a large input: the catalog matrix
built and written, or read, an interaction log parsed, and samples drawn
from a samples file.

Memory is measured with tracemalloc (what Python and numpy allocate, not the
process RSS), so each ratio repeats on any machine. Each bound sits between
the ratio of a reader that holds its input once and that of one holding it
two or more times over; for a matrix the sparse plan can hold, between the
plan (about 0.17 of the dense bytes here) and the dense array (1).
"""

import random
import tracemalloc

import pytest

from groundrec.embed import HashEmbedder, embed_catalog, load_embeddings, save_embeddings_bin
from groundrec.ground import L2_BLOCK
from groundrec.ingest import (
    ItemCatalog,
    parse_interactions,
    read_samples,
    temporal_split,
    write_sample_files,
)


def traced(fn):
    """(result, bytes still allocated, peak bytes) over the call fn()."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def zipf_log(path, n_users, events, n_items, seed):
    """An interaction file in timestamp order whose items follow a 1/(k+1)
    law, as the benchmark's workloads draw them."""
    rng = random.Random(seed)
    items = [f"m{k:05d}" for k in range(n_items)]
    weights = [1.0 / (k + 1) for k in range(n_items)]
    lines = []
    for u in range(n_users):
        for item in rng.choices(items, weights, k=events):
            lines.append(f"u{u:04d}\t{item}\t{len(lines)}\n")
    path.write_text("".join(lines))
    return path


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("memory")
    catalog = ItemCatalog({f"m{k:05d}": f"quiet harbor volume {k % 97}"
                           for k in range(3000)})
    interactions = zipf_log(d / "interactions.tsv", 400, 50, 3000, seed=5)
    samples_dir = d / "splits"
    samples_dir.mkdir()
    log = parse_interactions(zipf_log(d / "timelines.tsv", 40, 400, 600, seed=6))
    write_sample_files(temporal_split(log), samples_dir)
    return catalog, interactions, samples_dir / "samples_test.tsv"


def test_catalog_matrix_built_and_written_once(inputs, tmp_path):
    catalog, _, _ = inputs
    provider = HashEmbedder(dim=256, seed=3)

    def build_and_write():
        matrix = embed_catalog(catalog, provider)
        save_embeddings_bin(tmp_path / "items.emb", matrix)
        return matrix

    matrix, _, peak = traced(build_and_write)
    assert peak < 1.6 * matrix.vectors.nbytes


@pytest.fixture(scope="module")
def wide_catalog():
    """20 blocks of items with four-token titles, hash-embedded at dim 256:
    about 4 nonzeros a row, as in the catalog20k benchmark."""
    catalog = ItemCatalog({f"m{k:05d}": f"quiet harbor volume {k % 97}"
                           for k in range(20 * L2_BLOCK + 7)})
    return catalog, len(catalog) * 256 * 4  # and the bytes of its dense matrix


def test_catalog_matrix_embedded_and_written_as_its_plan(wide_catalog, tmp_path):
    catalog, dense_bytes = wide_catalog
    provider = HashEmbedder(dim=256, seed=3)
    _, _, peak = traced(lambda: save_embeddings_bin(tmp_path / "items.emb",
                                                    embed_catalog(catalog, provider)))
    assert peak < 0.25 * dense_bytes


def test_catalog_matrix_read_as_its_plan(wide_catalog, tmp_path):
    catalog, dense_bytes = wide_catalog
    save_embeddings_bin(tmp_path / "items.emb",
                        embed_catalog(catalog, HashEmbedder(dim=256, seed=3)))
    _, _, peak = traced(lambda: load_embeddings(tmp_path / "items.emb", catalog))
    assert peak < 0.25 * dense_bytes


def test_drawn_samples_hold_the_draw_not_the_file(inputs):
    _, _, samples = inputs
    size = samples.stat().st_size
    drawn, _, peak = traced(lambda: read_samples(samples, 20, 7))
    assert len(drawn) == 20
    assert peak < 0.4 * size


def test_interaction_log_shares_its_ids(inputs):
    _, interactions, _ = inputs
    size = interactions.stat().st_size
    log, held, peak = traced(lambda: parse_interactions(interactions))
    assert len(log) == 400 * 50
    assert held < 6 * size
    assert peak < 12 * size
