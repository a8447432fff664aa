"""Memory bounds of the steps that hold a large input: the catalog parsed,
its matrix built and written, or read, or made dense from its plan, an
interaction log parsed or put in timestamp order, samples read or drawn from
a samples file, or walked into the samples files, popularity counted, the
co-occurrence scorer fitted and written, the term column, BM25 index and
n-gram model of the catalog's titles and the n-gram walk's memo; and the
order in which a command that fits --train reads its inputs, so the parsed
log is freed before the samples arrive.

Memory is measured with tracemalloc (what Python and numpy allocate, not the
process RSS), so each ratio repeats on any machine. Each bound sits between
the ratio of a reader that holds its input once and that of one holding it
two or more times over; for a matrix the sparse plan can hold, between the
plan (about 0.17 of the dense bytes here) and the dense array (1).
"""

import random
import tracemalloc
from array import array

import numpy as np
import pytest

from conftest import make_sample
from groundrec import cli, ingest, tune
from groundrec.collab import fit_cooccurrence, save_scorer
from groundrec.embed import (
    HashEmbedder,
    embed_catalog,
    load_embeddings,
    load_embeddings_tsv,
    save_embeddings_bin,
)
from groundrec.generate import NGramGenerator, OracleEchoGenerator, train_ngram
from groundrec.ground import L2_BLOCK, BM25Index
from groundrec.harness import Pipeline
from groundrec.ingest import (
    InteractionLog,
    ItemCatalog,
    parse_catalog,
    parse_interactions,
    read_samples,
    temporal_split,
    write_sample_files,
)
from groundrec.pop import compute_popularity
from groundrec.text import TermColumn


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


def test_off_grid_tsv_held_as_the_array_it_was_read_into(tmp_path):
    """A TSV the plan refuses is held as the one float32 array it was read
    into, with no copy beside it."""
    n, dim = 40_000, 16
    rng = np.random.default_rng(11)
    values = rng.integers(-99, 100, size=(n, dim)) / 100  # k/100: off the plan's grid
    catalog = ItemCatalog({f"m{k:05d}": f"t{k}" for k in range(n)})
    path = tmp_path / "emb.tsv"
    path.write_text("".join(item + "".join(f"\t{v:.2f}" for v in row) + "\n"
                            for item, row in zip(catalog.ids, values.tolist())))
    matrix, _, peak = traced(lambda: load_embeddings_tsv(path, catalog))
    assert matrix.rows is None
    assert np.array_equal(matrix.vectors, values.astype(np.float32))
    # 1.25 here; a copy of the array would add 1
    assert peak < 1.5 * matrix.vectors.nbytes


@pytest.fixture(scope="module")
def titled_catalog():
    """20k items titled "<adjective> <noun> volume <k>", as in the catalog20k
    benchmark; and the bytes of its titles."""
    adjectives = ["silent", "crimson", "lost", "electric", "midnight", "golden",
                  "broken", "distant", "hidden", "savage", "gentle", "frozen"]
    nouns = ["river", "empire", "garden", "signal", "harbor", "echo", "storm",
             "mirror", "canyon", "lantern", "orbit", "meadow"]
    catalog = ItemCatalog({f"m{k:05d}": f"{adjectives[k % 12]} {nouns[(k // 12) % 12]} "
                                        f"volume {k}" for k in range(20_000)})
    return catalog, sum(len(t.encode()) for t in catalog.titles())


def test_catalog_holds_no_object_per_title(titled_catalog, tmp_path):
    """The parsed catalog holds its titles as one string in canonical order
    and an array of end offsets: no string per title, no id -> title dict."""
    catalog, _ = titled_catalog
    path = tmp_path / "catalog.tsv"
    path.write_text("".join(f"{item}\t{title}\n"
                            for item, title in zip(catalog.ids, catalog.titles())))
    parsed, held, _ = traced(lambda: parse_catalog(path))
    assert len(parsed) == 20_000
    # bytes an item: 141 here, 207 with a dict of a string per title
    assert held < 150 * len(parsed)


def test_plan_held_matrix_made_dense_without_a_sort_order(titled_catalog):
    """The first .vectors of a plan-held matrix fills the array from each
    block's runs of the plan's columns: no per-entry sort order or block
    buffer beside it."""
    catalog, _ = titled_catalog
    provider = HashEmbedder(dim=256, seed=3)
    matrix = embed_catalog(catalog, provider)
    assert matrix._vectors is None
    vectors, _, peak = traced(lambda: matrix.vectors)
    # the array is 19.53 MiB: 19.73 here, 20.86 with a stable argsort of the
    # plan's entries by block
    assert peak < 20.1 * 2**20
    rows = np.array([provider.embed(t) for t in catalog.titles()], dtype=np.float32)
    assert np.array_equal(vectors.view(np.uint32), rows.view(np.uint32))


def test_term_column_holds_its_terms_as_text(titled_catalog):
    """Each distinct term once, in one string with an array of end offsets:
    no dict of the terms, no list of them, no table of ids."""
    catalog, size = titled_catalog
    _, held, _ = traced(lambda: TermColumn(catalog.titles()))
    # 1.14 here, 1.42 with a hash table of ids, 5.28 with a dict and a list of
    # the terms
    assert held < 1.3 * size


def test_bm25_index_holds_posting_arrays(titled_catalog):
    """Built from the titles' term column: no token list per title, and no
    dict of postings or idf per term."""
    catalog, size = titled_catalog
    _, held, peak = traced(lambda: BM25Index(catalog))
    # 3.5 here, 4.4 with int64 doc indices, 7.9 with a dict of the terms, 12.5
    # with per-term dicts
    assert held < 4 * size
    # 8.7 here, 10.3 with int64 doc indices and a hash table of term ids, 14.1
    # with a dict of the terms, 30.7 with a token list per title
    assert peak < 9.5 * size


def test_ngram_model_holds_the_term_column(titled_catalog):
    """The titles' term column and its positions grouped by term: no dict of
    successors per context."""
    catalog, size = titled_catalog
    _, held, peak = traced(lambda: train_ngram(catalog.titles()))
    # 2.2 here, 2.4 with a hash table of term ids, 6.3 with a dict of the
    # terms, 13.2 with a dict per context
    assert held < 4.5 * size
    # 5.4 here, 5.8 with a hash table of term ids, 9.0 with a dict of the
    # terms, 13.6 with a dict per context
    assert peak < 7.5 * size


def test_ngram_memo_holds_term_ids(titled_catalog):
    """The first walk fills the memo of the context ("volume",), whose 20k
    successors tie: held as an array of their term ids, not as text, and
    sorted by id, which is text order, with no key string per successor."""
    catalog, _ = titled_catalog
    generator = NGramGenerator(catalog, train_ngram(catalog.titles()), seed=3)
    sample = make_sample(catalog, ["m00005"], "m00000")
    text, held, peak = traced(lambda: generator.generate(sample))
    assert text.tokens[2] == "volume"
    # bytes an item: 4.4 here, 9.0 with a list of the term dict's strings,
    # 62 with a list of strings sliced from the terms' text
    assert held < 6 * len(catalog)
    # 1.78 MB here, 2.79 with the ids sorted by a key string sliced per id
    assert peak < 2.0e6


def test_drawn_samples_hold_the_draw_not_the_file(inputs):
    catalog, _, samples = inputs
    size = samples.stat().st_size
    drawn, _, peak = traced(lambda: read_samples(samples, catalog, 20, 7))
    assert len(drawn) == 20
    assert peak < 0.4 * size


def test_samples_hold_their_items_as_catalog_indices(inputs):
    """A full read holds each sample's items as canonical indices and its
    known set as one int32 array, not a set of id strings per sample."""
    catalog, _, samples = inputs
    size = samples.stat().st_size
    read, held, _ = traced(lambda: read_samples(samples, catalog))
    assert len(read) == len(samples.read_text().splitlines())
    assert held < 3 * size  # 1.1 here, 9.5 with a frozenset of ids per sample


def test_interaction_log_shares_its_ids(inputs):
    _, interactions, _ = inputs
    size = interactions.stat().st_size
    log, held, peak = traced(lambda: parse_interactions(interactions))
    assert len(log) == 400 * 50
    assert held < 6 * size
    assert peak < 12 * size


def test_interaction_log_parsed_a_block_at_a_time(inputs):
    """The parse holds the columns (one int64 timestamp each) and one block
    of lines, not the file's line list and a Python int per timestamp."""
    _, interactions, _ = inputs
    size = interactions.stat().st_size
    log, held, peak = traced(lambda: parse_interactions(interactions))
    assert len(log) == 400 * 50
    assert held < 3.2 * size
    assert peak < 5 * size


def test_interaction_log_sorted_without_an_int_per_row():
    """Columns out of timestamp order are put in (timestamp, file position)
    order through the numpy order, not a Python int per row."""
    rng = random.Random(4)
    rows = [(rng.randrange(50), f"m{rng.randrange(900):04d}", rng.randrange(10**6, 10**7))
            for _ in range(20_000)]
    users = [f"u{k}" for k in range(50)]
    codes = array("q", [r[0] for r in rows])
    items = [r[1] for r in rows]
    stamps = array("q", [r[2] for r in rows])
    log, _, peak = traced(lambda: InteractionLog.from_columns(users, codes, items, stamps))
    ordered = sorted(range(len(rows)), key=lambda k: rows[k][2])  # stable: ties keep file order
    assert log.user_codes.tolist() == [rows[k][0] for k in ordered]
    assert log.item_ids == [rows[k][1] for k in ordered]
    assert log.timestamps == array("q", [rows[k][2] for k in ordered])
    assert peak < 50 * len(rows)  # 33 bytes a row here, 73 with an int per row


def test_sample_files_walked_without_an_int_per_row(tmp_path):
    """The timelines the walks read are slices of one array of log
    positions, not a Python int per row."""
    log = parse_interactions(zipf_log(tmp_path / "timelines.tsv", 40, 400, 600, seed=6))
    split = temporal_split(log)
    _, _, peak = traced(lambda: write_sample_files(split, tmp_path))
    assert peak < 32 * len(log)  # 18 bytes a row here, 49 with an int per row


def test_cooccurrence_fitted_in_place(inputs):
    """The fit holds about three int64 columns of the log at its peak, the
    scorer's arrays among them: no np.unique copies beside the keys."""
    catalog, interactions, _ = inputs
    log = parse_interactions(interactions)
    column = 8 * len(log)
    _, _, peak = traced(lambda: fit_cooccurrence(log, catalog))
    assert peak < 5 * column  # 3.1 here, 7.3 with np.unique over masked copies


def test_popularity_counted_in_place(inputs):
    """The counts come from the index column itself: no mask or copy of the
    in-catalog indices beside it."""
    catalog, interactions, _ = inputs
    log = parse_interactions(interactions)
    _, _, peak = traced(lambda: compute_popularity(log, catalog))
    assert peak < 2.5 * 8 * len(log)  # 2.0 int64 columns here, 3.0 with the copy


def test_scorer_written_from_one_triple_array(inputs, tmp_path):
    catalog, interactions, _ = inputs
    scorer = fit_cooccurrence(parse_interactions(interactions), catalog)
    _, _, peak = traced(lambda: save_scorer(tmp_path / "co.bin", scorer))
    # 1.03 of the file here, 4.0 with an int64 stack, a u32 copy and its bytes
    assert peak < 2 * (tmp_path / "co.bin").stat().st_size


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A split, a catalog file and its matrix, for the commands that fit
    --train."""
    d = tmp_path_factory.mktemp("order")
    catalog = d / "catalog.tsv"
    catalog.write_text("".join(f"m{k:05d}\tquiet harbor volume {k}\n"
                               for k in range(60)))
    interactions = zipf_log(d / "interactions.tsv", 20, 30, 60, seed=8)
    for argv in (["split", "--interactions", interactions, "--out", d / "splits"],
                 ["embed", "--catalog", catalog, "--dim", 16, "--seed", 3,
                  "--out", d / "items.emb"]):
        assert cli.run([str(a) for a in argv]) == 0
    return d


@pytest.mark.parametrize("argv", [
    ["eval", "--test", "splits/samples_test.tsv", "--emb", "items.emb",
     "--generator", "ngram", "--inject", "pop", "--sample-n", 20],
    ["eval", "--test", "splits/samples_test.tsv", "--generator", "most-pop"],
    ["tune-gamma", "--valid", "splits/samples_valid.tsv", "--emb", "items.emb",
     "--inject", "collab", "--sample-n", 10],
    ["generate", "--samples", "splits/samples_test.tsv", "--generator", "pop"],
], ids=["eval", "eval-most-pop", "tune-gamma", "generate-pop"])
def test_train_fitted_before_samples_are_read(cli_inputs, tmp_path, monkeypatch, argv):
    calls = []

    def recorded(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    for name in ("parse_interactions", "read_samples"):
        monkeypatch.setattr(ingest, name, recorded(getattr(ingest, name)))
    monkeypatch.chdir(cli_inputs)
    assert cli.run([str(a) for a in [
        *argv, "--catalog", "catalog.tsv", "--train", "splits/train.tsv",
        "--seed", 3, "--out", tmp_path / "out.tsv"]]) == 0
    assert calls == ["parse_interactions", "read_samples"]


def test_collab_tune_chunk_holds_nonzero_weights(inputs):
    """A collab tune chunk holds each prepared sample's n_items values and
    its weights at their nonzero items (Pipeline.query: an index and a
    divisor base, 16 bytes each), not a second n_items array per sample."""
    catalog, interactions, samples = inputs
    scorer = fit_cooccurrence(parse_interactions(interactions), catalog)
    provider = HashEmbedder(dim=16, seed=3)
    pipeline = Pipeline(OracleEchoGenerator(catalog), provider,
                        embed_catalog(catalog, provider), source=scorer)
    drawn = read_samples(samples, catalog, 250, 7)
    assert len(drawn) <= tune.CHUNK_SAMPLES
    kept = [s for s in drawn if not s.knows(s.target)]
    nonzero = sum(int(np.count_nonzero(pipeline.weights(s))) for s in kept)
    row = len(catalog) * 8  # bytes of one n_items float64 array
    _, _, peak = traced(lambda: tune.tune_gamma(drawn, pipeline, grid=[0.0, 1.0]))
    # beyond the values and nonzero weights: 4.5 rows here, 58 with the
    # dense weights of the 80 kept samples
    assert peak < len(kept) * row + 16 * nonzero + 16 * row
