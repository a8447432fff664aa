from types import SimpleNamespace

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
    masked_position,
    synthetic_dataset,
)
from groundrec import tune
from groundrec.collab import fit_cooccurrence
from groundrec.embed import HashEmbedder, embed_catalog
from groundrec.errors import DataError
from groundrec.generate import GeneratedText, OracleEchoGenerator
from groundrec.ground import exclude, inject, target_position
from groundrec.harness import Pipeline, adjusted, evaluate
from groundrec.ingest import build_samples, temporal_split
from groundrec.metrics import aggregate, metric_names
from groundrec.pop import compute_popularity
from groundrec.tune import gamma_grid, tune_gamma, write_sweep


class TestGammaGrid:
    def test_exact_size(self):
        assert len(gamma_grid()) == 200

    def test_first_three(self):
        assert gamma_grid()[:3] == [0.0, 0.01, 0.02]

    def test_last_value(self):
        assert gamma_grid()[-1] == 100.0

    def test_strictly_increasing(self):
        grid = gamma_grid()
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_one_appears_once(self):
        assert gamma_grid().count(1.0) == 1

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=40, max_size=40))
    def test_slice_of_the_divisors_equals_the_divisors_of_the_slice(self, w):
        """The precondition of a sweep that raises the weights of a group of
        samples to gamma once and slices each sample's divisors out of the
        result: for every length 1..40, every start 0..19 and every grid
        point, ((1 + w) ** gamma)[lo:hi] holds the bits of
        (1 + w[lo:hi]) ** gamma. numpy's array ** gives them wherever the
        slice starts and ends; a scalar ** (a Python float or np.float64)
        can differ from it in the last bit, so a grouped sweep must use the
        array **."""
        w = np.array(w)
        for n in range(1, 41):
            v = w[:n]
            for gamma in gamma_grid():
                whole = (1.0 + v) ** gamma
                for lo in range(min(20, n)):
                    for hi in {n, lo + (n - lo + 1) // 2}:
                        assert whole[lo:hi].tobytes() == ((1.0 + v[lo:hi]) ** gamma).tobytes()


def pop_pipeline(catalog, train, generator=None, provider=None):
    provider = provider or HashEmbedder(dim=128, seed=5)
    matrix = embed_catalog(catalog, provider)
    table = compute_popularity(train, catalog)
    generator = generator or OracleEchoGenerator(catalog)
    return Pipeline(generator, provider, matrix, source=table)


class TestTuneGamma:
    def test_inert_injection_best_gamma_zero(self):
        # uniform popularity -> all P = 0 -> every gamma ties -> smallest wins
        log, catalog = synthetic_dataset(n_users=10, n_items=10, events_per_user=6)
        split = temporal_split(log)
        # force uniform counts with a synthetic train log
        uniform = make_log([("u", i, t) for t, i in enumerate(sorted(catalog.ids))])
        samples = build_samples(split, catalog)["valid"]
        pipe = pop_pipeline(catalog, uniform)
        assert np.all(pipe.source.normalized == 0.0)
        best, table = tune_gamma(samples, pipe, grid=[0.0, 0.5, 1.0, 100.0])
        assert best == 0.0

    def test_sweep_table_has_200_rows(self):
        log, catalog = synthetic_dataset(n_users=8, n_items=8, events_per_user=5)
        split = temporal_split(log)
        samples = build_samples(split, catalog)["valid"]
        pipe = pop_pipeline(catalog, split.train)
        best, table = tune_gamma(samples, pipe)
        assert len(table) == 200

    def test_pop_target_with_misleading_oracle_prefers_max_gamma(self):
        # target is the most popular item but sits at the far end of the
        # distance scale, with a near-zero-distance decoy: only the very top
        # of the gamma grid discounts the target below the decoy
        catalog = make_catalog({"a": "ta", "c": "tc", "s": "ts"})
        triples = [("u", "s", t) for t in range(50)]
        triples += [("v", "a", 100), ("v", "c", 101)]
        train = make_log(triples)
        table_pop = compute_popularity(train, catalog)

        class FixedProvider:
            dim = 1

            def embed(self, text):
                return np.zeros(1)

        class JunkGen:
            def generate(self, sample):
                return GeneratedText(("zzz",), "junk")

        matrix = held([[0.0], [1e-29], [1.0]])  # a, c, s
        pipe = Pipeline(JunkGen(), FixedProvider(), matrix, source=table_pop)
        samples = [make_sample(catalog, ["a"], "s", known={"a"}) for _ in range(5)]
        best, table = tune_gamma(samples, pipe, metric="ndcg@20",
                                 grid=[0.0, 1.0, 10.0, 100.0])
        vals = [report.metric("ndcg@20") for _, report in table]
        assert vals == sorted(vals)  # monotone improvement along the grid
        assert vals[-1] > vals[-2]  # the top grid point is strictly best
        assert best == 100.0

    def test_empty_validation_fatal(self):
        log, catalog = synthetic_dataset()
        pipe = pop_pipeline(catalog, log)
        with pytest.raises(DataError):
            tune_gamma([], pipe)

    def test_only_repeats_fatal(self):
        # every sample's target is in its history: prepare skips each one
        catalog = make_catalog({"a": "ta", "b": "tb"})
        pipe = pop_pipeline(catalog, make_log([("u", "a", 0), ("u", "b", 1)]))
        samples = [make_sample(catalog, ["a", "b"], "a", known={"a", "b"})] * 3
        with pytest.raises(DataError, match="no drawn validation sample in valid.tsv"):
            tune_gamma(samples, pipe, grid=[0.0, 1.0], source="valid.tsv")

    def test_cached_sweep_matches_fresh_run(self):
        log, catalog = synthetic_dataset(n_users=12, n_items=12, events_per_user=6)
        split = temporal_split(log)
        samples = build_samples(split, catalog)["valid"]
        pipe = pop_pipeline(catalog, split.train)
        _, table = tune_gamma(samples, pipe, grid=[0.0, 0.5, 7.0])
        for gamma, report in table:
            fresh_pipe = pop_pipeline(catalog, split.train)
            fresh_pipe.gamma = gamma
            fresh = aggregate(evaluate(samples, fresh_pipe))
            for k in (1, 3, 5, 10, 20):
                assert report.metric(f"ndcg@{k}") == fresh.ndcg[k]
                assert report.metric(f"hr@{k}") == fresh.hr[k]

    def test_determinism(self):
        log, catalog = synthetic_dataset(n_users=10, n_items=10, events_per_user=6)
        split = temporal_split(log)
        samples = build_samples(split, catalog)["valid"]
        a = tune_gamma(samples, pop_pipeline(catalog, split.train), grid=[0.0, 1.0, 2.0])
        b = tune_gamma(samples, pop_pipeline(catalog, split.train), grid=[0.0, 1.0, 2.0])
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_thread_invariance(self):
        """Eight callers sharing one fresh pipeline, each on a thread of its
        own, each get the sweep of one call on a pipeline of their own."""
        log, catalog = synthetic_dataset(n_users=10, n_items=10, events_per_user=6)
        split = temporal_split(log)
        samples = build_samples(split, catalog)["valid"]
        a = tune_gamma(samples, pop_pipeline(catalog, split.train), grid=[0.0, 1.0, 2.0])
        pipe = pop_pipeline(catalog, split.train)
        for b in concurrent_calls(lambda: tune_gamma(samples, pipe, grid=[0.0, 1.0, 2.0]), 8):
            assert a[0] == b[0]
            assert a[1] == b[1]


def reference_sweep(samples, pipeline, grid):
    """The sweep before the weights were checked once per sample: ground.inject
    (and its checks) once per (gamma, sample), and the position counted over
    a keep mask (masked_position)."""
    table = []
    for gamma in grid:
        positions = []
        for s in samples:
            if s.target in s.known:
                positions.append(None)
                continue
            adjusted = inject(pipeline.normalized_distances(s), pipeline.weights(s), gamma)
            positions.append(masked_position(adjusted, pipeline.exclusions(s), s.target))
        report = aggregate(positions)
        table.append({**{f"hr@{k}": v for k, v in report.hr.items()},
                      **{f"ndcg@{k}": v for k, v in report.ndcg.items()}})
    return table


def assert_sweep_matches_reference(injection, threads, dense=False):
    """tune_gamma's table, for each of `threads` callers sharing the pipeline,
    equals reference_sweep's over the full grid; the catalog matrix is
    plan-held, or with dense held off the plan's grid."""
    log, catalog = synthetic_dataset(n_users=14, n_items=15, events_per_user=7)
    split = temporal_split(log)
    samples = build_samples(split, catalog)["valid"]
    provider = HashEmbedder(dim=16, seed=5)
    matrix = embed_catalog(catalog, provider)
    if dense:  # +0.1 puts every entry off the grid: every distance takes the dense path
        matrix = held(matrix.vectors + np.float32(0.1))
    assert (matrix.rows is None) is dense

    class OneTextGen:  # the weights, not the text, decide most ranks
        def generate(self, sample):
            return GeneratedText(("story", "chronicle"), "fixed")

    fit = compute_popularity if injection == "popularity" else fit_cooccurrence
    pipe = Pipeline(OneTextGen(), provider, matrix, source=fit(split.train, catalog))
    tables = concurrent_calls(lambda: tune_gamma(samples, pipe)[1], threads)
    want = reference_sweep(samples, pipe, gamma_grid())
    for table in tables:
        assert [{name: report.metric(name) for name in metric_names()}
                for _, report in table] == want


class TestSweepMatchesPerPointInjection:
    @pytest.mark.parametrize("injection", ["popularity", "collaborative"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_bit_identical_table(self, injection, threads):
        assert_sweep_matches_reference(injection, threads)

    @pytest.mark.parametrize("dense", [False, True], ids=["plan-held", "dense-held"])
    @pytest.mark.parametrize("threads", [1, 8])
    def test_collab_on_both_matrix_forms(self, dense, threads):
        """Collaborative weights, divided at their nonzeros alone, on either
        form of the catalog matrix."""
        assert_sweep_matches_reference("collaborative", threads, dense)

    @pytest.mark.parametrize("injection", ["popularity", "collaborative"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_chunked_sweep_equals_reference(self, monkeypatch, injection, threads):
        """Prepared and swept two samples at a time, the table is unchanged."""
        monkeypatch.setattr(tune, "CHUNK_SAMPLES", 2)
        assert_sweep_matches_reference(injection, threads)

    def test_weights_out_of_range_fatal(self):
        log, catalog = synthetic_dataset(n_users=6, n_items=8, events_per_user=5)
        split = temporal_split(log)
        pipe = pop_pipeline(catalog, split.train)
        pipe.source.normalized = pipe.source.normalized + 1.5
        with pytest.raises(DataError, match=r"must lie in \[0,1\]"):
            tune_gamma(build_samples(split, catalog)["valid"], pipe, grid=[0.0, 1.0])


class TestDivideAtNonzeros:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_inject_over_dense_weights(self, data):
        """A query whose weights are not a PopularityTable's is held at their
        nonzeros alone (Pipeline.query), and harness.adjusted's divide there
        gives the bits of ground.inject over the dense weights, +inf at the
        exclusions, and so every target's position: weights with many zeros,
        exact 1.0s and ties, at gamma 0, 0.01, 1 and 100."""
        n = data.draw(st.integers(1, 40))
        level = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)
        values = np.array(data.draw(st.lists(level, min_size=n, max_size=n)))
        weights = np.array(data.draw(st.lists(
            st.just(0.0) | st.just(1.0) | st.sampled_from([0.5, 0.125]) | st.floats(0, 1),
            min_size=n, max_size=n)))
        excluded = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
        source = SimpleNamespace(sample_weights=lambda sample: weights)
        query = Pipeline(None, None, None, source=source).query(
            values.copy(), SimpleNamespace(known=excluded))
        assert np.count_nonzero(weights) == query[1][0].size
        for gamma in (0.0, 0.01, 1.0, 100.0):
            got = next(adjusted([query], gamma))
            want = exclude(inject(values, weights, gamma), excluded)
            assert got.tobytes() == want.tobytes()
            for t in sorted(set(range(n)) - set(excluded)):
                assert target_position(got, t) == target_position(want, t)


    def test_popularity_array_held_as_it_is(self):
        """Every query of a PopularityTable holds its one array, so the
        queries of a chunk share its divisor."""
        log, catalog = synthetic_dataset(n_users=6, n_items=8, events_per_user=5)
        pipe = pop_pipeline(catalog, temporal_split(log).train)
        for known in ([], [1, 3]):
            _, weights = pipe.query(np.linspace(0.0, 1.0, 8), SimpleNamespace(known=known))
            assert weights is pipe.source.normalized


class TestWriteSweep:
    def test_tsv_shape(self, tmp_path):
        log, catalog = synthetic_dataset(n_users=8, n_items=8, events_per_user=5)
        split = temporal_split(log)
        samples = build_samples(split, catalog)["valid"]
        pipe = pop_pipeline(catalog, split.train)
        _, table = tune_gamma(samples, pipe, grid=[0.0, 0.5])
        path = tmp_path / "sweep.tsv"
        write_sweep(path, table)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("gamma\thr@1")
