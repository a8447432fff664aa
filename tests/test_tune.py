import numpy as np
import pytest

from conftest import make_catalog, make_log, make_sample, synthetic_dataset
from groundrec.collab import fit_cooccurrence
from groundrec.embed import HashEmbedder, embed_catalog
from groundrec.errors import DataError
from groundrec.generate import GeneratedText, OracleEchoGenerator
from groundrec.ground import exclusion_mask, target_position
from groundrec.harness import Pipeline, aggregate, evaluate
from groundrec.ingest import build_samples, temporal_split
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


def pop_pipeline(catalog, train, generator=None, provider=None):
    provider = provider or HashEmbedder(dim=128, seed=5)
    matrix = embed_catalog(catalog, provider)
    table = compute_popularity(train, catalog)
    generator = generator or OracleEchoGenerator(catalog)
    return Pipeline(generator, provider, matrix, catalog, source=table)


class TestTuneGamma:
    def test_inert_injection_best_gamma_zero(self):
        # uniform popularity -> all P = 0 -> every gamma ties -> smallest wins
        log, catalog = synthetic_dataset(n_users=10, n_items=10, events_per_user=6)
        split = temporal_split(log)
        # force uniform counts with a synthetic train log
        uniform = make_log([("u", i, t) for t, i in enumerate(sorted(catalog.ids))])
        samples = build_samples(split)["valid"]
        pipe = pop_pipeline(catalog, uniform)
        assert np.all(pipe.source.normalized == 0.0)
        best, table = tune_gamma(samples, pipe, grid=[0.0, 0.5, 1.0, 100.0])
        assert best == 0.0

    def test_sweep_table_has_200_rows(self):
        log, catalog = synthetic_dataset(n_users=8, n_items=8, events_per_user=5)
        split = temporal_split(log)
        samples = build_samples(split)["valid"]
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

        class FixedMatrix:
            dim = 1
            vectors = np.array([[0.0], [1e-29], [1.0]])  # a, c, s

        class JunkGen:
            def generate(self, sample):
                return GeneratedText(("zzz",), "junk")

        pipe = Pipeline(JunkGen(), FixedProvider(), FixedMatrix(), catalog,
                        source=table_pop)
        samples = [make_sample(["a"], "s", known={"a"}) for _ in range(5)]
        best, table = tune_gamma(samples, pipe, metric="ndcg@20",
                                 grid=[0.0, 1.0, 10.0, 100.0])
        vals = [row.metrics["ndcg@20"] for row in table]
        assert vals == sorted(vals)  # monotone improvement along the grid
        assert vals[-1] > vals[-2]  # the top grid point is strictly best
        assert best == 100.0

    def test_empty_validation_fatal(self):
        log, catalog = synthetic_dataset()
        pipe = pop_pipeline(catalog, log)
        with pytest.raises(DataError):
            tune_gamma([], pipe)

    def test_cached_sweep_matches_fresh_run(self):
        log, catalog = synthetic_dataset(n_users=12, n_items=12, events_per_user=6)
        split = temporal_split(log)
        samples = build_samples(split)["valid"]
        pipe = pop_pipeline(catalog, split.train)
        _, table = tune_gamma(samples, pipe, grid=[0.0, 0.5, 7.0])
        for row in table:
            fresh_pipe = pop_pipeline(catalog, split.train)
            fresh_pipe.gamma = row.gamma
            fresh = evaluate(samples, fresh_pipe)
            for k in (1, 3, 5, 10, 20):
                assert row.metrics[f"ndcg@{k}"] == pytest.approx(fresh.ndcg[k])
                assert row.metrics[f"hr@{k}"] == pytest.approx(fresh.hr[k])

    def test_determinism(self):
        log, catalog = synthetic_dataset(n_users=10, n_items=10, events_per_user=6)
        split = temporal_split(log)
        samples = build_samples(split)["valid"]
        a = tune_gamma(samples, pop_pipeline(catalog, split.train), grid=[0.0, 1.0, 2.0])
        b = tune_gamma(samples, pop_pipeline(catalog, split.train), grid=[0.0, 1.0, 2.0])
        assert a[0] == b[0]
        assert [r.metrics for r in a[1]] == [r.metrics for r in b[1]]

    def test_thread_invariance(self):
        log, catalog = synthetic_dataset(n_users=10, n_items=10, events_per_user=6)
        split = temporal_split(log)
        samples = build_samples(split)["valid"]
        pipe = pop_pipeline(catalog, split.train)
        a = tune_gamma(samples, pipe, grid=[0.0, 1.0, 2.0], threads=1)
        b = tune_gamma(samples, pipe, grid=[0.0, 1.0, 2.0], threads=8)
        assert a[0] == b[0]
        assert [r.metrics for r in a[1]] == [r.metrics for r in b[1]]


def reference_sweep(samples, pipeline, grid):
    """The sweep before the weights were checked once per sample: inject (and
    its checks) once per (gamma, sample), through Pipeline.reweighted."""
    table = []
    for gamma in grid:
        positions = []
        for s in samples:
            if s.target in s.known_items:
                positions.append(None)
                continue
            adjusted = pipeline.reweighted(pipeline.normalized_distances(s),
                                           pipeline.weights(s), gamma)
            keep = exclusion_mask(adjusted.shape[0], pipeline.exclusions(s))
            positions.append(target_position(adjusted, keep,
                                             pipeline.catalog.index_of[s.target]))
        report = aggregate(positions)
        table.append({**{f"hr@{k}": v for k, v in report.hr.items()},
                      **{f"ndcg@{k}": v for k, v in report.ndcg.items()}})
    return table


class TestSweepMatchesPerPointInjection:
    @pytest.mark.parametrize("injection", ["popularity", "collaborative"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_bit_identical_table(self, injection, threads):
        log, catalog = synthetic_dataset(n_users=14, n_items=15, events_per_user=7)
        split = temporal_split(log)
        samples = build_samples(split)["valid"]
        provider = HashEmbedder(dim=16, seed=5)

        class OneTextGen:  # the weights, not the text, decide most ranks
            def generate(self, sample):
                return GeneratedText(("story", "chronicle"), "fixed")

        fit = compute_popularity if injection == "popularity" else fit_cooccurrence
        pipe = Pipeline(OneTextGen(), provider, embed_catalog(catalog, provider),
                        catalog, source=fit(split.train, catalog))
        _, table = tune_gamma(samples, pipe, threads=threads)
        assert [row.metrics for row in table] == reference_sweep(samples, pipe,
                                                                 gamma_grid())

    def test_weights_out_of_range_fatal(self):
        log, catalog = synthetic_dataset(n_users=6, n_items=8, events_per_user=5)
        split = temporal_split(log)
        pipe = pop_pipeline(catalog, split.train)
        pipe.source.normalized = pipe.source.normalized + 1.5
        with pytest.raises(DataError, match=r"must lie in \[0,1\]"):
            tune_gamma(build_samples(split)["valid"], pipe, grid=[0.0, 1.0])


class TestWriteSweep:
    def test_tsv_shape(self, tmp_path):
        log, catalog = synthetic_dataset(n_users=8, n_items=8, events_per_user=5)
        split = temporal_split(log)
        samples = build_samples(split)["valid"]
        pipe = pop_pipeline(catalog, split.train)
        _, table = tune_gamma(samples, pipe, grid=[0.0, 0.5])
        path = tmp_path / "sweep.tsv"
        write_sweep(path, table)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("gamma\thr@1")
