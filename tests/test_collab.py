import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_log, make_sample, synthetic_dataset
from groundrec import cli
from groundrec.collab import (
    CoScorer,
    fit_cooccurrence,
    load_scorer,
    normalize_scores,
    save_scorer,
    score,
)
from groundrec.errors import DataError
from groundrec.ingest import PAD, build_samples, temporal_split


@pytest.fixture
def abc_catalog():
    return make_catalog({"a": "ta", "b": "tb", "c": "tc", "x": "tx"})


class TestFitCooccurrence:
    def test_single_user_chain(self, abc_catalog):
        log = make_log([("u", "a", 1), ("u", "b", 2), ("u", "c", 3)])
        s = fit_cooccurrence(log, abc_catalog)
        ia, ib, ic = (abc_catalog.index_of[i] for i in "abc")
        assert s.counts == {(ia, ib): 1, (ib, ic): 1}

    def test_two_users_same_pair(self, abc_catalog):
        log = make_log([("u", "a", 1), ("u", "b", 2), ("v", "a", 3), ("v", "b", 4)])
        s = fit_cooccurrence(log, abc_catalog)
        ia, ib = abc_catalog.index_of["a"], abc_catalog.index_of["b"]
        assert s.counts == {(ia, ib): 2}

    def test_single_item_user_no_counts(self, abc_catalog):
        s = fit_cooccurrence(make_log([("u", "a", 1)]), abc_catalog)
        assert s.counts == {}

    def test_empty_train_fatal(self, abc_catalog):
        with pytest.raises(DataError):
            fit_cooccurrence(make_log([]), abc_catalog)

    def test_train_only_provenance(self):
        log, catalog = synthetic_dataset()
        split = temporal_split(log)
        scorer = fit_cooccurrence(split.train, catalog)
        # rebuild pair multiset from train alone; scorer must contain no more
        by_user = {}
        for user, item in zip(split.train.user_ids, split.train.item_ids):
            by_user.setdefault(user, []).append(item)
        expected = {}
        for items in by_user.values():
            for p, n in zip(items, items[1:]):
                key = (catalog.index_of[p], catalog.index_of[n])
                expected[key] = expected.get(key, 0) + 1
        assert scorer.counts == expected


def reference_counts(log, catalog):
    """The per-record loop fit_cooccurrence replaced."""
    by_user = {}
    for user, item in zip(log.user_ids, log.item_ids):
        by_user.setdefault(user, []).append(item)
    counts = {}
    for items in by_user.values():
        for prev, nxt in zip(items, items[1:]):
            pi = catalog.index_of.get(prev)
            ni = catalog.index_of.get(nxt)
            if pi is None or ni is None:
                continue
            counts[(pi, ni)] = counts.get((pi, ni), 0) + 1
    return counts


class TestFitMatchesRecordLoop:
    # "zz" is not in abc_catalog; users interleave and timestamps repeat
    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2"]),
                              st.sampled_from(["a", "b", "c", "x", "zz"]),
                              st.integers(0, 6)),
                    min_size=1, max_size=60))
    def test_unique_pairs_equal_per_record_loop(self, events):
        catalog = make_catalog({"a": "ta", "b": "tb", "c": "tc", "x": "tx"})
        log = make_log(events)
        counts = fit_cooccurrence(log, catalog).counts
        assert counts == reference_counts(log, catalog)
        assert all(type(v) is int for (pi, ni), c in counts.items() for v in (pi, ni, c))

    def test_partition_slice_matches(self):
        log, catalog = synthetic_dataset(n_users=12, n_items=9, events_per_user=7)
        split = temporal_split(log)
        for part in (split.train, split.valid, split.test):
            assert fit_cooccurrence(part, catalog).counts == reference_counts(part, catalog)


class TestScore:
    def test_single_recent_item(self, abc_catalog):
        log = make_log([("u", "a", 1), ("u", "b", 2), ("u", "a", 3), ("u", "b", 4)])
        scorer = fit_cooccurrence(log, abc_catalog)
        sample = make_sample(["a"], "b")
        raw = score(scorer, sample, abc_catalog)
        ib = abc_catalog.index_of["b"]
        assert raw[ib] == 2.0
        assert raw.sum() == pytest.approx(2.0)  # only prev='a' transitions fire

    def test_empty_history_all_zero(self, abc_catalog):
        log = make_log([("u", "a", 1), ("u", "b", 2)])
        scorer = fit_cooccurrence(log, abc_catalog)
        raw = score(scorer, make_sample([], "b"), abc_catalog)
        assert np.all(raw == 0.0)

    def test_recency_weighting_hand_example(self, abc_catalog):
        # counts {(a,b):2, (x,b):1}; history [x, a] (a most recent)
        log = make_log(
            [("u", "a", 1), ("u", "b", 2), ("u", "a", 3), ("u", "b", 4),
             ("v", "x", 1), ("v", "b", 2)]
        )
        scorer = fit_cooccurrence(log, abc_catalog)
        raw = score(scorer, make_sample(["x", "a"], "b"), abc_catalog)
        ib = abc_catalog.index_of["b"]
        assert raw[ib] == pytest.approx(1.0 * 2 + 0.5 * 1)

    def test_only_last_three_items_count(self, abc_catalog):
        log = make_log([("u", "a", 1), ("u", "b", 2)])
        scorer = fit_cooccurrence(log, abc_catalog)
        # 'a' is 4th-most-recent: its transitions must not contribute
        raw = score(scorer, make_sample(["a", "x", "x", "x"], "b"), abc_catalog)
        assert raw[abc_catalog.index_of["b"]] == 0.0


def reference_score(scorer, sample, catalog):
    """The per-pair dict loop that score's sparse rows replaced."""
    by_prev = {}
    for (pi, ni), c in scorer.counts.items():
        by_prev.setdefault(pi, {})[ni] = c
    raw = np.zeros(scorer.n_items, dtype=np.float64)
    recent = [h for h in sample.history if h != PAD][-3:]
    recent.reverse()
    for w, item_id in zip((1.0, 0.5, 0.25), recent):
        prev = catalog.index_of.get(item_id)
        if prev is None:
            continue
        for ni, c in by_prev.get(prev, {}).items():
            raw[ni] += w * c
    return raw


class TestScoreMatchesDictLoop:
    ITEMS = [f"i{k}" for k in range(8)]

    # "zz" is not in the catalog; pairs may name items never in a history
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                           st.integers(1, 2**32 - 1), max_size=40),
           st.lists(st.sampled_from(ITEMS + ["zz"]), max_size=10))
    def test_bit_identical(self, counts, history):
        catalog = make_catalog({i: f"t{i}" for i in self.ITEMS})
        scorer = CoScorer(n_items=len(catalog), counts=counts)
        sample = make_sample(history, "i0")
        assert np.array_equal(score(scorer, sample, catalog),
                              reference_score(scorer, sample, catalog))

    def test_fitted_and_loaded_scorers(self, tmp_path):
        log, catalog = synthetic_dataset(n_users=30, n_items=25, events_per_user=9)
        split = temporal_split(log)
        scorer = fit_cooccurrence(split.train, catalog)
        save_scorer(tmp_path / "co.bin", scorer)
        loaded = load_scorer(tmp_path / "co.bin", len(catalog))
        for sample in build_samples(split)["test"]:
            expected = reference_score(scorer, sample, catalog)
            assert np.array_equal(score(scorer, sample, catalog), expected)
            assert np.array_equal(score(loaded, sample, catalog), expected)


class TestNormalizeScores:
    def test_hand_example(self):
        assert np.allclose(normalize_scores([0.0, 2.0, 4.0]), [0.0, 0.5, 1.0])

    def test_all_equal_degenerate(self):
        assert np.all(normalize_scores([3.0, 3.0]) == 0.0)

    def test_single_value(self):
        assert normalize_scores([5.0])[0] == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_idempotent(self, raw):
        once = normalize_scores(raw)
        twice = normalize_scores(once)
        assert np.allclose(once, twice, atol=1e-12)


class TestScorerIO:
    def test_roundtrip(self, tmp_path, abc_catalog):
        log = make_log([("u", "a", 1), ("u", "b", 2), ("u", "c", 3)])
        scorer = fit_cooccurrence(log, abc_catalog)
        path = tmp_path / "scorer.bin"
        save_scorer(path, scorer)
        loaded = load_scorer(path, len(abc_catalog))
        assert loaded.counts == scorer.counts
        assert path.read_bytes()[:4] == b"GRCO"

    def test_bad_magic_fatal(self, tmp_path):
        path = tmp_path / "scorer.bin"
        path.write_bytes(b"NOPE\x00\x00\x00\x00")
        with pytest.raises(DataError):
            load_scorer(path, 3)

    @given(st.dictionaries(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                           st.integers(0, 2**32 - 1), max_size=30))
    def test_roundtrip_bytes_match_struct_writer(self, tmp_path_factory, counts):
        path = tmp_path_factory.mktemp("s") / "scorer.bin"
        save_scorer(path, CoScorer(n_items=3, counts=counts))
        expected = b"GRCO" + struct.pack("<I", len(counts)) + b"".join(
            struct.pack("<III", pi, ni, counts[(pi, ni)]) for pi, ni in sorted(counts))
        assert path.read_bytes() == expected
        if all(i < 3 for pair in counts for i in pair):
            assert load_scorer(path, 3).counts == counts
        else:  # a pair names an item outside the 3-item catalog
            with pytest.raises(DataError, match="outside the catalog of 3 items"):
                load_scorer(path, 3)

    def test_value_outside_u32_fatal(self, tmp_path):
        with pytest.raises(DataError, match="outside u32"):
            save_scorer(tmp_path / "s.bin", CoScorer(n_items=3, counts={(0, 1): 2**32}))

    def test_trailing_bytes_ignored(self, tmp_path):
        path = tmp_path / "scorer.bin"
        path.write_bytes(b"GRCO" + struct.pack("<I4I", 1, 0, 2, 5, 99))
        assert load_scorer(path, 3).counts == {(0, 2): 5}

    def test_truncated_fatal(self, tmp_path):
        path = tmp_path / "scorer.bin"
        path.write_bytes(b"GRCO" + (2).to_bytes(4, "little") + b"\x00" * 12)
        with pytest.raises(DataError, match="truncated"):
            load_scorer(path, 3)

    def test_truncated_exits_2_from_ground(self, tmp_path, abc_catalog, capsys):
        cat = tmp_path / "catalog.tsv"
        cat.write_text("".join(f"{i}\tt{i}\n" for i in abc_catalog.ids))
        assert cli.main(["embed", "--catalog", str(cat), "--dim", "8", "--seed", "1",
                         "--out", str(tmp_path / "emb.bin")]) == 0
        samples = tmp_path / "samples.tsv"
        samples.write_text("u\t" + ",".join(["<PAD>"] * 9 + ["a"]) + "\tb\t5\ta\n")
        gen = tmp_path / "gen.tsv"
        gen.write_text("0\ttb\toracle\n")
        save_scorer(tmp_path / "co.bin", fit_cooccurrence(
            make_log([("u", "a", 1), ("u", "b", 2), ("u", "c", 3)]), abc_catalog))
        scorer = tmp_path / "co.bin"
        scorer.write_bytes(scorer.read_bytes()[:-1])
        argv = ["ground", "--emb", tmp_path / "emb.bin", "--gen", gen, "--catalog", cat,
                "--samples", samples, "--inject", "collab", "--scorer", scorer,
                "--gamma", "1", "--out", tmp_path / "ranks.tsv"]
        assert cli.main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"truncated scorer file {scorer}" in err and "Traceback" not in err
