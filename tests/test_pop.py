import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_log
from groundrec.errors import DataError
from groundrec.ingest import ItemCatalog
from groundrec.pop import compute_popularity, decile_report, minmax


def catalog_of(n):
    return make_catalog({f"i{k:03d}": f"title {k}" for k in range(n)})


def log_with_counts(counts):
    """counts: dict item_id -> n; one interaction per count unit."""
    triples = []
    t = 0
    for item, n in counts.items():
        for _ in range(n):
            triples.append(("u", item, t))
            t += 1
    return make_log(triples)


class TestComputePopularity:
    def test_hand_example(self):
        # counts (a,b,c) = (2,1,1) -> C = (0.5, 0.25, 0.25), P = (1, 0, 0)
        cat = make_catalog({"a": "ta", "b": "tb", "c": "tc"})
        table = compute_popularity(log_with_counts({"a": 2, "b": 1, "c": 1}), cat)
        assert np.allclose(table.factor, [0.5, 0.25, 0.25])
        assert np.allclose(table.normalized, [1.0, 0.0, 0.0])

    def test_all_equal_counts_degenerate(self):
        cat = make_catalog({"a": "ta", "b": "tb"})
        table = compute_popularity(log_with_counts({"a": 3, "b": 3}), cat)
        assert np.all(table.normalized == 0.0)

    def test_single_item(self):
        cat = make_catalog({"a": "ta"})
        table = compute_popularity(log_with_counts({"a": 7}), cat)
        assert table.factor[0] == 1.0 and table.normalized[0] == 0.0

    def test_unknown_items_rejected_not_counted(self):
        cat = make_catalog({"a": "ta"})
        table = compute_popularity(log_with_counts({"a": 1, "zzz": 2}), cat)
        assert table.counts[0] == 1 and table.rejected == 2

    def test_empty_catalog_fatal(self):
        with pytest.raises(DataError):
            ItemCatalog({})

    def test_all_zero_counts(self):
        cat = catalog_of(4)
        table = compute_popularity(make_log([]), cat)
        assert np.all(table.factor == 0) and np.all(table.normalized == 0)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=30))
    def test_factor_sums_to_one(self, counts):
        cat = catalog_of(len(counts))
        log = log_with_counts({f"i{k:03d}": c for k, c in enumerate(counts)})
        table = compute_popularity(log, cat)
        if sum(counts) > 0:
            assert abs(table.factor.sum() - 1.0) < 1e-9
        if len(set(counts)) > 1:
            assert table.normalized.min() == 0.0
            assert table.normalized.max() == 1.0
        else:
            assert np.all(table.normalized == 0.0)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=15),
        st.integers(min_value=2, max_value=5),
    )
    def test_scale_invariance_of_p(self, counts, mult):
        cat = catalog_of(len(counts))
        a = compute_popularity(
            log_with_counts({f"i{k:03d}": c for k, c in enumerate(counts)}), cat
        )
        b = compute_popularity(
            log_with_counts({f"i{k:03d}": c * mult for k, c in enumerate(counts)}), cat
        )
        assert np.allclose(a.normalized, b.normalized, atol=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=15))
    def test_rank_preservation(self, counts):
        cat = catalog_of(len(counts))
        table = compute_popularity(
            log_with_counts({f"i{k:03d}": c for k, c in enumerate(counts)}), cat
        )
        for i in range(len(counts)):
            for j in range(len(counts)):
                if counts[i] > counts[j]:
                    assert table.normalized[i] >= table.normalized[j]


# "zz" and "q" are not in the catalog below
EVENTS = st.lists(
    st.tuples(st.sampled_from(["u0", "u1", "u2"]),
              st.sampled_from(["i000", "i001", "i002", "i003", "zz", "q"]),
              st.integers(0, 6)),
    max_size=60,
)


class TestCountsMatchRecordLoop:
    @settings(deadline=None)
    @given(EVENTS)
    def test_bincount_equals_per_record_loop(self, events):
        cat = catalog_of(5)
        log = make_log(events)
        counts = np.zeros(len(cat), dtype=np.int64)
        rejected = 0
        for item in log.item_ids:  # the loop compute_popularity replaced
            idx = cat.index_of.get(item)
            if idx is None:
                rejected += 1
            else:
                counts[idx] += 1
        table = compute_popularity(log, cat)
        assert table.counts.dtype == np.int64
        assert table.counts.tolist() == counts.tolist()
        assert table.rejected == rejected


class TestDecileReport:
    def test_descending_counts(self):
        # counts 10..1 over 10 items -> shares k/55
        cat = catalog_of(10)
        counts = {f"i{k:03d}": 10 - k for k in range(10)}
        table = compute_popularity(log_with_counts(counts), cat)
        report = decile_report(table)
        assert np.allclose(report.share, [(10 - k) / 55 for k in range(10)])

    def test_uniform_counts(self):
        cat = catalog_of(20)
        table = compute_popularity(
            log_with_counts({f"i{k:03d}": 3 for k in range(20)}), cat
        )
        report = decile_report(table)
        assert np.allclose(report.share, [0.1] * 10)

    def test_single_dominant_item(self):
        cat = catalog_of(10)
        table = compute_popularity(log_with_counts({"i000": 5}), cat)
        report = decile_report(table)
        assert report.share[0] == 1.0 and sum(report.share[1:]) == 0.0

    def test_small_catalog_flagged(self):
        cat = catalog_of(4)
        table = compute_popularity(log_with_counts({"i000": 1}), cat)
        report = decile_report(table)
        assert report.small_catalog
        assert sum(len(g) for g in report.groups) == 4

    def test_shares_non_increasing_and_partition(self):
        cat = catalog_of(25)
        counts = {f"i{k:03d}": (k * 7) % 13 for k in range(25)}
        table = compute_popularity(log_with_counts(counts), cat)
        report = decile_report(table)
        assert abs(sum(report.share) - 1.0) < 1e-9
        for a, b in zip(report.share, report.share[1:]):
            assert a >= b - 1e-12
        seen = [i for g in report.groups for i in g]
        assert sorted(seen) == list(range(25))


class TestMinmax:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_range_and_degenerate(self, values):
        out = minmax(np.array(values))
        assert out.min() >= 0.0 and out.max() <= 1.0
        if len(set(values)) <= 1:
            assert np.all(out == 0.0)
