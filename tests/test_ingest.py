from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_log, make_sample, synthetic_dataset
from groundrec import ingest
from groundrec.errors import DataError
from groundrec.ingest import (
    HISTORY_LEN,
    PAD,
    PARTITIONS,
    SequenceSample,
    build_samples,
    parse_interactions,
    period_sizes,
    read_samples,
    sample_eval,
    temporal_split,
    write_interactions,
    write_sample_files,
    write_samples,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


class TestParseInteractions:
    def test_sorted_by_timestamp(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u\ta\t5", "u\tb\t1", "u\tc\t3"])
        log = parse_interactions(f)
        assert list(log.timestamps) == [1, 3, 5]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "x.tsv"
        f.write_text("")
        log = parse_interactions(f)
        assert len(log) == 0 and log.rejected == 0

    def test_stable_tie_break_by_position(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u\tA\t7", "u\tB\t7"])
        log = parse_interactions(f)
        assert log.item_ids == ["A", "B"]

    def test_bad_timestamp_rejected_and_counted(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u\ta\tnope"] + [f"u\ta\t{i}" for i in range(20)])
        log = parse_interactions(f)
        assert log.rejected == 1 and len(log) == 20

    def test_too_many_rejects_fatal(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u\ta\tbad", "u\tb\t1"])
        with pytest.raises(DataError):
            parse_interactions(f)

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            parse_interactions(tmp_path / "missing.tsv")

    def test_comments_ignored(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["# header", "u\ta\t1"])
        assert len(parse_interactions(f)) == 1

    def test_pad_item_fatal(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, [f"u\t{PAD}\t1"])
        with pytest.raises(DataError):
            parse_interactions(f)


def reference_parse(path):
    """The record-based parser the columnar one replaced: one record per kept
    line, sorted by (timestamp, file position) with a Python key. Returns
    (records, rejected); a record is (user, item, timestamp, tag)."""
    records = []
    rejected = total = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            total += 1
            parts = line.split("\t")
            if len(parts) < 3 or not parts[0] or not parts[1]:
                rejected += 1
                continue
            try:
                ts = int(parts[2])
            except ValueError:
                rejected += 1
                continue
            if parts[1] == PAD:
                raise DataError(f"item_id collides with PAD token at line {lineno + 1}")
            tag = parts[3] if len(parts) > 3 and parts[3] else None
            records.append((ts, lineno, parts[0], parts[1], tag))
    if total and rejected / total > 0.10:
        raise DataError(f"{rejected}/{total} lines rejected in {path} (>10%)")
    records.sort(key=lambda r: (r[0], r[1]))
    return [(u, i, ts, tag) for ts, _, u, i, tag in records], rejected


def reference_write_interactions(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for user, item, ts, tag in records:
            fields = [user, item, str(ts)]
            if tag:
                fields.append(tag)
            fh.write("\t".join(fields) + "\n")


# equal timestamps out of file order, and timestamps beyond int64
STAMPS = st.sampled_from([3, 0, 1, 1, -7, 2**63, -(2**63) - 1, 10**30])
VALID_LINE = st.builds(
    lambda user, item, ts, rest: "\t".join([user, item, str(ts), *rest]),
    st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(["a", "b", "c"]), STAMPS,
    st.sampled_from([[], [""], ["tag1"], ["tag2", "extra"]]),
)
BAD_LINE = st.sampled_from([
    "", "# comment", "#u0\ta\t1",  # skipped, not counted
    "u0", "u0\ta", "\ta\t1", "u0\t\t1",  # short: rejected
    "u0\ta\tnope", "u0\ta\t1.5", "u0\ta\t",  # non-integer: rejected
])
LINES = st.lists(st.one_of(VALID_LINE, VALID_LINE, VALID_LINE, BAD_LINE), max_size=40)


def block_lines(n):
    """n valid interaction lines, about 14 characters each."""
    return [f"u{k % 7}\titem{k % 13}\t{k}" for k in range(n)]


class TestColumnarParse:
    @settings(max_examples=400, deadline=None)
    @given(lines=LINES, newline=st.sampled_from(["\n", "\r\n", "\r"]),
           block=st.sampled_from([ingest.READ_BLOCK, 1, 2, 3, 7]))
    def test_matches_record_reference(self, tmp_path_factory, lines, newline, block):
        """Also with blocks of a few characters, which split lines, CR LF
        pairs and fields anywhere."""
        path = tmp_path_factory.mktemp("p") / "x.tsv"
        path.write_bytes(newline.join(lines).encode())
        with mock.patch.object(ingest, "READ_BLOCK", block):
            try:
                records, rejected = reference_parse(path)
            except DataError as e:
                with pytest.raises(DataError) as got:
                    parse_interactions(path)
                assert str(got.value).startswith(str(e).split(" (>10%)")[0])
                return
            log = parse_interactions(path)
        assert log.rejected == rejected and len(log) == len(records)
        assert list(zip(log.user_ids, log.item_ids, log.timestamps, log.tags)) == records
        assert all(type(ts) is int for ts in log.timestamps)
        # an int64 column unless a timestamp lies beyond int64
        in_int64 = all(-(2**63) <= ts < 2**63 for _, _, ts, _ in records)
        assert isinstance(log.timestamps, array) == in_int64
        # one code per user, numbered by first appearance
        firsts = list(dict.fromkeys(log.user_ids))
        assert log.user_codes.tolist() == [firsts.index(u) for u in log.user_ids]
        out, expected = path.with_suffix(".out"), path.with_suffix(".ref")
        write_interactions(out, log)
        reference_write_interactions(expected, records)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_not_utf8_past_the_first_block_names_its_line(self, tmp_path, newline):
        lines = block_lines(20_000)
        assert len(newline.join(lines[:15_000])) > 3 * ingest.READ_BLOCK
        f = tmp_path / "x.tsv"
        f.write_bytes(newline.join(lines[:15_000]).encode() + newline.encode()
                      + b"u0\tcaf\xe9\t1" + newline.encode()
                      + newline.join(lines[15_000:]).encode())
        with pytest.raises(DataError, match="not UTF-8: byte 0xe9 at line 15001$"):
            parse_interactions(f)

    def test_first_fault_wins_across_blocks(self, tmp_path):
        """A PAD line in the first block is reported before a bad byte blocks
        later, which the parse never reaches."""
        lines = block_lines(20_000)
        lines[1] = f"u0\t{PAD}\t1"
        f = tmp_path / "x.tsv"
        f.write_bytes("\n".join(lines).encode() + b"\nu0\tcaf\xe9\t1\n")
        with pytest.raises(DataError, match="PAD token at line 2 "):
            parse_interactions(f)

    def test_pad_collision_names_line(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["# header", "u\ta\t1", "", f"u\t{PAD}\t2"])
        with pytest.raises(DataError, match="PAD token at line 4"):
            parse_interactions(f)

    def test_reject_limit_message(self, tmp_path):
        f = tmp_path / "x.tsv"
        write_lines(f, ["u\ta"] + [f"u\ta\t{i}" for i in range(8)] + ["u\ta\tx"])
        with pytest.raises(DataError, match=r"2/10 lines rejected .* \(>10%\)"):
            parse_interactions(f)

    def test_partitions_are_slices_of_the_sorted_columns(self):
        log = make_log([("u", f"i{k}", 20 - k) for k in range(20)])
        split = temporal_split(log)
        assert split.full.timestamps == list(range(1, 21))
        for name in ("train", "valid", "test"):
            lo, hi = split.partition_range(name)
            part = getattr(split, name)
            assert part.item_ids == log.item_ids[lo:hi]
            assert part.timestamps == log.timestamps[lo:hi]
            assert part.user_codes.tolist() == log.user_codes[lo:hi].tolist()


class TestTemporalSplit:
    def test_20_records(self):
        log = make_log([("u", f"i{k}", k) for k in range(20)])
        split = temporal_split(log)
        assert (len(split.train), len(split.valid), len(split.test)) == (16, 2, 2)

    def test_10_records(self):
        log = make_log([("u", f"i{k}", k) for k in range(10)])
        split = temporal_split(log)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_23_records_remainder_to_earliest(self):
        # 23 = 10*2 + 3 -> sizes (3,3,3,2,2,2,2,2,2,2); train = first 19
        assert period_sizes(23) == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
        log = make_log([("u", f"i{k}", k) for k in range(23)])
        split = temporal_split(log)
        assert (len(split.train), len(split.valid), len(split.test)) == (19, 2, 2)

    def test_too_small_fatal(self):
        with pytest.raises(DataError, match="at least 10"):
            temporal_split(make_log([("u", "a", 1)] * 9))

    def test_no_temporal_leakage(self):
        log, _ = synthetic_dataset()
        split = temporal_split(log)
        max_train = max(split.train.timestamps)
        assert all(ts >= max_train for ts in split.test.timestamps)
        assert all(ts >= max_train for ts in split.valid.timestamps)

    @given(st.integers(min_value=10, max_value=500))
    def test_period_sizes_partition(self, n):
        sizes = period_sizes(n)
        assert sum(sizes) == n and len(sizes) == 10
        assert max(sizes) - min(sizes) <= 1


class TestBuildSamples:
    def test_short_history_padding(self):
        log = make_log([("u", "a", 1), ("u", "b", 2)])
        split = temporal_split(make_log([("u", "a", 1), ("u", "b", 2)] +
                                        [("w", "x", t) for t in range(3, 11)]))
        # force b into the test partition by timestamps: rebuild a clean case
        log = make_log([(f"v{k}", "f", k) for k in range(9)] + [("u", "a", 0), ("u", "b", 100)])
        split = temporal_split(log)
        samples = [s for s in build_samples(split)["test"] if s.user_id == "u"]
        assert len(samples) == 1
        s = samples[0]
        assert s.history == tuple([PAD] * 9 + ["a"])
        assert s.target == "b"

    def test_window_of_last_ten(self):
        items = [f"x{k:02d}" for k in range(12)]
        log = make_log(
            [(f"v{k}", "f", k) for k in range(20)]
            + [("u", it, 100 + k) for k, it in enumerate(items)]
        )
        split = temporal_split(log)
        samples = [s for s in build_samples(split)["test"] if s.user_id == "u"]
        last = [s for s in samples if s.target == items[11]]
        assert len(last) == 1
        assert last[0].history == tuple(items[1:11])

    def test_history_crosses_partition_boundary(self):
        # user items a,b,c; b in train, c in test
        log = make_log(
            [("u", "a", 0), ("u", "b", 1)]
            + [(f"v{k}", "f", 10 + k) for k in range(7)]
            + [("u", "c", 100)]
        )
        split = temporal_split(log)
        assert split.test.item_ids[0] == "c"
        samples = [s for s in build_samples(split)["test"] if s.user_id == "u"]
        assert len(samples) == 1
        s = samples[0]
        assert s.history == tuple([PAD] * 8 + ["a", "b"])
        assert s.target == "c"
        assert s.known_items == frozenset({"a", "b"})

    def test_single_interaction_user_yields_nothing(self):
        log = make_log([("u", "a", 0)] + [(f"v{k}", "f", k + 1) for k in range(9)])
        split = temporal_split(log)
        assert [s for s in build_samples(split)["train"] if s.user_id == "u"] == []

    def test_padding_is_contiguous_left_prefix(self):
        log, _ = synthetic_dataset()
        split = temporal_split(log)
        for samples in build_samples(split).values():
            for s in samples:
                real_seen = False
                for tok in s.history:
                    if tok != PAD:
                        real_seen = True
                    else:
                        assert not real_seen, "PAD to the right of a real item"

    def test_targets_reconstruct_user_timeline(self):
        log, _ = synthetic_dataset()
        split = temporal_split(log)
        allsamples = []
        for samples in build_samples(split).values():
            allsamples.extend(samples)
        by_user = {}
        for user, item in zip(split.full.user_ids, split.full.item_ids):
            by_user.setdefault(user, []).append(item)
        got = {}
        for s in sorted(allsamples, key=lambda s: s.target_timestamp):
            got.setdefault(s.user_id, []).append(s.target)
        for user, seq in by_user.items():
            assert got.get(user, []) == seq[1:]

    def test_known_items_strictly_before_target(self):
        log, _ = synthetic_dataset()
        split = temporal_split(log)
        times = {}
        for user, item, ts in zip(split.full.user_ids, split.full.item_ids,
                                  split.full.timestamps):
            times.setdefault(user, []).append((item, ts))
        for s in build_samples(split)["test"]:
            for item in s.known_items:
                ts = [t for i, t in times[s.user_id] if i == item]
                assert min(ts) < s.target_timestamp

    def test_determinism(self):
        log, _ = synthetic_dataset()
        a = build_samples(temporal_split(log))["test"]
        b = build_samples(temporal_split(log))["test"]
        assert a == b


class TestSampleEval:
    def test_n_at_least_population_keeps_order(self):
        log, _ = synthetic_dataset()
        samples = build_samples(temporal_split(log))["test"]
        assert sample_eval(samples, len(samples) + 5, seed=1) == samples

    def test_same_seed_same_selection(self):
        log, _ = synthetic_dataset()
        samples = build_samples(temporal_split(log))["valid"]
        assert sample_eval(samples, 5, seed=42) == sample_eval(samples, 5, seed=42)

    def test_different_seeds_differ(self):
        log, _ = synthetic_dataset(n_users=60)
        samples = build_samples(temporal_split(log))["train"]
        assert len(samples) >= 100
        a = sample_eval(samples, 10, seed=1)
        b = sample_eval(samples, 10, seed=2)
        assert a != b  # overwhelmingly likely; both draws are deterministic
        assert sample_eval(samples, 10, seed=1) == a

    def test_bad_n(self):
        with pytest.raises(ValueError):
            sample_eval([], 0, seed=1)


class TestSamplesRoundtrip:
    def test_write_read_roundtrip(self, tmp_path):
        log, _ = synthetic_dataset()
        samples = build_samples(temporal_split(log))["test"]
        path = tmp_path / "samples.tsv"
        write_samples(path, samples)
        assert read_samples(path) == samples


def reference_samples(split, partition):
    """The quadratic scan build_samples replaced: per partition, each
    sample's known set rebuilt from the user's whole timeline."""
    lo, hi = split.partition_range(partition)
    by_user = {}
    full = split.full
    for gidx, user in enumerate(full.user_ids):
        by_user.setdefault(user, []).append(gidx)
    samples = []
    for user in sorted(by_user):
        timeline = by_user[user]
        items = [full.item_ids[g] for g in timeline]
        for t, gidx in enumerate(timeline):
            if t == 0 or not (lo <= gidx < hi):
                continue
            window = items[max(0, t - HISTORY_LEN) : t]
            history = tuple([PAD] * (HISTORY_LEN - len(window)) + window)
            now = full.timestamps[gidx]
            known = frozenset(
                full.item_ids[g] for g in timeline if full.timestamps[g] < now
            )
            samples.append(SequenceSample(history, full.item_ids[gidx], user,
                                          now, known))
    samples.sort(key=lambda s: (s.target_timestamp, s.user_id))
    return samples


def reference_write(path, samples):
    """The writer that sorted, joined and checked every known set per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            for item in (*s.history, s.target, *s.known_items):
                if "," in item or "\t" in item:
                    raise DataError(f"item_id {item!r} contains a separator")
            fh.write("\t".join([s.user_id, ",".join(s.history), s.target,
                                str(s.target_timestamp),
                                ",".join(sorted(s.known_items))]) + "\n")


# few users, items and timestamps: equal timestamps within a user, repeat
# items and users whose timelines cross partition boundaries are the rule
EVENTS = st.lists(
    st.tuples(st.sampled_from(["u0", "u1", "u2", "u3", "u4"]),
              st.sampled_from(["a", "b", "c", "d", "e", "f"]),
              st.integers(0, 8)),
    min_size=10, max_size=80,
)
# u1's two events share a timestamp, so its one sample knows nothing;
# u2 and u3 have one event each and yield no sample
EDGE_EVENTS = ([("u0", "a", 0), ("u1", "b", 0), ("u0", "b", 0), ("u1", "c", 0),
                ("u2", "a", 1)]
               + [("u0", it, t) for t, it in enumerate("abcabcab", 1)]
               + [("u3", "f", 9)])


class TestLinearBuildSamples:
    @settings(max_examples=200, deadline=None)
    @given(EVENTS)
    @example(EDGE_EVENTS)
    def test_matches_quadratic_reference(self, events):
        split = temporal_split(make_log(events))
        got = build_samples(split)
        assert list(got) == ["train", "valid", "test"]
        for part, samples in got.items():
            assert samples == reference_samples(split, part)

    def test_edge_cases(self):
        samples = build_samples(temporal_split(make_log(EDGE_EVENTS)))
        flat = [s for part in samples.values() for s in part]
        assert {s.user_id for s in flat} == {"u0", "u1"}  # u2, u3: one event
        (u1,) = [s for s in flat if s.user_id == "u1"]
        assert u1.target == "c" and u1.known_items == frozenset()
        u0 = sorted((s for s in flat if s.user_id == "u0"),
                    key=lambda s: s.target_timestamp)
        # "b" shares timestamp 0 with "a": neither knows the other
        assert u0[0].target == "b" and u0[0].known_items == frozenset()
        assert u0[1].known_items == frozenset("ab")

    def test_unchanged_known_set_is_one_shared_snapshot(self):
        # after "a b c" every later event repeats an item: one snapshot
        log = make_log([(f"v{k}", "f", k) for k in range(10)]
                       + [("u", it, 100 + t) for t, it in enumerate("abcabcab")])
        flat = [s for part in build_samples(temporal_split(log)).values()
                for s in part if s.user_id == "u"]
        later = [s for s in flat if s.target_timestamp >= 103]
        assert len(later) == 5
        assert all(s.known_items is later[0].known_items for s in later)
        assert later[0].known_items == frozenset("abc")

    def test_unknown_partition_rejected(self):
        split = temporal_split(make_log([("u", f"i{k}", k) for k in range(10)]))
        with pytest.raises(ValueError, match="unknown partition"):
            split.partition_range("holdout")


# 20 events: train is the first 16, valid the next 2, test the last 2.
# Timestamp 20 spans the train/valid cut (u0 in train, u1 in valid), and
# timestamp 21 the valid/test cut, with u2's two events on either side of it.
BOUNDARY_EVENTS = ([(f"u{k % 3}", "abcdef"[k % 6], k) for k in range(15)]
                   + [("u0", "a", 20), ("u1", "b", 20), ("u2", "c", 21),
                      ("u2", "d", 21), ("u1", "e", 21)])


class TestSampleFiles:
    @settings(max_examples=200, deadline=None)
    @given(EVENTS)
    @example(EDGE_EVENTS)
    @example(BOUNDARY_EVENTS)
    def test_stream_matches_reference_and_build_samples(self, tmp_path_factory,
                                                        events):
        split = temporal_split(make_log(events))
        tmp = tmp_path_factory.mktemp("f")
        write_sample_files(split, tmp)
        built = build_samples(split)
        for part in PARTITIONS:
            got = tmp / f"samples_{part}.tsv"
            reference_write(tmp / "ref.tsv", reference_samples(split, part))
            assert got.read_bytes() == (tmp / "ref.tsv").read_bytes()
            assert read_samples(got) == built[part]

    @pytest.mark.parametrize("bad", ["x,y", "x\ty"])
    def test_separator_in_item_id_rejected(self, tmp_path, bad):
        log = make_log([(f"v{k}", "f", k) for k in range(10)]
                       + [("u", "a", 20), ("u", bad, 21)])
        with pytest.raises(DataError) as err:
            write_sample_files(temporal_split(log), tmp_path)
        assert repr(bad) in str(err.value)


IDS = st.sampled_from(["a", "b", "c", "d", "e"])


class TestWriteSamples:
    @settings(max_examples=100, deadline=None)
    @given(EVENTS)
    def test_bytes_match_reference_writer(self, tmp_path_factory, events):
        tmp = tmp_path_factory.mktemp("w")
        for part, samples in build_samples(temporal_split(make_log(events))).items():
            write_samples(tmp / "new.tsv", samples)
            reference_write(tmp / "old.tsv", samples)
            assert (tmp / "new.tsv").read_bytes() == (tmp / "old.tsv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["u", "w"]),
                              st.integers(0, 3), IDS), max_size=30))
    def test_arbitrary_sharing_matches_reference_writer(self, tmp_path_factory,
                                                        rows):
        # known sets from a small pool, so one object recurs, also out of order
        pool = [frozenset(), frozenset("ab"), frozenset("ba"), frozenset("cde")]
        samples = [SequenceSample((PAD,) * 9 + ("a",), target, user, k, pool[i])
                   for k, (user, i, target) in enumerate(rows)]
        tmp = tmp_path_factory.mktemp("w")
        write_samples(tmp / "new.tsv", samples)
        reference_write(tmp / "old.tsv", samples)
        assert (tmp / "new.tsv").read_bytes() == (tmp / "old.tsv").read_bytes()

    @given(st.sampled_from(["history", "target", "known", "known-later"]),
           st.sampled_from([",", "\t"]), st.sampled_from(["x", "zz", "0"]))
    def test_separator_in_any_id_rejected(self, tmp_path_factory, where, sep,
                                          stem):
        bad = stem + sep + "y"
        shared = frozenset({"a", "b"})
        rows = [make_sample(["a"], "b", ts=1, known=shared),
                make_sample(["a"], "b", ts=2, known=shared)]
        # the bad id arrives beside a good one ("c") that is also new
        if where == "history":
            rows.append(make_sample(["c", bad], "b", ts=3, known=shared))
        elif where == "target":
            rows.append(make_sample(["c"], bad, ts=3, known=shared))
        elif where == "known":
            rows.append(make_sample(["a"], "b", ts=3, known={"c", bad}))
        else:  # a user whose shared set is already cached gains a bad id
            rows.append(make_sample(["a"], "b", ts=3, known=shared | {"c", bad}))
        path = tmp_path_factory.mktemp("w") / "s.tsv"
        with pytest.raises(DataError) as err:
            write_samples(path, rows)
        assert repr(bad) in str(err.value)


class TestReadSamples:
    @pytest.fixture(scope="class")
    def samples_file(self, tmp_path_factory):
        log, _ = synthetic_dataset()
        path = tmp_path_factory.mktemp("r") / "samples.tsv"
        write_samples(path, build_samples(temporal_split(log))["valid"])
        return path

    @settings(deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 2**32))
    def test_drawn_read_is_sample_eval_of_full_read(self, samples_file, n, seed):
        full = read_samples(samples_file)
        assert read_samples(samples_file, n, seed) == sample_eval(full, n, seed)

    @pytest.mark.parametrize("bad, message", [
        ("u\t" + ",".join("a" * 10) + "\tb\tnoon\t", "non-integer timestamp 'noon'"),
        ("u\t" + ",".join("a" * 9) + "\tb\t1\t", "history length 9"),
        ("u\tb\t1\t", "malformed sample line"),
    ])
    def test_every_line_checked_when_drawing(self, tmp_path, samples_file, bad,
                                             message):
        lines = samples_file.read_text().splitlines()
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(lines + [bad]) + "\n")
        with pytest.raises(DataError, match=message) as err:
            read_samples(path, 1, seed=0)
        assert f"line {len(lines) + 1}" in str(err.value)
        assert str(path) in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read samples file"):
            read_samples(tmp_path / "nope.tsv")
