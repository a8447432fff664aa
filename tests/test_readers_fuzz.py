"""Every input reader either parses what it is given or raises DataError,
which the CLI turns into exit 2 naming the file; any other exception would
end a command in a traceback.

Text inputs are built from fields that sit near the readers' edge cases
(separators, PAD, counts beyond int64, non-finite numbers, report keys);
binary inputs put a GREC or GRCO header in front of arbitrary bytes. A
loaded scorer also scores a sample, since an index outside the catalog only
shows there. Inputs stay small: a few lines, a few dozen bytes.
"""

import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_sample
from groundrec import cli, collab, embed, ingest, metrics, pop
from groundrec.errors import DataError

CATALOG = make_catalog({"a": "alpha movie", "b": "beta film"})
SAMPLE = make_sample(CATALOG, ["a", "b"], "a")  # a loaded scorer must also score it

FIELDS = ["", "a", "b", "zz", ingest.PAD, "0", "1", "-1", "2.5", "1e400", "-0",
          "nan", "inf", str(2**63), "9" * 30, "#", "# fingerprint: k=v", "a,b", ",",
          "hr@1", "ndcg@5", "hr@", "n_samples", "skipped", "{", "\x00", "é", " "]

field = st.one_of(st.sampled_from(FIELDS), st.integers().map(str), st.text(max_size=4))
line = st.one_of(
    st.lists(field, max_size=6).map("\t".join),
    # a samples line: user, a 10-id history, target, timestamp, known set
    st.tuples(field, st.lists(field, min_size=9, max_size=11).map(",".join), field,
              field, st.lists(field, max_size=3).map(",".join)).map("\t".join),
)


def lines_file(lines):
    return st.lists(lines, max_size=6).map(lambda ls: "\n".join(ls).encode())


def keyed(keys):
    """A line whose first field is one of keys, so that a reader that looks
    the key up first (a catalog id, a sample index) reads on."""
    return st.tuples(st.sampled_from(keys), field).map("\t".join)


text_file = st.one_of(lines_file(line), lines_file(keyed(["a", "b"])),
                      lines_file(keyed(["0", "1"])), st.binary(max_size=40))

# a report as write_report writes it for a drawn K set, with extra lines
# that may spoil it (a metric with no partner, another spelling of a K, a
# non-finite value, an unknown metric) and with a count or two left out,
# in any order
EXTRA_REPORT_LINES = ["hr@1\t0.5", "ndcg@5\t0", "hr@05\t0.5", "ndcg@1\tnan", "mrr@1\t0",
                      "# fingerprint: seed=3"]
report_text = st.tuples(
    st.sets(st.sampled_from([1, 5, 20]), max_size=2).map(
        lambda ks: [f"{m}@{k}\t0.5" for k in ks for m in ("hr", "ndcg")]),
    st.lists(st.sampled_from(EXTRA_REPORT_LINES), max_size=2),
    st.sampled_from([["n_samples\t3", "skipped\t1"]] * 3 + [["n_samples\t3"], []]),
).flatmap(lambda parts: st.permutations(sum(parts, []))).map(
    lambda ls: "\n".join(ls).encode())


def binary_file(magic, record, item):
    """magic, a u32 count, then either that many records (give or take one)
    packed with the struct format record from item values, or arbitrary
    bytes after any u32."""
    def packed(items, shift):
        return magic + struct.pack("<I", max(0, len(items) + shift)) + b"".join(
            struct.pack(record, *it) for it in items)

    return st.one_of(
        st.builds(packed, st.lists(item, max_size=4), st.sampled_from([0, 0, -1, 1])),
        st.tuples(st.integers(0, 2**32 - 1), st.binary(max_size=40)).map(
            lambda cb: magic + struct.pack("<I", cb[0]) + cb[1]),
        st.binary(max_size=12).map(lambda b: magic + b),
    )


index = st.integers(0, 3)
grec = binary_file(embed.MAGIC, "<2f", st.tuples(st.floats(width=32), st.floats(width=32)))
grco = binary_file(collab.MAGIC, "<3I", st.tuples(index, index, st.integers(0, 2**32 - 1)))


def scorer_weights(path):
    return collab.score(collab.load_scorer(path, len(CATALOG)), SAMPLE)


READERS = {
    "interactions": (ingest.parse_interactions, text_file),
    "catalog": (ingest.parse_catalog, text_file),
    "samples": (lambda p: ingest.read_samples(p, CATALOG), text_file),
    "samples-n": (lambda p: ingest.read_samples(p, CATALOG, 2, 7), text_file),
    "embedding-tsv": (lambda p: embed.load_embeddings(p, CATALOG), text_file),
    "embedding-grec": (lambda p: embed.load_embeddings(p, CATALOG), grec),
    "generated-text": (cli._read_generated, text_file),
    "popularity": (lambda p: pop.read_popularity(p, CATALOG), text_file),
    "scorer": (scorer_weights, st.one_of(grco, st.binary(max_size=20))),
    "report": (metrics.read_report, st.one_of(text_file, report_text)),
}


@pytest.mark.parametrize("what", sorted(READERS))
def test_parses_or_raises_data_error(what, tmp_path_factory):
    reader, contents = READERS[what]
    path = tmp_path_factory.mktemp(what) / "input"

    @settings(max_examples=100, deadline=None)
    @given(contents)
    def check(data):
        path.write_bytes(data)
        try:
            reader(path)
        except DataError:
            pass

    check()


def test_scorer_body_is_exactly_its_pairs(tmp_path_factory):
    """A GRCO file with bytes after the pairs its header counts is refused,
    whatever the pairs and the extra bytes are."""
    path = tmp_path_factory.mktemp("scorer") / "co.bin"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(index, index, st.integers(0, 2**32 - 1)), max_size=4),
           st.binary(min_size=1, max_size=30))
    def check(pairs, extra):
        path.write_bytes(collab.MAGIC + struct.pack("<I", len(pairs)) + b"".join(
            struct.pack("<3I", *pair) for pair in pairs) + extra)
        size = 12 * len(pairs)
        message = (f"overlong scorer file {path}: the header counts {len(pairs)} pairs, "
                   f"{size} bytes, but {size + len(extra)} bytes follow it")
        with pytest.raises(DataError, match=re.escape(message)):
            collab.load_scorer(path, len(CATALOG))

    check()


def test_accepted_report_answers_every_metric(tmp_path_factory):
    """A report read_report accepts has every metric metric_names builds
    from its K set, so report and improve2lv can look each one up."""
    path = tmp_path_factory.mktemp("report") / "report.tsv"
    accepted = []

    @settings(max_examples=200, deadline=None)
    @given(report_text)
    def check(data):
        path.write_bytes(data)
        try:
            report = metrics.read_report(path)
        except DataError:
            return
        accepted.append(report)
        for name in metrics.metric_names(report.ks):
            assert math.isfinite(report.metric(name))

    check()
    assert accepted  # the strategy reaches well-formed reports
