"""The shared tokenizer: runs of letters and digits of any script, lowercased;
and the term table of a TermColumn."""

import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from groundrec.embed import hash_embed
from groundrec.ground import BM25Index, bm25_rank
from groundrec.text import END, TITLE_END, TermColumn, Terms, tokenize


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=127)))
def test_ascii_tokens_are_lowercase_alphanumeric_runs(text):
    assert tokenize(text) == re.findall("[0-9a-z]+", text.lower())


def test_letters_of_every_script_kept_whole():
    assert tokenize("café naïve 東京 🎬 Ünï") == ["café", "naïve", "東京", "ünï"]


def test_cjk_title_hashes_to_a_nonzero_vector():
    assert hash_embed("東京 猫の歌", 8, 3).any()


def test_cjk_title_ranks_first_on_its_own_text():
    titles = ["東京 猫の歌", "大阪 犬の歌", "silent river", "café naïve"]
    catalog = make_catalog({f"i{k}": t for k, t in enumerate(titles)})
    index = BM25Index(catalog)
    for k, title in enumerate(titles):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty query would warn
            ranked = bm25_rank(title, index)
        assert ranked.indices[0] == catalog.index_of[f"i{k}"]


# words of several scripts, and tokens that are prefixes of one another
WORDS = ["a", "ab", "abc", "1", "12", "123", "café", "cafés", "naïve", "東京", "東",
         "猫の歌", "🎬", "ünï", "volume", "vol"]
word = st.sampled_from(WORDS)


def first_use_ids(titles):
    ids = {}
    for title in titles:
        for w in tokenize(title):
            ids.setdefault(w, len(ids) + 1)
    return ids


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(word, max_size=6).map(" ".join), max_size=12),
       st.lists(word | st.text(max_size=4), max_size=8))
def test_term_table_is_a_first_use_dict(titles, absent):
    column = TermColumn(titles)
    terms, ids = column.terms, first_use_ids(titles)
    assert len(terms) == len(ids) + 1
    assert terms[TITLE_END] == END
    for w, t in ids.items():
        assert terms.get(w) == t
        assert terms[t] == w
    for w in [*absent, *WORDS, END, ""]:
        assert terms.get(w) == ids.get(w)
    assert terms.get("", 0) == 0 and terms.get(END) is None
    assert list(column.tokens) == [t for title in titles for t in
                                   [*map(ids.__getitem__, tokenize(title)), TITLE_END]]


def test_probes_wrap_around_the_table_end():
    """Tokens whose first slot is the table's last: each one placed after
    it wraps to the table's start."""
    table_size = len(Terms(["x0", "x1", "x2"])._table)
    last = [w for w in (f"w{k}" for k in range(10_000))
            if hash(w) & (table_size - 1) == table_size - 1]
    placed, missing = last[:3], last[3:6]
    terms = Terms(placed)
    assert len(terms._table) == table_size
    assert [terms._table.index(t) for t in (1, 2, 3)] == [table_size - 1, 0, 1]
    assert [terms.get(w) for w in placed] == [1, 2, 3]
    assert [terms.get(w) for w in missing] == [None] * 3
    assert [terms[t] for t in range(4)] == [END, *placed]
