"""The shared tokenizer: runs of letters and digits of any script, lowercased;
and the terms of a TermColumn, numbered in text order."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from groundrec.embed import hash_embed
from groundrec.ground import BM25Index, bm25_rank
from groundrec.text import END, TITLE_END, TermColumn, tokenize

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def text_order_ids(titles):
    return {w: t for t, w in enumerate(sorted({w for title in titles
                                               for w in tokenize(title)}), 1)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(word, max_size=6).map(" ".join), max_size=12),
       st.lists(word | st.text(max_size=4), max_size=8))
def test_term_ids_follow_text_order(titles, absent):
    column = TermColumn(titles)
    terms, ids = column.terms, text_order_ids(titles)
    assert len(terms) == len(ids) + 1
    assert terms[TITLE_END] == END
    for w, t in ids.items():
        assert terms.get(w) == t
        assert terms[t] == w
    for w in [*absent, *WORDS, END, ""]:
        assert terms.get(w) == ids.get(w)
    assert terms.get("", 0) == 0 and terms.get(END) is None
    assert list(terms) == [END, *ids]
    assert list(column.tokens) == [t for title in titles for t in
                                   [*map(ids.__getitem__, tokenize(title)), TITLE_END]]


COLUMN_BYTES = """
import pickle, sys
from groundrec.text import TermColumn
column = TermColumn(f"{w} volume {k} {w[::-1]}" for k, w in enumerate(sys.argv[1:] * 50))
sys.stdout.write(pickle.dumps((column.tokens, vars(column.terms)), protocol=4).hex())
"""


def test_term_column_bytes_do_not_depend_on_the_hash_seed():
    """str hashes are salted per process: nothing a column holds may depend
    on them, so a column could be written to a file and read back as it is."""
    def column_bytes(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", COLUMN_BYTES, *WORDS], env=env,
                              capture_output=True, text=True, check=True).stdout

    first = column_bytes(0)
    assert first and column_bytes(1) == first
