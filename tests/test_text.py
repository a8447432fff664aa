"""The shared tokenizer: runs of letters and digits of any script, lowercased."""

import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog
from groundrec.embed import hash_embed
from groundrec.ground import BM25Index, bm25_rank
from groundrec.text import tokenize


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
