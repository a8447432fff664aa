"""Shared tokenizer (the runs of letters and digits, in any script, of the
lowercased text), and the term-id column that BM25 and the n-gram walk read
titles from.

A TermColumn holds a list of titles as one array("i") of term ids, in title
order, with TITLE_END after each title, so the token after position p is
tokens[p + 1] and a title's first token follows the TITLE_END before it.
Each distinct token is held once, as text, in the column's Terms, numbered
from 1 in text order (the order of sorted()), so a sort of ids is a sort by
text and no id depends on the process; id 0 is TITLE_END, which no token
gets, and Terms names it END, a string tokenize never gives. Since the
column ends with TITLE_END, so does tokens[-1]: a position p - j that falls
before the column's start reads TITLE_END, as the start of a title would. No
numpy is loaded, so the `generate` command builds a column without it.
"""

import re
from array import array
from bisect import bisect_left
from itertools import count

from .ingest import Strings

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of letters and digits, in any script

TITLE_END = 0  # the term id after each title in a TermColumn
END = "</s>"  # its name in TermColumn.terms


def tokenize(text):
    return _TOKEN_RE.findall(text.lower())


class Terms(Strings):
    """The distinct terms, id -> token (terms[i]) and token -> id (get): END,
    then the tokens in text order, held as one ingest.Strings."""

    def get(self, token, default=None):
        """The id of token, or default where it is no term (END and "" are
        none)."""
        t = bisect_left(self, token, 1)
        return t if t < len(self) and self[t] == token else default


class TermColumn:
    def __init__(self, titles):
        """The column of titles given as text (tokenized here) or as token
        sequences."""
        vocab: dict[str, int] = {}  # ids in order of first use while the column is read
        tokens = array("i")
        term_id, add = vocab.get, tokens.append
        for title in titles:
            for w in tokenize(title) if isinstance(title, str) else title:
                t = term_id(w)
                if t is None:
                    t = vocab[w] = len(vocab) + 1
                add(t)
            add(TITLE_END)
        del term_id  # so that del vocab frees it
        ordered = sorted(vocab)
        vocab.update(zip(ordered, count(1)))  # renumbered in text order
        rank = [TITLE_END, *vocab.values()]  # first-use id -> text-order id
        del vocab
        for p, t in enumerate(tokens):
            tokens[p] = rank[t]
        self.terms = Terms([END, *ordered])
        self.tokens = tokens
