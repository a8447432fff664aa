"""Shared tokenizer (the runs of letters and digits, in any script, of the
lowercased text), and the term-id column that BM25 and the n-gram walk read
titles from.

A TermColumn holds a list of titles as one array("i") of term ids, in title
order, with TITLE_END after each title, so the token after position p is
tokens[p + 1] and a title's first token follows the TITLE_END before it.
Each distinct token is held once, in vocab (token -> id) and terms (id ->
token), numbered from 1 in order of first use; id 0 is TITLE_END, which no
token gets, and terms names it END, a string tokenize never gives. Since
the column ends with TITLE_END, so does tokens[-1]: a position p - j that
falls before the column's start reads TITLE_END, as the start of a title
would. No numpy is loaded, so the `generate` command builds a column
without it.
"""

import re
from array import array

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of letters and digits, in any script

TITLE_END = 0  # the term id after each title in a TermColumn
END = "</s>"  # its name in TermColumn.terms


def tokenize(text):
    return _TOKEN_RE.findall(text.lower())


class TermColumn:
    def __init__(self, titles):
        """The column of titles given as text (tokenized here) or as token
        sequences."""
        vocab: dict[str, int] = {}
        tokens = array("i")
        term_id, add = vocab.get, tokens.append
        for title in titles:
            for w in tokenize(title) if isinstance(title, str) else title:
                t = term_id(w)
                if t is None:
                    t = vocab[w] = len(vocab) + 1
                add(t)
            add(TITLE_END)
        self.vocab = vocab
        self.terms = [END, *vocab]  # dict order is id order
        self.tokens = tokens
