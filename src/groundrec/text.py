"""Shared tokenizer (the runs of letters and digits, in any script, of the
lowercased text), and the term-id column that BM25 and the n-gram walk read
titles from.

A TermColumn holds a list of titles as one array("i") of term ids, in title
order, with TITLE_END after each title, so the token after position p is
tokens[p + 1] and a title's first token follows the TITLE_END before it.
Each distinct token is held once, as text, in the column's Terms, numbered
from 1 in order of first use; id 0 is TITLE_END, which no token gets, and
Terms names it END, a string tokenize never gives. Since the column ends
with TITLE_END, so does tokens[-1]: a position p - j that falls before the
column's start reads TITLE_END, as the start of a title would. No numpy is
loaded, so the `generate` command builds a column without it.
"""

import re
from array import array
from itertools import accumulate

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of letters and digits, in any script

TITLE_END = 0  # the term id after each title in a TermColumn
END = "</s>"  # its name in TermColumn.terms


def tokenize(text):
    return _TOKEN_RE.findall(text.lower())


class Terms:
    """The distinct terms, id -> token (terms[i]) and token -> id (get),
    held as text: END and the tokens joined in id order into one string,
    `_ends` holding each one's end offset in it (in characters), and `_table`
    an open-addressed table of ids, slot hash(token) & mask first, then the
    slots after it, wrapping at the end; 0 (TITLE_END, which no token gets)
    marks an empty slot. No object per term is held.

    Built from the distinct tokens in id order (ids 1, 2, ...), given as an
    iterable that is read three times, such as a dict of token -> id.
    """

    def __init__(self, tokens):
        self._text = END + "".join(tokens)
        self._ends = array("i", accumulate(map(len, tokens), initial=len(END)))
        n = len(self._ends) - 1
        # a power of two above 1.5 n: at most 2/3 full, so a probe ends
        table = self._table = array("i", bytes(4 << (n + n // 2).bit_length()))
        mask = len(table) - 1
        for t, w in enumerate(tokens, 1):
            slot = hash(w) & mask
            while table[slot]:
                slot = (slot + 1) & mask
            table[slot] = t

    def __len__(self):
        return len(self._ends)

    def __getitem__(self, i):
        return self._text[self._ends[i - 1] if i else 0:self._ends[i]]

    def get(self, token, default=None):
        """The id of token, or default where it is no term (END and "" are
        none)."""
        text, ends, table = self._text, self._ends, self._table
        mask, size = len(table) - 1, len(token)
        slot = hash(token) & mask
        while t := table[slot]:
            end = ends[t]
            if end - ends[t - 1] == size and text.startswith(token, end - size, end):
                return t
            slot = (slot + 1) & mask
        return default


class TermColumn:
    def __init__(self, titles):
        """The column of titles given as text (tokenized here) or as token
        sequences."""
        vocab: dict[str, int] = {}  # the ids while the column is read
        tokens = array("i")
        term_id, add = vocab.get, tokens.append
        for title in titles:
            for w in tokenize(title) if isinstance(title, str) else title:
                t = term_id(w)
                if t is None:
                    t = vocab[w] = len(vocab) + 1
                add(t)
            add(TITLE_END)
        self.terms = Terms(vocab)  # dict order is id order
        self.tokens = tokens
