"""The benchmark's own brute force for the outputs it checks.

It reads the artifacts the CLI wrote (embedding file, training split) and
recomputes ranks without groundrec: the query is hash-embedded, distances are
the diff-based float64 L2 the ranking is defined by, normalized by min-max,
divided by (1 + w)^gamma, and every candidate is sorted in full by (adjusted
value, canonical index), after removing the items the user knew. Samples
whose target is already known (repeat consumption) are skipped.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct

import numpy as np

PAD = "<PAD>"
RECENCY = (1.0, 0.5, 0.25)
BM25_K1 = 1.5
BM25_B = 0.75
_TOKEN = re.compile(r"[0-9a-z]+")


def tokenize(text):
    return _TOKEN.findall(text.lower())


def read_catalog(path):
    """Item ids in canonical (sorted) order and id -> title."""
    titles = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            item, title = line.rstrip("\n").split("\t")[:2]
            titles[item] = title
    return sorted(titles), titles


def read_matrix(path):
    with open(path, "rb") as fh:
        magic, dim = fh.read(4), struct.unpack("<I", fh.read(4))[0]
        if magic != b"GREC":
            raise ValueError(f"{path} is not a GREC file")
        return np.frombuffer(fh.read(), dtype="<f4").reshape(-1, dim)


def read_train(path):
    """(user, item) pairs in file order, which is (timestamp, position) order."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.split("\t")[:2]) for line in fh if line.strip()]


def parse_sample(line):
    user, hist, target, ts, known = line.rstrip("\n").split("\t")
    return {"user": user, "history": hist.split(","), "target": target,
            "ts": int(ts), "known": set(known.split(",")) if known else set()}


def hash_embed(text, dim, seed):
    vec = np.zeros(dim, dtype=np.float32)
    tokens = tokenize(text)
    for tok in tokens:
        h = int.from_bytes(
            hashlib.blake2b(f"{seed}\x00{tok}".encode(), digest_size=8).digest(),
            "little")
        vec[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    vec /= max(1, len(tokens))
    return vec


def distances(matrix, query):
    diff = matrix.astype(np.float64) - np.asarray(query, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def minmax(values):
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def full_sort(values, excluded):
    """Candidate indices ordered by (value, index); values is a float list."""
    return sorted((i for i in range(len(values)) if i not in excluded),
                  key=lambda i: (values[i], i))


class Reference:
    """Everything the brute force needs about one set-up's artifacts."""

    def __init__(self, setup_dir, seed):
        self.ids, self.titles = read_catalog(setup_dir / "catalog.tsv")
        self.index = {item: i for i, item in enumerate(self.ids)}
        self.matrix = read_matrix(setup_dir / "items.emb")
        self.seed = seed
        train = read_train(setup_dir / "splits" / "train.tsv")
        counts = np.zeros(len(self.ids), dtype=np.int64)
        for _, item in train:
            counts[self.index[item]] += 1
        self.pop_weights = minmax(counts / counts.sum())
        self.transitions = {}
        last = {}
        for user, item in train:
            prev = last.get(user)
            if prev is not None:
                row = self.transitions.setdefault(self.index[prev], {})
                row[self.index[item]] = row.get(self.index[item], 0) + 1
            last[user] = item
        self._bm25 = None

    def excluded(self, sample):
        return {self.index[i] for i in sample["known"] if i in self.index}

    def weights(self, inject, sample):
        if inject == "pop":
            return self.pop_weights
        raw = np.zeros(len(self.ids), dtype=np.float64)
        recent = [h for h in sample["history"] if h != PAD][-len(RECENCY):]
        for w, item in zip(RECENCY, reversed(recent)):
            for nxt, c in self.transitions.get(self.index.get(item), {}).items():
                raw[nxt] += w * c
        return minmax(raw)

    def raw_distances(self, text):
        return distances(self.matrix, hash_embed(text, self.matrix.shape[1], self.seed))

    def l2_ranking(self, text, sample, inject=None, gamma=0.0):
        """(order, adjusted values) for one query."""
        adj = minmax(self.raw_distances(text))
        if inject and gamma > 0:
            adj = adj / (1.0 + self.weights(inject, sample)) ** gamma
        values = adj.tolist()
        return full_sort(values, self.excluded(sample)), values

    def position(self, text, sample, inject=None, gamma=0.0):
        """1-based rank of the target."""
        order, _ = self.l2_ranking(text, sample, inject, gamma)
        return order.index(self.index[sample["target"]]) + 1

    def bm25_scores(self, text):
        if self._bm25 is None:
            docs = [tokenize(self.titles[i]) for i in self.ids]
            lens = np.array([len(d) for d in docs], dtype=np.float64)
            df = {}
            tfs = []
            for doc in docs:
                tf = {}
                for t in doc:
                    tf[t] = tf.get(t, 0) + 1
                tfs.append(tf)
                for t in tf:
                    df[t] = df.get(t, 0) + 1
            n = len(docs)
            idf = {t: math.log(1.0 + (n - c + 0.5) / (c + 0.5)) for t, c in df.items()}
            self._bm25 = (tfs, lens, float(lens.mean()), idf)
        tfs, lens, avgdl, idf = self._bm25
        terms = [t for t in tokenize(text) if t in idf]
        scores = [0.0] * len(tfs)
        if not terms:
            return scores
        for i, tf in enumerate(tfs):
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * lens[i] / avgdl)
            s = 0.0
            for t in terms:
                f = tf.get(t)
                if f:
                    s += idf[t] * f * (BM25_K1 + 1.0) / (f + norm)
            scores[i] = float(s)
        return scores

    def ground_rows(self, row, text, sample, strategy, topk, inject=None, gamma=0.0):
        """The lines `groundrec ground` writes for one query."""
        if strategy == "bm25":
            values = [-s for s in self.bm25_scores(text)]
            order = full_sort(values, self.excluded(sample))
        else:
            order, values = self.l2_ranking(text, sample, inject, gamma)
        return [f"{row}\t{pos + 1}\t{self.ids[i]}\t{values[i]:.10g}\n"
                for pos, i in enumerate(order[:topk])]
