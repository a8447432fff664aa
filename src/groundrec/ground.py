"""The grounding kernel: L2 distances from an oracle vector to every catalog
item, min-max normalization, reweighting by a per-item weight raised to gamma,
and full-catalog ranking. Also the BM25 alternative grounding strategy.

Reweighting divides the normalized distance by (1 + w)^gamma with w in [0,1],
so higher-weight items get smaller adjusted distances and better ranks.
Numerics: with w <= 1 the divisor is at most 2^gamma, so over the documented
gamma grid (<= 100) the smallest adjusted distance is ~1e-31 -- far above the
double underflow threshold (gamma would need to exceed ~1000 to underflow).
Direct division therefore stays exact and order-preserving; no log-space
fallback is needed.

The ranking kernels are exact. l2_distances has two paths that give the
same bits wherever both may run:

- dense: rows are taken a block at a time and differenced from the query,
  the per-item float operations of the one-shot formula
  sqrt(sum((v - q)^2));
- sparse: from the nonzeros of the matrix, grouped by column, and those of
  the query, d2 = sum(v^2) + sum(q^2) - sum_d 2 q_d v_d, with the terms
  2 q_d v_d subtracted one nonzero query column d at a time; then sqrt(d2).

The sparse path runs only when both inputs are finite and, with e the
smallest exponent >= 0 such that every entry of the matrix and of the query
is an integer multiple of 2^-e (the grid exponent; hash embeddings of titles
with 1, 2, 4, 8 or 16 tokens have e <= 4),

    2^(2e) * 2 * (max over rows of sum(v^2) + sum(q^2)) < 2^52,  and 2e <= 1074.

Why that makes it exact: every entry is a multiple of u = 2^-e, so every
difference, square, product and partial sum in either formula is an integer
multiple of u^2 = 2^-2e (representable while 2e <= 1074). In magnitude each
is at most 2 (sum(v^2) + sum(q^2)): |v - q|^2 <= 2 (v^2 + q^2), and
|2 q_d v_d| <= q_d^2 + v_d^2, so a sum of any of the terms 2 q_d v_d is at
most sum(v^2) + sum(q^2). So each is a multiple of u^2 below 2^52 u^2 <
2^53 u^2, which a float64 holds exactly; every float64 operation is then
exact, in any order and with or without FMA, and both formulas give the
exact squared distance, the same double, and the same sqrt. The check itself
is conservative: a sum of squares that rounded would already be >= 2^53 u^2,
so the computed bound fails too. Everything else takes the dense path, which
is correct for every input: non-finite values, and values whose grid is too
fine for the bound, such as k/3 entries (float32 1/3 needs e = 25) or
imported TSV embeddings. No GEMM or BLAS call is made: its rounding would
reorder near-ties on off-grid inputs, and BLAS threads slowed it.

The plan of the sparse path is built once per catalog matrix, by the one
constructor of EmbeddingMatrix, when the matrix is made: embed.embed_catalog
and the GREC reader give it the rows a block at a time as they make or read
them, and the TSV reader its array (EmbeddingMatrix.of). Where the plan
takes every row it is the only form of the matrix kept, bit for bit,
negative zeros included: the dense array is rebuilt from it only for a query
off its grid. A matrix whose rows the plan refuses is held as its dense
array alone, and every query on it takes the dense path.

A query is one float64 array: exclude writes +inf at every excluded item,
which marks exactly those items, as distances and BM25 scores are finite;
+inf divided by (1 + w)^gamma stays +inf, neither below nor equal to any
finite value. A target's rank is found by counting the items that sort
before it, with no sort; a top-k list sorts only the items at or below the
k-th smallest value; BM25 adds each query term's contribution through its
posting list in query order, exactly as a per-document loop would.

These are the kernels only. harness.Pipeline composes them into the one
grounding path that the ground, eval and tune-gamma commands share; the CLI
requires gamma to be a finite number >= 0 before it reaches inject.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import ItemCatalog
from .pop import minmax
from .text import TITLE_END, TermColumn, tokenize

L2_BLOCK = 512  # rows per float64 block in l2_distances


@dataclass
class RankedList:
    indices: np.ndarray  # best first, excluded items absent
    values: np.ndarray  # adjusted distance (l2) or negated score (bm25)

    def position(self, item_idx):
        """1-based rank of an item; raises if excluded."""
        where = np.nonzero(self.indices == item_idx)[0]
        if where.size == 0:
            raise DataError(f"item index {item_idx} is not in the ranked list")
        return int(where[0]) + 1


def l2_distances(matrix, oracle) -> np.ndarray:
    """Euclidean distance from the oracle to every row of the catalog matrix
    (an EmbeddingMatrix), in float64.

    The sparse path runs where it is exact (see the module docstring), from
    the matrix's plan (EmbeddingMatrix.distances). Where that refuses the
    query, the dense path runs: rows of matrix.vectors are taken L2_BLOCK at
    a time, each block widened to float64 and differenced into one reused
    buffer, so no full-size copy of the matrix is made. Both give the bits of the
    one-shot formula sqrt(sum((row.astype(float64) - oracle) ** 2)).
    """
    oracle = np.asarray(oracle, dtype=np.float64)
    dim = matrix.dim
    if dim != oracle.shape[0]:
        raise DataError(f"dim mismatch: matrix dim {dim}, oracle dim {oracle.shape[0]}")
    out = matrix.distances(oracle)
    if out is not None:
        return out
    vectors = matrix.vectors
    n = vectors.shape[0]
    out = np.empty(n, dtype=np.float64)
    buf = np.empty((min(n, L2_BLOCK), dim), dtype=np.float64)
    for s in range(0, n, L2_BLOCK):
        e = min(s + L2_BLOCK, n)
        diff = buf[: e - s]
        np.subtract(vectors[s:e], oracle, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=out[s:e])
    return np.sqrt(out, out=out)


def grid_exponent(values) -> int:
    """The smallest e >= 0 such that every value is an integer multiple of
    2^-e; values are finite float64."""
    nonzero = values[values != 0]
    if nonzero.size == 0:
        return 0
    mant, exp = np.frexp(nonzero)  # value = mant * 2^exp, 0.5 <= |mant| < 1
    ints = np.ldexp(np.abs(mant), 53).astype(np.int64)  # value = ints * 2^(exp-53)
    _, low = np.frexp((ints & -ints).astype(np.float64))  # lowest set bit 2^(low-1)
    return max(0, int((54 - exp - low).max()))


def _within_bound(e, sum_sq) -> bool:
    """The sparse path's precondition: 2^(2e) * 2 * sum_sq < 2^52, and the
    squared grid step 2^-2e is a representable double."""
    return 2 * e <= 1074 and sum_sq < math.ldexp(1.0, 51 - 2 * e)


class EmbeddingMatrix:
    """The |I| x dim catalog matrix, rows in canonical order, in the one form
    decided when it is made.

    Where the rows alone meet the sparse path's precondition (every entry
    finite, a grid coarse enough for the rows' sums of squares), the matrix
    is held as that path's plan: its entries with a bit set (a negative zero
    among them) grouped by column (column d's row ids and float64 values are
    rows[starts[d]:starts[d+1]] and vals[...]), each row's sum of squares sq,
    their maximum max_sq and the grid exponent grid. Row ids take the
    smallest unsigned type that holds n - 1, column ids that of dim - 1. The
    plan holds the matrix bit for bit: row_blocks() gives it back, and a kept
    negative zero adds +0.0 to its row's sq and leaves every d2 as it is, so
    no distance moves. A plan-held matrix makes its array the first time
    .vectors is read (a query off the plan's grid), once, under a lock that
    threads sharing the matrix share (no command starts one).

    Else rows is None and the matrix is one dense array, whose finiteness is
    checked a block at a time as it is filled, so no full-size bool array is
    made. The matrix must not change after it is made.
    """

    def __init__(self, dim, n, blocks, source=None, array=None):
        """The n x dim matrix whose rows blocks() yields in order, L2_BLOCK
        at a time (one reused buffer may hold them all). The plan is built
        from one blocks(), and stops at the first block that breaks the
        precondition, keeping nothing; the dense array is then array, if
        given (blocks() must yield its slices), else a float32 array filled
        from a second blocks(). A non-finite value is a DataError naming
        source, if given."""
        self.dim, self.dtype, self.grid, self.max_sq = dim, np.float32, 0, 0.0
        self.rows = self._vectors = None
        self._lock = threading.Lock()
        parts = self._parts(dim, n, blocks())
        if parts is None:
            vectors = np.empty((n, dim), np.float32) if array is None else array
            for s, block in zip(range(0, n, L2_BLOCK), blocks()):
                if not np.isfinite(block).all():
                    raise DataError(f"non-finite embedding value in {source}" if source
                                    else "embedding matrix contains non-finite values")
                if array is None:
                    vectors[s:s + len(block)] = block
            self._vectors = vectors
            return
        rows, cols, vals, sq = parts  # each list of parts is freed once joined
        del parts
        cols = np.concatenate(cols)
        order = np.argsort(cols, kind="stable")  # column-major, rows ascending
        self.starts = [0, *np.cumsum(np.bincount(cols, minlength=dim)).tolist()]
        del cols
        self.rows = np.concatenate(rows)[order]
        del rows
        self.vals = np.concatenate(vals)[order]
        del vals
        self.sq = np.concatenate(sq)

    @classmethod
    def of(cls, array):
        """The matrix of a 2-D array, held as the array itself where the
        plan refuses its rows."""
        n = len(array)
        return cls(array.shape[1], n,
                   lambda: (array[s:s + L2_BLOCK] for s in range(0, n, L2_BLOCK)),
                   array=array)

    def _parts(self, dim, n, blocks):
        """Lists of each block's kept row ids, column ids and float64 values
        and of its rows' sums of squares, with dtype, grid and max_sq set;
        None at the first block that breaks the precondition."""
        # the narrowest id types: columns are radix-sorted by a stable argsort
        row_type, col_type = np.min_scalar_type(n - 1), np.min_scalar_type(dim - 1)
        kept = ([np.empty(0, row_type)], [np.empty(0, col_type)], [np.empty(0)], [np.empty(0)])
        at = 0
        for block in blocks:
            self.dtype = block.dtype
            bits = block.view(f"u{block.itemsize}")  # a negative zero is kept too
            rows, cols = np.divmod(np.flatnonzero(bits), dim)
            vals = block[rows, cols].astype(np.float64)
            if not np.isfinite(vals).all():
                return None
            self.grid = max(self.grid, grid_exponent(vals))
            with np.errstate(over="ignore"):  # an infinite square fails the bound
                sq = np.bincount(rows, weights=vals * vals, minlength=block.shape[0])
            self.max_sq = max(self.max_sq, float(sq.max()))
            if not _within_bound(self.grid, self.max_sq):
                return None
            rows += at
            for part, got in zip(kept, (rows.astype(row_type), cols.astype(col_type), vals, sq)):
                part.append(got)
            at += block.shape[0]
        return kept

    def block_entries(self):
        """Each L2_BLOCK of rows as (its first row, and its kept entries'
        rows within the block, columns and float64 values). A column's rows
        ascend, so a block's entries in it are one run of the column, found
        by a binary search."""
        n = self.sq.size
        edges = [*range(0, n, L2_BLOCK), n]
        at = np.empty((self.dim, len(edges)), np.intp)
        for d, (lo, hi) in enumerate(zip(self.starts, self.starts[1:])):
            # the first of column d's entries whose row is >= each edge
            at[d] = np.searchsorted(self.rows[lo:hi], edges)
            at[d] += lo
        cols = np.arange(self.dim)
        for i, s in enumerate(edges[:-1]):
            lo, runs = at[:, i], at[:, i + 1] - at[:, i]
            ends = np.cumsum(runs)
            take = np.arange(ends[-1]) + np.repeat(lo - (ends - runs), runs)
            yield s, self.rows[take] - s, np.repeat(cols, runs), self.vals[take]

    @property
    def vectors(self) -> np.ndarray:
        """The |I| x dim array."""
        with self._lock:
            if self._vectors is None:
                out = np.zeros((self.sq.size, self.dim), self.dtype)
                for s, rows, cols, vals in self.block_entries():
                    out[s + rows, cols] = vals
                self._vectors = out
            return self._vectors

    def row_blocks(self):
        """The rows in order: the dense array whole where it is held, else
        the plan's L2_BLOCK rows at a time in one reused buffer, without the
        whole array."""
        if self._vectors is not None:
            yield self._vectors
            return
        n = self.sq.size
        buf = np.zeros((min(n, L2_BLOCK), self.dim), dtype=self.dtype)
        for s, rows, cols, vals in self.block_entries():
            block = buf[:min(L2_BLOCK, n - s)]
            block[rows, cols] = vals
            yield block
            block[rows, cols] = 0

    def distances(self, oracle):
        """The distances from oracle (float64) to every row, or None where the
        exactness precondition does not hold and the dense path must run."""
        if self.rows is None:
            return None
        q_cols = np.flatnonzero(oracle)
        q_vals = oracle[q_cols]
        if not np.isfinite(q_vals).all():
            return None
        e = max(self.grid, grid_exponent(q_vals))
        with np.errstate(over="ignore"):
            q_sq = float(np.sum(q_vals * q_vals))
        if not _within_bound(e, self.max_sq + q_sq):
            return None
        d2 = self.sq + q_sq
        for d, q in zip(q_cols.tolist(), q_vals.tolist()):
            lo, hi = self.starts[d], self.starts[d + 1]
            rows = self.rows[lo:hi].astype(np.intp)  # widened once, not at each index
            d2[rows] -= (2.0 * q) * self.vals[lo:hi]  # rows unique per column
        return np.sqrt(d2, out=d2)


def normalize_distances(raw) -> np.ndarray:
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        raise DataError("cannot normalize an empty distance vector")
    if not np.isfinite(raw).all():
        raise DataError("non-finite raw distance")
    return minmax(raw)


def check_weights(normalized, weights):
    """Both as float64 arrays; DataError unless the weights match the
    distances in length and lie in [0,1]."""
    normalized = np.asarray(normalized, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != normalized.shape:
        raise DataError("weights and normalized distances differ in length")
    if not np.isfinite(weights).all() or weights.min() < 0 or weights.max() > 1:
        raise DataError("injection weights must lie in [0,1]; normalize the score source")
    return normalized, weights


def inject(normalized, weights, gamma) -> np.ndarray:
    """adjusted_i = normalized_i / (1 + w_i)^gamma, w in [0,1], gamma >= 0."""
    normalized, weights = check_weights(normalized, weights)
    return normalized / (1.0 + weights) ** gamma  # at gamma 0 a copy: x / 1.0 == x


def exclude(values, exclusions) -> np.ndarray:
    """values (float64, finite) with +inf written, in place, at every excluded
    canonical index; an index out of range is a DataError, and writes nothing."""
    idx = np.fromiter(exclusions, dtype=np.int64, count=len(exclusions))
    bad = idx[(idx < 0) | (idx >= values.shape[0])]
    if bad.size:
        raise DataError(f"exclusion index {bad[0]} out of range")
    values[idx] = np.inf
    return values


def _ranked(values, k) -> RankedList:
    """Finite items by (value, canonical index) ascending; the first k if given.

    With k, np.partition finds the k-th smallest value and only the items at
    or below it are sorted, so a tie group straddling k stays whole and is cut
    by index exactly as the full sort would cut it.
    """
    candidates = np.flatnonzero(np.isfinite(values))
    if candidates.size == 0:
        raise DataError("all items excluded; nothing to rank")
    vals = values[candidates]
    if k is not None and k < candidates.size:
        if k <= 0:
            return RankedList(indices=candidates[:0], values=vals[:0])
        kth = np.partition(vals, k - 1)[k - 1]
        within = vals <= kth
        candidates = candidates[within]
        vals = vals[within]
    order = np.lexsort((candidates, vals))[:k]  # value asc, canonical index asc
    return RankedList(indices=candidates[order], values=vals[order])


def rank(adjusted, exclusions=frozenset(), k=None) -> RankedList:
    """Rank by adjusted distance ascending, ties by canonical index; the
    whole list, or its first k entries. adjusted is copied, not written."""
    return _ranked(exclude(np.array(adjusted, dtype=np.float64), exclusions), k)


def target_position(values, target) -> int:
    """1-based rank of target among the finite items, found by counting.

    Equal to rank(adjusted, excluded).position(target) for values =
    exclude(adjusted, excluded): the items with a smaller value, plus those
    with an equal value and a smaller canonical index, come before it; an
    excluded item's +inf is neither. Values must not be NaN, which
    normalize_distances guarantees.
    """
    at = values[target]
    if not np.isfinite(at):
        raise DataError(f"item index {target} is not in the ranked list")
    before = np.count_nonzero(values < at)
    before += np.count_nonzero(values[:target] == at)
    return int(before) + 1


class BM25Index:
    """Okapi BM25 over catalog titles, read from their text.TermColumn.

    Stored as posting lists by term id (vocab, the column's text.Terms, maps
    a token to its id): with lo, hi = offsets[i], offsets[i + 1], term i's
    doc indices (int32, ascending) are post_docs[lo:hi] and its term
    frequencies (float64) post_tf[lo:hi], and its idf is idf[i]. norm holds
    each doc's k1*(1 - b + b*dl/avgdl).
    """

    def __init__(self, catalog: ItemCatalog, k1=1.5, b=0.75):
        self.k1 = k1
        self.b = b
        column = TermColumn(catalog.titles())
        self.vocab = column.terms
        ids = np.frombuffer(column.tokens, dtype=np.intc)
        ends = np.flatnonzero(ids == TITLE_END)
        self.n_docs = len(ends)
        lens = np.diff(ends, prepend=-1) - 1
        self.doc_lens = lens.astype(np.float64)
        self.avgdl = float(self.doc_lens.mean()) if self.n_docs else 0.0
        # each token's term and doc, term-major with docs ascending; a run
        # of one (term, doc) pair is one posting
        terms = ids[ids != TITLE_END]
        order = np.argsort(terms, kind="stable")
        terms = terms[order]
        docs = np.repeat(np.arange(self.n_docs, dtype=np.intc), lens)[order]
        del ids, order
        first = np.flatnonzero((np.diff(terms, prepend=-1) != 0)
                               | (np.diff(docs, prepend=-1) != 0))
        self.post_docs = docs[first]
        self.post_tf = np.diff(first, append=terms.size).astype(np.float64)
        df = np.bincount(terms[first], minlength=len(column.terms))
        self.offsets = np.concatenate(([0], np.cumsum(df)))
        # non-negative idf variant: ln(1 + (N - df + 0.5)/(df + 0.5))
        self.idf = np.array([math.log(1.0 + (self.n_docs - d + 0.5) / (d + 0.5))
                             for d in df.tolist()])
        if self.avgdl > 0:
            self.norm = k1 * (1.0 - b + b * self.doc_lens / self.avgdl)
        else:  # no tokens anywhere: no term can match, so norm is never read
            self.norm = np.zeros(self.n_docs, dtype=np.float64)

    def scores(self, query_tokens) -> np.ndarray:
        """Per-doc score: the terms' contributions added in query-token order,
        a repeated term once per occurrence."""
        scores = np.zeros(self.n_docs, dtype=np.float64)
        for t in query_tokens:
            i = self.vocab.get(t)
            if i is None:
                continue
            lo, hi = self.offsets[i], self.offsets[i + 1]
            docs = self.post_docs[lo:hi]
            f = self.post_tf[lo:hi]
            scores[docs] += self.idf[i] * f * (self.k1 + 1.0) / (f + self.norm[docs])
        return scores


def bm25_rank(query_tokens, index: BM25Index, exclusions=frozenset(), k=None) -> RankedList:
    """Rank catalog items by BM25 score descending, ties by canonical index;
    the whole list, or its first k entries.

    Zero-score items share the tie-break and thus land after all positive-score
    items, in canonical index order.
    """
    if isinstance(query_tokens, str):
        query_tokens = tokenize(query_tokens)
    query_tokens = list(query_tokens)
    if not query_tokens:
        warnings.warn("empty BM25 query after tokenization; ranking by index order")
    # descending score == ascending value; -scores is a fresh array
    return _ranked(exclude(-index.scores(query_tokens), exclusions), k)
