"""Span tracing of groundrec from outside the library, and span statistics.

Run as a script, this module replaces the groundrec CLI for one command:

    python3 perfbench/spans.py SPANS_JSON -- <groundrec arguments>

It wraps the public functions listed in FUNCTIONS and METHODS in every
groundrec module namespace that holds them (``cli``, ``harness`` and ``tune``
import the ``ground`` kernels by name), runs ``groundrec.cli.main`` and writes
the recorded spans to SPANS_JSON when the command ends. Spans are kept in
memory while the command runs. Nothing under ``src/`` is changed.

A span is ``[name, start_ns, end_ns, id, parent_id, thread, sample, count]``.
Times come from CLOCK_MONOTONIC, which every process on the machine shares,
so the benchmark can relate them to the moment it started the command.
``sample`` is "user@timestamp" for spans made while a sample is processed;
``count`` is the span's work counter (see the *_count helpers), or None.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

# Spans that start the per-sample part of a command. A command's set-up time
# runs from its start to the first of them.
PER_SAMPLE = ("generate.generate", "harness.sample",
              "harness.Pipeline.normalized_distances", "ground.bm25_rank",
              "embed.hash_embed")


def _sample_id(sample):
    return f"{sample.user_id}@{sample.target_timestamp}"


def _l2_bytes(args, result):
    """Bytes the diff-based distance formula reads and writes, computed from
    the array shapes: the matrix, its float64 copy (written, read), the
    difference (written, read twice by the einsum) and the distances."""
    matrix = args[0]
    vectors = matrix.vectors if hasattr(matrix, "vectors") else matrix
    n, d = vectors.shape
    return n * d * (vectors.itemsize + 5 * 8) + 3 * 8 * n


def _rank_items(args, result):
    return int(result.indices.size)


def _path_bytes(args, result):
    return os.path.getsize(args[0])


def _rows(args, result):
    return len(result)


# (span name, module, attribute, sample argument index, counter)
FUNCTIONS = [
    ("ingest.parse_interactions", "ingest", "parse_interactions", None, None),
    ("ingest.build_samples", "ingest", "build_samples", None, None),
    ("ingest.write_samples", "ingest", "write_samples", None, _path_bytes),
    ("ingest.read_samples", "ingest", "read_samples", None, _rows),
    ("pop.compute_popularity", "pop", "compute_popularity", None, None),
    ("embed.load_embeddings", "embed", "load_embeddings", None, None),
    ("embed.embed_catalog", "embed", "embed_catalog", None, None),
    ("embed.hash_embed", "embed", "hash_embed", None, None),
    ("generate.train_ngram", "generate", "train_ngram", None, None),
    ("ground.l2_distances", "ground", "l2_distances", None, _l2_bytes),
    ("ground.normalize_distances", "ground", "normalize_distances", None, None),
    ("ground.inject", "ground", "inject", None, None),
    ("ground.rank", "ground", "rank", None, _rank_items),
    ("ground.bm25_rank", "ground", "bm25_rank", None, None),
    ("collab.fit_cooccurrence", "collab", "fit_cooccurrence", None, None),
    ("collab.score", "collab", "score", 1, None),
    ("harness.evaluate", "harness", "evaluate", None, None),
    ("harness.sample", "harness", "_target_position", 1, None),
    ("tune.tune_gamma", "tune", "tune_gamma", None, None),
    ("manifest.sha256_file", "manifest", "sha256_file", None, _path_bytes),
]

# (span name, module, class, method, sample argument index); args[0] is self
METHODS = [
    ("generate.generate", "generate", "NGramGenerator", "generate", 1),
    ("ground.RankedList.position", "ground", "RankedList", "position", None),
    ("ground.BM25Index", "ground", "BM25Index", "__init__", None),
    ("harness.Pipeline.exclusions", "harness", "Pipeline", "exclusions", 1),
    ("harness.Pipeline.normalized_distances", "harness", "Pipeline",
     "normalized_distances", 1),
]

MODULES = ("cli", "collab", "embed", "generate", "ground", "harness", "ingest",
           "manifest", "pop", "tune")

# Catalog embedding is timed as embed.embed_catalog; embed.hash_embed times
# query embedding only.
NOT_UNDER = {"embed.hash_embed": "embed.embed_catalog"}


class Recorder:
    """Keeps spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, sample_arg=None, counter=None):
        skip_under = NOT_UNDER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if skip_under and stack and stack[-1][1] == skip_under:
                return fn(*args, **kwargs)
            # a worker thread's outermost span belongs to the span open on
            # the main thread, which submitted the work
            outer = stack or self._main
            parent = outer[-1][0] if outer else 0
            if sample_arg is not None:
                sample = _sample_id(args[sample_arg])
            else:
                sample = stack[-1][2] if stack else None
            span_id = next(self._ids)
            stack.append((span_id, name, sample))
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            count = counter(args, result) if counter else None
            self.spans.append([name, start, end, span_id, parent,
                               threading.get_ident(), sample, count])
            return result

        return traced

    def install(self):
        import importlib

        mods = {m: importlib.import_module(f"groundrec.{m}") for m in MODULES}
        for name, mod, attr, sample_arg, counter in FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapped = self.wrap(name, original, sample_arg, counter)
            for module in mods.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, mod, cls, attr, sample_arg in METHODS:
            klass = getattr(mods[mod], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr), sample_arg))
        return mods["cli"]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# --- statistics over spans ---------------------------------------------------

TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)


def tail(durations):
    """(level, value): the highest of TAIL_LEVELS with at least ten samples
    at or above it; the median when there are fewer than twenty samples."""
    ordered = sorted(durations)
    n = len(ordered)
    for level in TAIL_LEVELS:
        if n * (1.0 - level) >= 10:
            return level, ordered[min(n - 1, int(level * n))]
    return 0.5, statistics.median(ordered)


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of intervals."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[1], s[2]))
    return {s[3]: (s[2] - s[1]) - covered(s[1], s[2], children.get(s[3], ()))
            for s in spans}


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py SPANS_JSON -- <groundrec arguments>", file=sys.stderr)
        return 1
    recorder = Recorder()
    cli = recorder.install()
    try:
        return cli.main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
