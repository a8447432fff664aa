"""Item embedding storage and pluggable text-embedding providers.

Two providers ship: a file-backed one (import vectors produced elsewhere) and
a deterministic hashed bag-of-tokens embedder that keeps the pipeline
self-contained. Vectors are not length-normalized unless asked.

File formats:
  TSV    item_id \\t v0 \\t v1 ...
  binary magic b"GREC", u32 dim (little-endian), then dim f32 per item in
         canonical catalog order.

Each matrix is held once. embed_catalog and the TSV reader write each row
into one preallocated float32 array, the GREC reader reads the body straight
into its array, --normalize divides that array in place and the GREC writer
writes it with tofile, without a bytes copy. Finiteness is checked once per
matrix, in EmbeddingMatrix, ground.L2_BLOCK rows at a time, so no full-size
bool array is made.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, open_input, rows
from .ground import L2_BLOCK, SparseL2Plan
from .ingest import ItemCatalog
from .text import tokenize

MAGIC = b"GREC"


@dataclass
class EmbeddingMatrix:
    dim: int
    vectors: np.ndarray  # |I| x dim float32, row order = canonical index
    _plan: SparseL2Plan | None = field(default=None, init=False, repr=False,
                                       compare=False)
    _plan_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

    def __post_init__(self):
        vectors = self.vectors
        for s in range(0, len(vectors), L2_BLOCK):
            if not np.isfinite(vectors[s:s + L2_BLOCK]).all():
                raise DataError("embedding matrix contains non-finite values")

    def l2_plan(self) -> SparseL2Plan:
        """The sparse L2 plan of the vectors, built on the first distance query
        (so commands that never ask for one never pay for it) and shared by
        eval's threads, which wait for the one build."""
        with self._plan_lock:
            if self._plan is None:
                self._plan = SparseL2Plan(self.vectors)
            return self._plan


class HashEmbedder:
    """Deterministic bag-of-hashed-tokens embedder.

    Each token is hashed (seeded, via blake2b) to an index and a sign; the
    vector is the mean of signed one-hots, so entries are bounded by 1.
    """

    def __init__(self, dim=256, seed=0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        # token -> (index, sign), filled on first use; a fill is idempotent,
        # so threads sharing the embedder may race on it
        self._slots: dict[str, tuple[int, float]] = {}

    def embed(self, text):
        return hash_embed(text, self.dim, self.seed, self._slots)


def hash_embed(text, dim, seed, slots=None):
    """slots, if given, memoizes token -> (index, sign) for this dim and seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    vec = np.zeros(dim, dtype=np.float32)
    tokens = tokenize(text)
    for tok in tokens:
        slot = slots.get(tok) if slots is not None else None
        if slot is None:
            slot = _token_slot(tok, dim, seed)
            if slots is not None:
                slots[tok] = slot
        idx, sign = slot
        vec[idx] += sign
    vec /= max(1, len(tokens))
    return vec


def _token_slot(tok, dim, seed):
    digest = hashlib.blake2b(f"{seed}\x00{tok}".encode(), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    return (h >> 1) % dim, 1.0 if h & 1 else -1.0


def embed_catalog(catalog: ItemCatalog, provider, normalize=False) -> EmbeddingMatrix:
    """The provider's vector of each catalog title, written into one float32
    matrix as it comes; normalize divides each row by its L2 norm in place."""
    matrix = None
    for i, item_id in enumerate(catalog.ids):
        try:
            row = np.asarray(provider.embed(catalog.title(item_id)), dtype=np.float32)
        except Exception as e:
            raise DataError(f"embedding provider failed on item {item_id!r}: {e}") from e
        if matrix is None:
            matrix = np.empty((len(catalog), row.size), dtype=np.float32)
        matrix[i] = row
    if normalize:
        for s in range(0, len(matrix), L2_BLOCK):
            block = matrix[s:s + L2_BLOCK]
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            np.divide(block, norms, out=block, where=norms > 0)
    return EmbeddingMatrix(dim=matrix.shape[1], vectors=matrix)


def load_embeddings_tsv(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    """The matrix of an embeddings TSV, each row written into its canonical
    place as it is read; the first row sets the dim."""
    matrix = None
    filled = np.zeros(len(catalog), dtype=bool)
    for lineno, parts in rows(path, "embedding"):
        item_id = parts[0]
        where = f"at line {lineno} in {path}"
        idx = catalog.index_of.get(item_id)
        if idx is None:
            raise DataError(f"embedding row for item {item_id!r} not in catalog {where}")
        if filled[idx]:
            raise DataError(f"duplicate embedding row for item {item_id!r} {where}")
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
        except ValueError as e:
            raise DataError(f"bad embedding value {where}: {e}") from e
        if not np.isfinite(vec).all():
            raise DataError(f"non-finite embedding value for item {item_id!r} {where}")
        if matrix is None:
            if len(vec) < 1:
                raise DataError(f"empty embedding row {where}")
            matrix = np.empty((len(catalog), len(vec)), dtype=np.float32)
        elif len(vec) != matrix.shape[1]:
            raise DataError(f"dim mismatch for item {item_id!r} {where}: "
                            f"expected {matrix.shape[1]}, got {len(vec)}")
        matrix[idx] = vec
        filled[idx] = True
    missing = [catalog.ids[i] for i in np.flatnonzero(~filled)]
    if missing:
        shown = ", ".join(missing[:10])
        raise DataError(f"{len(missing)} catalog items missing embeddings in {path}: "
                        f"{shown}")
    return EmbeddingMatrix(dim=matrix.shape[1], vectors=matrix)


def load_embeddings_bin(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    """The matrix of a GREC file, read from the file straight into its array
    once the body is known to hold exactly one row per catalog item."""
    n = len(catalog)
    with open_input(path, "embedding", "rb") as fh:
        header = fh.read(8)
        if len(header) < 8 or header[:4] != MAGIC:
            raise DataError(f"{path} is not a GREC embedding file")
        (dim,) = struct.unpack("<I", header[4:])
        if dim < 1:
            raise DataError(f"bad embedding dim {dim} in {path}")
        body = os.fstat(fh.fileno()).st_size - len(header)
        if body != 4 * n * dim:
            raise DataError(
                f"{path} holds {body} bytes of floats, expected {n}x{dim} f32 "
                "for this catalog"
            )
        values = np.fromfile(fh, dtype="<f4", count=n * dim)
    if values.size != n * dim:
        raise DataError(f"embedding file {path} changed while it was read")
    matrix = values.reshape(n, dim).astype(np.float32, copy=False)
    try:
        return EmbeddingMatrix(dim=dim, vectors=matrix)
    except DataError:  # the matrix's one finiteness check, named for the file
        raise DataError(f"non-finite embedding value in {path}") from None


def load_embeddings(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    """Dispatch on file content: binary magic first, else TSV."""
    with open_input(path, "embedding", "rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC:
        return load_embeddings_bin(path, catalog)
    return load_embeddings_tsv(path, catalog)


def save_embeddings_bin(path, matrix: EmbeddingMatrix):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", matrix.dim))
        np.ascontiguousarray(matrix.vectors, dtype="<f4").tofile(fh)


def save_embeddings_tsv(path, matrix: EmbeddingMatrix, catalog: ItemCatalog):
    with open(path, "w", encoding="utf-8") as fh:
        for i, item_id in enumerate(catalog.ids):
            vals = "\t".join(repr(float(v)) for v in matrix.vectors[i])
            fh.write(f"{item_id}\t{vals}\n")
