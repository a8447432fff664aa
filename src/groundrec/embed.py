"""Item embedding storage and pluggable text-embedding providers.

Two providers ship: a file-backed one (import vectors produced elsewhere) and
a deterministic hashed bag-of-tokens embedder that keeps the pipeline
self-contained. Vectors are not length-normalized unless asked.

File formats:
  TSV    item_id \\t v0 \\t v1 ...
  binary magic b"GREC", u32 dim (little-endian), then dim f32 per item in
         canonical catalog order.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, open_input
from .ground import SparseL2Plan
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
        if not np.isfinite(self.vectors).all():
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
    rows = []
    for item_id in catalog.ids:
        try:
            rows.append(np.asarray(provider.embed(catalog.title(item_id)), dtype=np.float32))
        except Exception as e:
            raise DataError(f"embedding provider failed on item {item_id!r}: {e}") from e
    matrix = np.vstack(rows)
    if normalize:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix = np.divide(matrix, norms, out=matrix.copy(), where=norms > 0)
    return EmbeddingMatrix(dim=matrix.shape[1], vectors=matrix)


def load_embeddings_tsv(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    seen: dict[str, np.ndarray] = {}
    dim = None
    with open_input(path, "embedding") as fh:
        for lineno, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            item_id = parts[0]
            if item_id in seen:
                raise DataError(f"duplicate embedding row for item {item_id!r}")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError as e:
                raise DataError(f"bad embedding value at line {lineno + 1}: {e}") from e
            if not np.isfinite(vec).all():
                raise DataError(f"non-finite embedding value for item {item_id!r}")
            if dim is None:
                dim = len(vec)
                if dim < 1:
                    raise DataError(f"empty embedding row at line {lineno + 1}")
            elif len(vec) != dim:
                raise DataError(
                    f"dim mismatch for item {item_id!r}: expected {dim}, got {len(vec)}"
                )
            seen[item_id] = vec
    missing = [i for i in catalog.ids if i not in seen]
    if missing:
        shown = ", ".join(missing[:10])
        raise DataError(f"{len(missing)} catalog items missing embeddings: {shown}")
    matrix = np.vstack([seen[i] for i in catalog.ids])
    return EmbeddingMatrix(dim=dim, vectors=matrix)


def load_embeddings_bin(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    with open_input(path, "embedding", "rb") as fh:
        header = fh.read(8)
        if len(header) < 8 or header[:4] != MAGIC:
            raise DataError(f"{path} is not a GREC embedding file")
        (dim,) = struct.unpack("<I", header[4:])
        if dim < 1:
            raise DataError(f"bad embedding dim {dim} in {path}")
        body = fh.read()
    n = len(catalog)
    if len(body) != 4 * n * dim:
        raise DataError(
            f"{path} holds {len(body)} bytes of floats, expected {n}x{dim} f32 "
            "for this catalog"
        )
    matrix = np.frombuffer(body, dtype="<f4").reshape(n, dim).astype(np.float32)
    if not np.isfinite(matrix).all():
        raise DataError(f"non-finite embedding value in {path}")
    return EmbeddingMatrix(dim=dim, vectors=matrix)


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
        fh.write(np.ascontiguousarray(matrix.vectors, dtype="<f4").tobytes())


def save_embeddings_tsv(path, matrix: EmbeddingMatrix, catalog: ItemCatalog):
    with open(path, "w", encoding="utf-8") as fh:
        for i, item_id in enumerate(catalog.ids):
            vals = "\t".join(repr(float(v)) for v in matrix.vectors[i])
            fh.write(f"{item_id}\t{vals}\n")
