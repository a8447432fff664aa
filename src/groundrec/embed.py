"""Item embedding storage and the text-embedding provider.

One provider ships: HashEmbedder, a deterministic hashed bag-of-tokens
embedder that keeps the pipeline self-contained. Vectors made elsewhere come
in through the TSV loader, which reads a matrix and embeds no text. Vectors
are not length-normalized unless asked.

File formats:
  TSV    item_id \\t v0 \\t v1 ...
  binary magic b"GREC", u32 dim (little-endian), then dim f32 per item in
         canonical catalog order.

Every matrix is a ground.EmbeddingMatrix, whose one constructor decides its
form when it is made: the sparse plan that l2_distances ranks from (the
entries with a bit set, grouped by column), or the dense array.
embed_catalog makes the rows ground.L2_BLOCK at a time in one buffer
(--normalize divides each block in place), and the GREC reader reads them
the same way; each block goes into the plan. The TSV reader fills one
float32 array and hands it to EmbeddingMatrix.of. Where the plan takes
every row, the matrix is held as the plan alone: about 10 bytes per nonzero
(a row id, 2 bytes up to 65,536 rows, and a float64 value) and 8 per row,
against 4 per entry of the dense array (0.96 MB against 20 MB for 20k
four-token titles hash-embedded at dim 256), and a negative zero keeps its
sign. The plan refuses a non-finite value and a grid too fine for the rows'
sums of squares; the rows are then made or read a second time into one
dense float32 array (the TSV reader's own array is kept as it is), and
only that array is held. Both writers write a plan a block at a time and a
dense array whole, with the same bytes either way. Finiteness is checked
where the matrix is built: by the plan on the kept entries, and on a dense
array ground.L2_BLOCK rows at a time, so no full-size bool array is made.

Token slots are hashed with BLAKE2b from CPython's built-in _blake2, the
class hashlib.blake2b re-exports, so embedding loads no OpenSSL.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from _blake2 import blake2b  # what hashlib.blake2b is, without OpenSSL

from .errors import DataError, open_input, rows
from .ground import L2_BLOCK, EmbeddingMatrix
from .ingest import ItemCatalog
from .text import tokenize

MAGIC = b"GREC"


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
    digest = blake2b(f"{seed}\x00{tok}".encode(), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    return (h >> 1) % dim, 1.0 if h & 1 else -1.0


def embed_catalog(catalog: ItemCatalog, provider, normalize=False) -> EmbeddingMatrix:
    """The matrix of the provider's vector of each catalog title, made
    L2_BLOCK rows at a time in one buffer; normalize divides each row by its
    L2 norm in place. The first row sets the dim. Where the plan refuses the
    rows, the provider is asked for each row again, into the dense array."""
    ids = catalog.ids

    def row(item_id):
        try:
            return np.asarray(provider.embed(catalog.title(item_id)), dtype=np.float32)
        except Exception as e:
            raise DataError(f"embedding provider failed on item {item_id!r}: {e}") from e

    def blocks():
        buf = np.empty((min(len(ids), L2_BLOCK), dim), dtype=np.float32)
        for s in range(0, len(ids), L2_BLOCK):
            block = buf[:min(L2_BLOCK, len(ids) - s)]
            for i, item_id in enumerate(ids[s:s + L2_BLOCK]):
                block[i] = row(item_id)
            if normalize:
                norms = np.linalg.norm(block, axis=1, keepdims=True)
                np.divide(block, norms, out=block, where=norms > 0)
            yield block

    dim = row(ids[0]).size
    return EmbeddingMatrix(dim, len(ids), blocks)


def load_embeddings_tsv(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    """The matrix of an embeddings TSV, each row written into its canonical
    place as it is read; the first row sets the dim. Where the plan takes
    every row, only the plan is kept; else this one array, uncopied."""
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
    return EmbeddingMatrix.of(matrix)


def load_embeddings_bin(path, catalog: ItemCatalog) -> EmbeddingMatrix:
    """The matrix of a GREC file, read L2_BLOCK rows at a time into one
    buffer once the body is known to hold exactly one row per catalog item."""
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

        def blocks():
            fh.seek(len(header))
            buf = np.empty((min(n, L2_BLOCK), dim), dtype="<f4")
            for s in range(0, n, L2_BLOCK):
                block = buf[:min(L2_BLOCK, n - s)]
                if fh.readinto(block) != block.nbytes:
                    raise DataError(f"embedding file {path} changed while it was read")
                yield block

        return EmbeddingMatrix(dim, n, blocks, path)


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
        for block in matrix.row_blocks():
            np.ascontiguousarray(block, dtype="<f4").tofile(fh)


def save_embeddings_tsv(path, matrix: EmbeddingMatrix, catalog: ItemCatalog):
    each_row = (row for block in matrix.row_blocks() for row in block)
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, row in zip(catalog.ids, each_row):
            vals = "\t".join(repr(float(v)) for v in row)
            fh.write(f"{item_id}\t{vals}\n")
