"""Deterministic text embeddings and cosine similarity.

The default embedder is a hashed bag-of-tokens vector: each token is hashed
to one of ``dimension`` buckets, counts are accumulated and L2-normalized.
It is dependency-free and stable across runs and processes, which makes
retrieval tests reproducible. Production deployments can plug any embedder
that satisfies the same protocol.

An embedder offers ``dimension`` and ``embed(text)``, returning a float64
unit vector, or the zero vector for a text with no tokens, so that a cosine
similarity is a dot product. ``embed_matrix``, the one helper that stacks
vectors, stacks ``embed`` results and checks them with ``check_unit_rows``,
which raises ValueError for a row of any other norm.

An embedder may also offer ``sparse_counts(texts)``: the nonzero entries of
each text's unnormalised vector, whose normalisation is ``embed(text)``, as
three parallel arrays ``(text_index, bucket, count)`` sorted by text index,
then bucket, each bucket in ``range(dimension)``. The vectors must be
additive over texts joined by a space, as a bag of tokens is, and a text's
counts must depend only on ``normalize(text)``: its case-folded form with
whitespace runs collapsed.
The graph's index for such an embedder counts each canonical and relation
of the graph in one call, on the embedder's first use of the graph, and
scores triples and resolves entities from those counts instead of
embedding every triple, a surface by its canonical's counts; for any other
it embeds them (see ``kg_store``). ``HashedEmbedder``'s counts are a
function of ``text.lower()``, and its ``\\w+`` tokens ignore whitespace.
"""
from __future__ import annotations

import hashlib
import re
import threading
from array import array
from typing import Protocol, Sequence

import numpy as np

DEFAULT_DIMENSION = 256

# A vectorised score may differ from ``cosine_sim``'s by a few ulps, because
# its sums run in another order; far less than this. Callers that rank or
# threshold vectorised scores re-score with ``cosine_sim`` every row this
# close to the boundary, so the exact result is always among them.
RESCORE_TOLERANCE = 1e-9

# The farthest from 1 that ``check_unit_rows`` lets a non-zero norm lie.
UNIT_NORM_TOLERANCE = 1e-6

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


class Embedder(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two unit-or-zero vectors: their dot product,
    clipped to [-1, 1]; a zero vector scores 0."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return max(-1.0, min(1.0, float(np.dot(u, v))))


def check_unit_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, once each row is checked to be a unit or zero vector; a dot
    product of other rows is no cosine, so it raises ValueError otherwise."""
    # einsum avoids the n x dim temporary that np.linalg.norm(axis=1) makes.
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    bad = np.flatnonzero(~((norms == 0.0) | (np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE)))
    if bad.size:
        raise ValueError(
            "embedder contract: vectors must have norm 1 or 0, "
            f"got norm {norms[bad[0]]!r} in row {bad[0]}"
        )
    return matrix


def embed_matrix(embedder: Embedder, texts: Sequence[str]) -> np.ndarray:
    """The checked ``(len(texts), dimension)`` matrix of ``embedder``'s
    vectors, one row per text (see ``check_unit_rows``)."""
    out = np.empty((len(texts), embedder.dimension), dtype=np.float64)
    for row, text in zip(out, texts):
        row[:] = embedder.embed(text)
    return check_unit_rows(out)


# Tokens a bucket memo holds before it is emptied: each 100k-triple
# benchmark graph has about 50k distinct tokens.
MEMO_TOKENS = 1 << 16


class _BucketMemo(dict):
    """Each token's md5 bucket under one dimension, computed on a miss;
    emptied when it holds ``MEMO_TOKENS`` tokens, so it never holds more."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, token: str) -> int:
        if len(self) >= MEMO_TOKENS:
            self.clear()
        digest = hashlib.md5(token.encode("utf-8")).hexdigest()
        self[token] = bucket = int(digest, 16) % self.dimension
        return bucket


class _Memos(dict):
    """One ``_BucketMemo`` per dimension, made on first use."""

    def __missing__(self, dimension: int) -> _BucketMemo:
        return self.setdefault(dimension, _BucketMemo(dimension))


_memos = _Memos()


class HashedEmbedder:
    """Hashed bag-of-tokens embedder; deterministic and process-stable."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def sparse_counts(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero token counts of ``texts``, one bucket per token, as
        ``(text_index, bucket, count)`` sorted by text index, then bucket:
        int32 text indexes, buckets in the smallest unsigned type that holds
        ``dimension - 1``, and int64 counts. Each text is tokenized once, and
        its counts depend only on ``normalize(text)``."""
        dimension = self.dimension
        bucket = _memos[dimension].__getitem__
        lengths, buckets = array("q"), array("q")
        for text in texts:
            tokens = _TOKEN_RE.findall(text.lower())
            lengths.append(len(tokens))
            buckets.extend(map(bucket, tokens))
        # Each token's (text, bucket) cell, built in place; the token arrays
        # are freed before the cells are counted.
        cells = np.repeat(np.arange(len(lengths), dtype=np.int64), np.asarray(lengths))
        cells *= dimension
        cells += np.asarray(buckets)
        del lengths, buckets
        cells, counts = np.unique(cells, return_counts=True)
        owner = (cells // dimension).astype(np.int32)
        cells %= dimension
        return owner, cells.astype(np.min_scalar_type(dimension - 1)), counts

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for bucket in map(_memos[self.dimension].__getitem__, _TOKEN_RE.findall(text.lower())):
            vec[bucket] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


# Bytes of float64 vectors a ``CachingEmbedder`` holds before it is emptied:
# 32,768 vectors at 256 dimensions.
CACHE_BYTES = 64 << 20


class CachingEmbedder:
    """Wraps an embedder's ``embed`` with an exact-text cache, safe for
    concurrent use, that every vector passes, a stacked row too; emptied
    when an insert would pass ``CACHE_BYTES``, so it never holds more. The
    inner ``sparse_counts``, if any, is forwarded uncached."""

    def __init__(self, inner: Embedder):
        self._inner = inner
        self.dimension = inner.dimension
        self._cache: dict[str, np.ndarray] = {}
        self._capacity = max(1, CACHE_BYTES // (8 * inner.dimension))
        self._lock = threading.Lock()
        # Counts feed tables the graph keeps per embedder, so they pass uncached.
        sparse_counts = getattr(inner, "sparse_counts", None)
        if sparse_counts is not None:
            self.sparse_counts = sparse_counts

    def embed(self, text: str) -> np.ndarray:
        with self._lock:
            cached = self._cache.get(text)
        if cached is not None:
            return cached
        vec = self._inner.embed(text)
        with self._lock:
            if len(self._cache) >= self._capacity:
                self._cache.clear()
            self._cache.setdefault(text, vec)
        return vec
