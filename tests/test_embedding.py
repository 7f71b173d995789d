from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.embedding import (
    UNIT_NORM_TOLERANCE,
    CachingEmbedder,
    HashedEmbedder,
    check_unit_rows,
    cosine_sim,
    embed_matrix,
)


def test_cosine_self_similarity():
    v = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    assert cosine_sim(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_closed_form():
    # [1, 1] / sqrt(2) . [1, 0] = 1 / sqrt(2)
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v = np.array([1.0, 0.0])
    assert cosine_sim(u, v) == pytest.approx(0.7071067811865475, abs=1e-9)


def test_cosine_zero_vector_scores_zero():
    assert cosine_sim(np.zeros(4), np.ones(4)) == 0.0


def test_cosine_clipped_to_unit_interval():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    w = np.nextafter(v, 2.0)
    assert float(np.dot(w, w)) > 1.0
    assert cosine_sim(w, w) == 1.0
    assert cosine_sim(w, -w) == -1.0


def test_cosine_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        cosine_sim(np.ones(3), np.ones(4))


def test_hashed_embedder_deterministic():
    e = HashedEmbedder()
    assert np.array_equal(e.embed("alpha beta"), e.embed("alpha beta"))


def test_hashed_embedder_unit_norm():
    e = HashedEmbedder()
    assert np.linalg.norm(e.embed("some words here")) == pytest.approx(1.0)


def test_hashed_embedder_case_insensitive_tokens():
    e = HashedEmbedder()
    assert np.array_equal(e.embed("Paris"), e.embed("paris"))


def test_hashed_embedder_empty_text_is_zero_vector():
    e = HashedEmbedder()
    assert np.linalg.norm(e.embed("")) == 0.0


def test_caching_embedder_matches_inner():
    inner = HashedEmbedder()
    cached = CachingEmbedder(inner)
    text = "manchester united"
    assert np.array_equal(cached.embed(text), inner.embed(text))
    assert np.array_equal(cached.embed(text), inner.embed(text))


def test_embed_matrix_rows_equal_hashed_embed():
    e = HashedEmbedder()
    texts = ["alpha beta", "", "!!!", "Alpha alpha gamma", "manchester united"]
    matrix = embed_matrix(e, texts)
    assert matrix.shape == (len(texts), e.dimension)
    for row, text in zip(matrix, texts):
        assert row.tobytes() == e.embed(text).tobytes()


def test_embed_matrix_stacks_embed_only_embedders():
    class EmbedOnly:
        dimension = 3

        def embed(self, text):
            return np.array([len(text), 1.0, 0.0])

    matrix = embed_matrix(EmbedOnly(), ["a", "bcd"])
    assert matrix.tolist() == [[1.0, 1.0, 0.0], [3.0, 1.0, 0.0]]


def test_caching_embed_many_bypasses_cache():
    inner = HashedEmbedder()
    cached = CachingEmbedder(inner)
    cached.embed("alpha")
    matrix = cached.embed_many(["alpha", "beta", "gamma"])
    assert np.array_equal(matrix, embed_matrix(inner, ["alpha", "beta", "gamma"]))
    assert len(cached._cache) == 1


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(), min_size=1, max_size=5), dimension=st.integers(1, 64))
def test_embedders_return_unit_or_zero_vectors(texts, dimension):
    hashed = HashedEmbedder(dimension)
    cached = CachingEmbedder(HashedEmbedder(dimension))
    vectors = [hashed.embed(t) for t in texts] + [cached.embed(t) for t in texts]
    vectors += list(embed_matrix(hashed, texts))
    for vec in vectors:
        assert vec.dtype == np.float64 and vec.shape == (dimension,)
        norm = np.linalg.norm(vec)
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-12


def test_check_unit_rows_accepts_unit_and_zero_rows():
    e = HashedEmbedder(16)
    matrix = embed_matrix(e, ["alpha beta", "", "!!!", "gamma"])
    matrix[3] *= 1.0 + 0.9 * UNIT_NORM_TOLERANCE
    assert check_unit_rows(matrix) is matrix
    assert check_unit_rows(np.empty((0, 16))).shape == (0, 16)


@pytest.mark.parametrize("scale", [1.0 + 2 * UNIT_NORM_TOLERANCE, 0.5, 3.0, np.nan])
def test_check_unit_rows_rejects_other_norms(scale):
    matrix = embed_matrix(HashedEmbedder(16), ["alpha", "beta gamma", "delta"])
    matrix[1] *= scale
    with pytest.raises(ValueError, match=r"embedder contract: .* in row 1"):
        check_unit_rows(matrix)


def reference_counts(text, dimension):
    """md5 of each lowercased ``\\w+`` token, modulo the dimension, counted."""
    vec = np.zeros(dimension)
    for token in re.findall(r"\w+", text.lower()):
        vec[int(hashlib.md5(token.encode("utf-8")).hexdigest(), 16) % dimension] += 1.0
    return vec


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(), min_size=1, max_size=5), dimension=st.integers(1, 64))
def test_hashed_vectors_match_md5_reference(texts, dimension):
    # Memoised buckets change no bit: embed is the normalised counts.
    hashed = HashedEmbedder(dimension)
    cached = CachingEmbedder(HashedEmbedder(dimension))
    for text in texts:
        counts = reference_counts(text, dimension)
        assert hashed.counts(text).tobytes() == counts.tobytes()
        assert cached.counts(text).tobytes() == counts.tobytes()
        norm = np.linalg.norm(counts)
        unit = counts / norm if norm > 0 else counts
        assert hashed.embed(text).tobytes() == unit.tobytes()
        assert cached.embed(text).tobytes() == unit.tobytes()


def test_caching_embedder_forwards_counts_uncached():
    cached = CachingEmbedder(HashedEmbedder(8))
    assert np.array_equal(cached.counts("alpha alpha beta"), HashedEmbedder(8).counts("alpha alpha beta"))
    assert len(cached._cache) == 0

    class EmbedOnly:
        dimension = 3

        def embed(self, text):
            return np.array([1.0, 0.0, 0.0])

    assert not hasattr(CachingEmbedder(EmbedOnly()), "counts")
