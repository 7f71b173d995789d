from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_counts
from kgqa import embedding
from kgqa.embedding import (
    MEMO_TOKENS,
    UNIT_NORM_TOLERANCE,
    CachingEmbedder,
    HashedEmbedder,
    check_unit_rows,
    cosine_sim,
    embed_matrix,
)
from kgqa.kg_store import normalize


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


@pytest.mark.parametrize("dimension", [0, -1])
def test_hashed_embedder_needs_a_positive_dimension(dimension):
    with pytest.raises(ValueError, match="dimension must be positive"):
        HashedEmbedder(dimension)


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


def test_caching_embedder_empties_at_its_byte_bound(monkeypatch):
    # Room for five vectors at eight dimensions; 60 texts cycling through 23
    # miss every time, so the cache empties again and again.
    monkeypatch.setattr(embedding, "CACHE_BYTES", 5 * 8 * 8)
    inner = HashedEmbedder(8)
    cached = CachingEmbedder(inner)
    for i in range(60):
        text = f"text {i % 23}"
        for _ in range(2):  # a miss, then a hit
            assert cached.embed(text).tobytes() == inner.embed(text).tobytes()
            assert text in cached._cache and len(cached._cache) <= 5


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


# Duplicates, texts with no ``\w`` token, a Greek final sigma and a dotted
# capital I, among arbitrary text.
_batch_text = st.one_of(st.text(), st.sampled_from(["", "!!!", "ΟΔΟΣ", "İzmir", "alpha Alpha beta"]))


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_batch_text, max_size=8), dimension=st.integers(1, 64))
@example(texts=["", "!!!", "ΟΔΟΣ", "İzmir", "ΟΔΟΣ", "οδοσ"], dimension=64)
@example(texts=[], dimension=8)
def test_hashed_vectors_match_md5_reference(texts, dimension):
    # Memoised buckets change no bit: the sparse counts of a batch are the
    # nonzero entries of each text's md5 reference, in row-major order (by
    # text, then bucket), and embed is the normalised reference.
    texts = texts + texts[::2]
    hashed = HashedEmbedder(dimension)
    cached = CachingEmbedder(HashedEmbedder(dimension))
    reference = np.zeros((len(texts), dimension))
    for row, text in zip(reference, texts):
        row[:] = reference_counts(text, dimension)
    owner, bucket = np.nonzero(reference)
    for embedder in (hashed, cached):
        got_owner, got_bucket, got_count = embedder.sparse_counts(texts)
        assert (np.diff(got_owner * dimension + got_bucket) > 0).all()
        assert got_owner.tolist() == owner.tolist()
        assert got_bucket.tolist() == bucket.tolist()
        assert np.asarray(got_count, dtype=np.float64).tobytes() == reference[owner, bucket].tobytes()
    for text, counts in zip(texts, reference):
        norm = np.linalg.norm(counts)
        unit = counts / norm if norm > 0 else counts
        assert hashed.embed(text).tobytes() == unit.tobytes()
        assert cached.embed(text).tobytes() == unit.tobytes()


def test_bucket_memo_bounded_and_exact_across_a_clear(monkeypatch):
    # A memo holding its bound is emptied before its next token, so it never
    # grows past the bound; a batch spanning the clear and an embed after it
    # still match the md5 reference.
    dimension = 97
    monkeypatch.delitem(embedding._memos, dimension, raising=False)
    embedder = HashedEmbedder(dimension)
    tokens = [f"w{i}" for i in range(MEMO_TOKENS + 2)]
    embedder.sparse_counts([" ".join(tokens[: MEMO_TOKENS - 2])])
    memo = embedding._memos[dimension]
    assert len(memo) == MEMO_TOKENS - 2
    spanning = " ".join(tokens[MEMO_TOKENS - 4 :])
    reference = reference_counts(spanning, dimension)
    _, bucket, count = embedder.sparse_counts([spanning])
    assert len(memo) == 2
    assert bucket.tolist() == np.flatnonzero(reference).tolist()
    assert count.tolist() == reference[bucket].tolist()
    assert embedder.embed(spanning).tobytes() == (reference / np.linalg.norm(reference)).tobytes()
    assert len(memo) == 6


# Texts equal once lowercased: a capital and a final sigma, a dotted
# capital I and its lowercase (i and a combining dot), with an empty text
# and one with no token among them.
_CASED = ["\u039f\u0394\u039f\u03a3", "\u03bf\u03b4\u03bf\u03c2", "\u03a3", "\u03c3",
          "\u0130zmir", "i\u0307zmir", "", "!!", "Ash ELM", "ash elm", "", "!!"]


@pytest.mark.parametrize("dimension", [1, 8, 256, 300])
def test_texts_equal_once_lowercased_count_as_alone(dimension):
    # In one call, every text gets the counts, and the dtypes, of a call of
    # its own, whatever other text it equals once lowercased.
    assert "\u039f\u0394\u039f\u03a3".lower() == "\u03bf\u03b4\u03bf\u03c2"
    assert "\u0130zmir".lower() == "i\u0307zmir"
    embedder = HashedEmbedder(dimension)
    owner, bucket, count = embedder.sparse_counts(_CASED)
    assert owner.tolist() == sorted(owner.tolist())
    for i, text in enumerate(_CASED):
        alone = embedder.sparse_counts([text])
        assert [a.dtype for a in alone] == [owner.dtype, bucket.dtype, count.dtype]
        assert alone[0].tobytes() == np.zeros_like(alone[0]).tobytes()
        assert bucket[owner == i].tobytes() == alone[1].tobytes()
        assert count[owner == i].tobytes() == alone[2].tobytes()
        assert bucket[owner == i].tolist() == np.flatnonzero(reference_counts(text, dimension)).tolist()


# Words in case, Greek sigmas, a dotted capital I and arbitrary text, between
# runs of whitespace that ``str.split`` takes and ``\w+`` never matches.
_whitespace = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000", min_size=1, max_size=3)
_word = st.one_of(
    st.sampled_from(["Ash", "ELM", "ΟΔΟΣ", "οδος", "Σ", "σ", "ς", "İzmir", "i\u0307", "ASH!", "x1"]), st.text(max_size=4)
)
_spaced_text = st.tuples(st.lists(st.tuples(_word, _whitespace), max_size=5), _word).map(
    lambda parts: "".join(word + space for word, space in parts[0]) + parts[1]
)


@settings(max_examples=300, deadline=None)
@given(text=_spaced_text, dimension=st.sampled_from([1, 8, 256]))
@example(text="\tΟΔΟ\u3000Σ\x1c İzmir\x85", dimension=256)
def test_counts_depend_only_on_the_normalised_text(text, dimension):
    # The contract a count table relies on to count a canonical in place of
    # each of its surfaces.
    embedder = HashedEmbedder(dimension)
    for got, want in zip(embedder.sparse_counts([text]), embedder.sparse_counts([normalize(text)])):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_caching_embedder_forwards_counts_uncached():
    texts = ["alpha alpha beta", "", "beta"]
    cached = CachingEmbedder(HashedEmbedder(8))
    for got, want in zip(cached.sparse_counts(texts), HashedEmbedder(8).sparse_counts(texts)):
        assert got.tolist() == want.tolist()
    assert len(cached._cache) == 0
    assert not hasattr(cached, "counts")

    class EmbedOnly:
        dimension = 3

        def embed(self, text):
            return np.array([1.0, 0.0, 0.0])

    assert not hasattr(CachingEmbedder(EmbedOnly()), "sparse_counts")
