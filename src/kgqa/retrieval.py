"""Candidate gathering by neighborhood expansion and cosine-threshold filtering.

A triple survives when its best cosine similarity against any key text
strictly exceeds epsilon. The kept set is canonically sorted so results do
not depend on candidate iteration order.

Candidates are scored against all keys at once, ``_BLOCK_ROWS`` triples per
matrix product. Those scores rank a hub's expansion for the hub cap and
pre-screen the epsilon filter; every triple the filter keeps is re-scored
exactly by ``_best_key``, so kept triples, keys and scores do not depend on
the order of the vectorised sums.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .embedding import RESCORE_TOLERANCE, Embedder, check_unit_rows, cosine_sim
from .extraction import Key, KeySet
from .kg_store import KnowledgeGraph, Triple

# Triples embedded and scored per matrix product. The one block buffer costs
# _BLOCK_ROWS x dimension x 8 bytes (1 MB at 256 dimensions) however large an
# expansion is, where stacking a whole expansion would grow with the hub.
_BLOCK_ROWS = 512


def serialize_triple(t: Triple) -> str:
    return f"{t.head.surface} {t.relation} {t.tail.surface}"


@dataclass(frozen=True)
class ScoredTriple:
    triple: Triple
    best_key: Key
    score: float


@dataclass
class RetrievedTripleSet:
    kept: tuple[ScoredTriple, ...]
    candidate_count: int

    def triples(self) -> list[Triple]:
        return [s.triple for s in self.kept]


def _embed_keys(keys: KeySet, embedder: Embedder) -> tuple[list[Key], np.ndarray]:
    """The scoring keys and the checked matrix of their vectors, one row each."""
    pairs = keys.scoring_pairs()
    vectors = [embedder.embed(text) for _, text in pairs]
    key_matrix = np.array(vectors, dtype=np.float64).reshape(len(pairs), embedder.dimension)
    return [key for key, _ in pairs], check_unit_rows(key_matrix)


def _best_key(
    triple: Triple, embedder: Embedder, scoring_keys: list[Key], key_matrix: np.ndarray
) -> tuple[Key, float]:
    """The key scoring highest against ``triple`` and its score; the first one wins a tie."""
    vec = embedder.embed(serialize_triple(triple))
    scores = [cosine_sim(vec, key_vec) for key_vec in key_matrix]
    best = max(range(len(scores)), key=scores.__getitem__)
    return scoring_keys[best], scores[best]


def _max_scores(triples: list[Triple], embedder: Embedder, key_matrix: np.ndarray) -> np.ndarray:
    """Each triple's best cosine similarity over the keys, by blocked matrix products.

    A score agrees with ``_best_key``'s to within a few ulps, not bitwise:
    its sums run in another order. Rows go through ``embed``, so a caching
    embedder serves them from its cache.
    """
    scores = np.empty(len(triples))
    block = np.empty((min(len(triples), _BLOCK_ROWS), embedder.dimension))
    for start in range(0, len(triples), _BLOCK_ROWS):
        rows = block[: min(_BLOCK_ROWS, len(triples) - start)]
        for row, triple in zip(rows, triples[start : start + len(rows)]):
            row[:] = embedder.embed(serialize_triple(triple))
        best = (rows @ key_matrix.T).max(axis=1)
        np.clip(best, -1.0, 1.0, out=scores[start : start + len(rows)])
    return scores


def _hub_cap(
    expansion: set[Triple], embedder: Embedder, key_matrix: np.ndarray, cap: int
) -> list[Triple]:
    """The ``cap`` triples of ``expansion`` that score highest against the keys.

    Let ``cut`` be the cap-th highest vectorised score. Triples scoring more
    than ``RESCORE_TOLERANCE`` above it are in; those within the tolerance
    of it fill the places left in ``Triple.sort_key`` order. Scores that are
    mathematically equal can differ by a few ulps with summation order, so
    ties at the cap break by ``sort_key``, not by that noise; only triples
    within the tolerance of ``cut`` can be chosen differently than by exact
    ``_best_key`` scores. With no keys the lexicographically first triples win.
    """
    if len(key_matrix) == 0:
        return sorted(expansion, key=Triple.sort_key)[:cap]
    rows = list(expansion)
    scores = _max_scores(rows, embedder, key_matrix)
    cut = np.partition(scores, len(rows) - cap)[len(rows) - cap]
    above = np.flatnonzero(scores > cut + RESCORE_TOLERANCE)
    near = np.flatnonzero(np.abs(scores - cut) <= RESCORE_TOLERANCE)
    ties = sorted((rows[i] for i in near), key=Triple.sort_key)
    return [rows[i] for i in above] + ties[: cap - len(above)]


def gather_candidates(
    g: KnowledgeGraph,
    keys: KeySet,
    embedder: Embedder,
    cfg: PipelineConfig,
) -> set[Triple]:
    """Union of neighborhood expansions over every resolvable key mention.

    Per-entity expansion is truncated at the hub cap, preferring the
    highest-scoring triples against the key set (see ``_hub_cap``).
    """
    _, key_matrix = _embed_keys(keys, embedder)
    candidates: set[Triple] = set()
    for mention in keys.mentions():
        entity = g.resolve_entity(mention, embedder, cfg.resolve_threshold)
        if entity is None:
            continue
        expansion = g.neighbors(entity, cfg.hops)
        if len(expansion) > cfg.hub_cap:
            candidates.update(_hub_cap(expansion, embedder, key_matrix, cfg.hub_cap))
        else:
            candidates.update(expansion)
    return candidates


def filter_by_similarity(
    candidates: set[Triple],
    keys: KeySet,
    embedder: Embedder,
    cfg: PipelineConfig,
) -> RetrievedTripleSet:
    """Keep candidates whose max similarity over keys strictly exceeds epsilon.

    Only candidates whose vectorised score lies above epsilon less
    ``RESCORE_TOLERANCE`` are scored exactly by ``_best_key``.
    """
    scoring_keys, key_matrix = _embed_keys(keys, embedder)
    kept: list[ScoredTriple] = []
    if scoring_keys:
        rows = list(candidates)
        scores = _max_scores(rows, embedder, key_matrix)
        for i in np.flatnonzero(scores > cfg.epsilon - RESCORE_TOLERANCE):
            best_key, best = _best_key(rows[i], embedder, scoring_keys, key_matrix)
            if best > cfg.epsilon:
                kept.append(ScoredTriple(triple=rows[i], best_key=best_key, score=best))
    kept.sort(key=lambda s: (-s.score, s.triple.sort_key()))
    return RetrievedTripleSet(kept=tuple(kept), candidate_count=len(candidates))
