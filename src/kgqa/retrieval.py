"""Candidate gathering by neighborhood expansion and cosine-threshold filtering.

A triple survives when its best cosine similarity against any key text
strictly exceeds epsilon. The kept set is canonically sorted so results do
not depend on candidate iteration order.

This module holds retrieval policy only: embedding a question's distinct
key texts once, expanding each resolved entity once, the hub cap and the
epsilon filter. Candidates travel as graph row ids and
are scored against all keys at once by ``KnowledgeGraph.row_scores``, which
leaves the scoring to the graph's index for the embedder (see ``kg_store``).
``gather_candidates`` scores each distinct row of a question's expansions in
one call; those scores rank a hub's expansion for the hub cap and travel
with the candidates and their keys to pre-screen the epsilon filter. Every
triple the filter keeps is re-scored exactly by ``_best_key``, so kept
triples, keys and scores do not depend on the order of the vectorised sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .embedding import RESCORE_TOLERANCE, Embedder, cosine_sim, embed_matrix
from .extraction import Key, KeySet
from .kg_store import KnowledgeGraph, Triple, distinct, serialize_triple


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


class KeyMatrix(NamedTuple):
    """The scoring keys and the checked matrix of their vectors, one row each."""

    keys: list[Key]
    matrix: np.ndarray

    def row_scores(self, g: KnowledgeGraph, rows: np.ndarray, embedder: Embedder) -> np.ndarray:
        """``KnowledgeGraph.row_scores`` of ``rows``; 0 for every row when there are no keys."""
        return g.row_scores(rows, embedder, self.matrix) if self.keys else np.zeros(len(rows))


def embed_keys(keys: KeySet, embedder: Embedder) -> KeyMatrix:
    """Embed a question's distinct key texts once, for both retrieval stages."""
    pairs = keys.scoring_pairs()
    return KeyMatrix([key for key, _ in pairs], embed_matrix(embedder, [text for _, text in pairs]))


@dataclass(frozen=True, eq=False)
class CandidateRows:
    """Sorted, unique row ids of one graph: the candidates of one question,
    with the keys they are scored against and each row's score under them."""

    graph: KnowledgeGraph
    rows: np.ndarray
    scores: np.ndarray
    key_matrix: KeyMatrix

    def __len__(self) -> int:
        return len(self.rows)

    def triples(self) -> list[Triple]:
        return [self.graph.triple(row) for row in self.rows]


def _best_key(
    triple: Triple, embedder: Embedder, scoring_keys: list[Key], key_matrix: np.ndarray
) -> tuple[Key, float]:
    """The key scoring highest against ``triple`` and its score; the first one wins a tie."""
    vec = embedder.embed(serialize_triple(triple))
    scores = [cosine_sim(vec, key_vec) for key_vec in key_matrix]
    best = max(range(len(scores)), key=scores.__getitem__)
    return scoring_keys[best], scores[best]


def _hub_cap(expansion: np.ndarray, rows: np.ndarray, scores: np.ndarray, cap: int) -> np.ndarray:
    """The ``cap`` rows of ``expansion`` whose triples score highest against the keys.

    ``scores`` are the vectorised scores of the sorted ``rows``, which hold
    every row of ``expansion``. Let ``cut`` be the cap-th highest score of
    the expansion. Rows scoring more than ``RESCORE_TOLERANCE`` above it are
    in; those within the tolerance of it fill the places left in row order,
    which is ``Triple.sort_key`` order. Scores that are mathematically equal
    can differ by a few ulps with summation order, so ties at the cap break
    by ``sort_key``, not by that noise; only rows within the tolerance of
    ``cut`` can be chosen differently than by exact ``_best_key`` scores.
    With no keys every row scores 0, so the lexicographically first win.
    """
    scores = scores[np.searchsorted(rows, expansion)]
    cut = np.partition(scores, len(expansion) - cap)[len(expansion) - cap]
    above = expansion[scores > cut + RESCORE_TOLERANCE]
    near = np.sort(expansion[np.abs(scores - cut) <= RESCORE_TOLERANCE])
    return np.concatenate((above, near[: cap - len(above)]))


def gather_candidates(g: KnowledgeGraph, keys: KeySet, embedder: Embedder, cfg: PipelineConfig) -> CandidateRows:
    """Union of neighborhood expansions over every resolvable key mention.

    Each distinct resolved entity is expanded once, however many mentions
    resolve to it, and its expansion is truncated at the hub cap, preferring
    the highest-scoring triples against the key set (see ``_hub_cap``). The
    keys are embedded once, every distinct row of the expansions is scored
    once, and the kept rows carry their scores and the keys.
    """
    key_matrix = embed_keys(keys, embedder)
    entities = dict.fromkeys(g.resolve_entity(m, embedder, cfg.resolve_threshold) for m in keys.mentions())
    entities.pop(None, None)
    expansions = [np.empty(0, dtype=np.int32)]
    expansions.extend(np.asarray(g.neighbors(entity, cfg.hops)) for entity in entities)
    rows = distinct(np.concatenate(expansions))
    scores = key_matrix.row_scores(g, rows, embedder)
    chosen = [e if len(e) <= cfg.hub_cap else _hub_cap(e, rows, scores, cfg.hub_cap) for e in expansions]
    kept = distinct(np.concatenate(chosen))
    return CandidateRows(g, kept, scores[np.searchsorted(rows, kept)], key_matrix)


def filter_by_similarity(
    candidates: CandidateRows, embedder: Embedder, cfg: PipelineConfig
) -> RetrievedTripleSet:
    """Keep candidates whose max similarity over their keys strictly exceeds epsilon.

    Only candidates whose carried score lies above epsilon less
    ``RESCORE_TOLERANCE`` are scored exactly by ``_best_key``.
    """
    scoring_keys, matrix = candidates.key_matrix
    g = candidates.graph
    kept: list[ScoredTriple] = []
    if scoring_keys:
        for row in candidates.rows[candidates.scores > cfg.epsilon - RESCORE_TOLERANCE]:
            triple = g.triple(row)
            best_key, best = _best_key(triple, embedder, scoring_keys, matrix)
            if best > cfg.epsilon:
                kept.append(ScoredTriple(triple=triple, best_key=best_key, score=best))
    kept.sort(key=lambda s: (-s.score, s.triple.sort_key()))
    return RetrievedTripleSet(kept=tuple(kept), candidate_count=len(candidates))
