"""Candidate gathering by neighborhood expansion and cosine-threshold filtering.

A triple survives when its best cosine similarity against any key text
strictly exceeds epsilon. The kept set is canonically sorted so results do
not depend on candidate iteration order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .embedding import Embedder, cosine_sim
from .extraction import Key, KeySet
from .kg_store import KnowledgeGraph, Triple


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
    epsilon: float

    def triples(self) -> list[Triple]:
        return [s.triple for s in self.kept]


def _embed_keys(keys: KeySet, embedder: Embedder) -> list[tuple[Key, np.ndarray]]:
    return [(key, embedder.embed(text)) for key, text in keys.scoring_pairs()]


def _best_key(
    triple: Triple, embedder: Embedder, key_vectors: list[tuple[Key, np.ndarray]]
) -> tuple[Key | None, float]:
    """The key scoring highest against ``triple`` and its score; the first one wins a tie."""
    vec = embedder.embed(serialize_triple(triple))
    best_key: Key | None = None
    best = float("-inf")
    for key, key_vec in key_vectors:
        score = cosine_sim(vec, key_vec)
        if score > best:
            best = score
            best_key = key
    return best_key, best


def gather_candidates(
    g: KnowledgeGraph,
    keys: KeySet,
    embedder: Embedder,
    cfg: PipelineConfig,
) -> set[Triple]:
    """Union of neighborhood expansions over every resolvable key mention.

    Per-entity expansion is truncated at the hub cap, preferring the
    highest-scoring triples against the key set (lexicographically first
    when no keys can score).
    """
    key_vectors = _embed_keys(keys, embedder)
    candidates: set[Triple] = set()
    for mention in keys.mentions():
        entity = g.resolve_entity(mention, embedder, cfg.resolve_threshold)
        if entity is None:
            continue
        expansion = g.neighbors(entity, cfg.hops)
        if len(expansion) > cfg.hub_cap:
            if key_vectors:
                ranked = sorted(
                    expansion,
                    key=lambda t: (-_best_key(t, embedder, key_vectors)[1], t.sort_key()),
                )
            else:
                ranked = sorted(expansion, key=Triple.sort_key)
            expansion = set(ranked[: cfg.hub_cap])
        candidates |= expansion
    return candidates


def filter_by_similarity(
    candidates: set[Triple],
    keys: KeySet,
    embedder: Embedder,
    cfg: PipelineConfig,
) -> RetrievedTripleSet:
    """Keep candidates whose max similarity over keys strictly exceeds epsilon."""
    key_vectors = _embed_keys(keys, embedder)
    kept: list[ScoredTriple] = []
    for triple in candidates:
        best_key, best = _best_key(triple, embedder, key_vectors)
        if best_key is not None and best > cfg.epsilon:
            kept.append(ScoredTriple(triple=triple, best_key=best_key, score=best))
    kept.sort(key=lambda s: (-s.score, s.triple.sort_key()))
    return RetrievedTripleSet(kept=tuple(kept), candidate_count=len(candidates), epsilon=cfg.epsilon)
