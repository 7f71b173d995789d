from __future__ import annotations

import math
import random

import pytest

from kgqa.config import PipelineConfig
from kgqa.embedding import HashedEmbedder
from kgqa.extraction import EntityKey, KeySet, TripleKey, build_key_set
from kgqa.kg_store import KnowledgeGraph, Triple
from kgqa.retrieval import (
    filter_by_similarity,
    gather_candidates,
    serialize_triple,
)


def eps(epsilon: float) -> PipelineConfig:
    return PipelineConfig(epsilon=epsilon)


def brute_force_kept(candidates, keys: KeySet, embedder, epsilon):
    """Independent all-pairs oracle using pure-python cosine."""
    from kgqa.extraction import serialize_key

    texts = []
    for key in keys.local_keys:
        texts.append(serialize_key(key))
    for sg in keys.global_keys:
        texts.append(serialize_key(sg))
        texts.extend(serialize_key(t) for t in sg.triples)

    def cos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        if nu == 0 or nv == 0:
            return 0.0
        return dot / (nu * nv)

    kept = set()
    for t in candidates:
        tv = list(embedder.embed(serialize_triple(t)))
        best = max((cos(tv, list(embedder.embed(k))) for k in texts), default=None)
        if best is not None and best > epsilon:
            kept.add(t)
    return kept


def random_graph(rng: random.Random, max_triples: int) -> KnowledgeGraph:
    words = ["alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega", "zeta"]
    triples = []
    for _ in range(rng.randint(0, max_triples)):
        h = " ".join(rng.sample(words, rng.randint(1, 2)))
        r = rng.choice(["likes", "knows", "made", "runs"])
        t = " ".join(rng.sample(words, rng.randint(1, 2)))
        triples.append(Triple.from_surface(h, r, t))
    return KnowledgeGraph(triples)


def random_keys(rng: random.Random, graph: KnowledgeGraph, max_keys: int) -> KeySet:
    keys = []
    pool = list(graph.triples)
    for _ in range(rng.randint(0, max_keys)):
        if pool and rng.random() < 0.6:
            t = rng.choice(pool)
            keys.append(TripleKey(t.head.surface, t.relation, t.tail.surface))
        else:
            keys.append(EntityKey(rng.choice(["alpha", "beta", "nothing here", "omega zeta"])))
    return build_key_set(keys)


class TestFilterBySimilarity:
    def test_exact_serialization_match_scores_one(self):
        t = Triple.from_surface("a", "b", "c")
        keys = build_key_set([TripleKey("a", "b", "c")])
        result = filter_by_similarity({t}, keys, HashedEmbedder(), eps(0.99))
        assert len(result.kept) == 1
        assert result.kept[0].score == pytest.approx(1.0)

    def test_epsilon_one_keeps_nothing(self):
        t = Triple.from_surface("a", "b", "c")
        keys = build_key_set([TripleKey("a", "b", "c")])
        result = filter_by_similarity({t}, keys, HashedEmbedder(), eps(1.0))
        assert result.kept == ()

    def test_empty_candidates(self):
        keys = build_key_set([EntityKey("x")])
        result = filter_by_similarity(set(), keys, HashedEmbedder(), eps(0.5))
        assert result.kept == () and result.candidate_count == 0

    def test_matches_brute_force_oracle_on_random_fixtures(self):
        embedder = HashedEmbedder()
        rng = random.Random(7)
        for _ in range(20):
            graph = random_graph(rng, 200)
            keys = random_keys(rng, graph, 20)
            candidates = set(graph.triples)
            result = filter_by_similarity(candidates, keys, embedder, eps(0.7))
            assert set(result.triples()) == brute_force_kept(candidates, keys, embedder, 0.7)

    def test_monotone_in_epsilon(self):
        embedder = HashedEmbedder()
        rng = random.Random(11)
        graph = random_graph(rng, 100)
        keys = random_keys(rng, graph, 10)
        candidates = set(graph.triples)
        kept_loose = set(filter_by_similarity(candidates, keys, embedder, eps(0.3)).triples())
        kept_tight = set(filter_by_similarity(candidates, keys, embedder, eps(0.8)).triples())
        assert kept_tight <= kept_loose

    def test_adding_a_key_never_shrinks_kept_set(self):
        embedder = HashedEmbedder()
        rng = random.Random(13)
        graph = random_graph(rng, 100)
        keys = random_keys(rng, graph, 5)
        candidates = set(graph.triples)
        before = set(filter_by_similarity(candidates, keys, embedder, eps(0.5)).triples())
        more = build_key_set(keys.all_keys() + [EntityKey("alpha beta")])
        after = set(filter_by_similarity(candidates, more, embedder, eps(0.5)).triples())
        assert before <= after

    def test_result_independent_of_candidate_order(self):
        embedder = HashedEmbedder()
        rng = random.Random(17)
        graph = random_graph(rng, 50)
        keys = random_keys(rng, graph, 8)
        candidates = list(graph.triples)
        a = filter_by_similarity(set(candidates), keys, embedder, eps(0.4))
        rng.shuffle(candidates)
        b = filter_by_similarity(set(candidates), keys, embedder, eps(0.4))
        assert [s.triple for s in a.kept] == [s.triple for s in b.kept]
        assert [s.score for s in a.kept] == [s.score for s in b.kept]

    def test_kept_sorted_by_score_then_lexicographic(self):
        embedder = HashedEmbedder()
        rng = random.Random(19)
        graph = random_graph(rng, 80)
        keys = random_keys(rng, graph, 8)
        result = filter_by_similarity(set(graph.triples), keys, embedder, eps(0.0))
        ranks = [(-s.score, s.triple.sort_key()) for s in result.kept]
        assert ranks == sorted(ranks)


class TestGatherCandidates:
    def test_beckham_entity_key_one_hop(self, fixture_graph):
        keys = build_key_set([EntityKey("David Beckham")])
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), PipelineConfig())
        assert candidates == fixture_graph.neighbors("david beckham", 1)
        assert len(candidates) == 1

    def test_empty_keyset(self, fixture_graph):
        candidates = gather_candidates(fixture_graph, KeySet(), HashedEmbedder(), PipelineConfig())
        assert candidates == set()

    def test_duplicate_resolution_no_duplicates(self, fixture_graph):
        keys = build_key_set([EntityKey("David Beckham"), EntityKey("david  beckham ")])
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), PipelineConfig())
        assert len(candidates) == 1

    def test_unresolvable_mention_contributes_nothing(self, fixture_graph):
        keys = build_key_set([EntityKey("completely unknown thing")])
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), PipelineConfig())
        assert candidates == set()

    def test_hub_cap_truncates_expansion(self):
        hub = [Triple.from_surface("hub", "links", f"spoke {i}") for i in range(20)]
        graph = KnowledgeGraph(hub)
        keys = build_key_set([EntityKey("hub")])
        cfg = PipelineConfig(hub_cap=5)
        candidates = gather_candidates(graph, keys, HashedEmbedder(), cfg)
        assert len(candidates) == 5

    def test_hub_cap_without_keys_is_lexicographic(self):
        hub = [Triple.from_surface("hub", "links", f"spoke {i:02d}") for i in range(10)]
        graph = KnowledgeGraph(hub)
        # resolve by exact mention but provide no scoring texts
        keys = KeySet(local_keys=[EntityKey("hub")])
        keys.scoring_pairs = lambda: []  # type: ignore[method-assign]
        cfg = PipelineConfig(hub_cap=3)
        candidates = gather_candidates(graph, keys, HashedEmbedder(), cfg)
        assert sorted(t.tail.surface for t in candidates) == ["spoke 00", "spoke 01", "spoke 02"]

    def test_two_hop_gather(self, fixture_graph):
        keys = build_key_set([EntityKey("David Beckham")])
        cfg = PipelineConfig(hops=2)
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), cfg)
        assert candidates == set(fixture_graph.triples)
