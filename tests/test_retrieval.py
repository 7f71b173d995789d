from __future__ import annotations

import itertools
import math
import random
import sys
import threading
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ScaledEmbedder, candidate_rows, expand, make_embedder
from kgqa.config import PipelineConfig
from kgqa.embedding import RESCORE_TOLERANCE, CachingEmbedder, HashedEmbedder, cosine_sim
from kgqa.extraction import EntityKey, KeySet, PairKey, SubgraphKey, TripleKey, build_key_set, serialize_key
from kgqa.kg_store import DenseIndex, KnowledgeGraph, Triple, normalize
from kgqa.retrieval import embed_keys, filter_by_similarity, gather_candidates, serialize_triple


def eps(epsilon: float) -> PipelineConfig:
    return PipelineConfig(epsilon=epsilon)


def filter_triples(triples, keys: KeySet, embedder, cfg: PipelineConfig):
    return filter_by_similarity(candidate_rows(triples, keys, embedder), embedder, cfg)


def brute_force_kept(candidates, keys: KeySet, embedder, epsilon):
    """Independent all-pairs oracle using pure-python cosine."""
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
        result = filter_triples({t}, keys, HashedEmbedder(), eps(0.99))
        assert len(result.kept) == 1
        assert result.kept[0].score == pytest.approx(1.0)

    def test_epsilon_one_keeps_nothing(self):
        t = Triple.from_surface("a", "b", "c")
        keys = build_key_set([TripleKey("a", "b", "c")])
        result = filter_triples({t}, keys, HashedEmbedder(), eps(1.0))
        assert result.kept == ()

    def test_empty_candidates(self):
        keys = build_key_set([EntityKey("x")])
        result = filter_triples(set(), keys, HashedEmbedder(), eps(0.5))
        assert result.kept == () and result.candidate_count == 0

    def test_matches_brute_force_oracle_on_random_fixtures(self):
        embedder = HashedEmbedder()
        rng = random.Random(7)
        for _ in range(20):
            graph = random_graph(rng, 200)
            keys = random_keys(rng, graph, 20)
            candidates = set(graph.triples)
            result = filter_triples(candidates, keys, embedder, eps(0.7))
            assert set(result.triples()) == brute_force_kept(candidates, keys, embedder, 0.7)

    def test_monotone_in_epsilon(self):
        embedder = HashedEmbedder()
        rng = random.Random(11)
        graph = random_graph(rng, 100)
        keys = random_keys(rng, graph, 10)
        candidates = set(graph.triples)
        kept_loose = set(filter_triples(candidates, keys, embedder, eps(0.3)).triples())
        kept_tight = set(filter_triples(candidates, keys, embedder, eps(0.8)).triples())
        assert kept_tight <= kept_loose

    def test_adding_a_key_never_shrinks_kept_set(self):
        embedder = HashedEmbedder()
        rng = random.Random(13)
        graph = random_graph(rng, 100)
        keys = random_keys(rng, graph, 5)
        candidates = set(graph.triples)
        before = set(filter_triples(candidates, keys, embedder, eps(0.5)).triples())
        more = build_key_set(keys.all_keys() + [EntityKey("alpha beta")])
        after = set(filter_triples(candidates, more, embedder, eps(0.5)).triples())
        assert before <= after

    def test_result_independent_of_candidate_order(self):
        embedder = HashedEmbedder()
        rng = random.Random(17)
        graph = random_graph(rng, 50)
        keys = random_keys(rng, graph, 8)
        candidates = list(graph.triples)
        a = filter_triples(set(candidates), keys, embedder, eps(0.4))
        rng.shuffle(candidates)
        b = filter_triples(set(candidates), keys, embedder, eps(0.4))
        assert [s.triple for s in a.kept] == [s.triple for s in b.kept]
        assert [s.score for s in a.kept] == [s.score for s in b.kept]

    def test_kept_sorted_by_score_then_lexicographic(self):
        embedder = HashedEmbedder()
        rng = random.Random(19)
        graph = random_graph(rng, 80)
        keys = random_keys(rng, graph, 8)
        result = filter_triples(set(graph.triples), keys, embedder, eps(0.0))
        ranks = [(-s.score, s.triple.sort_key()) for s in result.kept]
        assert ranks == sorted(ranks)


class TestGatherCandidates:
    def test_beckham_entity_key_one_hop(self, fixture_graph):
        keys = build_key_set([EntityKey("David Beckham")])
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), PipelineConfig())
        assert candidates.rows.tolist() == fixture_graph.neighbors("david beckham", 1).tolist()
        assert len(candidates) == 1

    def test_empty_keyset(self, fixture_graph):
        candidates = gather_candidates(fixture_graph, KeySet(), HashedEmbedder(), PipelineConfig())
        assert candidates.triples() == []

    def test_duplicate_resolution_no_duplicates(self, fixture_graph):
        keys = build_key_set([EntityKey("David Beckham"), EntityKey("david  beckham ")])
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), PipelineConfig())
        assert len(candidates) == 1

    def test_mentions_of_one_entity_expand_it_once(self, fixture_graph, monkeypatch):
        expanded = []
        neighbors = KnowledgeGraph.neighbors

        def spy(self, entity, hops=1):
            expanded.append(entity.canonical)
            return neighbors(self, entity, hops)

        monkeypatch.setattr(KnowledgeGraph, "neighbors", spy)
        embedder = HashedEmbedder()
        alone = gather_candidates(fixture_graph, build_key_set([EntityKey("David Beckham")]), embedder, PipelineConfig())
        expanded.clear()
        keys = build_key_set([EntityKey("David Beckham"), EntityKey("the David Beckham")])
        assert keys.mentions() == ["David Beckham", "the David Beckham"]
        candidates = gather_candidates(fixture_graph, keys, embedder, PipelineConfig())
        assert expanded == ["david beckham"]
        assert candidates.rows.tolist() == alone.rows.tolist()

    def test_unresolvable_mention_contributes_nothing(self, fixture_graph):
        keys = build_key_set([EntityKey("completely unknown thing")])
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), PipelineConfig())
        assert candidates.triples() == []

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
        assert sorted(t.tail.surface for t in candidates.triples()) == ["spoke 00", "spoke 01", "spoke 02"]

    def test_two_hop_gather(self, fixture_graph):
        keys = build_key_set([EntityKey("David Beckham")])
        cfg = PipelineConfig(hops=2)
        candidates = gather_candidates(fixture_graph, keys, HashedEmbedder(), cfg)
        assert set(candidates.triples()) == set(fixture_graph.triples)

    def test_overlapping_capped_expansions_scored_once(self, monkeypatch):
        # Two hubs share their spokes, so at two hops each one's expansion is
        # every row; both are capped, yet each row is scored once, in one call.
        spokes = [f"spoke {i}" for i in range(30)]
        graph = KnowledgeGraph(Triple.from_surface(hub, "links", s) for hub in ("east", "west") for s in spokes)
        scored = []
        row_scores = KnowledgeGraph.row_scores

        def spy(self, rows, embedder, key_matrix):
            scored.append(rows.tolist())
            return row_scores(self, rows, embedder, key_matrix)

        monkeypatch.setattr(KnowledgeGraph, "row_scores", spy)
        keys = build_key_set([EntityKey("east"), EntityKey("west"), TripleKey("west", "links", "spoke 7")])
        cfg = PipelineConfig(hops=2, hub_cap=10)
        embedder = HashedEmbedder()
        candidates = gather_candidates(graph, keys, embedder, cfg)
        assert scored == [list(range(graph.triple_count))]
        assert len(candidates) == 10
        filter_by_similarity(candidates, embedder, cfg)
        assert len(scored) == 1


# The per-triple scan that the blocked scorer replaced, kept as the reference.


def reference_best_key(triple, embedder, keys: KeySet):
    """Per-pair ``cosine_sim`` over the scoring pairs; strict ``>``, so the first key wins."""
    vec = embedder.embed(serialize_triple(triple))
    best_key, best = None, float("-inf")
    for key, text in keys.scoring_pairs():
        score = cosine_sim(vec, embedder.embed(text))
        if score > best:
            best_key, best = key, score
    return best_key, best


def reference_filter(candidates, keys, embedder, epsilon):
    kept = []
    for t in candidates:
        key, score = reference_best_key(t, embedder, keys)
        if key is not None and score > epsilon:
            kept.append((t, key, score))
    kept.sort(key=lambda k: (-k[2], k[0].sort_key()))
    return kept


class CapReference(NamedTuple):
    old: set  # ranked by exact score, then sort_key
    new: set  # above the band around the cut, then the band in sort_key order
    clear: bool  # no other triple scores within the tolerance of the cut
    on_edge: bool  # some score lies about one tolerance from the cut, so ulps decide its side


def reference_hub_cap(expansion, keys, embedder, cap) -> CapReference:
    """The capped sets that exact scores give, under the old rule and the near-tie rule."""
    scored = sorted((-reference_best_key(t, embedder, keys)[1], t.sort_key(), t) for t in expansion)
    cut = -scored[cap - 1][0]
    above = [t for s, _, t in scored if -s > cut + RESCORE_TOLERANCE]
    near = [t for s, _, t in scored if abs(-s - cut) <= RESCORE_TOLERANCE]
    return CapReference(
        old={t for _, _, t in scored[:cap]},
        new=set(above) | set(sorted(near, key=Triple.sort_key)[: cap - len(above)]),
        clear=len(near) == 1,
        on_edge=any(0.5 < abs(-s - cut) / RESCORE_TOLERANCE < 2.0 for s, _, _ in scored),
    )


# Few words and few buckets give many exact ties; "!!!" has no tokens, so it
# embeds to the zero vector.
_text = st.one_of(
    st.lists(st.sampled_from(["ash", "birch", "cedar", "elm", "fir"]), min_size=1, max_size=3).map(" ".join),
    st.just("!!!"),
)
_triple_key = st.tuples(_text, _text, _text).map(lambda p: TripleKey(*p))
_keys = st.lists(
    st.one_of(
        _text.map(EntityKey),
        st.tuples(_text, _text).map(lambda p: PairKey(*p)),
        _triple_key,
        # several scoring pairs for one key: its text and each constituent's
        st.lists(_triple_key, min_size=2, max_size=3).map(lambda ts: SubgraphKey(tuple(ts))),
    ),
    max_size=5,
).map(build_key_set)
_kinds = st.sampled_from(["hashed", "caching", "signed"])
_dimensions = st.sampled_from([4, 8, 64])


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(st.tuples(_text, _text, _text), max_size=30),
    keys=_keys,
    kind=_kinds,
    dimension=_dimensions,
    # A float is epsilon; an int picks an attained score as epsilon.
    epsilon=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]), st.integers(0, 30)),
)
@example(
    triples=[("!!!", "!!!", "!!!"), ("ash", "elm", "fir")],
    keys=build_key_set([EntityKey("!!!"), EntityKey("ash elm")]),
    kind="hashed",
    dimension=64,
    epsilon=0.0,
)
def test_filter_matches_reference_scan(triples, keys, kind, dimension, epsilon):
    embedder = make_embedder(kind, dimension)
    candidates = {Triple.from_surface(*t) for t in triples}
    if isinstance(epsilon, int):
        attained = sorted(
            {s for t in candidates if 0.0 <= (s := reference_best_key(t, embedder, keys)[1]) <= 1.0}
        )
        epsilon = attained[epsilon % len(attained)] if attained else 0.5
    result = filter_triples(candidates, keys, embedder, eps(epsilon))
    expected = reference_filter(candidates, keys, embedder, epsilon)
    assert [(s.triple, s.best_key, s.score) for s in result.kept] == expected
    assert all(s.best_key is key for s, (_, key, _) in zip(result.kept, expected))


def undeduplicated_pairs(keys: KeySet):
    """Every scoring pair, repeated texts included: the reference that
    ``KeySet.scoring_pairs``, one pair per text, must filter as."""
    pairs = [(key, serialize_key(key)) for key in keys.local_keys]
    for subgraph in keys.global_keys:
        pairs.append((subgraph, serialize_key(subgraph)))
        pairs.extend((subgraph, serialize_key(t)) for t in subgraph.triples)
    return pairs


@st.composite
def _repeating_keys(draw):
    """Key sets whose subgraph constituents restate local triple keys or each other."""
    pool = draw(st.lists(_triple_key, min_size=1, max_size=4))
    local = draw(st.lists(st.one_of(st.sampled_from(pool), _text.map(EntityKey)), max_size=4))
    subgraphs = draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=2, max_size=3).map(lambda ts: SubgraphKey(tuple(ts))), max_size=3)
    )
    return build_key_set([*local, *subgraphs])


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(st.tuples(_text, _text, _text), max_size=30),
    keys=_repeating_keys(),
    # A hashed graph scores with a count table, a signed one with a dense index.
    kind=st.sampled_from(["hashed", "signed"]),
    dimension=_dimensions,
    # A float is epsilon; an int picks an attained score as epsilon.
    epsilon=st.one_of(st.floats(0.0, 1.0), st.integers(0, 30)),
)
@example(
    triples=[
        ("David Beckham", "recruited_by", "Alex Ferguson"),
        ("Alex Ferguson", "manages", "Manchester United"),
        ("Alex Ferguson", "tenure", "1986–2013"),
    ],
    keys=build_key_set(
        [
            EntityKey("David Beckham"),
            TripleKey("manager", "recruited", "David Beckham"),
            EntityKey("Manchester United"),
            SubgraphKey(
                (TripleKey("manager", "recruited", "David Beckham"), TripleKey("manager", "manage", "Manchester United"))
            ),
        ]
    ),
    kind="hashed",
    dimension=256,
    epsilon=0.5,
)
def test_deduplicated_pairs_filter_as_all_pairs(triples, keys, kind, dimension, epsilon):
    embedder = make_embedder(kind, dimension)
    candidates = {Triple.from_surface(*t) for t in triples}
    every_pair = KeySet(keys.local_keys, keys.global_keys)
    every_pair.scoring_pairs = lambda: undeduplicated_pairs(keys)  # type: ignore[method-assign]
    if isinstance(epsilon, int):
        attained = sorted(
            {s for t in candidates if 0.0 <= (s := reference_best_key(t, embedder, every_pair)[1]) <= 1.0}
        )
        epsilon = attained[epsilon % len(attained)] if attained else 0.5
    texts = [text for _, text in keys.scoring_pairs()]
    assert texts == list(dict.fromkeys(text for _, text in undeduplicated_pairs(keys)))
    result = filter_triples(candidates, keys, embedder, eps(epsilon))
    expected = filter_triples(candidates, every_pair, embedder, eps(epsilon))
    assert [(s.triple, s.best_key, s.score) for s in result.kept] == [
        (s.triple, s.best_key, s.score) for s in expected.kept
    ]
    assert all(s.best_key is e.best_key for s, e in zip(result.kept, expected.kept))


def hub_graph(tails):
    return KnowledgeGraph(Triple.from_surface("hub", "links", tail) for tail in tails)


@settings(max_examples=200, deadline=None)
@given(
    tails=st.lists(_text, min_size=2, max_size=40, unique=True),
    keys=_keys,
    kind=_kinds,
    dimension=_dimensions,
    cap=st.integers(1, 39),
)
def test_hub_cap_matches_reference_ranking(tails, keys, kind, dimension, cap):
    embedder = make_embedder(kind, dimension)
    graph = hub_graph(tails)
    cap = 1 + cap % (graph.triple_count - 1)
    keys = build_key_set([EntityKey("hub"), *keys.all_keys()])
    # Only the exact mention "hub" resolves, so the hub's expansion is the one capped.
    cfg = PipelineConfig(hub_cap=cap, resolve_threshold=1.0)
    candidates = set(gather_candidates(graph, keys, embedder, cfg).triples())
    rest = set().union(*(expand(graph, m, 1) for m in keys.mentions() if normalize(m) != "hub"))
    ref = reference_hub_cap(expand(graph, "hub", 1), keys, embedder, cap)
    assume(not ref.on_edge)
    assert candidates == ref.new | rest
    if ref.clear:
        assert candidates == ref.old | rest


def test_non_unit_embedder_rejected(fixture_graph):
    embedder = ScaledEmbedder(64)
    keys = build_key_set([EntityKey("David Beckham")])
    with pytest.raises(ValueError, match="embedder contract"):
        gather_candidates(fixture_graph, keys, embedder, PipelineConfig())
    with pytest.raises(ValueError, match="embedder contract"):
        filter_triples(set(fixture_graph.triples), keys, embedder, PipelineConfig())


class TableEmbedder:
    """Given unit vectors for given texts; the zero vector for any other text."""

    def __init__(self, table):
        self.dimension = 2
        self._table = {text: np.array(vec) for text, vec in table.items()}

    def embed(self, text):
        return self._table.get(text, np.zeros(self.dimension))


def test_hub_cap_near_ties_break_by_sort_key():
    graph = hub_graph(["birch elm yew", "elm birch fir", "elm elm"])
    first, second, _ = sorted(graph.triples)
    # The two spokes score 1/sqrt(5) and the next double up against the key.
    low = 1.0 / math.sqrt(5.0)
    high = float(np.nextafter(low, 1.0))
    embedder = TableEmbedder({
        "hub": [1.0, 0.0],
        serialize_triple(first): [low, math.sqrt(1.0 - low * low)],
        serialize_triple(second): [high, math.sqrt(1.0 - high * high)],
    })
    keys = build_key_set([EntityKey("hub")])
    scores = [reference_best_key(t, embedder, keys)[1] for t in (first, second)]
    assert scores == [low, high]
    assert low < high <= low + RESCORE_TOLERANCE
    candidates = gather_candidates(graph, keys, embedder, PipelineConfig(hub_cap=1))
    assert candidates.triples() == [first]
    assert reference_hub_cap(graph.triples, keys, embedder, 1).old == {second}


class ListedGraph(KnowledgeGraph):
    """Returns each expansion's row ids as a list in a given order."""

    def __init__(self, triples, rng):
        super().__init__(triples)
        self._rng = rng

    def neighbors(self, entity, hops=1):
        expansion = super().neighbors(entity, hops).tolist()
        self._rng.shuffle(expansion)
        return expansion


@settings(max_examples=100, deadline=None)
@given(
    tails=st.lists(_text, min_size=2, max_size=40, unique=True),
    keys=_keys,
    cap=st.integers(1, 39),
    seed=st.integers(0, 2**32 - 1),
)
def test_hub_cap_independent_of_expansion_order(tails, keys, cap, seed):
    embedder = HashedEmbedder(8)
    keys = build_key_set([EntityKey("hub"), *keys.all_keys()])
    cfg = PipelineConfig(hub_cap=cap, resolve_threshold=1.0)
    triples = [Triple.from_surface("hub", "links", tail) for tail in tails]
    results = [
        gather_candidates(ListedGraph(triples, random.Random(seed + i)), keys, embedder, cfg).triples()
        for i in range(3)
    ]
    assert results[0] == results[1] == results[2]


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(st.tuples(_text, _text, _text), max_size=30),
    keys=_keys,
    kind=_kinds,
    dimension=_dimensions,
    hops=st.integers(1, 3),
    cap=st.integers(1, 8),
    epsilon=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
)
def test_gathered_scores_filter_as_scores_taken_afresh(triples, keys, kind, dimension, hops, cap, epsilon):
    # The scores carried from gathering, hub cap included, are each row's own
    # score, so they pre-screen the filter as the candidates' triples scored
    # again in a graph of their own do.
    embedder = make_embedder(kind, dimension)
    graph = KnowledgeGraph(Triple.from_surface(*t) for t in triples)
    cfg = PipelineConfig(hops=hops, hub_cap=cap, epsilon=epsilon)
    gathered = gather_candidates(graph, keys, embedder, cfg)
    fresh = candidate_rows(gathered.triples(), keys, embedder)
    fresh_scores = dict(zip(fresh.triples(), fresh.scores))
    assert len(fresh) == len(gathered)
    for triple, score in zip(gathered.triples(), gathered.scores):
        assert abs(score - fresh_scores[triple]) <= RESCORE_TOLERANCE
    got = filter_by_similarity(gathered, embedder, cfg)
    want = filter_by_similarity(fresh, embedder, cfg)
    listed = [[(s.triple, s.best_key, s.score) for s in result.kept] for result in (got, want)]
    assert listed[0] == listed[1]
    assert got.candidate_count == want.candidate_count


def test_expansion_longer_than_a_block():
    embedder = HashedEmbedder(64)
    words = ["ash", "birch", "cedar", "elm", "fir", "oak", "yew", "pine"]
    tails = [f"{a} {b} {i}" for i, (a, b) in enumerate(itertools.product(words, repeat=2))]
    tails += [f"{a} {i}" for i, a in enumerate(words * 150)]
    graph = hub_graph(tails)
    assert graph.triple_count > 2 * 512
    keys = build_key_set([EntityKey("hub"), TripleKey("hub", "links", "ash elm"), EntityKey("pine")])
    cfg = PipelineConfig(hub_cap=700, resolve_threshold=1.0, epsilon=0.3)
    candidates = gather_candidates(graph, keys, embedder, cfg)
    ref = reference_hub_cap(graph.triples, keys, embedder, 700)
    assert not ref.on_edge
    assert set(candidates.triples()) == ref.new
    result = filter_triples(set(graph.triples), keys, embedder, cfg)
    expected = reference_filter(graph.triples, keys, embedder, 0.3)
    assert len(expected) > 512
    assert [(s.triple, s.best_key, s.score) for s in result.kept] == expected


class CountingEmbedder:
    """A hashed embedder counting its embedded rows and, when it is additive,
    offering ``sparse_counts`` and counting the texts counted."""

    def __init__(self, additive):
        self._inner = HashedEmbedder()
        self.dimension = self._inner.dimension
        self.calls = self.counted = 0
        if additive:
            self.sparse_counts = self._sparse_counts

    def embed(self, text):
        self.calls += 1
        return self._inner.embed(text)

    def _sparse_counts(self, texts):
        self.counted += len(texts)
        return self._inner.sparse_counts(texts)


def test_hub_cap_rows_served_from_cache():
    # Without ``sparse_counts`` the hub's rows are embedded, then served from the
    # cache; with it they are scored from the count table, never embedded,
    # and no text is counted twice. Key texts pass the cache too, so a second
    # gather embeds nothing.
    graph = hub_graph([f"spoke {i}" for i in range(50)])
    keys = build_key_set([EntityKey("hub"), TripleKey("hub", "links", "spoke 7")])
    cfg = PipelineConfig(hub_cap=10)
    for additive in (False, True):
        inner = CountingEmbedder(additive)
        embedder = CachingEmbedder(inner)
        first = gather_candidates(graph, keys, embedder, cfg)
        calls, counted = inner.calls, inner.counted
        if additive:
            assert calls == len(keys.scoring_pairs())
            assert counted == 52  # 50 spokes, "hub" and "links"
        else:
            assert calls >= 50
        second = gather_candidates(graph, keys, embedder, cfg)
        assert second.rows.tolist() == first.rows.tolist()
        assert (inner.calls, inner.counted) == (calls, counted)


# Case, Greek final sigma, a dotted capital I and whitespace runs: counting
# a surface's canonical must give the tokens the surface gives inside the
# serialised triple.
_cased_text = st.one_of(
    _text,
    st.sampled_from(
        ["Ash ELM", "ΟΔΟΣ", "οδοσ Σ", "İzmir", "ASH!", " Ash \t ELM ", "ΟΔΟ\u3000Σ", "elm\x1c\x85Fir", "İ\xa0 zmir"]
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(st.tuples(_cased_text, _cased_text, _cased_text), min_size=1, max_size=30),
    keys=_keys,
    caching=st.booleans(),
    dimension=st.integers(1, 64),
    first=st.integers(0, 29),
)
def test_additive_scores_match_blocked_scores(triples, keys, caching, dimension, first):
    embedder = CachingEmbedder(HashedEmbedder(dimension)) if caching else HashedEmbedder(dimension)
    graph = KnowledgeGraph(Triple.from_surface(*t) for t in triples)
    _, matrix = embed_keys(keys, embedder)
    assume(len(matrix))
    rows = np.arange(graph.triple_count)
    # Score a prefix first, then every row.
    prefix = rows[: first % graph.triple_count]
    blocked = DenseIndex(graph, embedder).row_scores(graph, rows, matrix, embedder)
    for part in (prefix, rows):
        additive = graph.row_scores(part, embedder, matrix)
        assert np.all(np.abs(additive - blocked[part]) <= RESCORE_TOLERANCE)


def test_count_table_filled_concurrently_scores_as_filled_alone():
    # Threads make the first uses of one embedder at once, so one builds the
    # table the others wait for; every score must equal the one a table
    # used by a single thread gives, bit for bit.
    words = ["ash", "birch", "cedar", "elm", "fir", "oak", "yew", "pine"]
    rng = random.Random(5)
    graph = KnowledgeGraph(
        Triple.from_surface(" ".join(rng.sample(words, 2)) + f" {i}", rng.choice(words), rng.choice(words))
        for i in range(600)
    )
    keys = build_key_set([EntityKey("ash elm"), TripleKey("oak 3", "fir", "yew")])
    subsets = [np.sort(rng.sample(range(graph.triple_count), 300)) for _ in range(8)]
    alone = HashedEmbedder(16)
    _, matrix = embed_keys(keys, alone)
    expected = [graph.row_scores(rows, alone, matrix) for rows in subsets]
    shared = HashedEmbedder(16)
    barrier = threading.Barrier(len(subsets))
    results = [None] * len(subsets)

    def score(i):
        barrier.wait(timeout=10)
        results[i] = graph.row_scores(subsets[i], shared, matrix)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(subsets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert got.tobytes() == want.tobytes()
