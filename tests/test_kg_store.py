from __future__ import annotations

import gc
import hashlib
import io
import random
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, ScaledEmbedder, expand, make_embedder, reference_counts
from kgqa import embedding
from kgqa.embedding import RESCORE_TOLERANCE, CachingEmbedder, HashedEmbedder, cosine_sim, embed_matrix
from kgqa.kg_store import (
    CountTable,
    DenseIndex,
    EntityId,
    GraphParseError,
    KnowledgeGraph,
    Triple,
    distinct,
    load_graph,
    load_graph_file,
    normalize,
    serialize_triple,
)


def test_normalize_collapses_whitespace():
    assert normalize("  DAVID   beckham ") == "david beckham"


def test_entity_equality_by_canonical():
    a = EntityId.from_surface("David Beckham")
    b = EntityId.from_surface("  david   BECKHAM ")
    assert a == b
    assert hash(a) == hash(b)


def test_triple_hashable_by_value():
    t1 = Triple.from_surface("A", "rel", "B")
    t2 = Triple.from_surface("a", "REL", "b")
    assert t1 == t2
    assert len({t1, t2}) == 1


def test_load_graph_fixture_counts(fixture_graph):
    assert fixture_graph.triple_count == 3
    assert fixture_graph.entity_count == 4


def test_load_graph_empty_stream():
    g = load_graph(io.StringIO(""))
    assert g.triple_count == 0
    assert g.entity_count == 0


def test_load_graph_deduplicates():
    line = "a\tb\tc"
    g = load_graph([line, line])
    assert g.triple_count == 1


def test_load_graph_malformed_line_reports_number():
    with pytest.raises(GraphParseError) as exc:
        load_graph(["a\tb\tc", "only two\tfields"])
    assert exc.value.line_number == 2


def test_load_graph_skips_comments_and_blanks():
    g = load_graph(["# comment", "", "a\tb\tc"])
    assert g.triple_count == 1


def test_load_graph_reads_a_one_shot_stream():
    lines = ["# comment", "", "Alpha\tr\tBeta\n", "  \n", "alpha\tr\tgamma", "\t#x\ty\tz", "bad\tline\n"]
    with pytest.raises(GraphParseError) as exc:
        load_graph(line for line in lines)
    assert exc.value.line_number == 7
    g = load_graph(line for line in lines[:-1])
    assert g.digest() == load_graph(lines[:-1]).digest()
    assert [_spelled(t) for t in g.triples] == [
        ("alpha", "Alpha", "r", "beta", "Beta"),
        ("alpha", "alpha", "r", "gamma", "gamma"),
    ]


def test_graph_file_with_byte_order_mark(tmp_path):
    bom = b"\xef\xbb\xbf"
    # The fixture opens with a comment line.
    commented = tmp_path / "commented.tsv"
    commented.write_bytes(bom + (FIXTURES / "beckham_graph.tsv").read_bytes())
    fixture = load_graph_file(str(FIXTURES / "beckham_graph.tsv"))
    assert load_graph_file(str(commented)).digest() == fixture.digest()
    first_triple = tmp_path / "first_triple.tsv"
    first_triple.write_bytes(bom + "Alice\tknows\tBob\r\n".encode("utf-8"))
    assert load_graph_file(str(first_triple)).resolve_entity("Alice") == EntityId("alice", "Alice")


def test_triples_sorted_by_canonical_key():
    # Surface order differs from canonical order here: "Zeta" < "alpha" < "zeta".
    lines = [
        f"{head}\t{rel}\t{tail}"
        for head in ("Zeta", "alpha", "Mid Node", "beta")
        for rel in ("REL b", "rel a")
        for tail in ("omega", "Alpha", "GAMMA")
    ]
    random.Random(3).shuffle(lines)
    g = load_graph(lines)
    assert g.triple_count == len(lines)
    assert g.triples == tuple(sorted(g.triples, key=Triple.sort_key))
    assert g.triples[0].head.canonical == "alpha"
    assert g.triples[-1].head.canonical == "zeta"


def test_load_graph_idempotent(fixture_graph):
    lines = ["\t".join(t.sort_key()) for t in fixture_graph.triples]
    reloaded = load_graph(lines)
    assert set(reloaded.triples) == set(fixture_graph.triples)


def test_resolve_entity_exact_match_ignores_threshold(fixture_graph):
    e = fixture_graph.resolve_entity("  DAVID beckham ", embedder=None, threshold=2.0)
    assert e is not None
    assert e.canonical == "david beckham"


def test_resolve_entity_unknown_mention_below_threshold(fixture_graph):
    # oracle: brute-force all mention-entity similarities and confirm none > 0.7
    from kgqa.embedding import cosine_sim

    embedder = HashedEmbedder()
    mention_vec = embedder.embed("zlatan")
    scores = [
        cosine_sim(mention_vec, embedder.embed(e.canonical))
        for e in fixture_graph.entities
    ]
    assert all(s <= 0.7 for s in scores)
    assert fixture_graph.resolve_entity("Zlatan", embedder, 0.7) is None


def test_resolve_entity_fuzzy_match_over_threshold(fixture_graph):
    embedder = HashedEmbedder()
    # shares both tokens with "alex ferguson" plus one extra
    e = fixture_graph.resolve_entity("Alex Ferguson OBE", embedder, 0.5)
    assert e is not None
    assert e.canonical == "alex ferguson"


def test_resolve_entity_empty_mention_rejected(fixture_graph):
    with pytest.raises(ValueError):
        fixture_graph.resolve_entity("   ")


def test_neighbors_one_hop_hub(fixture_graph):
    assert expand(fixture_graph, "alex ferguson", 1) == set(fixture_graph.triples)


def test_neighbors_unknown_entity(fixture_graph):
    assert len(fixture_graph.neighbors("nobody", hops=1)) == 0


def test_neighbors_two_hops_from_leaf(fixture_graph):
    assert expand(fixture_graph, "david beckham", 2) == set(fixture_graph.triples)


def test_neighbors_one_hop_from_leaf(fixture_graph):
    triples = expand(fixture_graph, "david beckham", 1)
    assert len(triples) == 1
    (t,) = triples
    assert t.relation == "recruited_by"


def test_neighbors_rejects_zero_hops(fixture_graph):
    with pytest.raises(ValueError):
        fixture_graph.neighbors("david beckham", hops=0)


_entity = st.text(alphabet="abcdef", min_size=1, max_size=3)
_triples = st.lists(
    st.tuples(_entity, st.sampled_from(["r1", "r2"]), _entity), min_size=0, max_size=30
)


@settings(max_examples=50, deadline=None)
@given(_triples, _entity, st.integers(min_value=1, max_value=4))
def test_neighbors_monotone_in_hops(raw, entity, hops):
    g = KnowledgeGraph([Triple.from_surface(*t) for t in raw])
    smaller = set(g.neighbors(entity, hops).tolist())
    larger = set(g.neighbors(entity, hops + 1).tolist())
    assert smaller <= larger


@settings(max_examples=50, deadline=None)
@given(_triples)
def test_union_of_one_hop_neighborhoods_covers_graph(raw):
    g = KnowledgeGraph([Triple.from_surface(*t) for t in raw])
    union = set()
    for e in g.entities:
        union |= expand(g, e, 1)
    assert union == set(g.triples)


def reference_neighbors(triples, entity, hops):
    """The set-based breadth-first expansion the row-id one replaced."""
    adjacency = {}
    for t in triples:
        for end in (t.head.canonical, t.tail.canonical):
            adjacency.setdefault(end, set()).add(t)
    seen, frontier, collected = {entity}, [entity], set()
    for _ in range(hops):
        next_frontier = []
        for current in frontier:
            for t in adjacency.get(current, ()):
                collected.add(t)
                for end in (t.head.canonical, t.tail.canonical):
                    if end not in seen:
                        seen.add(end)
                        next_frontier.append(end)
        frontier = next_frontier
    return collected


@settings(max_examples=100, deadline=None)
@given(_triples, _entity, st.integers(min_value=1, max_value=4))
def test_neighbors_match_reference_bfs(raw, entity, hops):
    g = KnowledgeGraph([Triple.from_surface(*t) for t in raw])
    rows = g.neighbors(entity, hops)
    assert rows.dtype == np.int32
    assert rows.tolist() == sorted(set(rows.tolist()))
    assert {g.triple(row) for row in rows} == reference_neighbors(g.triples, entity, hops)


def test_adjacency_and_entity_surfaces_match_reference_on_hubs():
    # About 150 rows per entity: an unstable sort of the rows' ends would
    # misorder a hub's rows or pick a later surface than its first.
    rng = random.Random(5)
    names = [f"Node{i}" for i in range(40)]
    lines = [
        f"{rng.choice(names)}\tr{rng.randrange(3)}\t{rng.choice([rng.choice(names), rng.choice(names).upper()])}"
        for _ in range(3000)
    ]
    g = load_graph(lines)
    rows, entities, _ = reference_graph(reference_parse(lines))
    assert [_spelled_entity(e) for e in g.entities] == [_spelled_entity(e) for e in entities]
    for e in g.entities:
        want = [i for i, t in enumerate(rows) if e.canonical in (t.head.canonical, t.tail.canonical)]
        assert g.neighbors(e, 1).tolist() == want


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.int32, np.int64]),
    values=st.one_of(
        st.lists(st.integers(-(2**31), 2**31 - 1), max_size=60),
        st.lists(st.integers(0, 5), max_size=60),
        st.integers(0, 30).map(lambda n: [7] * n),
    ),
)
def test_distinct_matches_np_unique(dtype, values):
    array = np.array(values, dtype=dtype)
    got, want = distinct(array), np.unique(array)
    assert got.dtype == want.dtype == dtype
    assert got.tolist() == want.tolist()


def reference_parse(lines):
    """The loader's parse before the columnar store: one Triple per line."""
    triples = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise GraphParseError(line_number, f"expected 3 tab-separated fields, got {len(fields)}")
        head, relation, tail = (f.strip() for f in fields)
        if not head or not relation or not tail:
            raise GraphParseError(line_number, "empty field in triple")
        triples.append(Triple.from_surface(head, relation, tail))
    return triples


def reference_graph(triples):
    """The graph before the columnar store: first triple wins, sorted by
    ``sort_key``; with its entities (first surface seen) and digest."""
    unique = {}
    for t in triples:
        unique.setdefault(t.sort_key(), t)
    rows = tuple(sorted(unique.values(), key=Triple.sort_key))
    entities = {}
    for t in rows:
        for end in (t.head, t.tail):
            entities.setdefault(end.canonical, end)
    h = hashlib.sha256()
    for t in rows:
        h.update("\t".join(t.sort_key()).encode("utf-8"))
        h.update(b"\n")
    return rows, [entities[c] for c in sorted(entities)], h.hexdigest()


def _spelled_entity(e):
    return (e.canonical, e.surface)


def _spelled(t):
    """Every field of a triple, surfaces included: ``Triple`` equality ignores them."""
    return (*_spelled_entity(t.head), t.relation, *_spelled_entity(t.tail))


# Case, spacing, Greek final sigma, a dotted capital I that lowercases to two
# code points, and a name with no word tokens.
_name = st.sampled_from(
    ["Alpha", "alpha", " ALPHA ", "al pha", "al  Pha", "ΟΔΟΣ", "οδος", "Σ", "σ", "İzmir", "i̇zmir", "!!!", "#x"]
)
_line = st.one_of(
    st.tuples(_name, st.sampled_from(["Rel", "rel", " r e l ", "ΣΑΣ"]), _name).map("\t".join),
    st.sampled_from(["", "   ", "# comment", "  # note", "a\tb", "a\t \tc", "a\tb\tc\td", "x\ty\tz\r\n"]),
    # Boundaries of the loader's triple test: a comment behind blanks or
    # an empty head, a ``#`` past the head, blank fields, a trailing tab or
    # carriage return, a blank head prefix, and Unicode blanks.
    st.sampled_from(
        ["  #x\ty\tz", "\t#x\ty\tz", "x\t#y\tz", " \t \t ", "x\ty\tz\t", "x\ty\tz\r", " x\ty\tz", "\x1cx\ty\t\u3000"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=25))
def test_columnar_loader_matches_reference(lines):
    try:
        parsed = reference_parse(lines)
    except GraphParseError as exc:
        with pytest.raises(GraphParseError) as raised:
            load_graph(lines)
        assert raised.value.line_number == exc.line_number
        assert str(raised.value) == str(exc)
        return
    rows, entities, digest = reference_graph(parsed)
    for g in (load_graph(lines), KnowledgeGraph(parsed)):
        assert [_spelled(t) for t in g.triples] == [_spelled(t) for t in rows]
        assert [_spelled_entity(e) for e in g.entities] == [_spelled_entity(e) for e in entities]
        assert g.entity_count == len(entities)
        assert g.digest() == digest


def test_graph_from_triples_takes_each_canonical_from_its_surface():
    # Whatever canonical an EntityId carries, an end is interned by its
    # surface and its entity is normalize(surface), as when loaded.
    x_as_a, x_as_b = EntityId("a", " X  y"), EntityId("b", " X  y")
    triples = [
        Triple(x_as_b, "R", x_as_a),
        Triple(x_as_a, "r", EntityId("c", "Y")),
        Triple(EntityId("c", "x Y"), "s", x_as_b),
        Triple(x_as_a, "r", EntityId("c", "Z")),
    ]
    g = KnowledgeGraph(triples)
    assert [_spelled_entity(e) for e in g.entities] == [("x y", " X  y"), ("y", "Y"), ("z", "Z")]
    assert [_spelled(t) for t in g.triples] == [
        ("x y", " X  y", "r", "x y", " X  y"),
        ("x y", " X  y", "r", "y", "Y"),
        ("x y", " X  y", "r", "z", "Z"),
        ("x y", "x Y", "s", "x y", " X  y"),
    ]
    loaded = load_graph(f"{t.head.surface}\t{t.relation}\t{t.tail.surface}" for t in triples)
    assert g.digest() == loaded.digest()


def reference_resolve(g, mention, embedder, threshold):
    """The per-entity scan resolve_entity replaced: sorted order, strict >."""
    canonical = normalize(mention)
    for e in g.entities:
        if e.canonical == canonical:
            return e
    mention_vec = embedder.embed(canonical)
    best, best_score = None, threshold
    for e in sorted(g.entities, key=lambda e: e.canonical):
        score = cosine_sim(mention_vec, embedder.embed(e.canonical))
        if score > best_score:
            best, best_score = e, score
    return best


# Few words and few buckets give many exact ties: names that are token
# permutations of each other, and bucket collisions between different words.
_words = st.lists(st.sampled_from(["ash", "birch", "cedar", "elm", "fir"]), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    names=st.lists(_words, min_size=1, max_size=8),
    mention=st.one_of(_words.map(" ".join), st.just("!!!")),
    kind=st.sampled_from(["hashed", "caching", "signed"]),
    dimension=st.sampled_from([4, 8, 64]),
    # A float is the threshold; an int picks an attained score as the threshold.
    threshold=st.one_of(st.floats(-0.2, 1.0), st.integers(0, 20)),
)
@example(names=[["ash"], ["elm", "fir"]], mention="!!!", kind="hashed", dimension=8, threshold=0.7)
@example(names=[["ash"], ["elm", "fir"]], mention="!!!", kind="signed", dimension=8, threshold=-0.1)
def test_resolve_entity_matches_reference_scan(names, mention, kind, dimension, threshold):
    embedder = make_embedder(kind, dimension)
    # Each name also appears as a permutation of its tokens: an exact tie.
    surfaces = [" ".join(w) for w in names] + [" ".join(reversed(w)) for w in names]
    g = KnowledgeGraph(Triple.from_surface(s, "r", "hub") for s in surfaces)
    if isinstance(threshold, int):
        mention_vec = embedder.embed(normalize(mention))
        attained = sorted({cosine_sim(mention_vec, embedder.embed(e.canonical)) for e in g.entities})
        threshold = attained[threshold % len(attained)]
    expected = reference_resolve(g, mention, embedder, threshold)
    assert g.resolve_entity(mention, embedder, threshold) == expected


def test_resolve_entity_score_equal_to_threshold_rejected():
    g = KnowledgeGraph([Triple.from_surface("alpha beta", "r", "gamma")])
    embedder = HashedEmbedder()
    score = cosine_sim(embedder.embed("alpha"), embedder.embed("alpha beta"))
    assert g.resolve_entity("alpha", embedder, score) is None
    assert g.resolve_entity("alpha", embedder, np.nextafter(score, 0.0)).canonical == "alpha beta"


def test_fuzzy_resolve_rejects_non_unit_embedder(fixture_graph):
    embedder = ScaledEmbedder(64)
    assert fixture_graph.resolve_entity("david beckham", embedder, 0.5).canonical == "david beckham"
    with pytest.raises(ValueError, match="embedder contract"):
        fixture_graph.resolve_entity("Alex Ferguson OBE", embedder, 0.5)


def test_entities_sorted_once(fixture_graph):
    entities = fixture_graph.entities
    assert [e.canonical for e in entities] == sorted(e.canonical for e in entities)
    assert fixture_graph.entities is entities


class DenseCountingEmbedder:
    """A hashed embedder without ``sparse_counts``, so a graph builds it a dense
    index; counts its bulk embeds, each slow, so that a concurrent build
    stays open while other threads arrive."""

    def __init__(self):
        self._inner = HashedEmbedder()
        self.dimension = self._inner.dimension
        self.embed = self._inner.embed
        self.bulk_calls = 0

    def embed_many(self, texts):
        self.bulk_calls += 1
        time.sleep(0.05)
        return embed_matrix(self._inner, texts)


class CountingEmbedder(DenseCountingEmbedder):
    """With ``sparse_counts``, so a graph builds it a count table; records
    the size of each call the table makes, each call slow."""

    def __init__(self):
        super().__init__()
        self.calls = []

    @property
    def counted(self):
        return sum(self.calls)

    def sparse_counts(self, texts):
        self.calls.append(len(texts))
        time.sleep(0.05)
        return self._inner.sparse_counts(texts)


def counted_texts(graph):
    """How many texts a count table of ``graph`` counts: its distinct
    canonicals and relations, a text that is both counted once."""
    triples = graph.triples
    return len({t.relation for t in triples} | {e.canonical for t in triples for e in (t.head, t.tail)})


def test_entity_index_per_embedder(fixture_graph):
    # With ``sparse_counts`` the index is a count table holding each of the
    # graph's canonicals and relations once, counted in one call.
    first, second = CountingEmbedder(), CountingEmbedder()
    for embedder in (first, second, first):
        assert fixture_graph.resolve_entity("Alex Ferguson OBE", embedder, 0.5).canonical == "alex ferguson"
    assert (first.calls, second.calls) == ([counted_texts(fixture_graph)],) * 2
    assert (first.bulk_calls, second.bulk_calls) == (0, 0)
    # Without, it is the dense matrix of one bulk embed.
    dense = DenseCountingEmbedder()
    for _ in range(2):
        assert fixture_graph.resolve_entity("Alex Ferguson OBE", dense, 0.5).canonical == "alex ferguson"
    assert dense.bulk_calls == 1
    assert len(fixture_graph._indexes) == 3


def test_entity_index_not_built_for_exact_mentions(fixture_graph):
    for embedder in (CountingEmbedder(), DenseCountingEmbedder()):
        fixture_graph.resolve_entity("david beckham", embedder, 0.7)
        assert embedder.bulk_calls == 0
        assert getattr(embedder, "counted", 0) == 0
    assert len(fixture_graph._indexes) == 0


@pytest.mark.parametrize("make", [CountingEmbedder, DenseCountingEmbedder])
@pytest.mark.parametrize("threshold", [-0.5, 0.0, 0.7])
def test_tokenless_mention_embeds_only_itself(make, threshold):
    # "!!!" embeds to the zero vector, which scores exactly 0 against every
    # entity: under a negative threshold the first entity wins, else none,
    # and no index is built nor any entity embedded.
    graph = load_graph(f"head {i}\tr\ttail {i}" for i in range(250))
    assert graph.entity_count == 500
    embedder = make()
    embedded = []
    embed = embedder.embed
    embedder.embed = lambda text: embedded.append(text) or embed(text)
    resolved = graph.resolve_entity("!!!", embedder, threshold)
    assert resolved == (graph.entities[0] if threshold < 0 else None)
    assert resolved == reference_resolve(graph, "!!!", HashedEmbedder(), threshold)
    assert embedded == ["!!!"]
    assert (embedder.bulk_calls, getattr(embedder, "calls", [])) == (0, [])
    assert len(graph._indexes) == 0


def test_entity_index_freed_with_its_embedder(fixture_graph):
    # Fuzzy resolves and row scoring share one index per embedder; a bare
    # HashedEmbedder is a key too, so the index must not refer to it.
    for make in (lambda: CachingEmbedder(HashedEmbedder()), HashedEmbedder, DenseCountingEmbedder):
        embedder = make()
        fixture_graph.resolve_entity("Alex Ferguson OBE", embedder, 0.5)
        rows = fixture_graph.neighbors("alex ferguson", 1)
        keys = embedder.embed("alex ferguson")[None]
        assert fixture_graph.row_scores(rows, embedder, keys).shape == rows.shape
        assert len(fixture_graph._indexes) == 1
        del embedder
        gc.collect()
        assert len(fixture_graph._indexes) == 0


def test_entity_index_built_once_under_concurrent_resolves(fixture_graph):
    for inner in (CountingEmbedder(), DenseCountingEmbedder()):
        _use_concurrently(fixture_graph, inner)
        # One call counting each canonical and relation once, or one bulk embed.
        if isinstance(inner, CountingEmbedder):
            assert (inner.calls, inner.bulk_calls) == ([counted_texts(fixture_graph)], 0)
        else:
            assert inner.bulk_calls == 1


def _use_concurrently(graph, inner):
    # Four first uses at once, two resolves and two row scorings.
    embedder = CachingEmbedder(inner)
    rows = graph.neighbors("alex ferguson", 1)
    keys = embedder.embed("alex ferguson")[None]
    turns = iter(range(4))

    def use():
        if next(turns) % 2:
            return graph.row_scores(rows, embedder, keys)
        return graph.resolve_entity("Alex Ferguson OBE", embedder, 0.5)

    results = _concurrently(use)
    resolved = [result.canonical for result in results if isinstance(result, EntityId)]
    assert resolved == ["alex ferguson"] * 2
    want = DenseIndex(graph, embedder).row_scores(graph, rows, keys, embedder)
    for scores in (result for result in results if not isinstance(result, EntityId)):
        assert np.all(np.abs(scores - want) <= RESCORE_TOLERANCE)


def _concurrently(call, threads=4):
    """The results of ``call`` run on ``threads`` threads released at once,
    with thread switches as frequent as the interpreter allows."""
    barrier = threading.Barrier(threads)
    results = []

    def run():
        barrier.wait(timeout=10)
        results.append(call())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(results) == threads
    return results


class ReferenceCounts:
    """Hashed vectors whose ``sparse_counts`` are the nonzero entries of each
    text's md5 reference, one dense vector per text."""

    def __init__(self, dimension):
        self.dimension = dimension
        self.embed = HashedEmbedder(dimension).embed

    def sparse_counts(self, texts):
        dense = np.zeros((len(texts), self.dimension))
        for row, text in zip(dense, texts):
            row[:] = reference_counts(text, self.dimension)
        owner, bucket = np.nonzero(dense)
        return owner, bucket, dense[owner, bucket]


class SignedCounts:
    """Hashed token counts in which a token adds -1 to its bucket when a bit
    of its md5 says so: additive, like a bag of tokens, but an entity that
    shares buckets with a mention can score 0 or below."""

    def __init__(self, dimension):
        self.dimension = dimension

    def _counts(self, text):
        vec = np.zeros(self.dimension)
        for token in re.findall(r"\w+", text.lower()):
            digest = int(hashlib.md5(token.encode("utf-8")).hexdigest(), 16)
            vec[digest % self.dimension] += -1.0 if (digest // self.dimension) % 2 else 1.0
        return vec

    def embed(self, text):
        vec = self._counts(text)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def sparse_counts(self, texts):
        dense = np.array([self._counts(text) for text in texts]).reshape(len(texts), self.dimension)
        owner, bucket = np.nonzero(dense)
        return owner, bucket, dense[owner, bucket]


_WORDS = ["Ash", "elm", "OAK", "ΟΔΟΣ", "οδοσ", "İzmir", "ash-elm", "x1", "!!", "Élan", "fir", "yew"]


def _random_graph(rng, triples):
    """A graph of ``triples`` random lines of one to three words per field."""
    def field():
        return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))

    return load_graph(f"{field()}\t{field()}\t{field()}" for _ in range(triples))


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bulk_filled_table_matches_text_by_text_reference(seed, threads):
    # One ``sparse_counts`` call over the canonicals and relations stores,
    # and scores with, exactly the bits that counting each text alone from
    # the md5 reference does.
    rng = random.Random(seed)
    dimension = rng.choice([8, 64, 256])
    graph = _random_graph(rng, 300)
    rows = np.arange(graph.triple_count)
    keys = embed_matrix(HashedEmbedder(dimension), ["ash elm", "İzmir οδοσ", "oak", "!!"])
    mention = HashedEmbedder(dimension).embed("ash oak yew fir")

    md5 = ReferenceCounts(dimension)
    reference = CountTable(graph, md5)
    want_entities = checked_entity_scores(reference, mention, md5)
    want_rows = reference.row_scores(graph, rows, keys, md5)

    embedder = CachingEmbedder(HashedEmbedder(dimension))
    results = _concurrently(
        lambda: (
            graph.resolve_entity("ash oak yew fir", embedder, 0.1),
            graph.row_scores(rows, embedder, keys),
        ),
        threads,
    )
    table = graph._index(embedder)
    assert isinstance(table, CountTable)
    assert len(table._start) == counted_texts(graph) + 1
    for text in range(counted_texts(graph)):
        got = slice(table._start[text], table._start[text + 1])
        want = slice(reference._start[text], reference._start[text + 1])
        assert table._buckets[got].tobytes() == reference._buckets[want].tobytes()
        assert table._values[got].tobytes() == reference._values[want].tobytes()
    assert checked_entity_scores(table, mention, embedder).tobytes() == want_entities.tobytes()
    for _, scores in results:
        assert scores.tobytes() == want_rows.tobytes()


def test_unsorted_sparse_counts_rejected(fixture_graph):
    class Reversed(ReferenceCounts):
        def sparse_counts(self, texts):
            return tuple(column[::-1] for column in super().sparse_counts(texts))

    with pytest.raises(ValueError, match="embedder contract: sparse_counts must be sorted"):
        fixture_graph.resolve_entity("Alex Ferguson OBE", Reversed(64), 0.5)


def checked_entity_scores(table, vec, embedder):
    """``table.entity_scores``, once it is checked to hold one score per
    entity, exactly 0 for every entity that shares no bucket with ``vec``."""
    scores = table.entity_scores(vec, embedder)
    buckets = np.flatnonzero(vec)
    entities = len(table._entity_inverse_norms)
    apart = [
        entity
        for entity in range(entities)
        if not np.isin(table._buckets[table._start[entity] : table._start[entity + 1]], buckets).any()
    ]
    assert scores.shape == (entities,)
    assert scores[apart].tobytes() == np.zeros(len(apart)).tobytes()
    return scores


def entity_major_scores(table, vec):
    """The entity-major scan the postings replaced: every entity's whole
    segment, bincounted in entity, then bucket order."""
    entities = np.arange(len(table._entity_inverse_norms))
    starts, stops = table._start[entities], table._start[entities + 1]
    at = np.concatenate([np.arange(start, stop) for start, stop in zip(starts, stops)] + [np.empty(0, int)])
    owner, buckets, values = np.repeat(entities, stops - starts), table._buckets[at], table._values[at]
    norms = np.sqrt(np.bincount(owner, weights=values * values, minlength=len(entities)))
    inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return np.bincount(owner, weights=values * vec[buckets], minlength=len(entities)) * inverse


def _mention(rng):
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 4)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    triples=st.integers(1, 60),
    dimension=st.sampled_from([4, 8, 64, 256]),
    zero=st.booleans(),
    signed=st.booleans(),
    threshold=st.one_of(st.sampled_from([-0.5, 0.0]), st.floats(-0.2, 1.0)),
)
@example(seed=0, triples=5, dimension=8, zero=True, signed=False, threshold=-0.1)
def test_postings_match_entity_major_scan(seed, triples, dimension, zero, signed, threshold):
    # Bitwise-equal scores, so resolving is unchanged, ties and all; the
    # zero vector of ``"!!!"`` scores every entity 0. Signed counts let
    # entities that share a bucket score 0 or below the untouched ones.
    rng = random.Random(seed)
    graph = _random_graph(rng, triples)
    embedder = SignedCounts(dimension) if signed else HashedEmbedder(dimension)
    mention = "!!!" if zero else _mention(rng)
    vec = embedder.embed(normalize(mention))
    table = graph._index(embedder)
    got = checked_entity_scores(table, vec, embedder)
    assert got.tobytes() == entity_major_scores(table, vec).tobytes()
    if zero:
        assert got.tobytes() == np.zeros(graph.entity_count).tobytes()
    for probe in (_mention(rng), mention):
        probe_vec = embedder.embed(normalize(probe))
        got = checked_entity_scores(table, probe_vec, embedder)
        assert got.tobytes() == entity_major_scores(table, probe_vec).tobytes()
        assert graph.resolve_entity(probe, embedder, threshold) == reference_resolve(graph, probe, embedder, threshold)


def _unshared_token(graph, embedder):
    """A token whose bucket no entity's tokens fall in."""
    taken = np.zeros(embedder.dimension)
    for entity in graph.entities:
        taken += embedder.embed(entity.canonical)
    return next(
        token for token in (f"q{i}" for i in range(10_000)) if not (embedder.embed(token) * taken).any()
    )


@pytest.mark.parametrize("dimension", [4, 8, 64, 256])
@pytest.mark.parametrize("threshold", [-0.5, 0.0])
def test_mention_sharing_no_bucket_scores_every_entity_zero(dimension, threshold):
    # Below a negative threshold every entity qualifies: the smallest
    # canonical wins the tie at 0, as in the scan.
    graph = load_graph(["ash\tr\telm"])
    embedder = HashedEmbedder(dimension)
    mention = _unshared_token(graph, embedder)
    vec = embedder.embed(mention)
    table = graph._index(embedder)
    scores = checked_entity_scores(table, vec, embedder)
    assert np.flatnonzero(scores).size == 0
    assert scores.tobytes() == np.zeros(graph.entity_count).tobytes()
    assert scores.tobytes() == entity_major_scores(table, vec).tobytes()
    expected = reference_resolve(graph, mention, embedder, threshold)
    assert graph.resolve_entity(mention, embedder, threshold) == expected
    assert (expected is None) == (threshold >= 0)


@pytest.mark.parametrize("threshold", [-0.5, 0.0])
def test_untouched_entity_outranks_negative_scores(threshold):
    # Every entity sharing a bucket with the mention scores below zero, the
    # smallest canonical among them, and one that shares none sorts between
    # two that do. Below a negative threshold the smallest entity sharing no
    # bucket wins at exactly 0; at a zero threshold nothing does.
    embedder = SignedCounts(8)
    graph = load_graph(["ash elm\tr\tbirch", "cedar elm\tr\tfir"])
    names = [entity.canonical for entity in graph.entities]
    vectors = [embedder.embed(name) for name in names]

    def sharing(token):
        return [i for i, vec in enumerate(vectors) if (vec * embedder.embed(token)).any()]

    def fits(token):
        touched = sharing(token)
        negative = all(vectors[i] @ embedder.embed(token) < 0 for i in touched)
        return touched[:1] == [0] and negative and touched != list(range(len(touched))) and len(touched) < len(names)

    mention = next(token for token in (f"q{i}" for i in range(10_000)) if fits(token))
    touched = sharing(mention)
    smallest = min(set(range(len(names))) - set(touched))
    assert 0 < smallest < touched[-1]
    scores = checked_entity_scores(graph._index(embedder), embedder.embed(mention), embedder)
    assert np.flatnonzero(scores).tolist() == touched
    expected = reference_resolve(graph, mention, embedder, threshold)
    assert graph.resolve_entity(mention, embedder, threshold) == expected
    assert expected == (graph.entities[smallest] if threshold < 0 else None)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    triples=st.integers(1, 40),
    keys=st.integers(1, 3),
    dimension=st.sampled_from([4, 8, 64, 256]),
    kind=st.sampled_from(["hashed", "signed", "reference"]),
)
@example(seed=0, triples=10, keys=1, dimension=256, kind="hashed")
def test_row_scores_zero_where_key_dots_are_zero(seed, triples, keys, dimension, kind):
    # A row none of whose texts shares a bucket with a key dots 0 with every
    # key and scores exactly 0.0, its norm never taken; any other row scores
    # within the tolerance of the cosine of its serialised triple.
    rng = random.Random(seed)
    graph = _random_graph(rng, triples)
    embedder = {"hashed": HashedEmbedder, "signed": SignedCounts, "reference": ReferenceCounts}[kind](dimension)
    key_matrix = embed_matrix(embedder, [_mention(rng) for _ in range(keys)])
    rows = np.arange(graph.triple_count)
    scores = graph.row_scores(rows, embedder, key_matrix)
    key_buckets = np.flatnonzero(key_matrix.any(axis=0))
    for row, score in zip(rows.tolist(), scores.tolist()):
        triple = graph.triple(row)
        texts = [triple.head.surface, triple.relation, triple.tail.surface]
        _, buckets, _ = embedder.sparse_counts(texts)
        cosine = max(cosine_sim(embedder.embed(serialize_triple(triple)), key) for key in key_matrix)
        if not np.isin(buckets, key_buckets).any():
            assert np.float64(score).tobytes() == np.float64(0.0).tobytes()
            assert cosine == 0.0
        else:
            assert abs(score - cosine) <= RESCORE_TOLERANCE


def _generated_lines(things, seed=0):
    """Graph lines in the benchmarks' shape: title-case things of three
    syllable tokens linked to each other, each with two one-token values."""
    rng = random.Random(seed)
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

    def name(tokens):
        return " ".join("".join(rng.choice(syllables) for _ in range(3)).title() for _ in range(tokens))

    names = [name(3) for _ in range(things)]
    values = [name(1) for _ in range(things // 3)]
    links = ["allied with", "trades with", "borders on", "rivals", "supplies"]
    attributes = ["birth place", "home port", "founding year", "chief export"]
    for thing in names:
        for _ in range(2):
            yield f"{thing}\t{rng.choice(links)}\t{rng.choice(names)}"
            yield f"{thing}\t{rng.choice(attributes)}\t{rng.choice(values)}"


def test_count_table_build_peak_within_twice_its_arrays(monkeypatch):
    # Building the table frees its temporaries as it goes: its traced peak
    # stays within twice the bytes of the arrays it keeps. A dimension no
    # other test uses gets a bucket memo of its own, warmed by a first
    # build, so the memo's growth is not counted.
    dimension = 253
    monkeypatch.delitem(embedding._memos, dimension, raising=False)
    graph = load_graph(_generated_lines(5_000))
    assert 19_000 <= graph.triple_count <= 20_000
    CountTable(graph, HashedEmbedder(dimension))
    gc.collect()
    tracemalloc.start()
    try:
        table = CountTable(graph, HashedEmbedder(dimension))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(array.nbytes for array in vars(table).values() if isinstance(array, np.ndarray))
    assert len(table._start) == counted_texts(graph) + 1
    assert peak <= 2 * kept
