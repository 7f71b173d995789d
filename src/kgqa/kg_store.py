"""Immutable triple store with entity resolution and neighborhood expansion.

The graph is loaded once from a TSV stream (``head<TAB>relation<TAB>tail``
per line, ``#`` comments and blank lines ignored) and is read-only after
that, so it is safe to share across threads. The load is one streaming
pass: each line is split once, and a triple line's stripped fields are
interned as ids of its distinct surfaces and relations; each distinct text
is normalised once, after the pass. ``KnowledgeGraph(triples)`` interns
ends by surface too: an entity's canonical is ``normalize`` of its surfaces.

Storage is columnar: int32 columns of ids into one pool of distinct texts.
A row holds its head, relation and tail, and the surfaces of its head and
tail, which serialisation and traces read. The pool opens with the sorted
canonicals, so an entity's id is its canonical's, then the relations, then
the other surfaces. Rows are sorted by canonical and relation text: row
order is ``Triple.sort_key`` order. A CSR adjacency lists each entity's
rows. ``Triple`` and ``EntityId`` objects are built only when asked for.

Built on an embedder's first use of the graph, under a lock, and dropped
with its embedder: the per-embedder index, which owns all similarity
scoring (entities against a mention for a fuzzy resolve, rows against a
question's keys for retrieval). For an embedder with ``sparse_counts`` it
is a ``CountTable``, which counts the canonicals and relations in one call,
embeds nothing and relies on ``serialize_triple``'s form, and which scores
entities and rows alike from the postings of a vector's buckets; for any
other embedder, a ``DenseIndex``. Both return every entity's score,
indexed by entity id.
"""
from __future__ import annotations

import hashlib
import threading
import weakref
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .embedding import RESCORE_TOLERANCE, Embedder, cosine_sim, embed_matrix
from .inputs import read_lines


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return " ".join(text.split()).lower()


class GraphParseError(ValueError):
    """A malformed line in a graph file. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str, source: str = "<graph>"):
        super().__init__(f"{source}: line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class EntityId:
    """An entity identified by its normalized text.

    Equality and hashing use only the canonical form; the surface form is
    kept for display.
    """

    canonical: str
    surface: str

    def __post_init__(self) -> None:
        if not self.canonical:
            raise ValueError("entity canonical must be non-empty")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityId):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    @classmethod
    def from_surface(cls, surface: str) -> "EntityId":
        return cls(canonical=normalize(surface), surface=surface.strip())


@dataclass(frozen=True)
class Triple:
    """A ``<entity, relation, entity>`` fact; value-comparable and hashable."""

    head: EntityId
    relation: str
    tail: EntityId

    def __post_init__(self) -> None:
        if not self.relation:
            raise ValueError("triple relation must be non-empty")

    @classmethod
    def from_surface(cls, head: str, relation: str, tail: str) -> "Triple":
        return cls(
            head=EntityId.from_surface(head),
            relation=normalize(relation),
            tail=EntityId.from_surface(tail),
        )

    def sort_key(self) -> tuple[str, str, str]:
        return (self.head.canonical, self.relation, self.tail.canonical)

    def __lt__(self, other: "Triple") -> bool:
        return self.sort_key() < other.sort_key()


def serialize_triple(t: Triple) -> str:
    """The text a triple is embedded as; ``CountTable`` relies on this form."""
    return f"{t.head.surface} {t.relation} {t.tail.surface}"


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d int array, of ``values``' dtype,
    as ``np.unique`` gives them, by one sort: numpy >= 2.3 dedupes by
    hashing, which is many times slower at the sizes of an expansion."""
    ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(start, stop)`` over the pairs."""
    lengths = stops - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return offsets + np.arange(len(offsets))


# Triples ``DenseIndex`` stacks and scores per matrix product: 1 MB at 256
# dimensions however large an expansion is, where a whole one grows with a hub.
_BLOCK_ROWS = 512


def _inverse(norms: np.ndarray) -> np.ndarray:
    """1 / norm, and 0 where the norm is 0."""
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)


class KnowledgeGraph:
    """An indexed, deduplicated set of triples with undirected adjacency."""

    def __init__(self, triples: Iterable[Triple]):
        # Ends are interned by surface, as ``load_graph`` interns them.
        ends: dict[str, int] = {}
        relations: dict[str, int] = {}
        columns = [array("i") for _ in range(3)]
        head, relation, tail = (c.append for c in columns)
        for t in triples:
            head(ends.setdefault(t.head.surface, len(ends)))
            relation(relations.setdefault(t.relation, len(relations)))
            tail(ends.setdefault(t.tail.surface, len(ends)))
        self._build(list(ends), list(relations), *columns)

    def _build(
        self, surfaces: Sequence[str], relations: Sequence[str], head: array, relation: array, tail: array
    ) -> None:
        """Index the rows given as ``head``, ``relation`` and ``tail`` id
        columns. End id ``i`` is the ``i``-th of ``surfaces``, which are
        distinct and in order of first appearance, head before tail; its
        entity is ``normalize`` of it. Relation id ``i`` is the ``i``-th of
        ``relations``, stored normalised, so two ids may share a text."""
        canonicals = list(map(normalize, surfaces))
        relations = list(map(normalize, relations))
        self._entity_ids = {c: i for i, c in enumerate(sorted(set(canonicals)))}
        relation_texts = sorted(set(relations))
        ranks = {text: i for i, text in enumerate(relation_texts)}
        relation_rank = np.array([ranks[text] for text in relations], dtype=np.int32)
        # One pool of distinct texts: the canonicals, sorted, so that an
        # entity's id is its canonical's; then the relations, which end the
        # texts a count table counts; then the other surfaces.
        pool = dict(self._entity_ids)
        relation_text = np.array([pool.setdefault(r, len(pool)) for r in relation_texts], dtype=np.int32)
        self._counted = len(pool)
        end_entity = np.array([self._entity_ids[c] for c in canonicals], dtype=np.int32)
        end_surface = np.array([pool.setdefault(s, len(pool)) for s in surfaces], dtype=np.int32)
        self._texts = list(pool)
        head, relation, tail = (np.frombuffer(c, dtype=np.int32) for c in (head, relation, tail))
        h, hs, r = end_entity[head], end_surface[head], relation_rank[relation]
        t, ts = end_entity[tail], end_surface[tail]
        # A stable sort keeps the first line of each duplicate group first.
        order = np.lexsort((t, r, h))
        h, hs, r, t, ts = (c[order] for c in (h, hs, r, t, ts))
        first = np.ones(len(h), dtype=bool)
        first[1:] = (h[1:] != h[:-1]) | (r[1:] != r[:-1]) | (t[1:] != t[:-1])
        h, hs, r, t, ts = (c[first] for c in (h, hs, r, t, ts))
        # Every column now holds text ids; the relations' ranks served the sort.
        self._head, self._head_surface, self._relation = h, hs, relation_text[r]
        self._tail, self._tail_surface = t, ts
        # CSR adjacency: each entity's rows, ascending; a self-loop once. The
        # rows' ends, head before tail, sort stably by entity, so each
        # entity's run lists its rows in order and opens with its first end.
        # A self-loop's tail end takes the id past the last entity, sorting last.
        n = self.entity_count
        row_ends = np.stack((h, np.where(h != t, t, n)), axis=1).ravel()
        self._adjacency_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_ends, minlength=n + 1)[:n], out=self._adjacency_start[1:])
        order = np.argsort(row_ends, kind="stable")[: self._adjacency_start[-1]]
        self._adjacent_rows = order.astype(np.int32)
        self._adjacent_rows //= 2
        # An entity shows the surface of its first appearance, head before tail.
        self._entity_surface = np.stack((hs, ts), axis=1).ravel()[order[self._adjacency_start[:-1]]]
        # Per embedder: a CountTable or a DenseIndex, built on first use and
        # dropped with the embedder.
        self._indexes: weakref.WeakKeyDictionary[Embedder, "CountTable | DenseIndex"]
        self._indexes = weakref.WeakKeyDictionary()
        self._index_lock = threading.Lock()

    def triple(self, row: int) -> Triple:
        """The triple at ``row``; rows are numbered in ``Triple.sort_key`` order."""
        texts = self._texts
        return Triple(
            head=EntityId(texts[self._head[row]], texts[self._head_surface[row]]),
            relation=texts[self._relation[row]],
            tail=EntityId(texts[self._tail[row]], texts[self._tail_surface[row]]),
        )

    @property
    def triples(self) -> tuple[Triple, ...]:
        """Every triple in ``Triple.sort_key`` order, built on each access."""
        return tuple(map(self.triple, range(self.triple_count)))

    @property
    def triple_count(self) -> int:
        return len(self._head)

    @property
    def entity_count(self) -> int:
        return len(self._entity_ids)

    def _entity(self, entity: int) -> EntityId:
        return EntityId(self._texts[entity], self._texts[self._entity_surface[entity]])

    @cached_property
    def entities(self) -> tuple[EntityId, ...]:
        """Every entity, sorted by canonical."""
        return tuple(map(self._entity, range(self.entity_count)))

    def resolve_entity(
        self,
        mention: str,
        embedder: "Optional[Embedder]" = None,
        threshold: float = 0.7,
    ) -> Optional[EntityId]:
        """Bind a text mention to a graph entity.

        Exact canonical match wins outright; otherwise the entity with the
        highest embedding cosine similarity, provided it exceeds
        ``threshold``. Ties break toward the lexicographically smallest
        canonical. Returns None when nothing qualifies.
        """
        if not mention.strip():
            raise ValueError("mention must be non-empty")
        canonical = normalize(mention)
        exact = self._entity_ids.get(canonical)
        if exact is not None:
            return self._entity(exact)
        if embedder is None or not self._entity_ids:
            return None
        mention_vec = embedder.embed(canonical)
        if not mention_vec.any():
            # A zero vector scores exactly 0 against every entity, so the first
            # entity wins under a negative threshold and none otherwise.
            return self._entity(0) if threshold < 0 else None
        scores = self._index(embedder).entity_scores(mention_vec, embedder)
        np.clip(scores, -1.0, 1.0, out=scores)
        floor = max(float(scores.max()), threshold) - RESCORE_TOLERANCE
        best: Optional[int] = None
        best_score = threshold
        for row in np.flatnonzero(scores >= floor).tolist():
            score = cosine_sim(mention_vec, embedder.embed(self._texts[row]))
            if score > best_score:
                best = row
                best_score = score
        return None if best is None else self._entity(best)

    def _index(self, embedder: Embedder) -> "CountTable | DenseIndex":
        with self._index_lock:
            index = self._indexes.get(embedder)
            if index is None:
                kind = CountTable if getattr(embedder, "sparse_counts", None) is not None else DenseIndex
                index = self._indexes[embedder] = kind(self, embedder)
        return index

    def row_scores(self, rows: np.ndarray, embedder: Embedder, key_matrix: np.ndarray) -> np.ndarray:
        """Each row's best cosine similarity over the rows of a non-empty,
        checked ``key_matrix``, clipped; within a few ulps of ``cosine_sim``
        of the serialised triple's vector, as its sums run in another order."""
        return self._index(embedder).row_scores(self, rows, key_matrix, embedder)

    def neighbors(self, entity: "EntityId | str", hops: int = 1) -> np.ndarray:
        """The sorted, unique int32 ids of every row reachable by
        breadth-first expansion within ``hops`` edges (see ``triple``); for
        one hop, a read-only view of the entity's adjacency."""
        if hops < 1:
            raise ValueError("hops must be >= 1")
        canonical = entity.canonical if isinstance(entity, EntityId) else normalize(entity)
        start = self._entity_ids.get(canonical)
        if start is None:
            return np.empty(0, dtype=np.int32)
        rows = self._adjacent_rows[self._adjacency_start[start] : self._adjacency_start[start + 1]]
        if hops == 1:
            # One entity's adjacency is already sorted and unique.
            rows.flags.writeable = False
            return rows
        visited = np.zeros(self.entity_count, dtype=bool)
        visited[start] = True
        collected = [rows]
        for _ in range(hops - 1):
            ends = np.concatenate((self._head[rows], self._tail[rows]))
            ends = ends[~visited[ends]]
            if not ends.size:
                break
            frontier = distinct(ends)
            visited[frontier] = True
            rows = self._adjacent_rows[
                ranges(self._adjacency_start[frontier], self._adjacency_start[frontier + 1])
            ]
            collected.append(rows)
        return distinct(np.concatenate(collected))

    @cached_property
    def _digest(self) -> str:
        h = hashlib.sha256()
        texts = self._texts
        for head, relation, tail in zip(self._head.tolist(), self._relation.tolist(), self._tail.tolist()):
            h.update(f"{texts[head]}\t{texts[relation]}\t{texts[tail]}\n".encode("utf-8"))
        return h.hexdigest()

    def digest(self) -> str:
        """Stable content hash of the triple set, for trace headers."""
        return self._digest


class CountTable:
    """Token counts of a graph's canonicals and relations under one embedder's
    ``sparse_counts``, counted in one call when the table is built.

    Each counted text owns the segment ``_start[t]:_start[t + 1]`` of
    ``(bucket, count)`` pairs, in bucket order: the sorted arrays
    ``sparse_counts`` returned, stored as they came. The same pairs are also
    kept bucket-major, as postings with each bucket's offsets, so a vector is
    dotted with every text at once from the postings of its non-zero buckets
    alone, each text summing its terms in its segment's order; a text that
    shares no bucket with the vector dots exactly 0. Entities open the pool,
    so their scores are the first texts' dots, scaled by their inverse norms.
    As the counts are additive over texts joined by a space and depend only
    on a text's normalised form, a triple's vector (see ``serialize_triple``)
    is the sum of its head canonical's, relation's and tail canonical's, so
    its dot product with a key is the sum of theirs, scaled by the triple's
    inverse norm; that norm is computed, from the three segments, only for a
    row whose best key dot is non-zero, as a zero dot scores 0 whatever the
    norm. Nothing writes to the table once it is built, and it holds no
    reference to the embedder, so the graph's weak map can drop it with the
    embedder; its methods take the embedder, as ``DenseIndex``'s do, but the
    counts are already taken.
    """

    def __init__(self, graph: KnowledgeGraph, embedder: Embedder):
        count = graph._counted
        dimension = self._dimension = embedder.dimension
        owner, buckets, values = embedder.sparse_counts(graph._texts[:count])
        # Unsorted owners would give a text other texts' pairs as its segment.
        if owner.size and not (0 <= owner[0] and owner[-1] < count and (np.diff(owner) >= 0).all()):
            raise ValueError("embedder contract: sparse_counts must be sorted by text index")
        # A bucket out of range would wrap into another under the cast below.
        if buckets.size and not (0 <= buckets.min() and buckets.max() < dimension):
            raise ValueError(f"embedder contract: sparse_counts buckets must lie in range({dimension})")
        self._start = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=count), out=self._start[1:])
        owner = np.asarray(owner, dtype=np.int32)
        self._buckets = np.asarray(buckets, dtype=np.min_scalar_type(dimension - 1))
        self._values = np.asarray(values, dtype=np.float64)
        del buckets, values
        # Entities open the pool, so their pairs open the arrays.
        pairs = self._start[graph.entity_count]
        squares = np.bincount(owner[:pairs], weights=self._values[:pairs] ** 2, minlength=graph.entity_count)
        self._entity_inverse_norms = _inverse(np.sqrt(squares))
        # A stable sort keeps each bucket's pairs in text order; numpy sorts
        # small unsigned keys by radix.
        order = np.argsort(self._buckets, kind="stable")
        self._posted_texts, self._posted_values = owner[order], self._values[order]
        del owner, order
        self._offsets = np.zeros(dimension + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._buckets, minlength=dimension), out=self._offsets[1:])

    def _text_dots(self, vec: np.ndarray) -> np.ndarray:
        """Every text's dot product with ``vec``'s counts, indexed by text
        id, from the postings of ``vec``'s non-zero buckets."""
        buckets = np.flatnonzero(vec)
        starts, stops = self._offsets[buckets], self._offsets[buckets + 1]
        at = ranges(starts, stops)
        weights = self._posted_values[at] * np.repeat(vec[buckets], stops - starts)
        # With no postings to add, bincount returns integers.
        return np.bincount(self._posted_texts[at], weights=weights, minlength=len(self._start) - 1)

    def entity_scores(self, vec: np.ndarray, embedder: Embedder) -> np.ndarray:
        """Every entity's cosine similarity with the unit-or-zero ``vec``,
        unclipped and indexed by entity id: exactly 0 for an entity that
        shares no bucket with ``vec``."""
        return self._text_dots(vec)[: len(self._entity_inverse_norms)] * self._entity_inverse_norms

    def row_scores(
        self, graph: KnowledgeGraph, rows: np.ndarray, key_matrix: np.ndarray, embedder: Embedder
    ) -> np.ndarray:
        """See ``KnowledgeGraph.row_scores``. A row's dot with a key is the
        sum of its three texts' dots."""
        row_texts = np.stack((graph._head[rows], graph._relation[rows], graph._tail[rows]))
        best = np.full(len(rows), -np.inf)
        for vec in key_matrix:
            dots = self._text_dots(vec)[row_texts]
            np.maximum(best, dots[0] + dots[1] + dots[2], out=best)
        scored = np.flatnonzero(best)
        best[scored] *= self._inverse_norms(row_texts[:, scored])
        return np.clip(best, -1.0, 1.0, out=best)

    def _inverse_norms(self, row_texts: np.ndarray) -> np.ndarray:
        """1 / the norm of each row's summed counts, 0 for a row with none;
        ``row_texts`` are the rows' ``(3, rows)`` text ids."""
        rows = row_texts.shape[1]
        texts = row_texts.ravel()
        starts, stops = self._start[texts], self._start[texts + 1]
        at = ranges(starts, stops)
        owner = np.repeat(np.tile(np.arange(rows), 3), stops - starts)
        cells, cell_of = np.unique(owner * self._dimension + self._buckets[at], return_inverse=True)
        sums = np.bincount(cell_of, weights=self._values[at])
        squares = np.bincount(cells // self._dimension, weights=sums * sums, minlength=rows)
        return _inverse(np.sqrt(squares))


class DenseIndex:
    """Scores from the vectors of an embedder without ``sparse_counts``.

    Every matrix is stacked, and so checked, by ``embed_matrix``: the
    entities' the first time an entity is scored, kept; the triples' each
    time they are scored, ``_BLOCK_ROWS`` at a time, so a caching embedder
    serves them from its cache. Like ``CountTable``, the index holds no
    reference to the embedder.
    """

    def __init__(self, graph: KnowledgeGraph, embedder: Embedder):
        self._texts = graph._texts
        self._entities = graph.entity_count
        self._entity_matrix: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    def entity_scores(self, vec: np.ndarray, embedder: Embedder) -> np.ndarray:
        """Every entity's cosine similarity with the unit-or-zero ``vec``,
        unclipped and indexed by entity id."""
        with self._lock:
            if self._entity_matrix is None:
                self._entity_matrix = embed_matrix(embedder, self._texts[: self._entities])
        return self._entity_matrix @ vec

    def row_scores(
        self, graph: KnowledgeGraph, rows: np.ndarray, key_matrix: np.ndarray, embedder: Embedder
    ) -> np.ndarray:
        """See ``KnowledgeGraph.row_scores``. ``_BLOCK_ROWS`` triples are
        stacked and scored per matrix product."""
        scores = np.empty(len(rows))
        for start in range(0, len(rows), _BLOCK_ROWS):
            texts = [serialize_triple(graph.triple(row)) for row in rows[start : start + _BLOCK_ROWS]]
            best = (embed_matrix(embedder, texts) @ key_matrix.T).max(axis=1)
            np.clip(best, -1.0, 1.0, out=scores[start : start + len(texts)])
        return scores


def load_graph(lines: Iterable[str], source: str = "<graph>") -> KnowledgeGraph:
    """Parse a line-oriented TSV stream into a KnowledgeGraph, in one pass.

    Duplicate lines deduplicate, the first line's surfaces kept; an empty
    stream yields an empty graph. Raises GraphParseError, naming ``source``,
    on a line with the wrong field count or an empty field.
    """
    surfaces: dict[str, int] = {}
    relations: dict[str, int] = {}
    columns = [array("i") for _ in range(3)]
    head, relation, tail = (c.append for c in columns)
    surface_id, relation_id = surfaces.get, relations.get
    for line_number, raw in enumerate(lines, start=1):
        # Line ends are whitespace: ``strip`` drops them, and they hold no tab.
        fields = raw.split("\t")
        if len(fields) == 3:
            h, r, t = fields[0].strip(), fields[1].strip(), fields[2].strip()
            # The line's first non-blank character is the head's first.
            if h and r and t and h[0] != "#":
                i = surface_id(h)
                if i is None:
                    i = surfaces[h] = len(surfaces)
                head(i)
                i = relation_id(r)
                if i is None:
                    i = relations[r] = len(relations)
                relation(i)
                i = surface_id(t)
                if i is None:
                    i = surfaces[t] = len(surfaces)
                tail(i)
                continue
        # Any other line is skipped when blank or a comment, else an error.
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if len(fields) != 3:
            raise GraphParseError(line_number, f"expected 3 tab-separated fields, got {len(fields)}", source)
        raise GraphParseError(line_number, "empty field in triple", source)
    graph = KnowledgeGraph.__new__(KnowledgeGraph)
    graph._build(list(surfaces), list(relations), *columns)
    return graph


def load_graph_file(path: str) -> KnowledgeGraph:
    """``load_graph`` over the lines of ``inputs.read_lines(path)``."""
    return load_graph(read_lines(path), source=path)
