"""Immutable triple store with entity resolution and neighborhood expansion.

The graph is loaded once from a TSV stream (``head<TAB>relation<TAB>tail``
per line, ``#`` comments and blank lines ignored) and is read-only after
that, so it is safe to share across threads. The one thing built later, the
per-embedder entity index behind a fuzzy resolve, is built under a lock.
"""
from __future__ import annotations

import hashlib
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .embedding import RESCORE_TOLERANCE, Embedder, check_unit_rows, cosine_sim, embed_matrix


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return " ".join(text.split()).lower()


class GraphParseError(ValueError):
    """A malformed line in a graph file. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
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


class KnowledgeGraph:
    """An indexed, deduplicated set of triples with undirected adjacency."""

    def __init__(self, triples: Iterable[Triple]):
        unique: dict[tuple[str, str, str], Triple] = {}
        for t in triples:
            unique.setdefault(t.sort_key(), t)
        self._triples: tuple[Triple, ...] = tuple(sorted(unique.values(), key=Triple.sort_key))
        self._entities: dict[str, EntityId] = {}
        self._adjacency: dict[str, set[Triple]] = {}
        for t in self._triples:
            for end in (t.head, t.tail):
                self._entities.setdefault(end.canonical, end)
                self._adjacency.setdefault(end.canonical, set()).add(t)
        self._sorted_entities = tuple(self._entities[c] for c in sorted(self._entities))
        # Per embedder: its vectors of the sorted entities, one row each. Built
        # on the first fuzzy resolve and dropped with the embedder.
        self._indexes: weakref.WeakKeyDictionary[Embedder, np.ndarray]
        self._indexes = weakref.WeakKeyDictionary()
        self._index_lock = threading.Lock()

    @property
    def triples(self) -> tuple[Triple, ...]:
        return self._triples

    @property
    def triple_count(self) -> int:
        return len(self._triples)

    @property
    def entity_count(self) -> int:
        return len(self._entities)

    @property
    def entities(self) -> tuple[EntityId, ...]:
        """Every entity, sorted by canonical."""
        return self._sorted_entities

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
        if canonical in self._entities:
            return self._entities[canonical]
        if embedder is None or not self._entities:
            return None
        matrix = self._entity_index(embedder)
        mention_vec = embedder.embed(canonical)
        scores = matrix @ mention_vec
        np.clip(scores, -1.0, 1.0, out=scores)
        floor = max(float(scores.max()), threshold) - RESCORE_TOLERANCE
        best: Optional[EntityId] = None
        best_score = threshold
        for row in np.flatnonzero(scores >= floor):
            score = cosine_sim(mention_vec, matrix[row])
            if score > best_score:
                best = self._sorted_entities[row]
                best_score = score
        return best

    def _entity_index(self, embedder: Embedder) -> np.ndarray:
        with self._index_lock:
            matrix = self._indexes.get(embedder)
            if matrix is None:
                matrix = embed_matrix(embedder, [e.canonical for e in self._sorted_entities])
                matrix = self._indexes[embedder] = check_unit_rows(matrix)
        return matrix

    def neighbors(self, entity: "EntityId | str", hops: int = 1) -> set[Triple]:
        """All triples reachable by breadth-first expansion within ``hops`` edges."""
        if hops < 1:
            raise ValueError("hops must be >= 1")
        canonical = entity.canonical if isinstance(entity, EntityId) else normalize(entity)
        if canonical not in self._adjacency:
            return set()
        seen_entities = {canonical}
        frontier = deque([canonical])
        collected: set[Triple] = set()
        for _ in range(hops):
            next_frontier: deque[str] = deque()
            while frontier:
                current = frontier.popleft()
                for t in self._adjacency.get(current, ()):
                    collected.add(t)
                    for end in (t.head.canonical, t.tail.canonical):
                        if end not in seen_entities:
                            seen_entities.add(end)
                            next_frontier.append(end)
            frontier = next_frontier
            if not frontier:
                break
        return collected

    def digest(self) -> str:
        """Stable content hash of the triple set, for trace headers."""
        h = hashlib.sha256()
        for t in self._triples:
            h.update("\t".join(t.sort_key()).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def load_graph(lines: Iterable[str]) -> KnowledgeGraph:
    """Parse a line-oriented TSV stream into a KnowledgeGraph.

    Duplicate lines deduplicate; an empty stream yields an empty graph.
    Raises GraphParseError on a line with the wrong field count.
    """
    triples: list[Triple] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise GraphParseError(
                line_number, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        head, relation, tail = (f.strip() for f in fields)
        if not head or not relation or not tail:
            raise GraphParseError(line_number, "empty field in triple")
        triples.append(Triple.from_surface(head, relation, tail))
    return KnowledgeGraph(triples)


def load_graph_file(path: str) -> KnowledgeGraph:
    with open(path, "r", encoding="utf-8") as f:
        return load_graph(f)
