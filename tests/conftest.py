from __future__ import annotations

from pathlib import Path

import pytest

from kgqa.embedding import CachingEmbedder, HashedEmbedder
from kgqa.kg_store import KnowledgeGraph, load_graph_file
from kgqa.llm import ScriptedBackend, parse_script

FIXTURES = Path(__file__).parent / "fixtures"

BECKHAM_QUESTION = (
    "The football manager who recruited David Beckham managed "
    "Manchester United during what timeframe?"
)
BECKHAM_ANSWER = "1986–2013"
SUB_Q1 = "Who recruited David Beckham?"
SUB_Q2 = "When did that manager coach Manchester United?"


@pytest.fixture
def fixture_graph() -> KnowledgeGraph:
    return load_graph_file(str(FIXTURES / "beckham_graph.tsv"))


def golden_rules():
    with open(FIXTURES / "beckham_script.jsonl", encoding="utf-8") as f:
        return parse_script(f.readlines())


@pytest.fixture
def golden_backend() -> ScriptedBackend:
    # fresh backend per test so recorded requests start empty
    return ScriptedBackend(golden_rules())


class ScaledEmbedder:
    """Hashed vectors scaled by text length: breaks the unit-vector contract."""

    def __init__(self, dimension):
        self.dimension = dimension
        self._unit = HashedEmbedder(dimension)

    def embed(self, text):
        return (1.0 + len(text)) * self._unit.embed(text)


class SignedEmbedder:
    """Hashed vectors, negated for odd-length texts: unit vectors that can
    score below zero, and no ``embed_many``."""

    def __init__(self, dimension):
        self.dimension = dimension
        self._unit = HashedEmbedder(dimension)

    def embed(self, text):
        return (-1.0) ** len(text) * self._unit.embed(text)


def expand(graph, entity, hops):
    """``neighbors`` as the set of triples at the returned rows."""
    return {graph.triple(row) for row in graph.neighbors(entity, hops)}


def make_embedder(kind, dimension):
    """A hashed, a caching or a signed embedder of ``dimension``."""
    if kind == "hashed":
        return HashedEmbedder(dimension)
    if kind == "caching":
        return CachingEmbedder(HashedEmbedder(dimension))
    return SignedEmbedder(dimension)
