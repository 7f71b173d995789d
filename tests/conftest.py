from __future__ import annotations

import hashlib
import json
import random
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from kgqa.config import PipelineConfig
from kgqa.embedding import CachingEmbedder, HashedEmbedder
from kgqa.kg_store import KnowledgeGraph, load_graph_file
from kgqa.llm import ScriptRule, ScriptedBackend, parse_script
from kgqa.mindmap import build_mind_map

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


def nested_reply(depth):
    """A reply of one bracket block ``depth`` levels deep."""
    return "[" * depth + "]" * depth


def one_node_map(question):
    """The mind map of ``question`` with decomposition off: the root alone.
    Its backend has no rules, so any LLM call would fail."""
    return build_mind_map(question, ScriptedBackend([]), PipelineConfig(decomposition_enabled=False))


def reference_counts(text, dimension):
    """md5 of each lowercased ``\\w+`` token, modulo the dimension, counted."""
    vec = np.zeros(dimension)
    for token in re.findall(r"\w+", text.lower()):
        vec[int(hashlib.md5(token.encode("utf-8")).hexdigest(), 16) % dimension] += 1.0
    return vec


class ScaledEmbedder:
    """Hashed vectors scaled by text length: breaks the unit-vector contract."""

    def __init__(self, dimension):
        self.dimension = dimension
        self._unit = HashedEmbedder(dimension)

    def embed(self, text):
        return (1.0 + len(text)) * self._unit.embed(text)


class SignedEmbedder:
    """Hashed vectors, negated for odd-length texts: unit vectors that can
    score below zero, and no ``sparse_counts``, so a graph scores them with a
    ``DenseIndex``."""

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


def decomposition_rule(question, subs, state="End."):
    """A rule answering the decomposition of ``question`` with ``subs``,
    each in ``state``."""
    reply = json.dumps([{"Sub-question": sub, "State": state} for sub in subs])
    return ScriptRule(reply=reply, patterns=("decompose the given question", f"Input: {question}\nOutput:"))


def tree_rules(question, branching, leaf_state="End."):
    """Decomposition rules for a mind map under ``question``: a node at depth
    k has ``branching[k]`` sub-questions ``"<question> / <index>"``, each
    Continue above the last level and ``leaf_state`` on it."""
    rules = []
    level = [question]
    for depth, width in enumerate(branching):
        state = "Continue." if depth + 1 < len(branching) else leaf_state
        next_level = []
        for parent in level:
            subs = [f"{parent} / {index}" for index in range(width)]
            rules.append(decomposition_rule(parent, subs, state))
            next_level.extend(subs)
        level = next_level
    return rules


class BarrierBackend:
    """Replays ``rules``; a prompt for which ``gate(prompt)`` holds first
    waits at a two-party barrier, so two such calls finish only if they are
    in flight together. Not ``sequential``: ``fan_out`` overlaps its calls."""

    def __init__(self, rules, gate):
        self.inner = ScriptedBackend(rules)
        self.gate = gate
        self.barrier = threading.Barrier(2, timeout=5)

    def generate(self, request):
        if self.gate(request.prompt):
            self.barrier.wait()
        return self.inner.generate(request)


class JitteredBackend:
    """Replays ``rules`` after a sleep of 0-3 ms seeded by the prompt, so
    overlapped calls finish in an order of their own. Not ``sequential``."""

    def __init__(self, rules):
        self.inner = ScriptedBackend(rules)

    def generate(self, request):
        time.sleep(random.Random(request.prompt).uniform(0.0, 0.003))
        return self.inner.generate(request)
