"""Key extraction from the mind map: local entities/pairs/triples and
global subgraphs.

Local keys come from angle-bracket forms in the LLM reply
(``<entity>``, ``<entity-relation>``, ``<entity-relation-entity>``).
Global keys are (subject, relation, object) tuples grouped into subgraphs
by shared mentions; singleton groups demote to plain triple keys.
Every dedupe here keeps the first item of each identity (``first_seen``).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, TypeVar, Union

from .config import PipelineConfig
from .kg_store import normalize
from .llm import EXT_GLOBAL_TEMPLATE, EXT_LOCAL_TEMPLATE, LLMBackend, ask
from .mindmap import MindMap


@dataclass(frozen=True)
class EntityKey:
    mention: str


@dataclass(frozen=True)
class PairKey:
    mention: str
    relation: str


@dataclass(frozen=True)
class TripleKey:
    head: str
    relation: str
    tail: str


@dataclass(frozen=True)
class SubgraphKey:
    triples: tuple[TripleKey, ...]

    def __post_init__(self) -> None:
        if len(self.triples) < 2:
            raise ValueError("a subgraph key needs at least 2 triples")


Key = Union[EntityKey, PairKey, TripleKey, SubgraphKey]


def serialize_key(key: Key) -> str:
    """Deterministic text form of a key, used for embedding and traces."""
    if isinstance(key, EntityKey):
        return key.mention
    if isinstance(key, PairKey):
        return f"{key.mention} {key.relation}"
    if isinstance(key, TripleKey):
        return f"{key.head} {key.relation} {key.tail}"
    if isinstance(key, SubgraphKey):
        return "; ".join(serialize_key(t) for t in key.triples)
    raise TypeError(f"not a key: {key!r}")


def entity_mentions(key: Key) -> list[str]:
    """Entity mentions a key contributes to neighborhood expansion."""
    if isinstance(key, (EntityKey, PairKey)):
        return [key.mention]
    if isinstance(key, TripleKey):
        return [key.head, key.tail]
    if isinstance(key, SubgraphKey):
        out: list[str] = []
        for t in key.triples:
            out.extend((t.head, t.tail))
        return out
    raise TypeError(f"not a key: {key!r}")


@dataclass
class KeySet:
    local_keys: list[Key] = field(default_factory=list)
    global_keys: list[SubgraphKey] = field(default_factory=list)

    def all_keys(self) -> list[Key]:
        return [*self.local_keys, *self.global_keys]

    def mentions(self) -> list[str]:
        """Distinct entity mentions across all keys, in first-seen order."""
        mentions = (mention for key in self.all_keys() for mention in entity_mentions(key))
        return [mention for mention in first_seen(mentions, normalize) if normalize(mention)]

    def scoring_pairs(self) -> list[tuple[Key, str]]:
        """(key, text) pairs to score triples against, one per distinct text.

        Subgraphs contribute their whole serialization plus each constituent
        triple, since similarity is defined triple-vs-key. A text's first
        pair is kept: a later pair of the same text scores the same, and the
        first key wins a tie, so it could never be a triple's best key.
        """
        pairs: list[tuple[Key, str]] = [(key, serialize_key(key)) for key in self.local_keys]
        for subgraph in self.global_keys:
            pairs.append((subgraph, serialize_key(subgraph)))
            pairs.extend((subgraph, serialize_key(constituent)) for constituent in subgraph.triples)
        return first_seen(pairs, lambda pair: pair[1])


_T = TypeVar("_T")


def first_seen(items: Iterable[_T], identity: Callable[[_T], Hashable]) -> list[_T]:
    """The first item of each identity, in order."""
    firsts: dict[Hashable, _T] = {}
    for item in items:
        firsts.setdefault(identity(item), item)
    return list(firsts.values())


_K = TypeVar("_K", bound=Key)


def _dedupe(keys: list[_K]) -> list[_K]:
    return first_seen(keys, lambda key: (type(key).__name__, normalize(serialize_key(key))))


def build_key_set(keys: list[Key]) -> KeySet:
    """Route deduplicated keys into local and global lists."""
    deduped = _dedupe(keys)
    return KeySet(
        local_keys=[k for k in deduped if not isinstance(k, SubgraphKey)],
        global_keys=[k for k in deduped if isinstance(k, SubgraphKey)],
    )


_ANGLE_RE = re.compile(r"<([^<>]+)>")


def parse_local_reply(text: str) -> list[Key]:
    keys: list[Key] = []
    for content in _ANGLE_RE.findall(text):
        parts = [p.strip() for p in content.split("-")]
        if any(not p for p in parts[:3]):
            continue
        if len(parts) == 1:
            keys.append(EntityKey(mention=parts[0]))
        elif len(parts) == 2:
            keys.append(PairKey(mention=parts[0], relation=parts[1]))
        else:
            tail = "-".join(parts[2:]).strip()
            if tail:
                keys.append(TripleKey(head=parts[0], relation=parts[1], tail=tail))
    return _dedupe(keys)


_TUPLE_RE = re.compile(
    r"\(\s*[\"']([^\"']+)[\"']\s*,\s*[\"']([^\"']+)[\"']\s*,\s*[\"']([^\"']+)[\"']\s*\)"
)


def parse_global_reply(text: str) -> list[TripleKey]:
    keys = [
        TripleKey(head=h.strip(), relation=r.strip(), tail=t.strip())
        for h, r, t in _TUPLE_RE.findall(text)
        if h.strip() and r.strip() and t.strip()
    ]
    return _dedupe(keys)


def group_subgraphs(triples: list[TripleKey]) -> list[Key]:
    """Group triples sharing entity mentions into subgraph keys.

    Connected components of size >= 2 become SubgraphKeys; singletons demote
    to plain TripleKeys. Component and member order follow first appearance.
    """
    parent = list(range(len(triples)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_mention: dict[str, int] = {}
    for index, t in enumerate(triples):
        for mention in (normalize(t.head), normalize(t.tail)):
            other = by_mention.setdefault(mention, index)
            parent[find(index)] = find(other)

    groups: dict[int, list[TripleKey]] = {}
    for index, t in enumerate(triples):
        groups.setdefault(find(index), []).append(t)
    out: list[Key] = []
    for members in groups.values():
        out.append(SubgraphKey(triples=tuple(members)) if len(members) >= 2 else members[0])
    return out


def _serialize_map(m: MindMap) -> str:
    return json.dumps(m.questions(), ensure_ascii=False)


def extract_local_keys(
    m: MindMap,
    backend: LLMBackend,
    cfg: PipelineConfig,
    warnings: Optional[list[str]] = None,
) -> list[Key]:
    reply = ask(backend, EXT_LOCAL_TEMPLATE, cfg, mind_map=_serialize_map(m))
    keys = parse_local_reply(reply)
    if not keys and reply.strip() and warnings is not None:
        warnings.append("local key extraction produced no parseable keys")
    return keys


def extract_global_keys(
    m: MindMap,
    backend: LLMBackend,
    cfg: PipelineConfig,
    warnings: Optional[list[str]] = None,
) -> list[Key]:
    reply = ask(backend, EXT_GLOBAL_TEMPLATE, cfg, mind_map=_serialize_map(m))
    triples = parse_global_reply(reply)
    if not triples:
        if reply.strip() and warnings is not None:
            warnings.append("global key extraction produced no parseable triples")
        return []
    return group_subgraphs(triples)
