"""End-to-end orchestration: decomposition, extraction, retrieval, reasoning.

Configuration precedence is flags over environment variables over config
file values; ablation switches mirror the no-decomposition, no-global-keys,
and no-verification variants.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Optional, TextIO

from .embedding import CachingEmbedder, Embedder, HashedEmbedder
from .extraction import (
    KeySet,
    build_key_set,
    extract_global_keys,
    extract_local_keys,
    serialize_key,
)
from .kg_store import KnowledgeGraph
from .llm import LLMBackend
from .mindmap import DecompositionConfig, MindMap, build_mind_map, single_node_map
from .reasoning import ReasoningAborted, ReasoningConfig, ReasoningTrace, solve
from .retrieval import RetrievalConfig, RetrievedTripleSet, filter_by_similarity, gather_candidates

ENV_CONFIG = "COGGRAG_CONFIG"
ENV_PREFIX = "COGGRAG_"


@dataclass
class PipelineConfig:
    epsilon: float = 0.7
    hops: int = 1
    max_depth: int = 3
    exploration_temperature: float = 0.4
    reasoning_temperature: float = 0.0
    decomposition_enabled: bool = True
    global_keys_enabled: bool = True
    verification_enabled: bool = True
    hub_cap: int = 512
    max_evidence_triples: int = 64
    resolve_threshold: float = 0.7
    max_parse_retries: int = 1
    max_tokens: int = 1024
    embedding_dim: int = 256
    model: str = "default"

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.hops < 1:
            raise ValueError("hops must be positive")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.hub_cap < 1 or self.max_evidence_triples < 1:
            raise ValueError("caps must be positive")


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, kind: type, value: str):
    if kind is bool:
        lowered = value.strip().lower()
        if lowered not in _BOOL_VALUES:
            raise ValueError(f"config key '{name}': expected a boolean, got {value!r}")
        return _BOOL_VALUES[lowered]
    try:
        return kind(value.strip())
    except ValueError as exc:
        raise ValueError(f"config key '{name}': {exc}") from exc


def parse_config_lines(lines: "list[str]", source: str = "<config>") -> dict:
    """Flat key=value records; # comments and blank lines ignored."""
    known = {f.name: f.type for f in fields(PipelineConfig)}
    kinds = {f.name: type(getattr(PipelineConfig(), f.name)) for f in fields(PipelineConfig)}
    values: dict = {}
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}: line {line_number}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{source}: line {line_number}: unknown config key '{key}'")
        values[key] = _coerce(key, kinds[key], value)
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> PipelineConfig:
    """Build a PipelineConfig from file, then environment, then overrides."""
    values: dict = {}
    config_path = path or os.environ.get(ENV_CONFIG)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as f:
            values.update(parse_config_lines(f.readlines(), source=config_path))
    kinds = {f.name: type(getattr(PipelineConfig(), f.name)) for f in fields(PipelineConfig)}
    for name, kind in kinds.items():
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if env_value is not None:
            values[name] = _coerce(name, kind, env_value)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**values)


@dataclass
class Backends:
    res: LLMBackend
    ver: LLMBackend
    embedder: Embedder

    @classmethod
    def scripted(cls, backend: LLMBackend, dimension: int = 256) -> "Backends":
        return cls(res=backend, ver=backend, embedder=CachingEmbedder(HashedEmbedder(dimension)))


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage label and any partial trace."""

    def __init__(self, stage: str, cause: Exception, partial_trace: Optional[ReasoningTrace] = None):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.partial_trace = partial_trace


@dataclass
class PipelineResult:
    question: str
    mind_map: MindMap
    keys: KeySet
    evidence: RetrievedTripleSet
    trace: ReasoningTrace
    warnings: list[str]

    @property
    def final_answer(self) -> str:
        return self.trace.final_answer


def run_pipeline(
    question: str,
    graph: KnowledgeGraph,
    cfg: PipelineConfig,
    backends: Backends,
) -> PipelineResult:
    warnings: list[str] = []

    try:
        if cfg.decomposition_enabled:
            dec_cfg = DecompositionConfig(
                max_depth=cfg.max_depth,
                max_parse_retries=cfg.max_parse_retries,
                exploration_temperature=cfg.exploration_temperature,
                max_tokens=cfg.max_tokens,
            )
            mind_map = build_mind_map(question, backends.res, dec_cfg, warnings)
        else:
            mind_map = single_node_map(question)
    except Exception as exc:
        raise PipelineStageError("decomposition", exc) from exc

    try:
        keys = extract_local_keys(
            mind_map, backends.res, cfg.exploration_temperature, cfg.max_tokens, warnings
        )
        if cfg.global_keys_enabled:
            keys = keys + extract_global_keys(
                mind_map, backends.res, cfg.exploration_temperature, cfg.max_tokens, warnings
            )
        key_set = build_key_set(keys)
    except Exception as exc:
        raise PipelineStageError("extraction", exc) from exc

    try:
        retrieval_cfg = RetrievalConfig(
            hops=cfg.hops, hub_cap=cfg.hub_cap, resolve_threshold=cfg.resolve_threshold
        )
        candidates = gather_candidates(graph, key_set, backends.embedder, retrieval_cfg)
        evidence = filter_by_similarity(candidates, key_set, backends.embedder, cfg.epsilon)
    except Exception as exc:
        raise PipelineStageError("retrieval", exc) from exc

    try:
        trace = solve(
            mind_map,
            evidence,
            backends.res,
            backends.ver,
            ReasoningConfig(
                verification_enabled=cfg.verification_enabled,
                max_evidence_triples=cfg.max_evidence_triples,
                reasoning_temperature=cfg.reasoning_temperature,
                max_tokens=cfg.max_tokens,
            ),
        )
    except ReasoningAborted as exc:
        raise PipelineStageError("reasoning", exc, partial_trace=exc.partial_trace) from exc
    except Exception as exc:
        raise PipelineStageError("reasoning", exc) from exc

    return PipelineResult(
        question=question,
        mind_map=mind_map,
        keys=key_set,
        evidence=evidence,
        trace=trace,
        warnings=warnings,
    )


def write_trace(out: TextIO, result: PipelineResult, cfg: PipelineConfig, graph: KnowledgeGraph) -> None:
    """Line-delimited trace: header, mind-map nodes, keys, evidence, node
    records, warnings, final answer. Deterministic for scripted runs."""

    def emit(record: dict) -> None:
        out.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
        out.write("\n")

    emit(
        {
            "type": "header",
            "question": result.question,
            "config": asdict(cfg),
            "graph_digest": graph.digest(),
            "candidate_count": result.evidence.candidate_count,
        }
    )
    for node in result.mind_map.to_records():
        emit({"type": "mindmap_node", **node})
    for key in result.keys.local_keys:
        emit({"type": "key", "level": "local", "kind": type(key).__name__, "text": serialize_key(key)})
    for key in result.keys.global_keys:
        emit({"type": "key", "level": "global", "kind": type(key).__name__, "text": serialize_key(key)})
    for scored in result.evidence.kept:
        emit(
            {
                "type": "evidence",
                "head": scored.triple.head.surface,
                "relation": scored.triple.relation,
                "tail": scored.triple.tail.surface,
                "score": round(scored.score, 9),
                "best_key": serialize_key(scored.best_key),
            }
        )
    for record in result.trace.records:
        emit(
            {
                "type": "node_record",
                "node": record.node,
                "candidate": record.candidate,
                "verdict": record.verdict,
                "rethink": record.rethink,
                "outcome": record.outcome.value,
                "final": record.final,
            }
        )
    for message in [*result.warnings, *result.trace.warnings]:
        emit({"type": "warning", "message": message})
    emit(
        {
            "type": "final",
            "answer": result.trace.final_answer,
            "verify_calls": result.trace.verify_calls,
            "rethink_calls": result.trace.rethink_calls,
        }
    )
