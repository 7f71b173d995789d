"""End-to-end orchestration: decomposition, extraction, retrieval, reasoning.

Every stage reads the one frozen PipelineConfig (see ``config``); ablation
switches mirror the no-decomposition, no-global-keys, and no-verification
variants.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TextIO

from .config import PipelineConfig
from .embedding import Embedder, HashedEmbedder
from .extraction import (
    KeySet,
    build_key_set,
    extract_global_keys,
    extract_local_keys,
    serialize_key,
)
from .kg_store import KnowledgeGraph
from .llm import LLMBackend, fan_out
from .mindmap import MindMap, build_mind_map
from .reasoning import PipelineStageError, ReasoningTrace, solve
from .retrieval import RetrievedTripleSet, filter_by_similarity, gather_candidates


@dataclass
class Backends:
    res: LLMBackend
    ver: LLMBackend
    embedder: Embedder

    @classmethod
    def single(cls, backend: LLMBackend, dimension: int = 256) -> "Backends":
        """One backend for answering and verifying, with a hashed embedder."""
        return cls(res=backend, ver=backend, embedder=HashedEmbedder(dimension))


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
    # ``solve`` raises its own stage error, with the partial trace, so only
    # the stages before it are wrapped here, each under its label.
    stage = "decomposition"
    try:
        mind_map = build_mind_map(question, backends.res, cfg, warnings)

        stage = "extraction"
        # Both extractions read only the finished mind map, so they are sent
        # together; local keys still come first, as do their warnings.
        extractors = [extract_local_keys]
        if cfg.global_keys_enabled:
            extractors.append(extract_global_keys)
        keys = fan_out(
            backends.res,
            lambda extract, job_warnings: extract(mind_map, backends.res, cfg, job_warnings),
            extractors,
            warnings,
        )
        key_set = build_key_set([key for part in keys for key in part])

        stage = "retrieval"
        candidates = gather_candidates(graph, key_set, backends.embedder, cfg)
        evidence = filter_by_similarity(candidates, backends.embedder, cfg)
    except Exception as exc:
        raise PipelineStageError(stage, exc, warnings) from exc

    trace = solve(mind_map, evidence, backends.res, backends.ver, cfg, warnings)

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
    for level, keys in (("local", result.keys.local_keys), ("global", result.keys.global_keys)):
        for key in keys:
            emit({"type": "key", "level": level, "kind": type(key).__name__, "text": serialize_key(key)})
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
    for message in result.warnings:
        emit({"type": "warning", "message": message})
    emit(
        {
            "type": "final",
            "answer": result.trace.final_answer,
            "verify_calls": result.trace.verify_calls,
            "rethink_calls": result.trace.rethink_calls,
        }
    )
