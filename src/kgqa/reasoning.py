"""Bottom-up reasoning with self-verification over a mind map.

Per node the state machine is: generate a candidate answer, have the
verifier accept or reject it, regenerate once on rejection, then check for
abstention. Verified answers accumulate and feed every later node's prompt;
the root's final value is the overall answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .config import PipelineConfig
from .llm import (
    RES_TEMPLATE,
    RETHINK_TEMPLATE,
    VER_TEMPLATE,
    BackendError,
    LLMBackend,
    ask,
    extract_bracketed,
)
from .mindmap import MindMap, bottom_up_order
from .retrieval import RetrievedTripleSet

ABSTENTION_PHRASE = "Insufficient information, I don't know"


def detect_abstention(answer: str) -> bool:
    """True iff the answer contains "i don't know" (straight or curly apostrophe)."""
    return "i don't know" in answer.lower().replace("’", "'")


class Outcome(Enum):
    ANSWERED = "Answered"
    ABSTAINED = "Abstained"


@dataclass
class VerifiedAnswer:
    question: str
    answer: str
    node: str


@dataclass
class NodeRecord:
    node: str
    candidate: str
    verdict: bool
    rethink: Optional[str]
    outcome: Outcome
    final: str


@dataclass
class ReasoningTrace:
    records: list[NodeRecord] = field(default_factory=list)
    final_answer: str = ""
    verify_calls: int = 0
    rethink_calls: int = 0
    warnings: list[str] = field(default_factory=list)


class ReasoningAborted(RuntimeError):
    """A backend error aborted the run; the partial trace is attached."""

    def __init__(self, message: str, partial_trace: ReasoningTrace):
        super().__init__(message)
        self.partial_trace = partial_trace


def serialize_evidence(evidence: RetrievedTripleSet, cap: int) -> str:
    """Kept triples as "(head, relation, tail)" lines, truncated at ``cap``."""
    lines = [
        f"({s.triple.head.surface}, {s.triple.relation}, {s.triple.tail.surface})"
        for s in evidence.kept[:cap]
    ]
    return "\n".join(lines) if lines else "None"


def serialize_verified(verified: list[VerifiedAnswer]) -> str:
    lines = [f"Q: {v.question}\nA: {v.answer}" for v in verified]
    return "\n".join(lines) if lines else "None"


def _context(
    evidence: RetrievedTripleSet, verified: list[VerifiedAnswer], cfg: PipelineConfig
) -> dict[str, str]:
    """The ``reasoning`` and ``knowledge`` bindings every reasoning prompt shares."""
    return {
        "reasoning": serialize_verified(verified),
        "knowledge": serialize_evidence(evidence, cfg.max_evidence_triples),
    }


def answer_node(
    question: str,
    evidence: RetrievedTripleSet,
    verified: list[VerifiedAnswer],
    res: LLMBackend,
    cfg: PipelineConfig,
    warnings: Optional[list[str]] = None,
) -> str:
    """Candidate answer for one node; falls back to the raw completion when
    the reply carries no bracketed span."""
    reply = ask(res, RES_TEMPLATE, cfg, question=question, **_context(evidence, verified, cfg))
    answer = extract_bracketed(reply)
    if answer is None:
        if warnings is not None:
            warnings.append(f"answer without brackets for question: {question!r}")
        return reply.strip()
    return answer


def verify_answer(
    question: str,
    answer: str,
    evidence: RetrievedTripleSet,
    verified: list[VerifiedAnswer],
    ver: LLMBackend,
    cfg: PipelineConfig,
    warnings: Optional[list[str]] = None,
) -> bool:
    """Parse the verifier's bracketed right/wrong verdict; anything else is
    conservatively treated as wrong."""
    context = _context(evidence, verified, cfg)
    reply = ask(ver, VER_TEMPLATE, cfg, answer=answer, question=question, **context)
    verdict = extract_bracketed(reply)
    if verdict is None:
        verdict = reply
    cleaned = verdict.strip().strip(".!\"'").lower()
    if cleaned == "right":
        return True
    if cleaned != "wrong" and warnings is not None:
        warnings.append(f"unrecognized verdict {verdict!r}; treated as wrong")
    return False


def rethink_node(
    question: str,
    evidence: RetrievedTripleSet,
    verified: list[VerifiedAnswer],
    res: LLMBackend,
    cfg: PipelineConfig,
    verdict: bool = False,
) -> str:
    """Regenerate an answer after a failed verdict; accepted without re-verification."""
    if verdict:
        raise ValueError("rethink_node requires a failed verdict")
    reply = ask(res, RETHINK_TEMPLATE, cfg, question=question, **_context(evidence, verified, cfg))
    answer = extract_bracketed(reply)
    return answer if answer is not None else reply.strip()


def solve(
    m: MindMap,
    evidence: RetrievedTripleSet,
    res: LLMBackend,
    ver: LLMBackend,
    cfg: PipelineConfig,
) -> ReasoningTrace:
    """Run the full bottom-up answer/verify/rethink loop over the map.

    With verification disabled the verdict is forced true and rethink never
    fires. Backend errors raise ReasoningAborted with the partial trace.
    """
    trace = ReasoningTrace()
    verified: list[VerifiedAnswer] = []
    try:
        for node_id in bottom_up_order(m):
            question = m.node(node_id).question
            candidate = answer_node(question, evidence, verified, res, cfg, trace.warnings)
            if cfg.verification_enabled:
                verdict = verify_answer(
                    question, candidate, evidence, verified, ver, cfg, trace.warnings
                )
                trace.verify_calls += 1
            else:
                verdict = True
            rethink: Optional[str] = None
            if not verdict:
                rethink = rethink_node(question, evidence, verified, res, cfg, verdict)
                trace.rethink_calls += 1
            final = rethink if rethink is not None else candidate
            outcome = Outcome.ABSTAINED if detect_abstention(final) else Outcome.ANSWERED
            trace.records.append(
                NodeRecord(
                    node=node_id,
                    candidate=candidate,
                    verdict=verdict,
                    rethink=rethink,
                    outcome=outcome,
                    final=final,
                )
            )
            verified.append(VerifiedAnswer(question=question, answer=final, node=node_id))
    except BackendError as exc:
        raise ReasoningAborted(f"backend error during reasoning: {exc}", trace) from exc
    trace.final_answer = trace.records[-1].final if trace.records else ""
    return trace
