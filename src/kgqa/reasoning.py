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
class NodeRecord:
    node: str
    question: str
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


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage label, the question's
    warnings collected until the failure and, from reasoning, the trace of
    the nodes finished before it."""

    def __init__(
        self, stage: str, cause: Exception, warnings: list[str], partial_trace: Optional[ReasoningTrace] = None
    ):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.warnings = warnings
        self.partial_trace = partial_trace


def serialize_evidence(evidence: RetrievedTripleSet, cap: int) -> str:
    """Kept triples as "(head, relation, tail)" lines, truncated at ``cap``."""
    lines = [
        f"({s.triple.head.surface}, {s.triple.relation}, {s.triple.tail.surface})"
        for s in evidence.kept[:cap]
    ]
    return "\n".join(lines) if lines else "None"


def serialize_verified(records: list[NodeRecord]) -> str:
    """Each answered node as "Q: question" and "A: final answer" lines."""
    lines = [f"Q: {r.question}\nA: {r.final}" for r in records]
    return "\n".join(lines) if lines else "None"


def _bracketed(role: str, question: str, reply: str, warnings: list[str]) -> str:
    """The reply's first bracketed span; otherwise the raw reply, with a warning."""
    answer = extract_bracketed(reply)
    if answer is None:
        warnings.append(f"{role} without brackets for question: {question!r}")
        return reply.strip()
    return answer


def answer_node(
    question: str, context: dict[str, str], res: LLMBackend, cfg: PipelineConfig, warnings: list[str]
) -> str:
    """Candidate answer for one node, given its ``reasoning``/``knowledge`` context."""
    reply = ask(res, RES_TEMPLATE, cfg, question=question, **context)
    return _bracketed("answer", question, reply, warnings)


def verify_answer(
    question: str,
    answer: str,
    context: dict[str, str],
    ver: LLMBackend,
    cfg: PipelineConfig,
    warnings: list[str],
) -> bool:
    """Parse the verifier's bracketed right/wrong verdict; anything else is
    conservatively treated as wrong."""
    reply = ask(ver, VER_TEMPLATE, cfg, answer=answer, question=question, **context)
    verdict = extract_bracketed(reply)
    if verdict is None:
        verdict = reply
    cleaned = verdict.strip().strip(".!\"'").lower()
    if cleaned == "right":
        return True
    if cleaned != "wrong":
        warnings.append(f"unrecognized verdict {verdict!r}; treated as wrong")
    return False


def rethink_node(
    question: str, context: dict[str, str], res: LLMBackend, cfg: PipelineConfig, warnings: list[str]
) -> str:
    """Regenerate an answer after a failed verdict; accepted without re-verification."""
    reply = ask(res, RETHINK_TEMPLATE, cfg, question=question, **context)
    return _bracketed("rethink", question, reply, warnings)


def solve(
    m: MindMap,
    evidence: RetrievedTripleSet,
    res: LLMBackend,
    ver: LLMBackend,
    cfg: PipelineConfig,
    warnings: list[str],
) -> ReasoningTrace:
    """Run the full bottom-up answer/verify/rethink loop over the map.

    A node's three roles share one context: the knowledge, rendered once per
    question, and the answers so far. Without verification the verdict is
    forced true. Any error raises PipelineStageError("reasoning") with the
    records of the nodes finished before it.
    """
    trace = ReasoningTrace()
    try:
        knowledge = serialize_evidence(evidence, cfg.max_evidence_triples)
        for node_id in bottom_up_order(m):
            question = m.node(node_id).question
            context = {"reasoning": serialize_verified(trace.records), "knowledge": knowledge}
            candidate = answer_node(question, context, res, cfg, warnings)
            verdict = True
            if cfg.verification_enabled:
                verdict = verify_answer(question, candidate, context, ver, cfg, warnings)
                trace.verify_calls += 1
            rethink: Optional[str] = None
            if not verdict:
                rethink = rethink_node(question, context, res, cfg, warnings)
                trace.rethink_calls += 1
            final = rethink if rethink is not None else candidate
            outcome = Outcome.ABSTAINED if detect_abstention(final) else Outcome.ANSWERED
            trace.records.append(
                NodeRecord(
                    node=node_id,
                    question=question,
                    candidate=candidate,
                    verdict=verdict,
                    rethink=rethink,
                    outcome=outcome,
                    final=final,
                )
            )
    except Exception as exc:
        raise PipelineStageError("reasoning", exc, warnings, trace) from exc
    trace.final_answer = trace.records[-1].final if trace.records else ""
    return trace
