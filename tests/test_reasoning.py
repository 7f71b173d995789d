from __future__ import annotations

from typing import Optional, Sequence

import pytest

from kgqa.config import PipelineConfig
from kgqa.embedding import HashedEmbedder
from kgqa.extraction import TripleKey, build_key_set
from kgqa.kg_store import Triple
from kgqa.llm import RES_TEMPLATE, ScriptRule, ScriptedBackend
from kgqa.reasoning import (
    ABSTENTION_PHRASE,
    NodeRecord,
    Outcome,
    PipelineStageError,
    RetrievedTripleSet,
    answer_node,
    detect_abstention,
    rethink_node,
    serialize_evidence,
    serialize_verified,
    solve,
    verify_answer,
)
from kgqa.retrieval import CandidateRows, filter_by_similarity

from conftest import one_node_map

CFG = PipelineConfig()


def no_evidence() -> RetrievedTripleSet:
    return RetrievedTripleSet(kept=(), candidate_count=0)


def beckham_evidence() -> RetrievedTripleSet:
    t = Triple.from_surface("David Beckham", "recruited_by", "Alex Ferguson")
    keys = build_key_set([TripleKey("David Beckham", "recruited_by", "Alex Ferguson")])
    embedder = HashedEmbedder()
    return filter_by_similarity(CandidateRows.of({t}, keys, embedder), embedder, PipelineConfig(epsilon=0.5))


def answered(question: str, answer: str, node: str) -> NodeRecord:
    return NodeRecord(node, question, answer, True, None, Outcome.ANSWERED, answer)


def context(
    evidence: Optional[RetrievedTripleSet] = None, records: Sequence[NodeRecord] = ()
) -> dict[str, str]:
    """The bindings ``solve`` renders for a node."""
    return {
        "reasoning": serialize_verified(list(records)),
        "knowledge": serialize_evidence(evidence or no_evidence(), CFG.max_evidence_triples),
    }


def res_backend(reply: str) -> ScriptedBackend:
    return ScriptedBackend([ScriptRule(patterns=("answer the questions",), reply=reply)])


def ver_backend(reply: str) -> ScriptedBackend:
    return ScriptedBackend([ScriptRule(patterns=("logical verification",), reply=reply)])


class TestDetectAbstention:
    def test_canonical_phrase(self):
        assert detect_abstention("Insufficient information, I don't know")

    def test_curly_apostrophe(self):
        assert detect_abstention("I don’t know")

    def test_ordinary_answer(self):
        assert not detect_abstention("Alex Ferguson")


class TestAnswerNode:
    def test_bracketed_answer_extracted(self):
        backend = res_backend("[Alex Ferguson]")
        question = "Who recruited David Beckham?"
        answer = answer_node(question, context(beckham_evidence()), backend, CFG, [])
        assert answer == "Alex Ferguson"

    def test_abstention_reply_passed_through(self):
        backend = res_backend(f"[{ABSTENTION_PHRASE}]")
        answer = answer_node("Q?", context(), backend, CFG, [])
        assert detect_abstention(answer)

    def test_no_brackets_returns_raw_with_warning(self):
        warnings: list[str] = []
        backend = res_backend("raw completion text")
        answer = answer_node("Q?", context(), backend, CFG, warnings)
        assert answer == "raw completion text"
        assert warnings == ["answer without brackets for question: 'Q?'"]

    def test_reasoning_temperature_zero(self):
        backend = res_backend("[x]")
        answer_node("Q?", context(), backend, CFG, [])
        assert backend.records[0].temperature == 0.0

    def test_prompt_contains_evidence_and_verified(self):
        backend = res_backend("[x]")
        verified = [answered("prior?", "prior answer", "0.0")]
        answer_node("Q?", context(beckham_evidence(), verified), backend, CFG, [])
        prompt = backend.records[0].prompt
        assert "(David Beckham, recruited_by, Alex Ferguson)" in prompt
        assert "Q: prior?" in prompt and "A: prior answer" in prompt


class TestVerifyAnswer:
    def test_right(self):
        assert verify_answer("Q?", "a", context(), ver_backend("[right]"), CFG, []) is True

    def test_wrong_case_insensitive(self):
        assert verify_answer("Q?", "a", context(), ver_backend("[WRONG]"), CFG, []) is False

    def test_unparseable_verdict_conservative(self):
        warnings: list[str] = []
        verdict = verify_answer("Q?", "a", context(), ver_backend("maybe"), CFG, warnings)
        assert verdict is False
        assert warnings

    def test_answer_bound_in_prompt(self):
        backend = ver_backend("[right]")
        verify_answer("Q?", "my candidate", context(), backend, CFG, [])
        assert "Answer: my candidate" in backend.records[0].prompt


class TestRethinkNode:
    def test_bracketed_rethink(self):
        backend = ScriptedBackend([ScriptRule(patterns=("re-think",), reply="[Carabao Cup]")])
        warnings: list[str] = []
        assert rethink_node("Q?", context(), backend, CFG, warnings) == "Carabao Cup"
        assert warnings == []

    def test_abstention_rethink(self):
        backend = ScriptedBackend(
            [ScriptRule(patterns=("re-think",), reply=f"[{ABSTENTION_PHRASE}]")]
        )
        assert detect_abstention(rethink_node("Q?", context(), backend, CFG, []))

    def test_no_brackets_returns_raw_with_warning(self):
        warnings: list[str] = []
        backend = ScriptedBackend([ScriptRule(patterns=("re-think",), reply=" Carabao Cup \n")])
        assert rethink_node("Q?", context(), backend, CFG, warnings) == "Carabao Cup"
        assert warnings == ["rethink without brackets for question: 'Q?'"]


class TestSerializers:
    def test_evidence_lines_and_cap(self):
        ev = beckham_evidence()
        cap = CFG.max_evidence_triples
        assert serialize_evidence(ev, cap) == "(David Beckham, recruited_by, Alex Ferguson)"
        assert serialize_evidence(ev, 0) == "None"
        assert serialize_evidence(no_evidence(), cap) == "None"

    def test_verified_lines(self):
        vs = [answered("q1?", "a1", "0.0"), answered("q2?", "a2", "0.1")]
        text = serialize_verified(vs)
        assert text == "Q: q1?\nA: a1\nQ: q2?\nA: a2"
        assert serialize_verified([]) == "None"


def scripted_session(rules: list[ScriptRule]) -> ScriptedBackend:
    return ScriptedBackend(rules)


class TestSolve:
    def test_single_node_map(self):
        m = one_node_map("Q?")
        backend = scripted_session(
            [
                ScriptRule(patterns=("answer the questions",), reply="[final]"),
                ScriptRule(patterns=("logical verification",), reply="[right]"),
            ]
        )
        trace = solve(m, no_evidence(), backend, backend, CFG, [])
        assert len(trace.records) == 1
        assert trace.final_answer == "final"
        assert trace.verify_calls == 1
        assert trace.rethink_calls == 0

    def test_wrong_verdict_triggers_single_rethink(self):
        m = one_node_map("Q?")
        backend = scripted_session(
            [
                ScriptRule(patterns=("answer the questions",), reply="[first guess]"),
                ScriptRule(patterns=("logical verification",), reply="[wrong]"),
                ScriptRule(patterns=("re-think",), reply="[Carabao Cup]"),
            ]
        )
        trace = solve(m, no_evidence(), backend, backend, CFG, [])
        record = trace.records[0]
        assert record.verdict is False
        assert record.rethink == "Carabao Cup"
        assert record.final == "Carabao Cup"
        assert trace.final_answer == "Carabao Cup"
        assert trace.rethink_calls == 1

    def test_verification_disabled_forces_true(self):
        m = one_node_map("Q?")
        backend = scripted_session(
            [ScriptRule(patterns=("answer the questions",), reply="[a]")]
        )
        cfg = PipelineConfig(verification_enabled=False)
        trace = solve(m, no_evidence(), backend, backend, cfg, [])
        assert trace.verify_calls == 0
        assert trace.rethink_calls == 0
        assert trace.records[0].verdict is True
        assert trace.records[0].rethink is None

    def test_abstained_outcome(self):
        m = one_node_map("Q?")
        backend = scripted_session(
            [
                ScriptRule(patterns=("answer the questions",), reply=f"[{ABSTENTION_PHRASE}]"),
                ScriptRule(patterns=("logical verification",), reply="[right]"),
            ]
        )
        trace = solve(m, no_evidence(), backend, backend, CFG, [])
        assert trace.records[0].outcome is Outcome.ABSTAINED
        assert detect_abstention(trace.final_answer)

    def test_verified_set_grows_in_order(self, golden_backend, fixture_graph):
        from kgqa.mindmap import build_mind_map
        from conftest import BECKHAM_QUESTION, SUB_Q1

        m = build_mind_map(BECKHAM_QUESTION, golden_backend, CFG)
        trace = solve(m, no_evidence(), golden_backend, golden_backend, CFG, [])
        # root's reasoning prompt must carry both verified leaf answers
        res_prompts = [
            r.prompt
            for r in golden_backend.records
            if RES_TEMPLATE.head in r.prompt
        ]
        assert f"Q: {SUB_Q1}" in res_prompts[-1]
        assert "A: Alex Ferguson" in res_prompts[-1]
        assert trace.final_answer == "1986–2013"

    def test_context_rendered_once_per_node_and_knowledge_once(
        self, golden_backend, monkeypatch
    ):
        import kgqa.reasoning as reasoning
        from kgqa.mindmap import build_mind_map
        from conftest import BECKHAM_QUESTION

        calls = {"serialize_evidence": 0, "serialize_verified": 0}
        for name in calls:
            original = getattr(reasoning, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(reasoning, name, counted)
        m = build_mind_map(BECKHAM_QUESTION, golden_backend, CFG)
        trace = solve(m, beckham_evidence(), golden_backend, golden_backend, CFG, [])
        assert calls == {"serialize_evidence": 1, "serialize_verified": len(m.nodes)}
        assert trace.verify_calls == len(m.nodes)

    def test_warnings_appended_to_callers_list(self):
        m = one_node_map("Q?")
        backend = scripted_session(
            [
                ScriptRule(patterns=("answer the questions",), reply="first guess"),
                ScriptRule(patterns=("logical verification",), reply="[wrong]"),
                ScriptRule(patterns=("re-think",), reply="second guess"),
            ]
        )
        warnings = ["from an earlier stage"]
        trace = solve(m, no_evidence(), backend, backend, CFG, warnings)
        assert warnings == [
            "from an earlier stage",
            "answer without brackets for question: 'Q?'",
            "rethink without brackets for question: 'Q?'",
        ]
        assert trace.records[0].rethink == trace.final_answer == "second guess"

    def test_backend_error_carries_partial_trace(self):
        from kgqa.mindmap import MindMap, MindMapNode

        nodes = {
            "0": MindMapNode("0", "root?", 0, children=["0.0", "0.1"]),
            "0.0": MindMapNode("0.0", "left?", 1, parent="0"),
            "0.1": MindMapNode("0.1", "right?", 1, parent="0"),
        }
        m = MindMap(nodes=nodes, root="0")
        backend = scripted_session(
            [
                ScriptRule(patterns=("answer the questions", "Input: left?"), reply="[ok]"),
                ScriptRule(patterns=("logical verification", "Input: left?"), reply="[right]"),
                # no rule for "right?" -> script miss
            ]
        )
        with pytest.raises(PipelineStageError) as exc:
            solve(m, no_evidence(), backend, backend, CFG, [])
        assert exc.value.stage == "reasoning"
        assert [r.node for r in exc.value.partial_trace.records] == ["0.0"]
