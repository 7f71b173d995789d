"""Acceptance suite: one test per criterion, each prints a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""
from __future__ import annotations

import io
import math
import random
import time

import pytest

from kgqa.embedding import HashedEmbedder
from kgqa.evaluation import Category, categorize, exact_match, f1, rouge_l
from kgqa.kg_store import load_graph_file
from kgqa.llm import (
    DEC_TEMPLATE,
    EXT_GLOBAL_TEMPLATE,
    EXT_LOCAL_TEMPLATE,
    RES_TEMPLATE,
    RETHINK_TEMPLATE,
    VER_TEMPLATE,
    ScriptRule,
    ScriptedBackend,
)
from kgqa.mindmap import NodeState, bottom_up_order, build_mind_map
from kgqa.pipeline import Backends, PipelineConfig, run_pipeline, write_trace
from kgqa.reasoning import ABSTENTION_PHRASE, detect_abstention

from conftest import BECKHAM_QUESTION, FIXTURES, SUB_Q1, SUB_Q2, golden_rules
from test_evaluation import lcs_oracle
from test_retrieval import brute_force_kept, random_graph, random_keys


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_retrieval_oracle_equivalence():
    from kgqa.retrieval import CandidateRows, filter_by_similarity

    embedder = HashedEmbedder()
    rng = random.Random(42)
    start = time.perf_counter()
    for _ in range(50):
        graph = random_graph(rng, 200)
        keys = random_keys(rng, graph, 20)
        candidates = set(graph.triples)
        rows = CandidateRows.of(candidates, keys, embedder)
        result = filter_by_similarity(rows, embedder, PipelineConfig(epsilon=0.7))
        assert set(result.triples()) == brute_force_kept(candidates, keys, embedder, 0.7)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(f"retrieval oracle equivalence (50 graphs in {elapsed:.2f}s)")


def test_criterion_2_metric_oracles():
    start = time.perf_counter()
    rng = random.Random(1234)
    vocab = ["a", "b", "c", "d", "e", "f", "g"]
    for _ in range(1000):
        pred = " ".join(rng.choices(vocab, k=rng.randint(0, 10)))
        gold = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
        lcs = lcs_oracle(pred.split(), gold.split())
        if lcs == 0:
            expected = 0.0
        else:
            precision = lcs / len(pred.split())
            recall = lcs / len(gold.split())
            expected = 2 * precision * recall / (precision + recall)
        assert math.isclose(rouge_l(pred, gold), expected, abs_tol=1e-9)

    assert rouge_l("a b c", "a c") == pytest.approx(0.8, abs=1e-9)
    assert f1("paris france", ["paris"]) == pytest.approx(2 / 3, abs=1e-9)
    assert exact_match("the Carabao Cup", ["Carabao Cup"]) == 1

    for _ in range(1000):
        pred = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
        golds = [" ".join(rng.choices(vocab, k=rng.randint(1, 6)))]
        if exact_match(pred, golds) == 1:
            assert f1(pred, golds) == pytest.approx(1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(f"metric oracles (rouge/f1/em in {elapsed:.2f}s)")


def _session_rules(verdicts: dict[str, str], answers: dict[str, str], rethinks=None):
    """Script a 3-node Beckham session with per-question verdicts/answers."""
    rules = [
        ScriptRule(
            patterns=("decompose the given question",),
            reply='[{"Sub-question": "%s", "State": "End."},'
            ' {"Sub-question": "%s", "State": "End."}]' % (SUB_Q1, SUB_Q2),
        ),
        ScriptRule(patterns=("extract the entities",), reply="<David Beckham>"),
        ScriptRule(
            patterns=("extract the subgraphs",),
            reply='[("manager", "recruited", "David Beckham"),'
            ' ("manager", "manage", "Manchester United")]',
        ),
    ]
    for question, answer in answers.items():
        rules.append(
            ScriptRule(
                patterns=("answer the questions", f"Input: {question}"), reply=f"[{answer}]"
            )
        )
    for question, verdict in verdicts.items():
        rules.append(
            ScriptRule(
                patterns=("logical verification", f"Input: {question}"), reply=f"[{verdict}]"
            )
        )
    for question, reply in (rethinks or {}).items():
        rules.append(
            ScriptRule(patterns=("re-think", f"Input: {question}"), reply=f"[{reply}]")
        )
    return rules


def _head_of(prompt: str) -> str:
    for name, template in (
        ("dec", DEC_TEMPLATE),
        ("ext_local", EXT_LOCAL_TEMPLATE),
        ("ext_global", EXT_GLOBAL_TEMPLATE),
        ("res", RES_TEMPLATE),
        ("ver", VER_TEMPLATE),
        ("rethink", RETHINK_TEMPLATE),
    ):
        if template.head in prompt:
            return name
    return "unknown"


def _run_session(rules) -> tuple:
    backend = ScriptedBackend(rules)
    graph = load_graph_file(str(FIXTURES / "beckham_graph.tsv"))
    result = run_pipeline(BECKHAM_QUESTION, graph, PipelineConfig(), Backends.single(backend))
    return result, backend


def test_criterion_3_state_machine_conformance():
    base_answers = {SUB_Q1: "Alex Ferguson", SUB_Q2: "1986–2013", BECKHAM_QUESTION: "1986–2013"}
    all_right = {q: "right" for q in base_answers}

    sessions = {
        "all right": _session_rules(all_right, base_answers),
        "one wrong": _session_rules(
            {**all_right, SUB_Q1: "wrong"}, base_answers, rethinks={SUB_Q1: "Sir Alex Ferguson"}
        ),
        "abstention at leaf": _session_rules(
            all_right, {**base_answers, SUB_Q1: ABSTENTION_PHRASE}
        ),
        "abstention at root": _session_rules(
            all_right, {**base_answers, BECKHAM_QUESTION: ABSTENTION_PHRASE}
        ),
    }

    for label, rules in sessions.items():
        result, backend = _run_session(rules)
        m = result.mind_map
        order = bottom_up_order(m)
        kinds = [_head_of(r.prompt) for r in backend.records]

        # one answer call per node
        assert kinds.count("res") == len(m.nodes), label
        # rethink iff verdict false
        expected_rethinks = sum(1 for r in result.trace.records if not r.verdict)
        assert kinds.count("rethink") == expected_rethinks, label
        for record in result.trace.records:
            assert (record.rethink is not None) == (not record.verdict), label
        # bottom-up ordering of answer calls
        res_prompts = [r.prompt for r in backend.records if _head_of(r.prompt) == "res"]
        for prompt, node_id in zip(res_prompts, order):
            assert f"Input: {m.node(node_id).question}" in prompt, label
        # final answer equals root final
        assert result.trace.final_answer == result.trace.records[-1].final, label
        assert result.trace.records[-1].node == m.root, label

    # unparseable decomposition: question treated as atomic, one answer call
    rules = _session_rules(
        {BECKHAM_QUESTION: "right"}, {BECKHAM_QUESTION: "1986–2013"}
    )
    rules[0] = ScriptRule(patterns=("decompose the given question",), reply="no list at all")
    result, backend = _run_session(rules)
    assert len(result.mind_map.nodes) == 1
    assert result.warnings
    kinds = [_head_of(r.prompt) for r in backend.records]
    assert kinds.count("res") == 1
    assert result.trace.final_answer == "1986–2013"

    _passed("state-machine conformance (5 scripted sessions)")


def test_criterion_4_golden_end_to_end():
    graph = load_graph_file(str(FIXTURES / "beckham_graph.tsv"))

    def run_once() -> tuple[str, str]:
        backend = ScriptedBackend(golden_rules())
        cfg = PipelineConfig()
        result = run_pipeline(BECKHAM_QUESTION, graph, cfg, Backends.single(backend))
        buffer = io.StringIO()
        write_trace(buffer, result, cfg, graph)
        return result.final_answer, buffer.getvalue()

    runs = [run_once() for _ in range(3)]
    answer, trace = runs[0]
    assert answer == "1986–2013"
    assert SUB_Q1 in trace and SUB_Q2 in trace
    assert "manager recruited David Beckham; manager manage Manchester United" in trace
    assert runs[0] == runs[1] == runs[2]
    _passed("golden end-to-end (byte-identical across 3 runs)")


def test_criterion_5_ablation_switches():
    graph = load_graph_file(str(FIXTURES / "beckham_graph.tsv"))

    def run_with(cfg: PipelineConfig):
        backend = ScriptedBackend(golden_rules())
        return run_pipeline(BECKHAM_QUESTION, graph, cfg, Backends.single(backend)), backend

    result, _ = run_with(PipelineConfig(decomposition_enabled=False))
    assert len(result.mind_map.nodes) == 1

    result, _ = run_with(PipelineConfig(global_keys_enabled=False))
    assert result.keys.global_keys == []
    assert result.keys.local_keys

    result, backend = run_with(PipelineConfig(verification_enabled=False))
    assert result.trace.verify_calls == 0
    assert result.trace.rethink_calls == 0
    kinds = [_head_of(r.prompt) for r in backend.records]
    assert kinds.count("ver") == 0 and kinds.count("rethink") == 0

    _passed("ablation switches (no-decomposition / no-global / no-verification)")


def test_criterion_6_categorization_partition():
    rng = random.Random(99)
    fragments = ["paris", "london", "I don't know", "I DON'T KNOW something", "", "42"]
    counts = {c: 0 for c in Category}
    n = 500
    for _ in range(n):
        pred = rng.choice(fragments)
        gold = rng.choice(["paris", "42"])
        category = categorize(pred, [gold])
        counts[category] += 1
        if "i don't know" in pred.lower():
            assert category is Category.MISSING
    rates = [counts[c] / n for c in Category]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert math.isclose(sum(rates), 1.0, abs_tol=1e-9)
    _passed("categorization partition (500 fuzzed pairs)")


def test_criterion_7_temperature_contract():
    _, backend = _run_session(
        _session_rules(
            {SUB_Q1: "right", SUB_Q2: "right", BECKHAM_QUESTION: "right"},
            {SUB_Q1: "Alex Ferguson", SUB_Q2: "1986–2013", BECKHAM_QUESTION: "1986–2013"},
        )
    )
    for record in backend.records:
        kind = _head_of(record.prompt)
        if kind in ("dec", "ext_local", "ext_global"):
            assert record.temperature == 0.4, kind
        elif kind in ("res", "ver", "rethink"):
            assert record.temperature == 0.0, kind
        else:
            pytest.fail(f"unexpected prompt kind: {kind}")
    _passed("temperature contract (0.4 exploration, 0.0 reasoning)")


def test_criterion_8_termination_under_adversarial_continue():
    backend_rules = [
        ScriptRule(
            patterns=("decompose the given question",),
            reply='[{"Sub-question": "probe left?", "State": "Continue."},'
            ' {"Sub-question": "probe right?", "State": "Continue."}]',
        )
    ]
    for max_depth in (0, 1, 2, 3):
        backend = ScriptedBackend(backend_rules)
        m = build_mind_map("root?", backend, PipelineConfig(max_depth=max_depth))
        leaves = [n for n in m.nodes.values() if not n.children]
        assert all(n.state is NodeState.END for n in leaves)
        assert max(n.depth for n in m.nodes.values()) <= max_depth
        if max_depth > 0:
            assert all(n.depth == max_depth for n in leaves)
    _passed("termination at depth cap for max_depth in {0,1,2,3}")
