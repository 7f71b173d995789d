"""Overlapped LLM calls: what runs together, and that nothing else changes.

One mind-map level's decompositions and the two key extractions go through
``fan_out``; the mind map, keys, warnings and trace must be the ones the
one-call-at-a-time order gives, whatever order the replies arrive in.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time

import pytest

from kgqa import llm
from kgqa.config import PipelineConfig
from kgqa.llm import (
    DEC_TEMPLATE,
    EXT_GLOBAL_TEMPLATE,
    EXT_LOCAL_TEMPLATE,
    FAN_OUT_THREADS,
    BackendError,
    ScriptMissError,
    ScriptRule,
    ScriptedBackend,
    fan_out,
)
from kgqa.mindmap import build_mind_map
from kgqa.pipeline import Backends, PipelineStageError, run_pipeline, write_trace

from conftest import (
    BECKHAM_ANSWER,
    BECKHAM_QUESTION,
    FIXTURES,
    BarrierBackend,
    JitteredBackend,
    decomposition_rule,
    golden_rules,
    tree_rules,
)

ROOT = "Root question?"
UNPARSEABLE = ScriptRule(reply="no list here", patterns=("decompose the given question",))


def unparseable_for(question):
    """An unparseable reply to the decomposition of ``question`` only."""
    return ScriptRule(reply="no list here", patterns=("decompose the given question", f"Input: {question}\nOutput:"))


def fallback_warning(question):
    return f"decomposition unparseable for question: {question!r}; treated as atomic"


def mind_map_outcome(backend):
    warnings: list[str] = []
    m = build_mind_map(ROOT, backend, PipelineConfig(), warnings)
    return list(m.nodes), m.to_records(), warnings


@contextlib.contextmanager
def busy_pool():
    """Every thread of the shared pool busy with another question's job."""
    release = threading.Event()
    pool = llm._shared_pool()
    busy = [pool.submit(release.wait, 5) for _ in range(FAN_OUT_THREADS)]
    try:
        yield
    finally:
        release.set()
    assert all(future.result(timeout=5) for future in busy)


class Sequential:
    sequential = True


class Concurrent:
    pass


class TestFanOut:
    def test_results_in_item_order_first_on_caller(self):
        def job(item, job_warnings):
            time.sleep(0.001 * (5 - item))
            return item, threading.current_thread()

        results = fan_out(Concurrent(), job, range(5), None)
        assert [item for item, _ in results] == list(range(5))
        assert results[0][1] is threading.current_thread()
        assert any(thread is not threading.current_thread() for _, thread in results[1:])

    def test_raises_first_failure_in_item_order_after_started_jobs_finish(self):
        finished = []

        def job(item, job_warnings):
            time.sleep({1: 0.02, 2: 0.04, 3: 0.0}.get(item, 0.0))
            if item in (1, 3):
                raise ValueError(f"item {item}")
            finished.append(item)
            return item

        with pytest.raises(ValueError, match="item 1"):
            fan_out(Concurrent(), job, range(4), None)
        assert sorted(finished) == [0, 2]

    def test_caller_runs_the_jobs_no_pool_thread_started(self):
        # Every pool thread is busy with another question's job, so all
        # three jobs run on the caller, in order, and nothing waits on them.
        with busy_pool():
            results = fan_out(Concurrent(), lambda item, _: (item, threading.current_thread()), range(3), None)
        assert results == [(item, threading.current_thread()) for item in range(3)]

    @pytest.mark.parametrize("first_s, remembered", [(0.0, True), (0.02, False)], ids=["instant", "slow"])
    def test_backend_remembered_only_if_it_answers_within_a_switch_interval(self, first_s, remembered):
        # With the pool busy every job is run by the caller; only a quick
        # first call shows that the backend held the interpreter lock.
        backend = Concurrent()
        with busy_pool():
            fan_out(backend, lambda item, _: time.sleep(first_s if item == 0 else 0.0), range(2), None)

        def job(item, job_warnings):
            time.sleep(0.002)
            return threading.current_thread()

        threads = fan_out(backend, job, range(4), None)
        assert all(thread is threading.current_thread() for thread in threads) is remembered

    def test_remembered_backend_forgotten_after_a_slow_call(self):
        # A call that outlasts the switch interval shows the backend waits
        # with the interpreter lock released: its calls overlap again.
        backend = Concurrent()
        with busy_pool():
            fan_out(backend, lambda item, _: None, range(2), None)
        assert llm._instant.get(id(backend)) is backend
        fan_out(backend, lambda item, _: time.sleep(0.02), range(3), None)
        barrier = threading.Barrier(2, timeout=2)
        assert fan_out(backend, lambda item, _: barrier.wait(), range(2), None)
        assert llm._instant.get(id(backend)) is None

    def test_sequential_backend_runs_in_order_on_caller_until_failure(self):
        seen = []

        def job(item, job_warnings):
            # Long enough for idle pool threads to start jobs, were they sent.
            time.sleep(0.002)
            seen.append((item, threading.current_thread()))
            if item == 1:
                raise ValueError("item 1")
            return item

        assert fan_out(Sequential(), lambda item, _: item, range(3), None) == [0, 1, 2]
        with pytest.raises(ValueError, match="item 1"):
            fan_out(Sequential(), job, range(3), None)
        assert seen == [(0, threading.current_thread()), (1, threading.current_thread())]

    def test_scripted_backend_is_sequential(self):
        assert ScriptedBackend([]).sequential is True


class TestInFlightTogether:
    def test_local_and_global_extraction(self, fixture_graph):
        def gate(prompt):
            return EXT_LOCAL_TEMPLATE.head in prompt or EXT_GLOBAL_TEMPLATE.head in prompt

        backend = BarrierBackend(golden_rules(), gate)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), Backends.single(backend))
        assert result.final_answer == BECKHAM_ANSWER
        assert len(result.keys.global_keys) == 1

    def test_sibling_decompositions(self):
        def gate(prompt):
            return DEC_TEMPLATE.head in prompt and f"Input: {ROOT} / " in prompt

        backend = BarrierBackend(tree_rules(ROOT, (2, 1)), gate)
        nodes, _, warnings = mind_map_outcome(backend)
        assert nodes == ["0", "0.0", "0.1", "0.0.0", "0.1.0"]
        assert warnings == []


class TestDeterminism:
    def test_jittered_backend_reproduces_golden_trace(self, fixture_graph):
        cfg = PipelineConfig()
        backends = Backends.single(JitteredBackend(golden_rules()))
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, backends)
        buffer = io.StringIO()
        write_trace(buffer, result, cfg, fixture_graph)
        assert buffer.getvalue().encode() == (FIXTURES / "beckham_trace.jsonl").read_bytes()

    def test_jittered_mind_map_matches_scripted(self):
        # The six leaves are Continue, and their decompositions never parse:
        # one level of six overlapped jobs, each leaving a warning.
        rules = tree_rules(ROOT, (3, 2), leaf_state="Continue.") + [UNPARSEABLE]
        jittered = mind_map_outcome(JitteredBackend(rules))
        assert jittered == mind_map_outcome(ScriptedBackend(rules))
        nodes, _, warnings = jittered
        leaves = [f"{ROOT} / {i} / {j}" for i in range(3) for j in range(2)]
        assert nodes == ["0", "0.0", "0.1", "0.2", "0.0.0", "0.0.1", "0.1.0", "0.1.1", "0.2.0", "0.2.1"]
        assert warnings == [fallback_warning(leaf) for leaf in leaves]


@pytest.mark.parametrize("make_backend", [ScriptedBackend, JitteredBackend], ids=["scripted", "jittered"])
class TestFirstFailure:
    def run(self, make_backend, rules, fixture_graph):
        backends = Backends.single(make_backend(rules))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(ROOT, fixture_graph, PipelineConfig(), backends)
        return exc.value

    def test_decomposition_keeps_warnings_before_the_failure(self, make_backend, fixture_graph):
        # Node 0.0 falls back as unparseable; node 0.1 has no rule and fails.
        rules = [decomposition_rule(ROOT, ["A?", "B?"], "Continue."), unparseable_for("A?")]
        error = self.run(make_backend, rules, fixture_graph)
        assert error.stage == "decomposition"
        assert isinstance(error.__cause__, BackendError)
        assert error.warnings == [fallback_warning("A?")]

    def test_decomposition_drops_warnings_after_the_failure(self, make_backend, fixture_graph):
        rules = [decomposition_rule(ROOT, ["A?", "B?"], "Continue."), unparseable_for("B?")]
        error = self.run(make_backend, rules, fixture_graph)
        assert error.stage == "decomposition"
        assert isinstance(error.__cause__, ScriptMissError)
        assert error.warnings == []

    def test_global_extraction_failure_keeps_local_warning(self, make_backend, fixture_graph):
        rules = [decomposition_rule(ROOT, [ROOT]), ScriptRule(reply="no keys", patterns=("extract the entities",))]
        error = self.run(make_backend, rules, fixture_graph)
        assert error.stage == "extraction"
        assert error.warnings == ["local key extraction produced no parseable keys"]

    def test_local_extraction_failure_drops_global_warning(self, make_backend, fixture_graph):
        rules = [decomposition_rule(ROOT, [ROOT]), ScriptRule(reply="no triples", patterns=("extract the subgraphs",))]
        error = self.run(make_backend, rules, fixture_graph)
        assert error.stage == "extraction"
        assert error.warnings == []


class InFlightBackend:
    """Splits ``ROOT`` into ``width`` Continue sub-questions and answers
    every other decomposition with prose; counts the calls in flight."""

    def __init__(self, width):
        self.width = width
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.threads: set[threading.Thread] = set()

    def generate(self, request):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.current_thread())
        try:
            time.sleep(0.001)
        finally:
            with self.lock:
                self.in_flight -= 1
        if f"Input: {ROOT}\nOutput:" in request.prompt:
            return json.dumps([{"Sub-question": f"Part {k}?", "State": "Continue."} for k in range(self.width)])
        return "no list here"


def test_level_of_thirty_stays_within_the_shared_pool():
    backend = InFlightBackend(30)
    cfg = PipelineConfig(max_parse_retries=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = []
        for _ in range(2):
            warnings: list[str] = []
            m = build_mind_map(ROOT, backend, cfg, warnings)
            outcomes.append((list(m.nodes), warnings))
    finally:
        sys.setswitchinterval(interval)
    parts = [f"Part {k}?" for k in range(30)]
    assert outcomes[0] == outcomes[1] == (
        ["0", *(f"0.{k}" for k in range(30))],
        [fallback_warning(part) for part in parts],
    )
    assert 1 < backend.peak <= FAN_OUT_THREADS + 1
    # Both builds ran on the caller and one pool's threads: none per item
    # and none per call.
    assert len(backend.threads) <= FAN_OUT_THREADS + 1
