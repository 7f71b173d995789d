from __future__ import annotations

import json
import threading

import pytest
import requests

from kgqa import llm
from kgqa.config import PipelineConfig
from kgqa.extraction import extract_global_keys, extract_local_keys
from kgqa.llm import (
    DEC_TEMPLATE,
    EXT_GLOBAL_TEMPLATE,
    EXT_LOCAL_TEMPLATE,
    RES_TEMPLATE,
    RETHINK_TEMPLATE,
    TEMPLATES,
    VER_TEMPLATE,
    BackendError,
    GenerationRequest,
    HTTPBackend,
    PromptBindingError,
    ScriptMissError,
    ScriptRule,
    ScriptedBackend,
    ask,
    extract_bracketed,
    infer_template_name,
    parse_script,
)
from kgqa.mindmap import decompose_question
from kgqa.reasoning import answer_node, rethink_node, verify_answer

from conftest import FIXTURES, one_node_map
from test_overlap import Concurrent, Sequential


def test_res_template_section_order():
    text = RES_TEMPLATE.render(reasoning="R", knowledge="K", question="Q")
    i = text.index("The completed reasoning:")
    j = text.index("The knowledge graph:")
    k = text.index("Input:")
    assert i < j < k


def test_render_missing_slot_names_it():
    with pytest.raises(PromptBindingError, match="question"):
        RES_TEMPLATE.render(reasoning="R", knowledge="K")
    # Of several missing slots, the first in body order is named.
    with pytest.raises(PromptBindingError) as exc:
        VER_TEMPLATE.render(question="Q", answer="A")
    assert exc.value.args == ("template 'ver' missing binding for slot 'reasoning'",)


def test_render_deterministic():
    a = VER_TEMPLATE.render(reasoning="R", knowledge="K", answer="A", question="Q")
    b = VER_TEMPLATE.render(reasoning="R", knowledge="K", answer="A", question="Q")
    assert a == b


def test_every_template_contains_its_head_and_instruction():
    bindings = {
        "question": "q",
        "mind_map": "m",
        "reasoning": "r",
        "knowledge": "k",
        "answer": "a",
    }
    for template in TEMPLATES.values():
        rendered = template.render(**bindings)
        assert template.head in rendered
        assert template.instruction in rendered


def test_every_template_renders_as_recorded():
    # Every template's exact text, rethink's among them: the golden run never
    # sends a rethink prompt, so no other fixture pins it.
    recording = json.loads((FIXTURES / "rendered_templates.json").read_text(encoding="utf-8"))
    assert list(TEMPLATES) == list(recording["templates"])
    for name, template in TEMPLATES.items():
        recorded = recording["templates"][name]
        assert template.render(**recording["bindings"]) == recorded["prompt"]
        assert (template.head, template.instruction, template.exploratory) == (
            recorded["head"],
            recorded["instruction"],
            recorded["exploratory"],
        )


def test_dec_template_keeps_fewshot_examples():
    rendered = DEC_TEMPLATE.render(question="Who?")
    assert "Are the locations of the Laleli Mosque" in rendered
    assert "Guns N Roses" in rendered
    assert rendered.count("Sub-question") >= 7


def test_ext_global_template_keeps_france_example():
    rendered = EXT_GLOBAL_TEMPLATE.render(mind_map="[]")
    assert "What is the capital of France?" in rendered
    assert '("France", "capital", "Paris")' in rendered


def test_no_residual_placeholders():
    rendered = RETHINK_TEMPLATE.render(reasoning="r", knowledge="k", question="q")
    assert "${" not in rendered


def test_generation_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(prompt="p", temperature=-0.1, max_tokens=1024)
    with pytest.raises(ValueError):
        GenerationRequest(prompt="p", temperature=0.0, max_tokens=0)


def test_scripted_lookup_first_match_wins():
    backend = ScriptedBackend(
        [
            ScriptRule(patterns=("decompose",), reply="first"),
            ScriptRule(patterns=("decompose",), reply="second"),
        ]
    )
    assert backend.generate(GenerationRequest("please decompose this", 0.4, 1024)) == "first"


def test_scripted_miss_names_template():
    backend = ScriptedBackend([ScriptRule(patterns=("nope",), reply="x")])
    prompt = RES_TEMPLATE.render(reasoning="r", knowledge="k", question="q")
    with pytest.raises(ScriptMissError, match="res"):
        backend.generate(GenerationRequest(prompt, 0.0, 1024))


def test_scripted_records_requests():
    backend = ScriptedBackend([ScriptRule(patterns=("x",), reply="y")])
    backend.generate(GenerationRequest("x 1", 0.4, 1024))
    backend.generate(GenerationRequest("x 2", 0.0, 1024))
    assert [r.temperature for r in backend.records] == [0.4, 0.0]
    assert [r.prompt for r in backend.records] == ["x 1", "x 2"]


def test_script_rule_conjunction():
    rule = ScriptRule(patterns=("alpha", "beta"), reply="r")
    assert rule.matches("alpha and beta")
    assert not rule.matches("alpha only")


def test_script_rule_regex():
    rule = ScriptRule(regex=r"Input: Who\b", reply="r")
    assert rule.matches("Input: Who recruited?")
    assert not rule.matches("Input: What?")


def test_parse_script_round_trip():
    rules = parse_script(
        [
            '{"match": "a", "reply": "1"}',
            "",
            "# comment",
            '{"match": ["a", "b"], "reply": "2"}',
            '{"regex": "c+", "reply": "3"}',
        ]
    )
    assert len(rules) == 3
    assert rules[1].patterns == ("a", "b")


def test_load_script_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "beckham_script.jsonl").read_bytes())
    assert llm.load_script(str(path)).rules == llm.load_script(str(FIXTURES / "beckham_script.jsonl")).rules


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"match": "a"}',
        '{"reply": "x"}',
        '{"match": 5, "reply": "x"}',
        '{"regex": 5, "reply": "x"}',
    ],
)
def test_parse_script_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_script([line])


@pytest.mark.parametrize(
    "line",
    [
        '{"regex": "a{4294967296}", "reply": "x"}',
        "[" * 100_000,
        json.dumps({"regex": "(" * 5_000 + ")" * 5_000, "reply": "x"}),
    ],
    ids=["huge_repeat", "deep_json", "deep_regex"],
)
def test_parser_overflow_reads_as_the_lines_error(line):
    # re.compile raises OverflowError on the first line, json.loads and
    # re.compile RecursionError on the others; none may escape as such.
    with pytest.raises(ValueError, match=r"^s\.jsonl: line 2: "):
        parse_script(["# rules", line], source="s.jsonl")


def test_extract_bracketed_simple():
    assert extract_bracketed("The answer is [Carabao Cup].") == "Carabao Cup"


def test_extract_bracketed_absent():
    assert extract_bracketed("no brackets here") is None


def test_extract_bracketed_first_span():
    assert extract_bracketed("[a] then [b]") == "a"


def test_infer_template_name():
    assert infer_template_name(DEC_TEMPLATE.render(question="q")) == "dec"
    assert infer_template_name(EXT_LOCAL_TEMPLATE.render(mind_map="m")) == "ext_local"
    assert infer_template_name("hello") == "unknown"


POLICY_CFG = PipelineConfig(exploration_temperature=0.9, reasoning_temperature=0.2, max_tokens=77)
CONTEXT = {"reasoning": "None", "knowledge": "None"}


@pytest.mark.parametrize(
    "template, temperature, stage",
    [
        ("dec", 0.9, lambda b: decompose_question("Q?", b, POLICY_CFG)),
        ("ext_local", 0.9, lambda b: extract_local_keys(one_node_map("Q?"), b, POLICY_CFG)),
        ("ext_global", 0.9, lambda b: extract_global_keys(one_node_map("Q?"), b, POLICY_CFG)),
        ("res", 0.2, lambda b: answer_node("Q?", CONTEXT, b, POLICY_CFG, [])),
        ("ver", 0.2, lambda b: verify_answer("Q?", "A", CONTEXT, b, POLICY_CFG, [])),
        ("rethink", 0.2, lambda b: rethink_node("Q?", CONTEXT, b, POLICY_CFG, [])),
    ],
)
def test_stage_requests_carry_role_temperature_and_max_tokens(template, temperature, stage):
    backend = ScriptedBackend([ScriptRule(reply="[right]", regex=".")])
    stage(backend)
    assert backend.records
    for request in backend.records:
        assert infer_template_name(request.prompt) == template
        assert request.temperature == temperature
        assert request.max_tokens == 77


def test_exactly_decomposition_and_extraction_explore():
    explorers = {name for name, t in TEMPLATES.items() if t.exploratory}
    assert explorers == {"dec", "ext_local", "ext_global"}


def test_ask_sends_rendered_prompt_and_returns_reply():
    backend = ScriptedBackend([ScriptRule(reply="done", regex=".")])
    assert ask(backend, DEC_TEMPLATE, POLICY_CFG, question="Q?") == "done"
    assert backend.records == [GenerationRequest(DEC_TEMPLATE.render(question="Q?"), 0.9, 77)]


def test_ask_unbound_slot_sends_nothing():
    backend = ScriptedBackend([ScriptRule(reply="done", regex=".")])
    with pytest.raises(PromptBindingError, match="knowledge"):
        ask(backend, RES_TEMPLATE, POLICY_CFG, reasoning="R", question="Q")
    assert backend.records == []


@pytest.mark.parametrize("backend_class", [Concurrent, Sequential], ids=["concurrent", "sequential"])
def test_fan_out_keeps_warnings_up_to_the_first_failure(backend_class):
    # Job 1 fails after its warning. Overlapped, job 2 has provably finished
    # on a pool thread by then, yet its warning is dropped as one loop's
    # would be; in item order it never runs.
    concurrent = backend_class is Concurrent
    job_2_done = threading.Event()
    threads = {}

    def job(item, job_warnings):
        threads[item] = threading.current_thread()
        if item == 0 and concurrent:
            assert job_2_done.wait(5)
        job_warnings.append(f"w{item}")
        if item == 1:
            raise ValueError("item 1")
        if item == 2:
            job_2_done.set()
        return item

    warnings = []
    with pytest.raises(ValueError, match="item 1"):
        llm.fan_out(backend_class(), job, range(4), warnings)
    assert warnings == ["w0", "w1"]
    if concurrent:
        assert threads[2] is not threading.current_thread()
    else:
        assert sorted(threads) == [0, 1]


def _response(status, body):
    response = requests.Response()
    response.status_code = status
    response._content = json.dumps(body).encode()
    response.url = "http://llm.invalid/v1/chat"
    return response


COMPLETION = {"choices": [{"message": {"content": "[ok]"}}]}


def _patched_sleep(monkeypatch):
    """``time.sleep`` recording each delay instead of waiting; returns the
    list of delays."""
    delays = []
    monkeypatch.setattr(llm.time, "sleep", delays.append)
    return delays


def _patched_post(monkeypatch, outcomes):
    """``requests.Session.post`` answering each call with the next of
    ``outcomes`` (a response, or an exception to raise), with retries not
    waiting; returns the list of calls, each as the session that made it."""
    _patched_sleep(monkeypatch)
    calls = []

    def post(session, url, **kwargs):
        calls.append(session)
        outcome = outcomes[len(calls) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(requests.Session, "post", post)
    return calls


HTTP_REQUEST = GenerationRequest("Q?", 0.0, 16)


@pytest.mark.parametrize(
    "transient",
    [
        requests.Timeout("read timed out"),
        requests.ConnectionError("refused"),
        _response(429, {}),
        _response(503, {}),
    ],
    ids=["timeout", "connection", "429", "503"],
)
def test_http_retries_transient_faults(monkeypatch, transient):
    calls = _patched_post(monkeypatch, [transient, transient, _response(200, COMPLETION)])
    assert HTTPBackend("http://llm.invalid/v1/chat").generate(HTTP_REQUEST) == "[ok]"
    assert len(calls) == 3


def test_http_gives_up_after_max_retries(monkeypatch):
    calls = _patched_post(monkeypatch, [_response(500, {})] * 2)
    with pytest.raises(BackendError, match="failed after 2 attempts: 500"):
        HTTPBackend("http://llm.invalid/v1/chat", max_retries=2).generate(HTTP_REQUEST)
    assert len(calls) == 2


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_fails_fast_on_other_4xx(monkeypatch, status):
    calls = _patched_post(monkeypatch, [_response(status, {})] * 3)
    with pytest.raises(BackendError, match=str(status)):
        HTTPBackend("http://llm.invalid/v1/chat").generate(HTTP_REQUEST)
    assert len(calls) == 1


def test_http_fails_fast_on_a_reply_without_completion(monkeypatch):
    calls = _patched_post(monkeypatch, [_response(200, {"choices": []})] * 3)
    with pytest.raises(BackendError, match="no completion"):
        HTTPBackend("http://llm.invalid/v1/chat").generate(HTTP_REQUEST)
    assert len(calls) == 1


@pytest.mark.parametrize("content", [None, 42, ["[ok]"]], ids=["null", "number", "list"])
def test_http_fails_fast_on_a_completion_that_is_not_text(monkeypatch, content):
    reply = {"choices": [{"message": {"content": content}}]}
    calls = _patched_post(monkeypatch, [_response(200, reply)] * 3)
    with pytest.raises(BackendError, match="no completion"):
        HTTPBackend("http://llm.invalid/v1/chat").generate(HTTP_REQUEST)
    assert len(calls) == 1


def _backoff_bounds(attempts):
    """The (low, high) bounds of the wait after each failed attempt but the
    last: half to all of the doubling, capped delay."""
    ceilings = [min(llm.RETRY_CAP_S, llm.RETRY_BASE_S * 2**i) for i in range(attempts - 1)]
    return [(c / 2, c) for c in ceilings]


@pytest.mark.parametrize(
    "transient", [requests.Timeout("read timed out"), _response(502, {})], ids=["timeout", "502"]
)
def test_http_backs_off_between_transient_faults(monkeypatch, transient):
    # Exponential and capped, with jitter, and no wait after the last attempt.
    attempts = 9
    assert llm.RETRY_BASE_S * 2 ** (attempts - 2) > llm.RETRY_CAP_S
    calls = _patched_post(monkeypatch, [transient] * attempts)
    delays = _patched_sleep(monkeypatch)
    with pytest.raises(BackendError, match=f"failed after {attempts} attempts"):
        HTTPBackend("http://llm.invalid/v1/chat", max_retries=attempts).generate(HTTP_REQUEST)
    assert len(calls) == attempts
    bounds = _backoff_bounds(attempts)
    assert len(delays) == len(bounds)
    assert all(low <= delay <= high for delay, (low, high) in zip(delays, bounds))
    assert max(delays) <= llm.RETRY_CAP_S


def test_http_backoff_is_jittered(monkeypatch):
    # Two clients failing together do not wait the same time.
    waits = []
    for _ in range(2):
        _patched_post(monkeypatch, [_response(503, {})] * 3)
        delays = _patched_sleep(monkeypatch)
        with pytest.raises(BackendError):
            HTTPBackend("http://llm.invalid/v1/chat").generate(HTTP_REQUEST)
        waits.append(delays)
    assert waits[0] != waits[1]


@pytest.mark.parametrize(
    "outcomes, waits",
    [
        ([_response(200, COMPLETION)], 0),
        ([_response(404, {})], 0),
        ([_response(503, {}), _response(200, COMPLETION)], 1),
        ([_response(503, {}), _response(400, {})], 1),
    ],
    ids=["success", "4xx", "fault-then-success", "fault-then-4xx"],
)
def test_http_waits_only_between_attempts(monkeypatch, outcomes, waits):
    # No wait before the first attempt, nor before failing fast on a 4xx.
    _patched_post(monkeypatch, outcomes)
    delays = _patched_sleep(monkeypatch)
    backend = HTTPBackend("http://llm.invalid/v1/chat")
    if outcomes[-1].status_code == 200:
        assert backend.generate(HTTP_REQUEST) == "[ok]"
    else:
        with pytest.raises(BackendError, match="rejected"):
            backend.generate(HTTP_REQUEST)
    assert len(delays) == waits


@pytest.mark.parametrize("max_retries", [0, -1])
def test_http_rejects_max_retries_below_one(monkeypatch, max_retries):
    calls = _patched_post(monkeypatch, [])
    with pytest.raises(ValueError, match="max_retries"):
        HTTPBackend("http://llm.invalid/v1/chat", max_retries=max_retries)
    assert calls == []


def test_http_calls_on_one_thread_share_a_session(monkeypatch):
    calls = _patched_post(monkeypatch, [_response(503, {}), _response(200, COMPLETION)] * 2)
    backend = HTTPBackend("http://llm.invalid/v1/chat")
    for _ in range(2):
        assert backend.generate(HTTP_REQUEST) == "[ok]"
    assert len(calls) == 4
    assert all(session is calls[0] for session in calls)


def test_http_threads_use_their_own_sessions(monkeypatch):
    # In turn: one call on this thread, then one on each of two threads.
    # Together: a fresh backend's first calls, on two threads at once, meet
    # inside ``post``. Either way each call gets a reply on its own session.
    for together in (False, True):
        calls = _patched_post(monkeypatch, [_response(200, COMPLETION)] * 3)
        if together:
            barrier = threading.Barrier(2, timeout=10)
            post = requests.Session.post

            def meet_then_post(session, url, **kwargs):
                barrier.wait()
                return post(session, url, **kwargs)

            monkeypatch.setattr(requests.Session, "post", meet_then_post)
        backend = HTTPBackend("http://llm.invalid/v1/chat")
        replies = []

        def call():
            replies.append(backend.generate(HTTP_REQUEST))

        if not together:
            call()
        workers = [threading.Thread(target=call) for _ in range(2)]
        for worker in workers:
            worker.start()
            if not together:
                worker.join(timeout=10)
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert replies == ["[ok]"] * (2 if together else 3)
        # ``calls`` keeps every session alive, so no two can share an id.
        assert len(calls) == len({id(session) for session in calls}) == len(replies)
