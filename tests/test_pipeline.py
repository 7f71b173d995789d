from __future__ import annotations

import dataclasses
import io
import json

import pytest

from kgqa.config import load_config, parse_config_lines
from kgqa.embedding import CachingEmbedder, HashedEmbedder
from kgqa.kg_store import DenseIndex, KnowledgeGraph
from kgqa.llm import (
    DEC_TEMPLATE,
    EXT_GLOBAL_TEMPLATE,
    EXT_LOCAL_TEMPLATE,
    RES_TEMPLATE,
    RETHINK_TEMPLATE,
    BackendError,
    ScriptRule,
    ScriptedBackend,
)
from kgqa.pipeline import (
    Backends,
    PipelineConfig,
    PipelineStageError,
    run_pipeline,
    write_trace,
)

from conftest import BECKHAM_QUESTION, FIXTURES, SUB_Q1, SUB_Q2, ScaledEmbedder, golden_rules, nested_reply
from test_acceptance import _run_session, _session_rules


class SecondAnswerFails:
    """Replays ``rules``, except that the second answer prompt gets None
    (``fault="none_reply"``) or raises ValueError (``fault="value_error"``)."""

    def __init__(self, rules, fault):
        self.inner = ScriptedBackend(rules)
        self.fault = fault
        self.answers = 0

    def generate(self, request):
        if RES_TEMPLATE.head in request.prompt:
            self.answers += 1
            if self.answers == 2:
                if self.fault == "value_error":
                    raise ValueError("no answer")
                return None
        return self.inner.generate(request)


# One out-of-range value per bounded field; NaN must not slip past a bound.
OUT_OF_RANGE = [
    ("epsilon", -0.1),
    ("epsilon", 1.5),
    ("epsilon", float("nan")),
    ("resolve_threshold", 5.0),
    ("resolve_threshold", -1.5),
    ("hops", 0),
    ("hub_cap", 0),
    ("max_evidence_triples", 0),
    ("max_tokens", 0),
    ("embedding_dim", 0),
    ("embedding_dim", 10**9),
    ("max_depth", -1),
    ("max_parse_retries", -1),
    ("exploration_temperature", -1.0),
    ("reasoning_temperature", -1.0),
]


@pytest.fixture
def golden_backends(golden_backend) -> Backends:
    return Backends.single(golden_backend)


class TestConfig:
    def test_defaults_match_experiment_settings(self):
        cfg = PipelineConfig()
        assert cfg.epsilon == 0.7
        assert cfg.exploration_temperature == 0.4
        assert cfg.reasoning_temperature == 0.0
        assert cfg.max_depth == 3
        assert cfg.hops == 1

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(epsilon=1.2)

    @pytest.mark.parametrize(
        "name, value", OUT_OF_RANGE, ids=[f"{name}={value}" for name, value in OUT_OF_RANGE]
    )
    def test_out_of_range_value_rejected(self, name, value, monkeypatch):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})
        monkeypatch.setenv("COGGRAG_" + name.upper(), str(value))
        with pytest.raises(ValueError, match=name):
            load_config()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("hops", 1.5),
            ("hops", "2"),
            ("hub_cap", True),
            ("epsilon", False),
            ("epsilon", "0.5"),
            ("decomposition_enabled", "no"),
            ("verification_enabled", 1),
            ("model", 3),
        ],
    )
    def test_wrong_type_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"config key '{name}': expected"):
            PipelineConfig(**{name: value})

    def test_int_accepted_for_float_field(self):
        assert PipelineConfig(epsilon=1, resolve_threshold=0).epsilon == 1

    def test_range_edges_accepted(self):
        PipelineConfig(
            epsilon=0.0,
            resolve_threshold=-1.0,
            hops=1,
            hub_cap=1,
            max_evidence_triples=1,
            max_tokens=1,
            embedding_dim=1,
            max_depth=0,
            max_parse_retries=0,
            exploration_temperature=0.0,
            reasoning_temperature=0.0,
        )
        PipelineConfig(epsilon=1.0, resolve_threshold=1.0, embedding_dim=65536)

    def test_out_of_range_file_value_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("max_parse_retries = -1\n")
        with pytest.raises(ValueError, match="max_parse_retries"):
            load_config(str(path))

    @pytest.mark.parametrize("source", ["file", "env", "overrides"])
    def test_out_of_range_value_names_its_source(self, source, tmp_path, monkeypatch):
        # The value is checked as it arrives, so the error says where it came from.
        path = tmp_path / "run.conf"
        path.write_text("epsilon = 0.5\nhops = 0\n" if source == "file" else "")
        if source == "env":
            monkeypatch.setenv("COGGRAG_HOPS", "0")
        where = {"file": f"{path}: line 2", "env": "COGGRAG_HOPS", "overrides": "overrides"}[source]
        with pytest.raises(ValueError) as exc:
            load_config(str(path), overrides={"hops": 0} if source == "overrides" else None)
        assert str(exc.value) == f"{where}: config key 'hops': must be >= 1, got 0"

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"\xef\xbb\xbfhops = 2\n")
        assert load_config(str(path)).hops == 2

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PipelineConfig().epsilon = 0.5  # type: ignore[misc]

    def test_parse_config_lines(self):
        values = parse_config_lines(
            ["# comment", "epsilon = 0.5", "verification_enabled=false", "hops=2"]
        )
        assert values == {"epsilon": 0.5, "verification_enabled": False, "hops": 2}

    def test_parse_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_lines(["bogus = 1"])

    def test_parse_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            parse_config_lines(["verification_enabled = perhaps"])

    @pytest.mark.parametrize("name, value", [("hops", "abc"), ("epsilon", "high")])
    def test_parse_bad_number_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"config key '{name}': .*'{value}'"):
            parse_config_lines([f"{name} = {value}"])

    def test_parse_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match="run.conf: line 2: expected key=value"):
            parse_config_lines(["hops=2", "epsilon 0.5"], source="run.conf")

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.conf"
        path.write_text("epsilon = 0.5\nhops = 2\n")
        monkeypatch.setenv("COGGRAG_EPSILON", "0.9")
        cfg = load_config(str(path))
        assert cfg.epsilon == 0.9
        assert cfg.hops == 2

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'bogus'"):
            load_config(overrides={"bogus": 1})

    def test_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("COGGRAG_MAX_DEPTH", "2")
        cfg = load_config(overrides={"max_depth": 1})
        assert cfg.max_depth == 1

    def test_config_env_points_at_file(self, tmp_path, monkeypatch):
        path = tmp_path / "env.conf"
        path.write_text("max_depth = 0\n")
        monkeypatch.setenv("COGGRAG_CONFIG", str(path))
        assert load_config().max_depth == 0


class TestRunPipeline:
    def test_golden_session(self, fixture_graph, golden_backends):
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), golden_backends)
        assert result.final_answer == "1986–2013"
        assert len(result.trace.records) == 3
        assert all(r.verdict for r in result.trace.records)
        questions = [n["question"] for n in result.mind_map.to_records()]
        assert SUB_Q1 in questions and SUB_Q2 in questions
        assert len(result.keys.global_keys) == 1

    @pytest.mark.parametrize("hub_cap", [512, 1])
    def test_rows_scored_once_per_question(self, fixture_graph, golden_backends, hub_cap, monkeypatch):
        # The hub cap and the epsilon filter read one scoring of the rows.
        calls = []
        row_scores = KnowledgeGraph.row_scores

        def spy(self, *args):
            calls.append(args)
            return row_scores(self, *args)

        monkeypatch.setattr(KnowledgeGraph, "row_scores", spy)
        run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(hops=2, hub_cap=hub_cap), golden_backends)
        assert len(calls) == 1

    def test_golden_question_scores_each_key_text_once(self, fixture_graph, golden_backends, monkeypatch):
        # The global subgraph restates the local key "manager recruited David
        # Beckham": six scoring pairs, five distinct texts, five key rows.
        key_rows = []
        row_scores = KnowledgeGraph.row_scores

        def spy(self, rows, embedder, key_matrix):
            key_rows.append(len(key_matrix))
            return row_scores(self, rows, embedder, key_matrix)

        monkeypatch.setattr(KnowledgeGraph, "row_scores", spy)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), golden_backends)
        assert key_rows == [5]
        assert len({text for _, text in result.keys.scoring_pairs()}) == 5

    def test_decomposition_disabled_single_node(self, fixture_graph, golden_backends):
        cfg = PipelineConfig(decomposition_enabled=False)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, golden_backends)
        assert len(result.mind_map.nodes) == 1
        assert len(result.trace.records) == 1

    @pytest.mark.parametrize("decomposition_enabled", [True, False], ids=["decomposition", "ablation"])
    def test_blank_question_fails_in_decomposition_without_a_call(
        self, fixture_graph, golden_backend, decomposition_enabled
    ):
        cfg = PipelineConfig(decomposition_enabled=decomposition_enabled)
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline("   ", fixture_graph, cfg, Backends.single(golden_backend))
        assert exc.value.stage == "decomposition"
        assert golden_backend.records == []

    def test_single_builds_a_bare_hashed_embedder(self, golden_backend):
        # No per-text store behind the command-line path.
        assert type(Backends.single(golden_backend).embedder) is HashedEmbedder

    def test_global_keys_disabled(self, fixture_graph, golden_backends):
        cfg = PipelineConfig(global_keys_enabled=False)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, golden_backends)
        assert result.keys.global_keys == []
        assert result.keys.local_keys  # locals unaffected

    def test_verification_disabled(self, fixture_graph, golden_backends):
        cfg = PipelineConfig(verification_enabled=False)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, golden_backends)
        assert result.trace.verify_calls == 0
        assert result.trace.rethink_calls == 0
        assert result.final_answer == "1986–2013"

    @pytest.mark.parametrize("depth", [10**3, 10**6])
    @pytest.mark.parametrize(
        "template, warning",
        [
            (DEC_TEMPLATE, f"decomposition unparseable for question: {BECKHAM_QUESTION!r}; treated as atomic"),
            (EXT_LOCAL_TEMPLATE, "local key extraction produced no parseable keys"),
            (EXT_GLOBAL_TEMPLATE, "global key extraction produced no parseable triples"),
        ],
        ids=["dec", "ext_local", "ext_global"],
    )
    def test_deeply_nested_reply_leaves_a_warning(self, fixture_graph, template, warning, depth):
        rules = [ScriptRule(reply=nested_reply(depth), patterns=(template.head,)), *golden_rules()]
        backends = Backends.single(ScriptedBackend(rules))
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        assert result.warnings == [warning]
        assert result.final_answer == "1986–2013"

    def test_stage_error_labels_reasoning(self, fixture_graph):
        rules = [r for r in golden_rules() if "logical verification" not in r.patterns[0]]
        backends = Backends.single(ScriptedBackend(rules))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        assert exc.value.stage == "reasoning"
        assert exc.value.partial_trace is not None

    def test_stage_error_carries_the_warnings_before_it(self, fixture_graph):
        rules = [
            dataclasses.replace(r, reply="no triples here") if "extract the subgraphs" in r.patterns else r
            for r in golden_rules()
            if "logical verification" not in r.patterns[0]
        ]
        backends = Backends.single(ScriptedBackend(rules))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        assert exc.value.stage == "reasoning"
        assert exc.value.warnings == ["global key extraction produced no parseable triples"]

    @pytest.mark.parametrize("fault", ["none_reply", "value_error"])
    def test_any_reasoning_failure_carries_its_partial_trace(self, fixture_graph, fault):
        # The golden run with one warning from global extraction; the second
        # answer prompt, node 0.1's, gets no reply or raises.
        rules = [
            dataclasses.replace(r, reply="no triples here") if "extract the subgraphs" in r.patterns else r
            for r in golden_rules()
        ]
        finished = run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), Backends.single(ScriptedBackend(rules)))
        backend = SecondAnswerFails(rules, fault)
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), Backends.single(backend))
        assert exc.value.stage == "reasoning"
        assert exc.value.partial_trace.records == finished.trace.records[:1]
        assert exc.value.partial_trace.records[0].node == "0.0"
        assert exc.value.warnings == ["global key extraction produced no parseable triples"]
        if fault == "value_error":
            assert isinstance(exc.value.__cause__, ValueError)
            assert str(exc.value) == "stage 'reasoning' failed: no answer"
        else:
            assert isinstance(exc.value.__cause__, BackendError)
            assert str(exc.value) == "stage 'reasoning' failed: template 'res' got a NoneType reply, not a string"

    def test_non_string_reply_names_its_template(self, fixture_graph):
        # The golden run, but every decomposition prompt gets None: ``ask``
        # raises, naming the template and the reply's type.
        class NoDecomposition(ScriptedBackend):
            def generate(self, request):
                return None if DEC_TEMPLATE.head in request.prompt else super().generate(request)

        backends = Backends.single(NoDecomposition(golden_rules()))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        assert exc.value.stage == "decomposition"
        assert isinstance(exc.value.__cause__, BackendError)
        assert str(exc.value) == "stage 'decomposition' failed: template 'dec' got a NoneType reply, not a string"

    def test_stage_error_labels_extraction(self, fixture_graph):
        rules = [ScriptRule(patterns=("decompose",), reply="[]")]
        backends = Backends.single(ScriptedBackend(rules))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        assert exc.value.stage == "extraction"

    def test_stage_error_labels_retrieval_for_non_unit_embedder(self, fixture_graph):
        backend = ScriptedBackend(golden_rules())
        backends = Backends(res=backend, ver=backend, embedder=ScaledEmbedder(256))
        with pytest.raises(PipelineStageError, match="embedder contract") as exc:
            run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        assert exc.value.stage == "retrieval"


class TestWriteTrace:
    def test_trace_contents_and_determinism(self, fixture_graph):
        def render() -> str:
            backends = Backends.single(ScriptedBackend(golden_rules()))
            cfg = PipelineConfig()
            result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, backends)
            buffer = io.StringIO()
            write_trace(buffer, result, cfg, fixture_graph)
            return buffer.getvalue()

        first = render()
        assert '"type": "header"' in first
        assert SUB_Q1 in first
        assert "manager recruited David Beckham; manager manage Manchester United" in first
        assert '"answer": "1986–2013"' in first
        assert first == render() == render()

    def test_evidence_trace_matches_fixture(self, fixture_graph):
        # At epsilon 0.5 the golden run keeps both candidates as evidence, tied
        # in score, so they are listed in (head, relation, tail) order.
        cfg = PipelineConfig(epsilon=0.5)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, Backends.single(ScriptedBackend(golden_rules())))
        buffer = io.StringIO()
        write_trace(buffer, result, cfg, fixture_graph)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        evidence = [
            (r["head"], r["relation"], r["tail"], r["score"], r["best_key"]) for r in records if r["type"] == "evidence"
        ]
        assert evidence == [
            ("Alex Ferguson", "manages", "Manchester United", 0.632455532, "Manchester United"),
            ("David Beckham", "recruited_by", "Alex Ferguson", 0.632455532, "David Beckham"),
        ]
        assert result.final_answer == "1986–2013"
        assert buffer.getvalue().encode() == (FIXTURES / "beckham_evidence_trace.jsonl").read_bytes()

    @pytest.mark.parametrize("caching", [False, True], ids=["bare", "caching"])
    @pytest.mark.parametrize(
        "epsilon, fixture",
        [(PipelineConfig().epsilon, "beckham_trace.jsonl"), (0.5, "beckham_evidence_trace.jsonl")],
        ids=["default", "evidence"],
    )
    def test_dense_index_writes_the_golden_traces(self, fixture_graph, caching, epsilon, fixture):
        # An embedder offering only ``embed`` is scored by a DenseIndex, from
        # serialised surfaces; it must write the traces a count table writes.
        class EmbedOnly:
            dimension = 256
            embed = staticmethod(HashedEmbedder(256).embed)

        embedder = CachingEmbedder(EmbedOnly()) if caching else EmbedOnly()
        backend = ScriptedBackend(golden_rules())
        backends = Backends(res=backend, ver=backend, embedder=embedder)
        cfg = PipelineConfig(epsilon=epsilon)
        result = run_pipeline(BECKHAM_QUESTION, fixture_graph, cfg, backends)
        assert isinstance(fixture_graph._indexes[embedder], DenseIndex)
        buffer = io.StringIO()
        write_trace(buffer, result, cfg, fixture_graph)
        assert buffer.getvalue().encode() == (FIXTURES / fixture).read_bytes()

    def test_warnings_in_stage_order_from_one_list(self, fixture_graph):
        answers = {SUB_Q1: "Alex Ferguson", SUB_Q2: "1986–2013", BECKHAM_QUESTION: "1986–2013"}
        verdicts = {**{q: "right" for q in answers}, SUB_Q1: "wrong"}
        rules = _session_rules(verdicts, answers, rethinks={SUB_Q1: "unused"})
        for i, rule in enumerate(rules):
            if "extract the subgraphs" in rule.patterns:
                rules[i] = dataclasses.replace(rule, reply="no triples here")
            if "re-think" in rule.patterns:
                rules[i] = dataclasses.replace(rule, reply="Sir Alex Ferguson")
        result, _ = _run_session(rules)
        buffer = io.StringIO()
        write_trace(buffer, result, PipelineConfig(), fixture_graph)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [r["message"] for r in records if r["type"] == "warning"] == [
            "global key extraction produced no parseable triples",
            f"rethink without brackets for question: {SUB_Q1!r}",
        ]
        (leaf,) = [r for r in records if r.get("rethink") is not None]
        assert leaf["final"] == "Sir Alex Ferguson"

class TestGoldenRequests:
    """The prompts themselves are pinned: the golden trace does not carry them."""

    def test_requests_match_fixture(self, fixture_graph, golden_backend):
        backends = Backends.single(golden_backend)
        run_pipeline(BECKHAM_QUESTION, fixture_graph, PipelineConfig(), backends)
        lines = [
            json.dumps(dataclasses.asdict(r), ensure_ascii=False, sort_keys=True) + "\n"
            for r in golden_backend.records
        ]
        assert "".join(lines).encode() == (FIXTURES / "beckham_requests.jsonl").read_bytes()

    def test_one_wrong_rethinks_once_with_the_answer_context(self):
        answers = {SUB_Q1: "Alex Ferguson", SUB_Q2: "1986–2013", BECKHAM_QUESTION: "1986–2013"}
        verdicts = {**{q: "right" for q in answers}, SUB_Q1: "wrong"}
        rules = _session_rules(verdicts, answers, rethinks={SUB_Q1: "Sir Alex Ferguson"})
        _, backend = _run_session(rules)
        prompts = [r.prompt for r in backend.records]
        rethinks = [p for p in prompts if RETHINK_TEMPLATE.head in p]
        assert len(rethinks) == 1
        (answer,) = [p for p in prompts if RES_TEMPLATE.head in p and f"Input: {SUB_Q1}" in p]
        context = "The completed reasoning: "
        assert rethinks[0].split(context, 1)[1] == answer.split(context, 1)[1]
