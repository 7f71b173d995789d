from __future__ import annotations

import json

import pytest

from kgqa import cli
from kgqa.cli import main

from conftest import BECKHAM_QUESTION, FIXTURES

GRAPH = str(FIXTURES / "beckham_graph.tsv")
SCRIPT = str(FIXTURES / "beckham_script.jsonl")
DATASET = str(FIXTURES / "beckham_dataset.jsonl")


class TestIngest:
    def test_reports_counts(self, capsys):
        assert main(["ingest", "--graph", GRAPH]) == 0
        out = capsys.readouterr().out
        assert "3 triples" in out
        assert "4 entities" in out

    def test_malformed_file_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\tc\nbroken line\n")
        assert main(["ingest", "--graph", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_malformed_line_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "two_fields.tsv"
        bad.write_text("a\tb\n")
        assert main(["ingest", "--graph", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 1: expected 3 tab-separated fields, got 2\n"

    def test_missing_file(self, capsys):
        assert main(["ingest", "--graph", "/no/such/file.tsv"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestAsk:
    def test_prints_final_answer(self, capsys):
        code = main(
            ["ask", "--graph", GRAPH, "--question", BECKHAM_QUESTION, "--script", SCRIPT]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1986–2013"

    def test_trace_file_determines_answer(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "ask",
                "--graph", GRAPH,
                "--question", BECKHAM_QUESTION,
                "--script", SCRIPT,
                "--trace", str(trace_path),
            ]
        )
        printed = capsys.readouterr().out.strip()
        final = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["type"] == "final"
        ]
        assert final[0]["answer"] == printed

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        outputs = []
        for i in range(3):
            trace_path = tmp_path / f"t{i}.jsonl"
            main(
                [
                    "ask",
                    "--graph", GRAPH,
                    "--question", BECKHAM_QUESTION,
                    "--script", SCRIPT,
                    "--trace", str(trace_path),
                ]
            )
            outputs.append((capsys.readouterr().out, trace_path.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_trace_matches_golden_fixture(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "ask",
                "--graph", GRAPH,
                "--question", BECKHAM_QUESTION,
                "--script", SCRIPT,
                "--trace", str(trace_path),
            ]
        )
        assert trace_path.read_bytes() == (FIXTURES / "beckham_trace.jsonl").read_bytes()

    def test_evidence_trace_matches_fixture(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon=0.5\n")
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "ask",
                "--graph", GRAPH,
                "--question", BECKHAM_QUESTION,
                "--script", SCRIPT,
                "--config", str(conf),
                "--trace", str(trace_path),
            ]
        )
        assert trace_path.read_bytes() == (FIXTURES / "beckham_evidence_trace.jsonl").read_bytes()

    def test_no_backend_available(self, monkeypatch, capsys):
        monkeypatch.delenv("COGGRAG_LLM_URL", raising=False)
        code = main(["ask", "--graph", GRAPH, "--question", "q?"])
        assert code == 1
        assert "COGGRAG_LLM_URL" in capsys.readouterr().err

    def test_failed_stage_reports_error(self, tmp_path, capsys):
        # A script with no rule for local key extraction fails that stage.
        lines = (FIXTURES / "beckham_script.jsonl").read_text(encoding="utf-8").splitlines()
        script = tmp_path / "no_ext_local.jsonl"
        script.write_text("\n".join(l for l in lines if "extract the entities" not in l) + "\n")
        code = main(["ask", "--graph", GRAPH, "--question", BECKHAM_QUESTION, "--script", str(script)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: stage 'extraction' failed:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_config_file_applies(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("decomposition_enabled = false\n")
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "ask",
                "--graph", GRAPH,
                "--question", BECKHAM_QUESTION,
                "--script", SCRIPT,
                "--config", str(conf),
                "--trace", str(trace_path),
            ]
        )
        nodes = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["type"] == "mindmap_node"
        ]
        assert len(nodes) == 1


class TestBench:
    def test_summary_and_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.jsonl"
        code = main(
            [
                "bench",
                "--graph", GRAPH,
                "--dataset", DATASET,
                "--script", SCRIPT,
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "correct_rate" in out
        assert "1.0000" in out
        assert "error_rate          0.0000" in out.splitlines()
        records = [json.loads(l) for l in report_path.read_text().splitlines()]
        assert records[0]["category"] == "Correct"
        for record in records:
            assert set(record) == {
                "id", "question", "prediction", "em", "rouge_l", "f1", "category", "latency",
                "error",
            }
            assert isinstance(record["category"], str)

    def test_rates_sum_to_one(self, tmp_path, capsys):
        dataset = tmp_path / "two.jsonl"
        dataset.write_text(
            json.dumps(
                {"id": "1", "question": BECKHAM_QUESTION, "answers": ["1986–2013"]},
                ensure_ascii=False,
            )
            + "\n"
            + json.dumps(
                {"id": "2", "question": BECKHAM_QUESTION, "answers": ["something else"]},
                ensure_ascii=False,
            )
            + "\n"
        )
        assert main(["bench", "--graph", GRAPH, "--dataset", str(dataset), "--script", SCRIPT]) == 0
        out = capsys.readouterr().out
        rates = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0].endswith("_rate"):
                rates[parts[0]] = float(parts[1])
        # error_rate is not a category: an error also counts as a hallucination.
        assert rates.pop("error_rate") == 0.0
        assert set(rates) == {"correct_rate", "missing_rate", "hallucination_rate"}
        assert sum(rates.values()) == pytest.approx(1.0)

    def test_dataset_with_byte_order_mark(self, tmp_path, capsys):
        dataset = tmp_path / "bom.jsonl"
        dataset.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "beckham_dataset.jsonl").read_bytes())
        assert main(["bench", "--graph", GRAPH, "--dataset", str(dataset), "--script", SCRIPT]) == 0
        out = capsys.readouterr().out
        assert "correct_rate        1.0000" in out.splitlines()


class TestBadConfig:
    @pytest.mark.parametrize("command", ["ask", "bench"])
    def test_env_value_out_of_range_fails_before_running(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("COGGRAG_MAX_TOKENS", "0")
        report_path = tmp_path / "report.jsonl"
        # the graph path does not exist: the config must fail before it is read
        argv = {
            "ask": ["ask", "--question", BECKHAM_QUESTION],
            "bench": ["bench", "--dataset", DATASET, "--report", str(report_path)],
        }[command]
        code = main([*argv, "--graph", str(tmp_path / "missing.tsv"), "--script", SCRIPT])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "max_tokens" in captured.err
        assert captured.out == ""
        assert not report_path.exists()

    def test_unparseable_value_names_its_file_and_line(self, tmp_path, monkeypatch, capsys):
        # A value read from a file names its file and line; one read from the
        # environment names its variable.
        conf = tmp_path / "run.conf"
        conf.write_text("hops = 2\nepsilon = abc\n")
        argv = ["ask", "--question", BECKHAM_QUESTION, "--graph", str(tmp_path / "missing.tsv"), "--script", SCRIPT]
        unparseable = "config key 'epsilon': could not convert string to float: 'abc'"
        assert main([*argv, "--config", str(conf)]) == 1
        assert capsys.readouterr().err == f"error: {conf}: line 2: {unparseable}\n"
        monkeypatch.setenv("COGGRAG_EPSILON", "abc")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: COGGRAG_EPSILON: {unparseable}\n"


class TestFailsBeforeLoadingGraph:
    """A missing endpoint, a missing script or a bad dataset line is
    reported before the graph, whose load takes seconds at scale, is read."""

    @pytest.fixture(autouse=True)
    def graph_never_loads(self, monkeypatch):
        def load_graph_file(path):
            raise AssertionError(f"graph {path} was loaded")

        monkeypatch.setattr(cli, "load_graph_file", load_graph_file)

    @pytest.mark.parametrize("command", ["ask", "bench"])
    @pytest.mark.parametrize("missing", ["endpoint", "script"])
    def test_missing_backend(self, command, missing, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("COGGRAG_LLM_URL", raising=False)
        script = str(tmp_path / "no_such_script.jsonl")
        argv = {
            "ask": ["ask", "--graph", GRAPH, "--question", BECKHAM_QUESTION],
            "bench": ["bench", "--graph", GRAPH, "--dataset", DATASET],
        }[command]
        if missing == "script":
            argv += ["--script", script]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert {"endpoint": "COGGRAG_LLM_URL", "script": script}[missing] in err

    def test_bad_dataset_line(self, tmp_path, capsys):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text('{"id": "1", "question": "q?", "answers": ["a"]}\n{"id": "2"}\n')
        code = main(["bench", "--graph", GRAPH, "--dataset", str(dataset), "--script", SCRIPT])
        assert code == 1
        assert f"{dataset}: line 2: missing field 'answers'" in capsys.readouterr().err

    def test_missing_answers_names_the_file_and_field(self, tmp_path, capsys):
        dataset = tmp_path / "no_answers.jsonl"
        dataset.write_text('{"id": "1", "question": "q?"}\n')
        code = main(["bench", "--graph", GRAPH, "--dataset", str(dataset), "--script", SCRIPT])
        assert code == 1
        assert capsys.readouterr().err == f"error: {dataset}: line 1: missing field 'answers'\n"

    def test_blank_question(self, tmp_path, capsys):
        dataset = tmp_path / "blank.jsonl"
        dataset.write_text(
            '{"id": "1", "question": "q?", "answers": ["a"]}\n{"id": "2", "question": "   ", "answers": ["x"]}\n'
        )
        code = main(["bench", "--graph", GRAPH, "--dataset", str(dataset), "--script", SCRIPT])
        assert code == 1
        assert f"{dataset}: line 2: question must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n  \r\n\t\n"], ids=["empty", "blank"])
    def test_empty_dataset(self, text, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text(text)
        code = main(["bench", "--graph", GRAPH, "--dataset", str(dataset), "--script", SCRIPT])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(dataset) in err and "no examples" in err


class TestScriptCheck:
    def test_valid_script(self, capsys):
        assert main(["script-check", "--script", SCRIPT]) == 0
        assert "9 rules" in capsys.readouterr().out

    def test_invalid_script(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"match": "x"}\n')
        assert main(["script-check", "--script", str(bad)]) == 1
        assert "reply" in capsys.readouterr().err

    def test_invalid_regex(self, tmp_path, capsys):
        bad = tmp_path / "bad_regex.jsonl"
        bad.write_text('{"regex": "([", "reply": "x"}\n')
        assert main(["script-check", "--script", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 1" in err and "invalid regex" in err


class TestUsage:
    def test_unknown_flag_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--bogus"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("workers", ["-3", "0", "x"])
    def test_bench_workers_below_one_rejected(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--graph", GRAPH, "--dataset", DATASET, "--script", SCRIPT, "--workers", workers])
        assert exc.value.code != 0
        assert "--workers" in capsys.readouterr().err
