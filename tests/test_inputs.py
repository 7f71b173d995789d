"""The one text rule of every input file, at the reader and at the CLI.

Graph, dataset, config and script files are UTF-8 with an optional
byte-order mark; only LF ends a line, so a lone CR is data; blank and ``#``
lines are skipped; and an error is one ``error: <path>: line N: …`` line.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa import cli
from kgqa.cli import main
from kgqa.inputs import read_lines
from kgqa.kg_store import GraphParseError, load_graph_file

from conftest import BECKHAM_QUESTION, FIXTURES

GRAPH = str(FIXTURES / "beckham_graph.tsv")
SCRIPT = str(FIXTURES / "beckham_script.jsonl")

# Each kind of input file: the command that reads it, given the path, and one
# valid first line.
KINDS = {
    "graph": (lambda path: ["ingest", "--graph", path], "a\tb\tc"),
    "dataset": (
        lambda path: ["bench", "--graph", GRAPH, "--dataset", path, "--script", SCRIPT],
        '{"id": "1", "question": "q?", "answers": ["a"]}',
    ),
    "config": (
        lambda path: ["ask", "--graph", GRAPH, "--question", BECKHAM_QUESTION, "--script", SCRIPT, "--config", path],
        "hops = 1",
    ),
    "script": (lambda path: ["script-check", "--script", path], '{"match": "x", "reply": "y"}'),
}


def run(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_lines_end_at_lf_alone(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("\ufeffa\r\nb\rc\x85d\u2028e\nf".encode("utf-8"))
    assert list(read_lines(str(path))) == ["a\r\n", "b\rc\x85d\u2028e\n", "f"]


@pytest.mark.parametrize("kind", KINDS)
def test_bad_byte_names_the_file_and_line(kind, tmp_path, monkeypatch):
    monkeypatch.delenv("COGGRAG_CONFIG", raising=False)
    argv, first = KINDS[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(first.encode() + b"\nab\xffcd\n" + first.encode() + b"\n")
    code, out, err = run(argv(str(path)))
    assert code == 1
    assert out == ""
    reason = "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"
    assert err == f"error: {path}: line 2: not UTF-8: {reason}\n"


def test_lone_cr_is_data_in_a_graph(tmp_path):
    path = tmp_path / "cr.tsv"
    path.write_bytes(b"a\tb\tc\nc\rd\tr\te\n")
    graph = load_graph_file(str(path))
    assert graph.triple_count == 2
    assert graph.resolve_entity("c d").surface == "c\rd"
    path.write_bytes(b"a\tb\tc\nc\rd\tr\te\nbroken\n")
    with pytest.raises(GraphParseError) as exc:
        load_graph_file(str(path))
    assert exc.value.line_number == 3


def test_control_characters_in_a_field_are_data(tmp_path):
    # A NUL or other control character is kept in its surface, and the trace
    # writes it as a JSON escape that reads back as the same text.
    graph = tmp_path / "controls.tsv"
    text = (FIXTURES / "beckham_graph.tsv").read_text(encoding="utf-8")
    graph.write_text(text.replace("\tManchester United", "\tManchester\x00 United\x01"), encoding="utf-8")
    assert run(["ingest", "--graph", str(graph)])[:2] == (0, "loaded 3 triples, 4 entities\n")
    conf, trace = tmp_path / "evidence.conf", tmp_path / "trace.jsonl"
    conf.write_text("epsilon = 0.5\n")
    argv = ["ask", "--graph", str(graph), "--question", BECKHAM_QUESTION, "--script", SCRIPT]
    assert run([*argv, "--config", str(conf), "--trace", str(trace)])[0] == 0
    raw = trace.read_text(encoding="utf-8")
    assert '"tail": "Manchester\\u0000 United\\u0001"' in raw
    tails = [r["tail"] for r in map(json.loads, raw.splitlines()) if r["type"] == "evidence"]
    assert tails == ["Manchester\x00 United\x01", "Alex Ferguson"]


# Line ends and marks a reader must take as data or drop, not as line ends.
_SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"])
_COMMON_LINES = [
    *["", "# note", "  \t", "\x00", "a\tb", "a\t\tc"],
    *["x = 1", "hops = 0", "epsilon=0.5", "max_depth = 0", "verification_enabled = no"],
    *['{"id": "2"}', '{"reply": "r"}', '{"regex": "(", "reply": "r"}', "[1]"],
]
_LINES = {
    kind: st.one_of(st.sampled_from([first, *_COMMON_LINES]), st.text(max_size=8))
    for kind, (_, first) in KINDS.items()
}
_LONG_LINE = st.builds(
    str.__mul__, st.sampled_from(["a", "\t", "[", "{", "(", "#", "\xe9", "\r"]), st.sampled_from([2, 3_000, 30_000])
)
_SHAPES = st.sampled_from(["bytes", "text", "empty"])


@st.composite
def file_bytes(draw, kind):
    """Random bytes; or lines, valid and not, each ended by any line end, with
    an optional byte-order mark and a very long line; or nothing."""
    shape = draw(_SHAPES)
    if shape == "bytes":
        return draw(st.binary(max_size=64))
    if shape == "empty":
        return b""
    lines = draw(st.lists(_LINES[kind], max_size=6))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_LONG_LINE))
    text = "".join(line + draw(_SEPARATORS) for line in lines)
    return ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()


@pytest.mark.parametrize("kind", KINDS)
def test_any_input_ends_in_success_or_one_error_line(kind, tmp_path_factory, monkeypatch):
    argv, _ = KINDS[kind]
    path = tmp_path_factory.mktemp(kind) / "input"
    # One parser for every run: building it is most of a failing run's time.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))

    @settings(max_examples=200, deadline=None)
    @given(file_bytes(kind))
    def check(data):
        path.write_bytes(data)
        code, _, err = run(argv(str(path)))
        if code == 0:
            assert err == ""
        else:
            assert err.startswith(f"error: {path}: ") or (kind == "config" and err.startswith("error: stage '"))
            assert err.endswith("\n") and len(err.splitlines()) == 1 and "Traceback" not in err

    check()
