from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.config import PipelineConfig
from kgqa.llm import ScriptRule, ScriptedBackend
from kgqa.mindmap import (
    MindMap,
    MindMapNode,
    NodeState,
    bottom_up_order,
    build_mind_map,
    decompose_question,
    parse_decomposition_reply,
)

from conftest import BECKHAM_QUESTION, SUB_Q1, SUB_Q2, nested_reply, one_node_map

LALELI_REPLY = """[
    {"Sub-question": "Where is the Laleli Mosque located?", "State": "End."},
    {"Sub-question": "Where is the Esma Sultan Mansion located?", "State": "End."},
    {"Sub-question": "Are the locations of the Laleli Mosque and the Esma Sultan Mansion in the same neighborhood?", "State": "End."}
]"""


def scripted(reply: str) -> ScriptedBackend:
    return ScriptedBackend([ScriptRule(patterns=("decompose",), reply=reply)])


class TestNodeState:
    @pytest.mark.parametrize("raw", ["End", "End.", "end", "END.", "end!"])
    def test_end_variants(self, raw):
        assert NodeState.parse(raw) is NodeState.END

    @pytest.mark.parametrize("raw", ["Continue", "Continue.", "CONTINUE"])
    def test_continue_variants(self, raw):
        assert NodeState.parse(raw) is NodeState.CONTINUE

    def test_unknown_defaults_to_end(self):
        assert NodeState.parse("maybe") is NodeState.END


class TestDecomposeQuestion:
    def test_laleli_three_subquestions_all_end(self):
        cfg = PipelineConfig()
        result = decompose_question(
            "Are the Laleli Mosque and Esma Sultan Mansion located in the same neighborhood?",
            scripted(LALELI_REPLY),
            cfg,
        )
        assert len(result) == 3
        assert all(state is NodeState.END for _, state in result)
        assert result[0][0] == "Where is the Laleli Mosque located?"

    def test_empty_list_falls_back_to_atomic(self):
        result = decompose_question("Q?", scripted("[]"), PipelineConfig())
        assert result == [("Q?", NodeState.END)]

    def test_prose_falls_back_with_warning(self):
        warnings: list[str] = []
        result = decompose_question(
            "Q?", scripted("I cannot decompose this."), PipelineConfig(), warnings
        )
        assert result == [("Q?", NodeState.END)]
        assert warnings

    def test_retries_then_falls_back(self):
        backend = scripted("no list here")
        decompose_question("Q?", backend, PipelineConfig(max_parse_retries=2))
        assert len(backend.records) == 3

    def test_uses_exploration_temperature(self):
        backend = scripted(LALELI_REPLY)
        decompose_question("Q?", backend, PipelineConfig())
        assert backend.records[0].temperature == 0.4

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            decompose_question("  ", scripted("[]"), PipelineConfig())


class TestDeeplyNestedReply:
    """A bracket block nested past the parsers' recursion limits is an
    unparseable reply, not a failed question."""

    @pytest.mark.parametrize("depth", [10**3, 10**6])
    def test_parses_to_none(self, depth):
        assert parse_decomposition_reply(nested_reply(depth)) is None

    @pytest.mark.parametrize("depth", [10**3, 10**6])
    def test_retries_then_falls_back_with_warning(self, depth):
        backend = scripted(nested_reply(depth))
        warnings: list[str] = []
        result = decompose_question("Q?", backend, PipelineConfig(max_parse_retries=1), warnings)
        assert result == [("Q?", NodeState.END)]
        assert len(backend.records) == 2
        assert warnings == ["decomposition unparseable for question: 'Q?'; treated as atomic"]


class TestParseReply:
    def test_plain_string_list(self):
        parsed = parse_decomposition_reply('["first?", "second?"]')
        assert parsed == [("first?", NodeState.END), ("second?", NodeState.END)]

    def test_single_quoted_records(self):
        parsed = parse_decomposition_reply(
            "[{'Sub-question': 'a?', 'State': 'Continue.'}]"
        )
        assert parsed == [("a?", NodeState.CONTINUE)]

    def test_no_brackets(self):
        assert parse_decomposition_reply("nothing") is None

    def test_garbage_inside_brackets(self):
        assert parse_decomposition_reply("[not, valid, json}") is None

    @pytest.mark.parametrize("reply", ['[{"State": "End."}]', '[{"Sub-question": 7}]'])
    def test_record_without_a_string_question(self, reply):
        assert parse_decomposition_reply(reply) is None

    @pytest.mark.parametrize("reply", ['["a?", 3]', '[["a?"]]', "[null]"])
    def test_item_neither_string_nor_record(self, reply):
        assert parse_decomposition_reply(reply) is None


class TestBuildMindMap:
    def test_beckham_two_leaves(self, golden_backend):
        m = build_mind_map(BECKHAM_QUESTION, golden_backend, PipelineConfig())
        root = m.node(m.root)
        assert root.question == BECKHAM_QUESTION
        assert root.depth == 0
        assert [m.node(c).question for c in root.children] == [SUB_Q1, SUB_Q2]
        assert all(m.node(c).state is NodeState.END for c in root.children)
        assert root.state is NodeState.CONTINUE

    def test_max_depth_zero_single_node(self, golden_backend):
        m = build_mind_map(BECKHAM_QUESTION, golden_backend, PipelineConfig(max_depth=0))
        assert len(m.nodes) == 1
        assert m.node(m.root).state is NodeState.END
        assert golden_backend.records == []

    def test_decomposition_disabled_single_node(self, golden_backend):
        cfg = PipelineConfig(decomposition_enabled=False)
        m = build_mind_map(f"  {BECKHAM_QUESTION} ", golden_backend, cfg)
        assert m.to_records() == [{"id": "0", "question": BECKHAM_QUESTION, "depth": 0, "state": "End"}]
        assert golden_backend.records == []

    def test_three_level_tree_follows_script(self):
        backend = ScriptedBackend(
            [
                ScriptRule(
                    patterns=("decompose", "Input: root?"),
                    reply='[{"Sub-question": "mid?", "State": "Continue."},'
                    ' {"Sub-question": "leaf-a?", "State": "End."}]',
                ),
                ScriptRule(
                    patterns=("decompose", "Input: mid?"),
                    reply='[{"Sub-question": "leaf-b?", "State": "End."},'
                    ' {"Sub-question": "leaf-c?", "State": "End."}]',
                ),
            ]
        )
        m = build_mind_map("root?", backend, PipelineConfig(max_depth=3))
        assert len(m.nodes) == 5
        assert m.node("0.0").state is NodeState.CONTINUE
        assert m.node("0.0").children == ["0.0.0", "0.0.1"]
        assert m.node("0.0.0").depth == 2

    def test_no_progress_decomposition_forces_end(self):
        backend = ScriptedBackend(
            [
                ScriptRule(
                    patterns=("decompose",),
                    reply='[{"Sub-question": "root?", "State": "Continue."}]',
                )
            ]
        )
        m = build_mind_map("root?", backend, PipelineConfig())
        assert len(m.nodes) == 1
        assert m.node(m.root).state is NodeState.END

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
    def test_adversarial_continue_terminates_at_cap(self, max_depth):
        backend = ScriptedBackend(
            [
                ScriptRule(
                    patterns=("decompose",),
                    reply='[{"Sub-question": "probe left?", "State": "Continue."},'
                    ' {"Sub-question": "probe right?", "State": "Continue."}]',
                )
            ]
        )
        m = build_mind_map("root?", backend, PipelineConfig(max_depth=max_depth))
        depths = [n.depth for n in m.nodes.values()]
        assert max(depths) <= max_depth
        leaves = [n for n in m.nodes.values() if not n.children]
        assert all(n.state is NodeState.END for n in leaves)
        if max_depth > 0:
            assert all(n.depth == max_depth for n in leaves)

    def test_deterministic_across_runs(self):
        def build():
            backend = ScriptedBackend(golden_rules())
            return build_mind_map(BECKHAM_QUESTION, backend, PipelineConfig())

        from conftest import golden_rules

        a, b = build(), build()
        assert a.to_records() == b.to_records()

    def test_invariants_hold(self, golden_backend):
        m = build_mind_map(BECKHAM_QUESTION, golden_backend, PipelineConfig())
        for node in m.nodes.values():
            if node.parent is None:
                assert node.id == m.root and node.depth == 0
            else:
                assert node.depth == m.node(node.parent).depth + 1
                assert node.id in m.node(node.parent).children
            assert (node.state is NodeState.END) == (not node.children)

    def test_state_is_read_only(self, golden_backend):
        m = build_mind_map(BECKHAM_QUESTION, golden_backend, PipelineConfig())
        with pytest.raises(AttributeError):
            m.node(m.root).state = NodeState.END


def _random_tree(draw) -> MindMap:
    n = draw(st.integers(min_value=1, max_value=20))
    nodes = {"0": MindMapNode(id="0", question="q0", depth=0)}
    ids = ["0"]
    for i in range(1, n):
        parent_id = draw(st.sampled_from(ids))
        parent = nodes[parent_id]
        node_id = f"{parent_id}.{len(parent.children)}"
        nodes[node_id] = MindMapNode(id=node_id, question=f"q{i}", depth=parent.depth + 1, parent=parent_id)
        parent.children.append(node_id)
        ids.append(node_id)
    return MindMap(nodes=nodes, root="0")


def _postorder_oracle(m: MindMap, node_id: str) -> list[str]:
    out: list[str] = []
    for child in m.nodes[node_id].children:
        out.extend(_postorder_oracle(m, child))
    out.append(node_id)
    return out


class TestBottomUpOrder:
    def test_single_node(self):
        m = one_node_map("Q?")
        assert bottom_up_order(m) == ["0"]

    def test_beckham_leaves_first(self, golden_backend):
        m = build_mind_map(BECKHAM_QUESTION, golden_backend, PipelineConfig())
        assert bottom_up_order(m) == ["0.0", "0.1", "0"]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_recursive_postorder_oracle(self, data):
        m = _random_tree(data.draw)
        order = bottom_up_order(m)
        assert order == _postorder_oracle(m, m.root)
        assert sorted(order) == sorted(m.nodes)
        position = {nid: i for i, nid in enumerate(order)}
        for node in m.nodes.values():
            for child in node.children:
                assert position[child] < position[node.id]
