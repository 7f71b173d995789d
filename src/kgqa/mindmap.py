"""Tree-structured mind map built by recursive top-down question decomposition.

Each node carries (question, depth, children); its state is Continue while
it has children and End once it has none. Decomposition recurses until
every leaf is an End node or the depth cap is hit; with decomposition
switched off the map is the question alone. A completed map is immutable
in practice and traversed bottom-up for reasoning.
"""
from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .config import PipelineConfig
from .kg_store import normalize
from .llm import DEC_TEMPLATE, LLMBackend, ask, fan_out


class NodeState(Enum):
    CONTINUE = "Continue"
    END = "End"

    @classmethod
    def parse(cls, text: str) -> "NodeState":
        cleaned = text.strip().strip(".!,;:\"'").lower()
        if cleaned == "continue":
            return cls.CONTINUE
        return cls.END


@dataclass
class MindMapNode:
    id: str
    question: str
    depth: int
    parent: Optional[str] = None
    children: list[str] = field(default_factory=list)

    @property
    def state(self) -> NodeState:
        return NodeState.CONTINUE if self.children else NodeState.END


@dataclass
class MindMap:
    nodes: dict[str, MindMapNode]
    root: str

    def node(self, node_id: str) -> MindMapNode:
        return self.nodes[node_id]

    def preorder(self) -> Iterator[MindMapNode]:
        """All nodes in pre-order, root first, children in list order."""
        stack = [self.root]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children))

    def questions(self) -> list[str]:
        """All node questions in pre-order, root first."""
        return [node.question for node in self.preorder()]

    def to_records(self) -> list[dict]:
        """Flat per-node records in pre-order, for trace files."""
        return [
            {
                "id": node.id,
                "question": node.question,
                "depth": node.depth,
                "state": node.state.value,
            }
            for node in self.preorder()
        ]


def _first_bracketed_block(text: str) -> Optional[str]:
    """The first balanced ``[...]`` region, brackets included."""
    start = text.find("[")
    if start < 0:
        return None
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def parse_decomposition_reply(text: str) -> Optional[list[tuple[str, NodeState]]]:
    """Parse the bracketed sub-question list; None when unparseable.

    Accepts records shaped {"Sub-question": ..., "State": ...} (keys matched
    case-insensitively) as well as plain question strings, which default to
    End. An empty list parses to [] and is handled by the caller.
    """
    block = _first_bracketed_block(text)
    if block is None:
        return None
    data = None
    for loader in (json.loads, ast.literal_eval):
        try:
            data = loader(block)
            break
        except (ValueError, SyntaxError, RecursionError):
            continue
    if not isinstance(data, list):
        return None
    result: list[tuple[str, NodeState]] = []
    for item in data:
        if isinstance(item, str):
            question, state = item, NodeState.END
        elif isinstance(item, dict):
            lowered = {str(k).lower().replace("-", "").replace("_", ""): v for k, v in item.items()}
            raw_q = lowered.get("subquestion") or lowered.get("question")
            if not isinstance(raw_q, str):
                return None
            question = raw_q
            raw_state = lowered.get("state")
            state = NodeState.parse(raw_state) if isinstance(raw_state, str) else NodeState.END
        else:
            return None
        if question.strip():
            result.append((question.strip(), state))
    return result


def decompose_question(
    question: str,
    backend: LLMBackend,
    cfg: PipelineConfig,
    warnings: Optional[list[str]] = None,
) -> list[tuple[str, NodeState]]:
    """One decomposition step; falls back to [(question, End)] when the
    backend's output stays unparseable after the configured retries."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    for _ in range(1 + cfg.max_parse_retries):
        parsed = parse_decomposition_reply(ask(backend, DEC_TEMPLATE, cfg, question=question))
        if parsed:
            return parsed
    if warnings is not None:
        warnings.append(f"decomposition unparseable for question: {question!r}; treated as atomic")
    return [(question.strip(), NodeState.END)]


def build_mind_map(
    question: str,
    backend: LLMBackend,
    cfg: PipelineConfig,
    warnings: Optional[list[str]] = None,
) -> MindMap:
    """Recursively decompose ``question`` into a mind map.

    With ``decomposition_enabled`` off or a ``max_depth`` of 0, the map is
    the root alone, an End node, and no call is made; a blank question fails
    either way. Nodes at the depth cap are forced to End. A decomposition
    that returns a single sub-question identical to its parent makes no
    progress and ends the branch. The nodes of one level are decomposed
    together (see ``fan_out``); their children are added in node order, then
    child order, so ids, node order and warnings do not depend on which
    reply came first.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    root = MindMapNode(id="0", question=question.strip(), depth=0)
    nodes = {root.id: root}

    def decompose(node: MindMapNode, job_warnings: list[str]) -> list[tuple[str, NodeState]]:
        return decompose_question(node.question, backend, cfg, job_warnings)

    level = [root] if cfg.decomposition_enabled and cfg.max_depth > 0 else []
    while level:
        replies = fan_out(backend, decompose, level, warnings)
        next_level: list[MindMapNode] = []
        for node, subs in zip(level, replies):
            if len(subs) == 1 and normalize(subs[0][0]) == normalize(node.question):
                continue
            for index, (sub_question, sub_state) in enumerate(subs):
                child = MindMapNode(
                    id=f"{node.id}.{index}",
                    question=sub_question,
                    depth=node.depth + 1,
                    parent=node.id,
                )
                nodes[child.id] = child
                node.children.append(child.id)
                if sub_state is NodeState.CONTINUE and child.depth < cfg.max_depth:
                    next_level.append(child)
        level = next_level
    return MindMap(nodes=nodes, root=root.id)


def bottom_up_order(m: MindMap) -> list[str]:
    """Post-order node ids: every node strictly after all its descendants.
    It is the reverse of a pre-order that visits children last to first."""
    order: list[str] = []
    stack = [m.root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(m.nodes[node_id].children)
    return order[::-1]
