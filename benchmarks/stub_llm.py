"""A deterministic stand-in for the LLM, owned by the benchmark.

Each reply is synthesised from the prompt in time independent of the number
of templates: the template is identified once, then one reply function runs.
Answers are read out of the rendered ``knowledge`` section, so exact match
drops if retrieval stops surfacing the gold fact. Every call can sleep a
fixed base plus a term per 1000 prompt characters, a simple model of
request overhead plus prefill.

Questions have the shape the generator writes, optionally behind step
labels the stub adds when it decomposes:

    [Step 1.0: ]What is the <relation> of [the ]<thing>[, as told by <source>]?
"""
from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter

from kgqa.llm import infer_template_name

ABSTAIN = "[Insufficient information, I don't know]"

_QUESTION_RE = re.compile(
    r"(?:Step (?P<step>[\d.]+): )?What is the (?P<relation>.+?) of (?P<mention>.+?)"
    r"(?:, as told by (?P<source>.+?))?\?"
)
_EVIDENCE_RE = re.compile(r"^\((.*), (.*), (.*)\)$", re.MULTILINE)


def _input(prompt: str) -> str:
    """The ``Input:`` slot, which every template renders last."""
    return prompt[prompt.rindex("Input: ") + 7 : prompt.rindex("\nOutput:")]


def _knowledge(prompt: str) -> str:
    start = prompt.index("The knowledge graph: ") + 21
    return prompt[start : prompt.index("\n\n", start)]


class StubLLM:
    """Implements the ``LLMBackend`` protocol; safe for concurrent callers.

    ``branching`` gives the sub-questions per level of the decomposition
    tree: ``(3, 2)`` splits the root into 3 ``Continue`` sub-questions and
    each of those into 2 ``End`` leaves. The verifier rejects the first
    leaf of every branch, so each such leaf costs one rethink.
    """

    identity = "stub"

    def __init__(self, branching: tuple[int, ...] = (), base_s: float = 0.0, per_kchar_s: float = 0.0):
        self.branching = branching
        self.base_s = base_s
        self.per_kchar_s = per_kchar_s
        self.calls: Counter = Counter()
        self.prompt_chars: Counter = Counter()
        self._lock = threading.Lock()
        self._replies = {
            "dec": self._decompose,
            "ext_local": self._extract_local,
            "ext_global": lambda prompt: "",
            "res": self._answer,
            "ver": self._verify,
            "rethink": self._answer,
        }

    def generate(self, request) -> str:
        prompt = request.prompt
        template = infer_template_name(prompt)
        with self._lock:
            self.calls[template] += 1
            self.prompt_chars[template] += len(prompt)
        reply = self._replies[template](prompt)
        delay = self.base_s + self.per_kchar_s * len(prompt) / 1000.0
        if delay > 0:
            time.sleep(delay)
        return reply

    def _decompose(self, prompt: str) -> str:
        question = _input(prompt)
        match = _QUESTION_RE.fullmatch(question)
        step = match["step"] if match else None
        depth = 0 if step is None else step.count(".") + 1
        if match is None or depth >= len(self.branching):
            return json.dumps([{"Sub-question": question, "State": "End."}])
        base = question[question.index("What is") :]
        state = "Continue." if depth + 1 < len(self.branching) else "End."
        prefix = "" if step is None else f"{step}."
        subs = [
            {"Sub-question": f"Step {prefix}{k}: {base}", "State": state}
            for k in range(self.branching[depth])
        ]
        return json.dumps(subs)

    def _extract_local(self, prompt: str) -> str:
        match = _QUESTION_RE.search(_input(prompt))
        if match is None:
            return ""
        keys = f"<{match['mention']}-{match['relation']}>"
        if match["source"]:
            keys += f" <{match['source']}>"
        return keys

    def _answer(self, prompt: str) -> str:
        match = _QUESTION_RE.fullmatch(_input(prompt))
        if match is None:
            return ABSTAIN
        mention = match["mention"].lower().removeprefix("the ")
        relation = match["relation"].lower()
        for head, rel, tail in _EVIDENCE_RE.findall(_knowledge(prompt)):
            if rel == relation and head.lower() == mention:
                return f"[{tail}]"
        return ABSTAIN

    def _verify(self, prompt: str) -> str:
        match = _QUESTION_RE.fullmatch(_input(prompt))
        step = match["step"] if match else None
        rejected = step is not None and step.count(".") + 1 == len(self.branching) and step.split(".")[-1] == "0"
        return "[wrong]" if rejected else "[right]"

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def total_prompt_chars(self) -> int:
        return sum(self.prompt_chars.values())
