"""Per-layer spans for the traced run, recorded from outside the library.

The tracer wraps, for the duration of one traced round only:

- the stage functions as ``kgqa.pipeline`` looks them up at call time;
- ``KnowledgeGraph.resolve_entity`` and ``KnowledgeGraph.neighbors``;
- the inner embedder under ``CachingEmbedder`` (so its calls are the misses),
  and the embedder the pipeline sees (so its calls are the lookups);
- the stub LLM backend.

Each span records a name, start, end, parent span and question id. Parents
come from a thread-local stack, so spans of concurrent questions do not mix.
Spans stay in memory until ``write`` is called. A hook whose target no longer
exists is reported as an absent layer instead of failing the run.
"""
from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import kgqa
import kgqa.pipeline

STAGES = {
    "build_mind_map": "mindmap.build",
    "extract_local_keys": "extraction.local",
    "extract_global_keys": "extraction.global",
    "build_key_set": "extraction.key_set",
    "gather_candidates": "retrieval.gather",
    "filter_by_similarity": "retrieval.filter",
    "solve": "reasoning.solve",
}
LLM_TEMPLATES = ("dec", "ext_local", "ext_global", "res", "ver", "rethink")

# What a span keeps of its call's result, for the per-question counts.
_INFO = {
    "mindmap.build": lambda result: len(result.nodes),
    "extraction.key_set": lambda result: (len(result.all_keys()), len(result.mentions())),
    "retrieval.gather": len,
    "retrieval.filter": lambda result: len(result.kept),
    "reasoning.solve": lambda result: (result.rethink_calls, len(result.records)),
    "kg_store.neighbors": len,
}


class Tracer:
    """Spans and counters of traced rounds.

    ``canonicals`` is the graph's set of canonical entity names; a resolve
    whose mention is among them is an exact match.
    """

    def __init__(self, canonicals: set[str]) -> None:
        self.canonicals = canonicals
        # [name, start, end, parent, question, info]; a span's id is its index.
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.lookups = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                  getattr(self._local, "question", None), None]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(record)
        stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        info = _INFO.get(name)
        if info is not None:
            record[5] = info(result)
        return result

    def question(self, question_id: str, fn, *args):
        self._local.question = question_id
        try:
            return self.call("pipeline", fn, *args)
        finally:
            self._local.question = None

    def _spanned(self, name: str):
        def wrapper(fn):
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, layer: str, wrapper) -> None:
        original = getattr(owner, attribute, None)
        if original is None:
            self.absent.add(layer)
            return
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def install(self) -> None:
        """Patch the library's stage functions and graph methods."""
        for attribute, name in STAGES.items():
            self._patch(kgqa.pipeline, attribute, name.split(".")[0], self._spanned(name))
        graph_cls = getattr(kgqa, "KnowledgeGraph", None)
        self._patch(graph_cls, "neighbors", "kg_store", self._spanned("kg_store.neighbors"))

        def resolve_wrapper(resolve):
            def traced(graph, mention, *args, **kwargs):
                exact = " ".join(mention.split()).lower() in self.canonicals
                name = "kg_store.resolve_exact" if exact else "kg_store.resolve_fuzzy"
                return self.call(name, resolve, graph, mention, *args, **kwargs)

            return traced

        self._patch(graph_cls, "resolve_entity", "kg_store", resolve_wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def embedder(self, inner, caching_cls):
        """An embedder stack whose lookups and misses are both observed."""
        tracer = self

        class Inner:
            dimension = inner.dimension

            def embed(self, text):
                return tracer.call("embedding.inner", inner.embed, text)

        class Outer:
            dimension = inner.dimension

            def __init__(self):
                self.cache = caching_cls(Inner())

            def embed(self, text):
                with tracer._lock:
                    tracer.lookups += 1
                return self.cache.embed(text)

        return Outer()

    def backend(self, stub, template_of):
        tracer = self

        class Backend:
            identity = stub.identity

            def generate(self, request):
                return tracer.call(f"llm.{template_of(request.prompt)}", stub.generate, request)

        return Backend()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, question, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "question": question, "info": info}))
                f.write("\n")


def layer_metrics(tracer: Tracer, questions: int, hub_cap: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of ``questions`` traced questions.

    Times are seconds per question unless the name says otherwise.
    """
    total = defaultdict(float)
    count = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in tracer.spans:
        total[name] += end - start
        count[name] += 1
        if parent is not None:
            child_time[parent] += end - start

    def self_time(span_name: str) -> float:
        return sum(
            (end - start) - child_time[i]
            for i, (name, start, end, *_rest) in enumerate(tracer.spans)
            if name == span_name
        )

    def infos(span_name: str) -> list:
        """What the calls that returned kept of their results."""
        return [s[5] for s in tracer.spans if s[0] == span_name and s[5] is not None]

    q = questions
    out: dict[str, tuple[float, str]] = {}
    if "kg_store" not in tracer.absent:
        exact, fuzzy = count["kg_store.resolve_exact"], count["kg_store.resolve_fuzzy"]
        calls = exact + fuzzy
        expansions = infos("kg_store.neighbors")
        out["kg_store.resolve_calls"] = (calls / q, "count")
        out["kg_store.resolve_s"] = ((total["kg_store.resolve_exact"] + total["kg_store.resolve_fuzzy"]) / q, "s")
        out["kg_store.resolve_nonexact_share"] = (fuzzy / calls if calls else 0.0, "ratio")
        out["kg_store.neighbors_s"] = (total["kg_store.neighbors"] / q, "s")
        out["kg_store.expansion_triples_per_call"] = (
            sum(expansions) / len(expansions) if expansions else 0.0, "count")
        out["retrieval.hub_capped_expansions"] = (sum(1 for n in expansions if n > hub_cap) / q, "count")
    if "retrieval" not in tracer.absent:
        candidates = sum(infos("retrieval.gather"))
        kept = sum(infos("retrieval.filter"))
        out["retrieval.gather_s"] = (total["retrieval.gather"] / q, "s")
        out["retrieval.filter_s"] = (total["retrieval.filter"] / q, "s")
        out["retrieval.candidates_per_question"] = (candidates / q, "count")
        out["retrieval.kept_per_question"] = (kept / q, "count")
        out["retrieval.kept_share"] = (kept / candidates if candidates else 0.0, "ratio")
    lookups, misses = tracer.lookups, count["embedding.inner"]
    out["embedding.lookups"] = (lookups / q, "count")
    out["embedding.misses"] = (misses / q, "count")
    out["embedding.hit_rate"] = (1.0 - misses / lookups if lookups else 0.0, "ratio")
    out["embedding.inner_s"] = (total["embedding.inner"] / q, "s")
    if "extraction" not in tracer.absent:
        key_sets = infos("extraction.key_set")
        extraction_s = total["extraction.local"] + total["extraction.global"] + total["extraction.key_set"]
        out["extraction.s"] = (extraction_s / q, "s")
        out["extraction.keys_per_question"] = (sum(k for k, _ in key_sets) / q, "count")
        out["extraction.mentions_per_question"] = (sum(m for _, m in key_sets) / q, "count")
    if "mindmap" not in tracer.absent:
        out["mindmap.build_s"] = (total["mindmap.build"] / q, "s")
        out["mindmap.nodes_per_question"] = (sum(infos("mindmap.build")) / q, "count")
    if "reasoning" not in tracer.absent:
        solved = infos("reasoning.solve")
        nodes = sum(n for _, n in solved)
        out["reasoning.solve_s"] = (total["reasoning.solve"] / q, "s")
        out["reasoning.self_s"] = (self_time("reasoning.solve") / q, "s")
        out["reasoning.rethink_share"] = (sum(r for r, _ in solved) / nodes if nodes else 0.0, "ratio")
    for template in LLM_TEMPLATES:
        span = f"llm.{template}"
        out[f"{span}.calls"] = (count[span] / q, "count")
        out[f"{span}.wait_s"] = (total[span] / q, "s")
    out["pipeline.question_s"] = (total["pipeline"] / q, "s")
    out["pipeline.self_s"] = (self_time("pipeline") / q, "s")
    return out
