"""End-to-end benchmark of the kgqa pipeline on seeded synthetic inputs.

    python3 benchmarks/run.py --workload hub_expand --seed 1 --seconds 20 --trace 0

Drives the library path that ``kgqa bench`` uses: ``load_graph_file``, then
``PipelineConfig`` and ``Backends``, then ``run_pipeline`` inside
``run_benchmark``, with the benchmark's stub LLM. Inputs are generated from
the seed into ``benchmarks/out/``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced round. The exit code is 1 when a
correctness gate fails and 2 when the library cannot be found.

See ``benchmarks/README.md`` for the workloads, metrics and gates.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"
DIGEST_QUESTIONS = 4  # questions re-run under another PYTHONHASHSEED and at 1 worker


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest-of", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def answers_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.id}\t{r.prediction}\n".encode("utf-8"))
    return h.hexdigest()


def inputs_digest(generated) -> str:
    h = hashlib.sha256()
    for triple in generated.triples:
        h.update(("\t".join(triple) + "\n").encode("utf-8"))
    for record in generated.dataset:
        h.update((json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"))
    return h.hexdigest()


def median_latency(rounds) -> float:
    return statistics.median(r.latency for rnd in rounds for r in rnd.report.per_example)


class Round(NamedTuple):
    report: object  # kgqa's MetricReport
    wall_s: float
    stub: object
    embedder: object  # the traced embedder stack, or None


class Bench:
    """One workload at one seed: inputs, graph, and measured rounds.

    A round is one ``run_benchmark`` call over the dataset with fresh
    backends, as one ``kgqa bench`` invocation would run it, so every round
    does the same work from a cold embedding cache.
    """

    def __init__(self, workload, seed: int):
        from kgqa import PipelineConfig, load_dataset

        self.w = workload
        self.seed = seed
        self.cfg = PipelineConfig(hops=workload.hops)
        self.dir = OUT / f"{workload.name}-{seed}"
        self.graph_path, self.dataset_path = self.dir / "graph.tsv", self.dir / "dataset.jsonl"
        with open(self.dataset_path, encoding="utf-8") as f:
            self.dataset = load_dataset(f.readlines())
        self.graph = None

    def stub(self):
        from stub_llm import StubLLM

        return StubLLM(self.w.branching, self.w.llm_base_s, self.w.llm_per_kchar_s)

    def backends(self, llm, embedder=None):
        from kgqa import Backends, CachingEmbedder, HashedEmbedder

        if embedder is None:
            embedder = CachingEmbedder(HashedEmbedder(self.cfg.embedding_dim))
        return Backends(res=llm, ver=llm, embedder=embedder)

    def load(self) -> None:
        from kgqa import load_graph_file

        self.graph = load_graph_file(str(self.graph_path))

    def setup(self) -> tuple[list[float], list[float]]:
        """Load the graph and build backends ``setup_reps`` times.

        Returns the set-up and the load seconds of each repetition; the
        last graph stays loaded.
        """
        setups, loads = [], []
        for _ in range(self.w.setup_reps):
            self.graph = None
            gc.collect()
            start = time.perf_counter()
            self.load()
            loaded = time.perf_counter()
            self.backends(self.stub())
            setups.append(time.perf_counter() - start)
            loads.append(loaded - start)
        return setups, loads

    def round(self, dataset=None, workers=None, tracer=None) -> Round:
        from kgqa import CachingEmbedder, HashedEmbedder, run_benchmark, run_pipeline

        dataset = self.dataset if dataset is None else dataset
        stub = self.stub()
        graph, cfg = self.graph, self.cfg
        embedder = None
        if tracer is None:
            backends = self.backends(stub)

            def pipeline(question):
                return run_pipeline(question, graph, cfg, backends).trace
        else:
            from kgqa.llm import infer_template_name

            embedder = tracer.embedder(HashedEmbedder(cfg.embedding_dim), CachingEmbedder)
            backends = self.backends(tracer.backend(stub, infer_template_name), embedder)
            ids = {ex.question: ex.id for ex in dataset}

            def pipeline(question):
                return tracer.question(ids[question], run_pipeline, question, graph, cfg, backends).trace

        gc.collect()
        start = time.perf_counter()
        report = run_benchmark(dataset, pipeline, workers=workers or self.w.workers)
        return Round(report, time.perf_counter() - start, stub, embedder)


def run_rounds(bench: Bench, seconds: float, dataset=None, tracer=None) -> list[Round]:
    """Rounds until the next one would overrun ``seconds``; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            rounds.append(bench.round(dataset, tracer=tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return rounds


def check_rounds(bench: Bench, rounds: list[Round], failures: list[str]) -> str:
    """Apply the per-round correctness gates; returns the answers digest."""
    w = bench.w
    digests = set()
    for rnd in rounds:
        results = rnd.report.per_example
        errors = [r for r in results if r.error]
        if errors:
            failures.append(f"{len(errors)} questions failed, first: {errors[0].error}")
        if rnd.report.em < w.expected_em:
            failures.append(f"em {rnd.report.em:.4f} below the recorded {w.expected_em}")
        expected = w.expected_llm_calls * len(results)
        if rnd.stub.total_calls() != expected:
            failures.append(f"{rnd.stub.total_calls()} LLM calls, expected {expected}")
        digests.add(answers_digest(results))
    if len(digests) != 1:
        failures.append("rounds gave different answers")
    return digests.pop()


def check_determinism(bench: Bench, first: Round, failures: list[str]) -> None:
    """Re-run the first questions under another PYTHONHASHSEED and, for a
    multi-worker workload, at 1 worker; inputs and answers must not change."""
    from workloads import generate

    k = min(DIGEST_QUESTIONS, len(first.report.per_example))
    prefix = answers_digest(first.report.per_example[:k])
    if bench.w.workers > 1:
        single = bench.round(dataset=bench.dataset[:k], workers=1)
        if answers_digest(single.report.per_example) != prefix:
            failures.append(f"answers differ between 1 and {bench.w.workers} workers")
    other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", bench.w.name,
               "--seed", str(bench.seed), "--seconds", "1", "--digest-of", str(k)]
    try:
        child = subprocess.run(command, env=dict(os.environ, PYTHONHASHSEED=other),
                               capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        failures.append("determinism check timed out")
        return
    if child.returncode != 0:
        failures.append(f"determinism check failed to run: {child.stderr.strip()[-500:]}")
        return
    seen = json.loads(child.stdout.strip().splitlines()[-1])
    if seen["inputs"] != inputs_digest(generate(bench.w, bench.seed)):
        failures.append(f"generated inputs differ under PYTHONHASHSEED={other}")
    if seen["answers"] != prefix:
        failures.append(f"answers differ under PYTHONHASHSEED={other}")


def end_to_end(setups: list[float], rounds: list[Round]) -> dict:
    latencies = [r.latency for rnd in rounds for r in rnd.report.per_example]
    questions = len(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "question_s_p50": (statistics.median(latencies), "s"),
        "question_s_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "questions_per_s": (questions / sum(rnd.wall_s for rnd in rounds), "1/s"),
        "llm_calls_per_question": (sum(rnd.stub.total_calls() for rnd in rounds) / questions, "count"),
        "prompt_chars_per_question": (
            sum(rnd.stub.total_prompt_chars() for rnd in rounds) / questions, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "em": (statistics.fmean(rnd.report.em for rnd in rounds), "ratio"),
    }


def per_layer(bench: Bench, loads: list[float], plain: list[Round], traced: list[Round], tracer) -> dict:
    import tracemalloc

    from tracing import LLM_TEMPLATES, layer_metrics

    questions = sum(len(rnd.report.per_example) for rnd in traced)
    metrics = layer_metrics(tracer, questions, bench.cfg.hub_cap)
    metrics["kg_store.load_s"] = (statistics.median(loads), "s")
    bench.graph = None
    gc.collect()
    tracemalloc.start()
    bench.load()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    metrics["kg_store.bytes_per_triple"] = (retained / bench.graph.triple_count, "B")
    cache = getattr(traced[-1].embedder.cache, "_cache", None)
    if cache is not None:
        metrics["embedding.cache_entries"] = (float(len(cache)), "count")
    for template in LLM_TEMPLATES:
        chars = sum(rnd.stub.prompt_chars[template] for rnd in traced)
        metrics[f"llm.{template}.prompt_chars"] = (chars / questions, "count")
    spans = sum(end - start for name, start, end, *_ in tracer.spans if name == "pipeline")
    busy = sum(rnd.wall_s for rnd in traced) * bench.w.workers
    metrics["evaluation.overhead_s"] = ((busy - spans) / questions, "s")
    metrics["trace.overhead_share"] = (median_latency(traced) / median_latency(plain) - 1.0, "ratio")
    return metrics


def digest_child(workload, seed: int, questions: int) -> int:
    """Print the inputs digest and the answers to the first ``questions``."""
    from workloads import generate

    bench = Bench(workload, seed)
    bench.load()
    report = bench.round(dataset=bench.dataset[:questions]).report
    print(json.dumps({"inputs": inputs_digest(generate(workload, seed)),
                      "answers": answers_digest(report.per_example)}))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "kgqa" / "__init__.py").is_file():
        print(f"error: the kgqa sources are missing ({SRC / 'kgqa'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.digest_of:
        return digest_child(w, args.seed, args.digest_of)
    write_inputs(w, args.seed, OUT / f"{w.name}-{args.seed}")
    bench = Bench(w, args.seed)
    setups, loads = bench.setup()
    failures: list[str] = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer({e.canonical for e in bench.graph.entities})
        # Half the dataset per round keeps the untraced and the traced
        # rounds together near the length of one timed run.
        half = bench.dataset[: len(bench.dataset) // 2]
        plain = run_rounds(bench, args.seconds / 2, half)
        traced = run_rounds(bench, args.seconds / 2, half, tracer)
        rounds = plain + traced
    else:
        rounds = run_rounds(bench, args.seconds)
    digest = check_rounds(bench, rounds, failures)
    if args.trace:
        metrics = per_layer(bench, loads, plain, traced, tracer)
        tracer.write(bench.dir / "spans.jsonl")
        if tracer.absent:
            print(f"absent layers: {', '.join(sorted(tracer.absent))}")
    else:
        metrics = end_to_end(setups, rounds)
    check_determinism(bench, rounds[0], failures)
    bench.graph_path.unlink()
    bench.dataset_path.unlink()
    if not args.trace:
        bench.dir.rmdir()

    attempted = sum(len(rnd.report.per_example) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd.report.per_example if r.error)
    width = max(len(name) for name in metrics)
    print(f"workload {w.name}  seed {args.seed}  rounds {len(rounds)}  questions {attempted}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'error_rate':<{width}}  {failed / attempted:.6g} ratio")
    print(f"answers_digest {digest}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
