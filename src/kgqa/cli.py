"""Command-line surface: ingest, ask, bench, script-check."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from .config import PipelineConfig, load_config
from .evaluation import load_dataset, run_benchmark
from .inputs import read_lines
from .kg_store import load_graph_file
from .llm import BackendError, HTTPBackend, load_script
from .pipeline import Backends, PipelineStageError, run_pipeline, write_trace


def _build_backends(script_path: Optional[str], cfg: PipelineConfig) -> Backends:
    backend = load_script(script_path) if script_path else HTTPBackend.from_env(model=cfg.model)
    return Backends.single(backend, dimension=cfg.embedding_dim)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_ingest(args: argparse.Namespace) -> int:
    graph = load_graph_file(args.graph)
    print(f"loaded {graph.triple_count} triples, {graph.entity_count} entities")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    # Everything that can fail fast comes before the graph, whose load
    # takes seconds at a million triples.
    cfg = load_config(args.config)
    backends = _build_backends(args.script, cfg)
    graph = load_graph_file(args.graph)
    result = run_pipeline(args.question, graph, cfg, backends)
    print(result.final_answer)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            write_trace(f, result, cfg, graph)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    backends = _build_backends(args.script, cfg)
    dataset = load_dataset(read_lines(args.dataset), source=args.dataset)
    if not dataset:
        raise ValueError(f"{args.dataset}: dataset has no examples")
    graph = load_graph_file(args.graph)

    def pipeline(question: str):
        return run_pipeline(question, graph, cfg, backends).trace

    report = run_benchmark(dataset, pipeline, workers=args.workers)
    rows = [
        ("examples", str(len(report.per_example))),
        ("rouge_l", f"{report.rouge_l:.4f}"),
        ("em", f"{report.em:.4f}"),
        ("f1", f"{report.f1:.4f}"),
        ("correct_rate", f"{report.correct_rate:.4f}"),
        ("missing_rate", f"{report.missing_rate:.4f}"),
        ("hallucination_rate", f"{report.hallucination_rate:.4f}"),
        ("error_rate", f"{report.error_rate:.4f}"),
        ("mean_latency_s", f"{report.mean_latency:.4f}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            for r in report.per_example:
                record = {**dataclasses.asdict(r), "category": r.category.value}
                f.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
                f.write("\n")
    return 0


def cmd_script_check(args: argparse.Namespace) -> int:
    backend = load_script(args.script)
    print(f"script ok: {len(backend.rules)} rules")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgqa", description="Knowledge-graph question answering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a graph file and report counts")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ask", help="answer a single question")
    p.add_argument("--graph", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--config")
    p.add_argument("--trace", help="write the full trace record to this path")
    p.add_argument("--script", help="use a scripted backend from this file")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("bench", help="run a benchmark over a QA dataset")
    p.add_argument("--graph", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config")
    p.add_argument("--report", help="write per-example records to this path")
    p.add_argument("--script", help="use a scripted backend from this file")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("script-check", help="validate a scripted-backend file")
    p.add_argument("--script", required=True)
    p.set_defaults(func=cmd_script_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BackendError, PipelineStageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
