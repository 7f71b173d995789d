"""Answer scoring (exact match, Rouge-L, token F1), outcome categorization,
and the benchmark runner.

Answers are normalized SQuAD-style before scoring: lowercase, punctuation
stripped, articles removed. Against multiple gold answers every metric
takes the max.
"""
from __future__ import annotations

import json
import re
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .inputs import parse_records
from .reasoning import ReasoningTrace, detect_abstention

_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
_ARTICLES = {"a", "an", "the"}


def normalize_answer(answer: str) -> list[str]:
    """Lowercase, strip punctuation, drop articles, split on whitespace."""
    cleaned = _PUNCT_RE.sub("", answer.lower())
    return [tok for tok in cleaned.split() if tok not in _ARTICLES]


def _sequence_tokens(answer: str) -> list[str]:
    # Rouge-L scores word sequences, so articles stay in place here.
    return _PUNCT_RE.sub("", answer.lower()).split()


def _gold_list(golds: "str | Sequence[str]") -> Sequence[str]:
    """One gold string as a one-item list, so it is never scored per character."""
    golds = [golds] if isinstance(golds, str) else golds
    if not golds:
        raise ValueError("golds must be non-empty")
    return golds


def exact_match(pred: str, golds: "str | Sequence[str]") -> int:
    pred_tokens = normalize_answer(pred)
    return int(any(pred_tokens == normalize_answer(g) for g in _gold_list(golds)))


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            curr[j] = prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def rouge_l(pred: str, golds: "str | Sequence[str]") -> float:
    """LCS-based F-measure between prediction and gold; max over golds."""
    pred_tokens = _sequence_tokens(pred)
    best = 0.0
    for gold in _gold_list(golds):
        gold_tokens = _sequence_tokens(gold)
        lcs = _lcs_length(pred_tokens, gold_tokens)
        if lcs == 0:
            continue
        precision = lcs / len(pred_tokens)
        recall = lcs / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


def f1(pred: str, golds: "str | Sequence[str]") -> float:
    """Token-multiset overlap F1 against each gold, max over golds."""
    pred_counts = Counter(normalize_answer(pred))
    best = 0.0
    for gold in _gold_list(golds):
        gold_counts = Counter(normalize_answer(gold))
        if not pred_counts or not gold_counts:
            # Both normalizing to nothing counts as a match (SQuAD convention).
            best = max(best, float(pred_counts == gold_counts))
            continue
        overlap = sum((pred_counts & gold_counts).values())
        if overlap == 0:
            continue
        precision = overlap / sum(pred_counts.values())
        recall = overlap / sum(gold_counts.values())
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


class Category(Enum):
    CORRECT = "Correct"
    MISSING = "Missing"
    HALLUCINATION = "Hallucination"


def categorize(pred: str, golds: "str | Sequence[str]") -> Category:
    """Missing on abstention, Correct on exact match, otherwise Hallucination."""
    golds = _gold_list(golds)
    if detect_abstention(pred):
        return Category.MISSING
    if exact_match(pred, golds):
        return Category.CORRECT
    return Category.HALLUCINATION


@dataclass(frozen=True)
class QAExample:
    id: str
    question: str
    gold_answers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.gold_answers:
            raise ValueError("gold_answers must be non-empty")


@dataclass
class ExampleResult:
    id: str
    question: str
    prediction: str
    em: int
    rouge_l: float
    f1: float
    category: Category
    latency: float
    error: Optional[str] = None


@dataclass
class MetricReport:
    """Means over the examples. The three category rates partition them;
    ``error_rate`` is the share whose pipeline raised, which also count as
    hallucinations."""

    rouge_l: float
    em: float
    f1: float
    correct_rate: float
    missing_rate: float
    hallucination_rate: float
    error_rate: float
    mean_latency: float
    per_example: list[ExampleResult] = field(default_factory=list)


def _parse_example(line: str) -> QAExample:
    try:
        record = json.loads(line)
        answers = record["answers"]
        if not isinstance(answers, list):
            raise ValueError(f"'answers' must be a JSON list, got {answers!r}")
        return QAExample(
            id=str(record["id"]),
            question=str(record["question"]),
            gold_answers=tuple(str(a) for a in answers),
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


def load_dataset(lines: "Iterable[str]", source: str = "<dataset>") -> list[QAExample]:
    """Parse line-delimited {"id", "question", "answers": [...]} records;
    an error names ``source`` and the line."""
    return parse_records(lines, source, _parse_example)


def run_benchmark(
    dataset: Sequence[QAExample],
    pipeline: Callable[[str], ReasoningTrace],
    workers: int = 1,
) -> MetricReport:
    """Score the pipeline over the dataset; per-question failures are
    recorded as Hallucination with an error note, never aborting the batch."""
    if not dataset:
        raise ValueError("dataset must be non-empty")

    def run_one(example: QAExample) -> ExampleResult:
        start = time.perf_counter()
        error: Optional[str] = None
        prediction = ""
        try:
            prediction = pipeline(example.question).final_answer
        except Exception as exc:  # noqa: BLE001 - batch must survive any failure
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        category = (
            Category.HALLUCINATION if error else categorize(prediction, example.gold_answers)
        )
        return ExampleResult(
            id=example.id,
            question=example.question,
            prediction=prediction,
            em=exact_match(prediction, example.gold_answers),
            rouge_l=rouge_l(prediction, example.gold_answers),
            f1=f1(prediction, example.gold_answers),
            category=category,
            latency=latency,
            error=error,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, dataset))
    else:
        results = [run_one(ex) for ex in dataset]

    n = len(results)
    counts = Counter(r.category for r in results)
    return MetricReport(
        rouge_l=sum(r.rouge_l for r in results) / n,
        em=sum(r.em for r in results) / n,
        f1=sum(r.f1 for r in results) / n,
        correct_rate=counts[Category.CORRECT] / n,
        missing_rate=counts[Category.MISSING] / n,
        hallucination_rate=counts[Category.HALLUCINATION] / n,
        error_rate=sum(r.error is not None for r in results) / n,
        mean_latency=sum(r.latency for r in results) / n,
        per_example=results,
    )
