from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.evaluation import (
    Category,
    MetricReport,
    QAExample,
    categorize,
    exact_match,
    f1,
    load_dataset,
    normalize_answer,
    rouge_l,
    run_benchmark,
)
from kgqa.reasoning import ReasoningTrace


def lcs_oracle(a: list[str], b: list[str]) -> int:
    """Independent full-table DP, kept deliberately separate from the
    implementation under test."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


class TestNormalize:
    def test_articles_and_punctuation(self):
        assert normalize_answer("The Carabao Cup.") == ["carabao", "cup"]

    def test_empty(self):
        assert normalize_answer("") == []

    def test_apostrophes_stripped(self):
        assert normalize_answer("I don't know") == ["i", "dont", "know"]


class TestExactMatch:
    def test_case_and_article_insensitive(self):
        assert exact_match("Carabao Cup", ["carabao cup"]) == 1
        assert exact_match("the Carabao Cup", ["Carabao Cup"]) == 1

    def test_mismatch(self):
        assert exact_match("Alex Ferguson", ["David Beckham"]) == 0

    def test_multi_gold_any(self):
        assert exact_match("Paris", ["London", "Paris"]) == 1

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            exact_match("x", [])


class TestRougeL:
    def test_worked_example(self):
        # LCS=2, P=2/3, R=1 -> 0.8
        assert rouge_l("a b c", "a c") == pytest.approx(0.8)

    def test_identical(self):
        assert rouge_l("exact same words", "exact same words") == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_l("aa bb", "cc dd") == 0.0

    def test_symmetric_single_gold(self):
        assert rouge_l("a b c", "b c d") == pytest.approx(rouge_l("b c d", "a b c"))

    def test_against_dp_oracle_random_pairs(self):
        rng = random.Random(23)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            pred = " ".join(rng.choices(vocab, k=rng.randint(0, 8)))
            gold = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
            p_tokens = pred.split()
            g_tokens = gold.split()
            lcs = lcs_oracle(p_tokens, g_tokens)
            if lcs == 0:
                expected = 0.0
            else:
                precision = lcs / len(p_tokens)
                recall = lcs / len(g_tokens)
                expected = 2 * precision * recall / (precision + recall)
            assert rouge_l(pred, gold) == pytest.approx(expected, abs=1e-9)


class TestF1:
    def test_worked_example(self):
        assert f1("paris france", ["paris"]) == pytest.approx(2 / 3)

    def test_identical_multiset(self):
        assert f1("a b b", ["b a b"]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert f1("x y", ["z w"]) == 0.0

    def test_em_implies_f1(self):
        rng = random.Random(29)
        vocab = ["red", "green", "blue", "cyan"]
        for _ in range(500):
            pred = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            golds = [" ".join(rng.choices(vocab, k=rng.randint(1, 5)))]
            if exact_match(pred, golds) == 1:
                assert f1(pred, golds) == pytest.approx(1.0)


class TestCategorize:
    def test_missing_on_abstention(self):
        assert categorize("I don't know", ["x"]) is Category.MISSING

    def test_correct_on_match(self):
        assert categorize("Paris", ["paris"]) is Category.CORRECT

    def test_hallucination_otherwise(self):
        assert categorize("London", ["Paris"]) is Category.HALLUCINATION

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30), st.text(min_size=1, max_size=30))
    def test_total_and_exclusive(self, pred, gold):
        assert categorize(pred, [gold]) in set(Category)



class TestBareStringGold:
    """A bare string is one gold answer, never a sequence of one-character golds."""

    def test_exact_match(self):
        assert exact_match("p", "Paris") == 0
        assert exact_match("paris", "Paris") == 1

    def test_f1(self):
        assert f1("s", "Paris") == 0.0
        assert f1("paris france", "Paris") == pytest.approx(2 / 3)

    def test_rouge_l(self):
        assert rouge_l("a", "abc") == 0.0
        assert rouge_l("abc", "abc") == pytest.approx(1.0)

    def test_categorize(self):
        assert categorize("a", "Paris") is Category.HALLUCINATION
        assert categorize("paris", "Paris") is Category.CORRECT

    @pytest.mark.parametrize("metric", [exact_match, f1, rouge_l, categorize])
    def test_empty_golds_rejected(self, metric):
        with pytest.raises(ValueError, match="golds must be non-empty"):
            metric("x", [])


def fake_pipeline(answers: dict[str, str]):
    def run(question: str) -> ReasoningTrace:
        trace = ReasoningTrace()
        trace.final_answer = answers[question]
        return trace

    return run


class TestRunBenchmark:
    def test_perfect_single_example(self):
        dataset = [QAExample("1", "q?", ("gold answer",))]
        report = run_benchmark(dataset, fake_pipeline({"q?": "gold answer"}))
        assert report.em == report.rouge_l == report.f1 == 1.0
        assert report.correct_rate == 1.0

    def test_mixed_rates(self):
        dataset = [
            QAExample("1", "a?", ("right",)),
            QAExample("2", "b?", ("right",)),
        ]
        pipeline = fake_pipeline({"a?": "I don't know", "b?": "wrong answer"})
        report = run_benchmark(dataset, pipeline)
        assert report.missing_rate == 0.5
        assert report.hallucination_rate == 0.5
        assert report.correct_rate == 0.0
        assert report.error_rate == 0.0

    def test_failing_question_is_hallucination_note(self):
        def broken(question: str) -> ReasoningTrace:
            raise RuntimeError("backend down")

        dataset = [QAExample("1", "q?", ("gold",))]
        report = run_benchmark(dataset, broken)
        assert report.hallucination_rate == 1.0
        assert report.per_example[0].error is not None

    def test_error_rate_counts_raised_examples(self):
        answers = fake_pipeline({"q0?": "gold", "q1?": "I don't know", "q3?": "bad"})

        def flaky(question: str) -> ReasoningTrace:
            if question == "q2?":
                raise RuntimeError("backend down")
            return answers(question)

        dataset = [QAExample(str(i), f"q{i}?", ("gold",)) for i in range(4)]
        report = run_benchmark(dataset, flaky)
        assert report.error_rate == 0.25
        assert [r.error is not None for r in report.per_example] == [False, False, True, False]
        # An error still counts as a hallucination; the categories partition.
        assert (report.correct_rate, report.missing_rate, report.hallucination_rate) == (0.25, 0.25, 0.5)

    def test_rates_partition_on_fuzzed_outputs(self):
        rng = random.Random(31)
        vocab = ["one", "two", "I don't know", "three four", ""]
        dataset = [QAExample(str(i), f"q{i}?", ("one",)) for i in range(100)]
        answers = {f"q{i}?": rng.choice(vocab) for i in range(100)}
        report = run_benchmark(dataset, fake_pipeline(answers))
        total = report.correct_rate + report.missing_rate + report.hallucination_rate
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_workers_preserve_report(self):
        dataset = [QAExample(str(i), f"q{i}?", ("gold",)) for i in range(8)]
        answers = {f"q{i}?": "gold" if i % 2 else "bad" for i in range(8)}
        serial = run_benchmark(dataset, fake_pipeline(answers), workers=1)
        parallel = run_benchmark(dataset, fake_pipeline(answers), workers=4)
        assert serial.em == parallel.em
        assert [r.id for r in parallel.per_example] == [str(i) for i in range(8)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([], fake_pipeline({}))


class TestLoadDataset:
    def test_round_trip(self):
        lines = ['{"id": "1", "question": "q?", "answers": ["a", "b"]}']
        examples = load_dataset(lines)
        assert examples == [QAExample("1", "q?", ("a", "b"))]

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match=r"^data.jsonl: line 1: missing field 'answers'$"):
            load_dataset(['{"id": "1", "question": "q?"}'], source="data.jsonl")

    def test_empty_answers_rejected(self):
        with pytest.raises(ValueError):
            load_dataset(['{"id": "1", "question": "q?", "answers": []}'])

    @pytest.mark.parametrize("question", ["", "   "])
    def test_blank_question_rejected(self, question):
        lines = ['{"id": "0", "question": "q?", "answers": ["a"]}']
        lines.append(f'{{"id": "1", "question": "{question}", "answers": ["x"]}}')
        with pytest.raises(ValueError, match=r"^<dataset>: line 2: question must be non-empty$"):
            load_dataset(lines)

    @pytest.mark.parametrize("answers", ['"Paris"', '{"a": 1}'])
    def test_answers_must_be_a_list(self, answers):
        lines = ['{"id": "0", "question": "q?", "answers": ["a"]}']
        lines.append(f'{{"id": "1", "question": "q?", "answers": {answers}}}')
        with pytest.raises(ValueError, match=r"^<dataset>: line 2: 'answers' must be a JSON list"):
            load_dataset(lines)
