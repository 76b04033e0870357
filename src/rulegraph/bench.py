"""Dataset loading, string-match scoring and the batch benchmark runner.

A sample bundles one task with its questions and the acceptable answer
strings per question. Scoring is pure string matching: a question counts
as correct when any of its target strings occurs in the run's final output
as a case-insensitive substring, and the sample score is the fraction of
correct questions. Matching is done on raw text so alternate normalization
schemes can swap in behind score_sample.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from .engine import EngineError, RunConfig, execute_task


class DatasetError(Exception):
    """A dataset is empty or a record is malformed; record errors start with 'line N: '."""


class Sample(NamedTuple):
    id: str
    task_text: str
    questions: tuple[str, ...]
    targets: tuple[tuple[str, ...], ...]  # acceptable answers, one tuple per question


class SampleScore(NamedTuple):
    id: str
    correct: int
    score: float
    error: str | None = None


class ScoreReport(NamedTuple):
    dataset_name: str
    per_sample: tuple[SampleScore, ...]
    aggregate: float
    run_stats: dict


def load_dataset(path: str) -> list[Sample]:
    """Load line-delimited records {id, task, questions[], targets[][]} in file order."""
    samples: list[Sample] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # bad JSON, or nested too deep
                raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise DatasetError(f"line {lineno}: record must be an object")
            for fieldname in ("id", "task", "questions", "targets"):
                if fieldname not in record:
                    raise DatasetError(f"line {lineno}: missing field {fieldname!r}")
            questions = record["questions"]
            targets = record["targets"]
            if not isinstance(questions, list) or not questions:
                raise DatasetError(f"line {lineno}: questions must be a non-empty list")
            if not isinstance(targets, list) or len(targets) != len(questions):
                raise DatasetError(f"line {lineno}: targets must list one entry per question")
            for entry in targets:
                if not isinstance(entry, list) or not entry or not all(isinstance(t, str) and t for t in entry):
                    raise DatasetError(f"line {lineno}: every question needs at least one target string")
            samples.append(
                Sample(
                    id=str(record["id"]),
                    task_text=str(record["task"]),
                    questions=tuple(questions),
                    targets=tuple(tuple(e) for e in targets),
                )
            )
    return samples


def score_sample(output: str, sample: Sample) -> tuple[int, float]:
    """Count questions whose target appears in the output; score is correct / N_q."""
    haystack = output.casefold()
    correct = sum(
        1
        for question_targets in sample.targets
        if any(target.casefold() in haystack for target in question_targets)
    )
    return correct, correct / len(sample.questions)


def run_benchmark(
    dataset: list[Sample], config: RunConfig, dataset_name: str = "dataset"
) -> ScoreReport:
    """Run every sample through the engine and aggregate scores in input order.

    A sample whose run raises an EngineError scores 0 with the error's class
    name annotated, and its partial calls and tokens still count; any other
    exception, such as a mock script miss, aborts the batch. Deterministic
    runs key each sample's provider context by the sample id so one script
    file can address the whole dataset, and report wall time as 0 for
    byte-stable output.
    """
    if not dataset:
        raise DatasetError("dataset contains no samples")
    started = time.monotonic()
    provider_calls = 0
    tokens = {"prompt_tokens": 0, "completion_tokens": 0}
    scores: list[SampleScore] = []
    for sample in dataset:
        run_id = sample.id if config.deterministic else None
        try:
            run = execute_task(sample.task_text, config, run_id=run_id)
        except EngineError as exc:
            run = exc
            scores.append(SampleScore(id=sample.id, correct=0, score=0.0, error=type(exc).__name__))
        else:
            correct, score = score_sample(run.final.answer_text, sample)
            scores.append(SampleScore(id=sample.id, correct=correct, score=score))
        provider_calls += run.provider_calls
        for key in tokens:
            tokens[key] += run.token_usage.get(key, 0)

    aggregate = sum(s.score for s in scores) / len(scores)
    wall_time = 0.0 if config.deterministic else time.monotonic() - started
    return ScoreReport(
        dataset_name=dataset_name,
        per_sample=tuple(scores),
        aggregate=aggregate,
        run_stats={
            "provider_calls": provider_calls,
            "prompt_tokens": tokens["prompt_tokens"],
            "completion_tokens": tokens["completion_tokens"],
            "wall_time_s": round(wall_time, 3),
        },
    )


def report_to_json(report: ScoreReport) -> str:
    """Canonical JSON serialization of a report; byte-stable for identical reports."""
    payload = {
        "dataset": report.dataset_name,
        "aggregate": report.aggregate,
        "samples": [
            {"id": s.id, "correct": s.correct, "score": s.score, "error": s.error}
            for s in report.per_sample
        ],
        "run_stats": report.run_stats,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def render_table(report: ScoreReport) -> str:
    """Aligned-column text table with one row per sample and an aggregate row."""
    rows = [("sample", "correct", "score", "error")]
    for s in report.per_sample:
        rows.append((s.id, str(s.correct), f"{s.score:.3f}", s.error or "-"))
    rows.append(("aggregate", "", f"{report.aggregate:.3f}", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
