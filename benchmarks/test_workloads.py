"""Tests for the benchmark's input generators and latency wrapper.

    python3 -m pytest benchmarks/test_workloads.py

Small sizes keep these quick; the generators scale the same code paths.
"""

from __future__ import annotations

import io
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import LatencyProvider  # noqa: E402
from rulegraph.cli import load_config  # noqa: E402
from rulegraph.engine import call_budget, execute_task, write_trace_events  # noqa: E402
from rulegraph.graph import validate  # noqa: E402

SMALL = {
    "repair-mix": lambda seed: workloads.repair_mix(seed, n_layers=4, width=5),
    "dag-latency": lambda seed: workloads.dag_latency(seed, latency_s=0.001),
    "batch-mixed": lambda seed: workloads.batch_mixed(seed, n_samples=15),
}


def _load(wl, tmp_path):
    for name, text in wl.files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return load_config(str(tmp_path / "config.json"))


def _run(wl, config) -> list[str]:
    """Run every task of a workload, check it against the generator, return the traces."""
    tasks = [(wl.task, None)] if wl.samples is None else [(s["task"], s["id"]) for s in wl.samples]
    traces = []
    for (task, run_id), exp in zip(tasks, wl.expected):
        outcome = execute_task(task, config, run_id=run_id)
        assert outcome.final.answer_text == exp.answer
        assert outcome.provider_calls == exp.provider_calls
        assert outcome.provider_calls <= call_budget(config, exp.n_subtasks)
        validate(outcome.graph_final)
        kinds = [e.kind for e in outcome.trace]
        assert (kinds.count("node_removed"), kinds.count("node_spliced")) == (exp.removed, exp.spliced)
        sink = io.StringIO()
        write_trace_events(outcome.trace, sink)
        traces.append(sink.getvalue())
    return traces


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    assert workloads.GENERATORS[name](5).files() == workloads.GENERATORS[name](5).files()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_different_seed_gives_different_inputs(name):
    first, second = SMALL[name](5).files(), SMALL[name](6).files()
    assert first["script.json"] != second["script.json"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_scripts_complete_at_concurrency_one_and_the_cap(name, tmp_path):
    wl = SMALL[name](3)
    config = _load(wl, tmp_path)
    serial = _run(wl, replace(config, concurrency=1))
    capped = _run(wl, replace(config, concurrency=2))
    assert serial == capped


def test_generated_repairs_and_scores_follow_the_scripted_shares():
    wl = workloads.repair_mix(2)
    exp = wl.expected[0]
    assert exp.n_subtasks == 150
    assert (exp.removed, exp.spliced) == (15, 15)
    batch = workloads.batch_mixed(2, n_samples=200)
    assert {e.n_subtasks for e in batch.expected} == {2, 3, 4, 5}
    assert 0 < sum(e.score for e in batch.expected) / 200 < 1


def test_latency_wrapper_keeps_deterministic_mode_valid(tmp_path):
    wl = SMALL["dag-latency"](4)
    config = _load(wl, tmp_path)
    slowed = replace(config, provider=LatencyProvider(config.provider, wl.latency_s))
    slowed.validate()
    assert slowed.deterministic
    assert _run(wl, slowed) == _run(wl, config)
