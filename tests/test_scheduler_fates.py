"""Seeded scheduler property: random plans with seeded node fates give one trace at any concurrency.

Each scenario is a random plan of up to 8 subtasks run under FateProvider,
so nodes pass late, get removed or get spliced (some chains renamed), and
some expert calls need a re-ask. GOLDEN pins the SHA-256 over all scenario
traces, so the commit order is fixed for inputs well beyond the benchmark
workloads.
"""

import functools

import pytest

from helpers import (
    FateProvider,
    KeyCounting,
    check_trace,
    random_schedules,
    record_starts,
    run_scenario,
    run_traced,
    scenario_digest,
)
from rulegraph.engine import RunConfig

SEEDS = range(30)
WALKS = 4  # random schedules per seed at concurrency 3
GOLDEN = "a5cde5a2f1228997a0dc7c5ceb561fc88d8ebf4011666a7a097534ac3a38f8e2"
run = functools.partial(run_scenario, FateProvider)


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_is_schedule_independent_and_bounded(seed):
    name, text, events = run(seed, 1)
    assert run(seed, 2)[1] == text
    assert run(seed, 8, jitter=True)[1] == text
    check_trace(events, len(FateProvider(seed).plan.subtasks))
    assert name == "RunOutcome" or not any(e.kind == "final" for e in events)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_schedules_give_the_sequential_trace(seed, monkeypatch):
    name, text, _ = run(seed, 1)
    config = RunConfig(provider=FateProvider(seed), deterministic=True)
    walks = random_schedules(
        monkeypatch, 3, seed, WALKS, lambda: run_traced("the original task", config)[:2]
    )
    assert set(walks) == {(name, text)}


@pytest.mark.parametrize("seed", SEEDS)
def test_analyst_lane_makes_no_extra_or_repeated_call(seed, monkeypatch):
    sequential, pooled = KeyCounting(seed), KeyCounting(seed)
    name = run_traced("the original task", RunConfig(provider=sequential, deterministic=True))[0]
    started = record_starts(monkeypatch)
    config = RunConfig(provider=pooled, deterministic=True, concurrency=2)
    assert run_traced("the original task", config)[0] == name
    assert pooled.keys == sequential.keys
    if name != "RunOutcome":  # an EngineError: the lane may have asked once for a node that never ran
        assert sum(n for key, n in pooled.keys.items() if key[1] not in started) <= 1


def test_fates_cover_removal_splice_rename_and_failed_runs():
    traces = [run(seed, 1) for seed in SEEDS]
    kinds = {e.kind for _, _, events in traces for e in events}
    assert {"node_removed", "node_spliced", "reprocess"} <= kinds
    chains = [
        sid for _, _, events in traces for e in events if e.kind == "node_spliced"
        for sid in e.payload["chain"]
    ]
    assert any("." in sid for sid in chains)  # a renamed chain id
    names = {name for name, _, _ in traces}
    assert names == {"RunOutcome", "AllPathsFailed"}


def test_golden_hash_over_all_scenario_traces():
    assert scenario_digest(FateProvider, SEEDS) == GOLDEN
