"""Node-completion orders, enumerated and on a virtual clock, with no threads and no sleeps.

Both policies replace engine._Scheduler's pool and done-queue with the
scheduler itself (tests/helpers._HeldJobScheduler). The explorer runs
every order in which node jobs can finish and checks that each gives the
concurrency-1 trace, so a commit-order bug is caught on every run rather
than when thread timing happens to expose it. The virtual clock counts a
run's critical path in provider rounds (latency units) at a given node
cap, so a change that lengthens it fails here.
"""

import importlib.util
import os
import sys
from dataclasses import replace

import pytest

from helpers import FateProvider, explore_schedules, run_scenario, run_traced, virtual_units
from rulegraph.cli import load_config
from rulegraph.engine import RunConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", os.path.join(REPO, "benchmarks", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while building classes
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("concurrency", (2, 3))
@pytest.mark.parametrize("seed", (1, 3, 4, 5, 7, 8))
def test_every_completion_order_gives_the_sequential_trace(seed, concurrency, monkeypatch):
    name, text, _ = run_scenario(FateProvider, seed, 1)
    config = RunConfig(provider=FateProvider(seed), deterministic=True)
    outcomes = explore_schedules(
        monkeypatch, concurrency, lambda: run_traced("the original task", config)[:2]
    )
    assert len(outcomes) > 1
    assert set(outcomes) == {(name, text)}


@pytest.fixture(scope="module")
def dag_latency_run(tmp_path_factory):
    """A callable running seed-1 dag-latency at concurrency 1; its config says 2."""
    wl = _load_workloads().dag_latency(1)
    workdir = tmp_path_factory.mktemp("dag-latency")
    for filename, text in wl.files().items():
        (workdir / filename).write_text(text, encoding="utf-8")
    config = load_config(str(workdir / "config.json"))
    assert config.concurrency == 2
    sequential = replace(config, concurrency=1)
    return lambda: run_traced(wl.task, sequential)[:2]


@pytest.mark.parametrize("concurrency, units", [(2, 76), (3, 58), (4, 46), (8, 40)])
def test_dag_latency_units_on_a_virtual_clock(concurrency, units, dag_latency_run, monkeypatch):
    expected = dag_latency_run()
    assert virtual_units(monkeypatch, concurrency, dag_latency_run) == (units, expected)
