"""Job-completion orders, enumerated and on a virtual clock, with no threads and no sleeps.

Each policy replaces engine._Scheduler's pool and done-queue with the
scheduler itself (tests/helpers._HeldJobScheduler). The explorer runs
every order in which node and analyst-lane jobs can finish at a small
node cap and checks that each gives the concurrency-1 trace, so a
commit-order bug is caught on every run rather than when thread timing
happens to expose it. Where lane jobs make the orders too many, it
enumerates the node jobs' orders only. The virtual clock counts a run's
critical path in latency units at a given concurrency c, with c x K nodes
in flight and c x K + 1 call slots granted in the gate's rank order, so a
change that lengthens it fails here.
"""

import importlib.util
import os
import sys
from dataclasses import replace

import pytest

from helpers import FateProvider, KeyCounting, explore_schedules, run_scenario, run_traced, virtual_units
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


def fate_run(seed):
    """A callable running a seed's fate scenario: (outcome name, trace bytes, context keys asked, sorted)."""

    def run():
        provider = KeyCounting(seed)
        name, text, _ = run_traced("the original task", RunConfig(provider=provider, deterministic=True))
        return name, text, tuple(sorted(provider.keys.elements()))

    return run


@pytest.mark.parametrize("cap", (2, 3))
@pytest.mark.parametrize("seed", (1, 3, 4, 5, 7, 8))
def test_every_completion_order_gives_the_sequential_trace(seed, cap, monkeypatch):
    # every order of node jobs, each lane job finishing first; the next test adds the lane's orders
    name, text, _ = run_scenario(FateProvider, seed, 1)
    config = RunConfig(provider=FateProvider(seed), deterministic=True)
    outcomes = explore_schedules(
        monkeypatch, cap, lambda: run_traced("the original task", config)[:2], lanes=False
    )
    assert len(outcomes) > 1
    assert set(outcomes) == {(name, text)}


@pytest.mark.parametrize("cap", (2, 3))
@pytest.mark.parametrize("seed", (3, 4))
def test_every_node_and_lane_completion_order_gives_the_sequential_trace(seed, cap, monkeypatch):
    # the other seeds' plans have 222 to over 3,000 such orders; random walks over all 30 fate
    # seeds (test_scheduler_fates) sample the lane's orders there. A node that asked again while
    # its analysis was in flight would keep the sequential trace but ask one key twice.
    sequential = fate_run(seed)()
    outcomes = explore_schedules(monkeypatch, cap, fate_run(seed))
    assert len(outcomes) > 30  # 6 to 12 when each lane job finishes first
    assert set(outcomes) == {sequential}


def workload_task(name, workdir):
    """(the workload's seed-1 task, its config), with its input files written to workdir."""
    wl = _load_workloads().GENERATORS[name](1)
    for filename, text in wl.files().items():
        (workdir / filename).write_text(text, encoding="utf-8")
    return wl.task, load_config(str(workdir / "config.json"))


def workload_run(name, workdir):
    """(a callable running the workload's seed-1 task at concurrency 1, the workload's config)."""
    task, config = workload_task(name, workdir)
    sequential = replace(config, concurrency=1)
    return (lambda: run_traced(task, sequential)[:2]), config


@pytest.fixture(scope="module")
def dag_latency_run(tmp_path_factory):
    """A callable running seed-1 dag-latency at concurrency 1; its config says 2."""
    run, config = workload_run("dag-latency", tmp_path_factory.mktemp("dag-latency"))
    assert config.concurrency == 2
    return run


@pytest.fixture(scope="module")
def repair_mix_run(tmp_path_factory):
    """A callable running seed-1 repair-mix at concurrency 1, and its trace."""
    run, _ = workload_run("repair-mix", tmp_path_factory.mktemp("repair-mix"))
    return run, run()


# 36 is the dependency floor: a clock that counts nodes only reads it from c = 2 (6 nodes) up
@pytest.mark.parametrize("concurrency, units", [(2, 43), (3, 38), (4, 38), (8, 36)])
def test_dag_latency_units_on_a_virtual_clock(concurrency, units, dag_latency_run, monkeypatch):
    expected = dag_latency_run()
    assert virtual_units(monkeypatch, concurrency, dag_latency_run) == (units, expected)


def test_dag_latency_loses_two_units_when_each_round_reaches_the_gate_late(dag_latency_run, monkeypatch):
    # the late clock serves a request made at the tick its slot freed after those already waiting,
    # as a gate that grants when a slot is freed, not when it is claimed, does on a real clock
    expected = dag_latency_run()
    assert virtual_units(monkeypatch, 2, dag_latency_run, late=True) == (45, expected)


# 173 is repair-mix's dependency floor; its 1,545 node calls give a slot floor of 223 at c = 2
@pytest.mark.parametrize("concurrency, units", [(2, 245), (3, 191), (64, 173)])
def test_repair_mix_units_on_a_virtual_clock(concurrency, units, repair_mix_run, monkeypatch):
    run, expected = repair_mix_run
    assert virtual_units(monkeypatch, concurrency, run) == (units, expected)
