"""write_trace against write_trace_events, on pooled runs on real threads.

Above concurrency 1 a run loop that has waited engine._ENCODE_AFTER_S for a
reply encodes the committed events into trace lines, and write_trace writes
those lines and encodes only the events after them. Both writers must give
the same bytes, and the concurrency-1 trace, on the benchmark workloads'
seed-1 tasks and on the fate seeds; some events must have been encoded
before the run returned. With zero latency a wait seldom lasts a
millisecond, so these runs encode whenever the loop would block (a wait of
0); one run with slow calls checks the default wait.
"""

import io
import time
from dataclasses import replace

import pytest

from helpers import FateProvider, run_scenario
from test_schedules import workload_task
from rulegraph import engine
from rulegraph.engine import EngineError, RunConfig, execute_task, write_trace, write_trace_events

SEEDS = range(30)
DEFAULT_WAIT = engine._ENCODE_AFTER_S


def written(writer, value) -> str:
    sink = io.StringIO()
    writer(value, sink)
    return sink.getvalue()


def encoded_and_agreeing(outcome, sequential: str) -> int:
    """The events the run loop encoded, once both writers are checked to give the sequential trace."""
    assert written(write_trace, outcome) == written(write_trace_events, outcome.trace) == sequential
    return outcome.encoded[1] if outcome.encoded else 0


@pytest.fixture(autouse=True)
def encode_at_every_wait(monkeypatch):
    monkeypatch.setattr(engine, "_ENCODE_AFTER_S", 0)


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """Workload name -> (seed-1 task, its config, its concurrency-1 trace)."""
    tasks = {}
    for name in ("dag-latency", "repair-mix"):
        task, config = workload_task(name, tmp_path_factory.mktemp(name))
        sequential = execute_task(task, replace(config, concurrency=1))
        tasks[name] = task, config, written(write_trace_events, sequential.trace)
    return tasks


@pytest.mark.parametrize("concurrency", (2, 3))
@pytest.mark.parametrize("name", ("dag-latency", "repair-mix"))
def test_pooled_workload_writes_its_encoded_lines(name, concurrency, workloads):
    task, config, sequential = workloads[name]
    outcome = execute_task(task, replace(config, concurrency=concurrency))
    assert encoded_and_agreeing(outcome, sequential) > 0


def test_pooled_fate_runs_write_their_encoded_lines():
    encoded = 0
    for seed in SEEDS:
        _, sequential, _ = run_scenario(FateProvider, seed, 1)
        config = RunConfig(provider=FateProvider(seed), deterministic=True, concurrency=3)
        try:
            outcome = execute_task("the original task", config)
        except EngineError as exc:
            assert written(write_trace_events, exc.trace) == sequential
        else:
            encoded += encoded_and_agreeing(outcome, sequential)
    assert encoded > 0


def test_concurrency_one_keeps_no_encoded_lines(workloads):
    task, config, sequential = workloads["dag-latency"]
    outcome = execute_task(task, replace(config, concurrency=1))
    assert outcome.encoded == ()
    assert written(write_trace, outcome) == sequential


@pytest.mark.parametrize(
    "cut", [slice(None, -1), slice(1, None), slice(None, 1)], ids=("but-last", "but-first", "first-only")
)
def test_a_replaced_trace_is_written_as_it_is(cut, workloads):
    task, config, _ = workloads["dag-latency"]
    outcome = execute_task(task, config)
    assert outcome.encoded[1] > 1
    replaced = outcome._replace(trace=outcome.trace[cut])
    assert written(write_trace, replaced) == written(write_trace_events, replaced.trace)


def test_pooled_trace_is_written_in_one_write(workloads):
    task, config, sequential = workloads["dag-latency"]
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    outcome = execute_task(task, config)
    write_trace(outcome, Sink())
    assert outcome.encoded[1] > 0 and writes == [sequential]


class SlowFates(FateProvider):
    """FateProvider whose every call takes 3 ms, so the run loop waits past the default delay."""

    def complete(self, request):
        time.sleep(0.003)
        return super().complete(request)


def test_a_slow_pooled_run_encodes_after_the_default_wait(monkeypatch):
    monkeypatch.setattr(engine, "_ENCODE_AFTER_S", DEFAULT_WAIT)
    _, sequential, _ = run_scenario(FateProvider, 6, 1)  # two subtasks, 22 calls
    config = RunConfig(provider=SlowFates(6), deterministic=True, concurrency=2)
    outcome = execute_task("the original task", config)
    assert encoded_and_agreeing(outcome, sequential) > 0
