"""Seeded fault injection: provider faults never break determinism, the budget or the CLI.

FaultProvider wraps FateProvider and, for each request, decides from its
context key alone whether to raise a TransportError, raise a non-retried
ProviderFailure, or answer with prose that holds no document. Faults do
not depend on call order, so the trace is the same at any concurrency.
Every scenario must end in a documented exit code with no traceback, and
the CLI's trace file must equal the in-process trace. GOLDEN pins the
SHA-256 over all scenario traces.
"""

import functools
import json
import random

import pytest

from helpers import FateProvider, check_trace, random_schedules, run_scenario, run_traced, scenario_digest
import rulegraph.cli as cli
from rulegraph.agents import ProviderFailure, ProviderResponse, TransportError
from rulegraph.engine import RunConfig

SEEDS = range(20)
WALKS = 4  # random schedules per seed at concurrency 3
FAULT_RATE = 0.04  # per fault kind
GOLDEN = "1cc1d7a274e886e8acc9344911d7d5f9b9e0cfa6db24c49ece91d369855cdf25"
EXIT_CODES = {
    "RunOutcome": cli.EXIT_OK,
    "PlanningFailure": cli.EXIT_PLANNING,
    "AllPathsFailed": cli.EXIT_ALL_PATHS,
    "FusionFailure": cli.EXIT_PROVIDER,
}


class FaultProvider(FateProvider):
    """FateProvider with seeded faults, each decided from the request's context key."""

    def complete(self, request):
        roll = random.Random(f"{self.seed}/fault/{request.context_key}").random()
        if roll < FAULT_RATE:
            raise TransportError("connection reset by peer")
        if roll < 2 * FAULT_RATE:
            raise ProviderFailure("provider returned 400: bad request")
        if roll < 3 * FAULT_RATE:
            return ProviderResponse(
                raw_text="I would rather answer in prose.",
                token_usage={"prompt_tokens": 0, "completion_tokens": 0},
            )
        return super().complete(request)


run = functools.partial(run_scenario, FaultProvider)


@pytest.mark.parametrize("seed", SEEDS)
def test_faults_keep_trace_schedule_independent_and_bounded(seed):
    name, text, events = run(seed, 1)
    assert name in EXIT_CODES
    assert run(seed, 4, jitter=True)[1] == text
    check_trace(events, len(FaultProvider(seed).plan.subtasks))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_schedules_give_the_sequential_trace(seed, monkeypatch):
    name, text, _ = run(seed, 1)
    config = RunConfig(provider=FaultProvider(seed), deterministic=True)
    walks = random_schedules(
        monkeypatch, 3, seed, WALKS, lambda: run_traced("the original task", config)[:2]
    )
    assert set(walks) == {(name, text)}


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_exit_code_and_trace_file_match_the_run(seed, tmp_path, capsys, monkeypatch):
    name, text, _ = run(seed, 1)
    monkeypatch.setattr(cli, "_build_provider", lambda spec, base_dir: FaultProvider(seed))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"type": "mock"}}), encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    argv = ["run", "--task", "the original task", "--config", str(config)]
    code = cli.main([*argv, "--trace", str(trace), "--deterministic"])
    assert code == EXIT_CODES[name]
    assert "Traceback" not in capsys.readouterr().err
    assert trace.read_text(encoding="utf-8") == text


def test_seeds_reach_every_documented_outcome():
    assert {run(seed, 1)[0] for seed in SEEDS} == set(EXIT_CODES)


def test_golden_hash_over_all_scenario_traces():
    assert scenario_digest(FaultProvider, SEEDS) == GOLDEN
