"""The benchmark's traced run (benchmarks/run.py --trace 1) wraps package names in place.

benchmarks/tracing.py replaces each (owner, attribute) in its WRAPPED table
with a span-recording wrapper, so every name must stay defined on that owner
and callers must keep looking it up there.
"""

import importlib.util
import io
import os

import pytest

import rulegraph.bench as bench
import rulegraph.engine as engine
from helpers import (
    FateProvider,
    assessment_response,
    candidate_response,
    fusion_answer,
    plan_response,
    ruleset_response,
)
from rulegraph.agents import MockProvider
from rulegraph.cli import load_config
from rulegraph.graph import TaskGraph

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "benchmark_tracing", os.path.join(REPO, "benchmarks", "tracing.py")
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.WRAPPED],
    ids=[name for _, _, name in tracing.WRAPPED],
)
def test_wrapped_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__


def test_each_provider_call_is_one_parse_span():
    script = {
        ("PA", 1): "prose with no plan in it",
        ("PA", 2): plan_response("g", [("s1", "only step")]),
        ("DAA", 1): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
        ("GEA", 1): assessment_response("H"),
        ("FEA", 1): fusion_answer("done"),
        **{("DEA", n): candidate_response("a") for n in (1, 2, 3)},
    }
    recorder = tracing.Recorder(concurrency=1)
    recorder.install()
    try:
        outcome = engine.execute_task("t", engine.RunConfig(provider=MockProvider(script)))
    finally:
        recorder.uninstall()
    names = [span[2] for span in recorder.spans]
    assert outcome.provider_calls == 8
    assert names.count("agents.parse_structured") == 8
    assert names.count("graph.build_graph") == 1 and names.count("engine.execute_task") == 1


def test_every_wrapped_name_is_reached():
    # A wrapped name the package never calls would make its per-layer metric read 0.
    recorder = tracing.Recorder(concurrency=1)
    recorder.install()
    try:
        # seed 11's fates remove one node and splice another
        outcome = engine.execute_task("t", engine.RunConfig(provider=FateProvider(11), deterministic=True))
        engine.write_trace(outcome, io.StringIO())
        # a run validates no graph it builds; reading one back, as export-dot does, validates it
        TaskGraph.from_payload(outcome.graph_final.to_payload())
        config = load_config(os.path.join(REPO, "fixtures", "config.bench.json"))
        dataset = bench.load_dataset(os.path.join(REPO, "fixtures", "trivia5.jsonl"))
        bench.run_benchmark(dataset, config)
    finally:
        recorder.uninstall()
    kinds = {event.kind for event in outcome.trace}
    assert {"node_removed", "node_spliced"} <= kinds
    reached = {span[2] for span in recorder.spans}
    assert {name for _, _, name in tracing.WRAPPED} - reached == set()
