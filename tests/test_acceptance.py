"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs against the deterministic scripted provider with no
network access, except the optional live smoke test which is gated behind
environment variables and skipped by default.
"""

import io
import itertools
import os
import random
import time

import pytest

from helpers import random_graph, random_plan, subtask_ids
from scenarios import (
    ADVERSARIAL_TASK,
    EMAIL_TASK,
    MOVIE_A,
    adversarial_script,
    bench_script,
    email_script,
)
from rulegraph.agents import LiveProvider, MockProvider
from rulegraph.bench import Sample, load_dataset, run_benchmark, score_sample
from rulegraph.engine import AllPathsFailed, RunConfig, call_budget, execute_task, write_trace
from rulegraph.fusion import cluster_candidates, resolve_conflict
from rulegraph.graph import TaskNode, build_graph, remove_node, splice_chain, validate
from rulegraph.membership import MembershipLabel, parse_label
from rulegraph.rules import CandidateResult

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


class Stopwatch:
    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.started = time.monotonic()

    def check(self, label: str) -> None:
        elapsed = time.monotonic() - self.started
        assert elapsed < self.limit_s, f"{label} took {elapsed:.2f}s, limit {self.limit_s}s"
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_membership_algebra():
    watch = Stopwatch(1.0)
    order = list(MembershipLabel)  # definition order, lowest first
    pairs = list(itertools.product(MembershipLabel, repeat=2))
    assert len(pairs) == 36
    for a, b in pairs:
        ia, ib = order.index(a), order.index(b)
        assert (a < b) == (ia < ib)
        assert (a > b) == (ia > ib)
        assert (a == b) == (ia == ib)
        assert sum([a < b, a == b, a > b]) == 1
    aliases = {
        MembershipLabel.H: ["H", "High", "h", "high", " HIGH "],
        MembershipLabel.SH: ["SH", "Sub-High", "sh", "sub-high", " SUB-HIGH "],
        MembershipLabel.M: ["M", "Medium", "m", "medium"],
        MembershipLabel.ML: ["ML", "Mid-Low", "ml", "mid-low"],
        MembershipLabel.LR: ["Lr", "Lower", "lr", "LOWER"],
        MembershipLabel.L: ["L", "Low", "l", "low"],
    }
    for label, forms in aliases.items():
        assert parse_label(label.token) is label
        for form in forms:
            assert parse_label(form) is label
    watch.check("1 membership-algebra")


def test_criterion_2_graph_properties():
    watch = Stopwatch(30.0)
    rng = random.Random(2024)
    for _ in range(1000):
        validate(build_graph(random_plan(rng)))
    for i in range(1000):
        graph = random_graph(rng)
        target = rng.choice(subtask_ids(graph))
        validate(remove_node(graph, target))
        chain = [
            TaskNode(f"fresh{i}_{j}", f"step {j}")
            for j in range(rng.randint(1, 4))
        ]
        validate(splice_chain(graph, target, chain))
    watch.check("2 graph-properties")


def email_config(**overrides):
    return RunConfig(provider=MockProvider(email_script()), deterministic=True, **overrides)


def test_criterion_3_email_fixture():
    watch = Stopwatch(5.0)
    outcome = execute_task(EMAIL_TASK, email_config())
    trace = outcome.trace

    plans = [e for e in trace if e.kind == "plan"]
    assert len(plans) == 1 and len(plans[0].payload["subtasks"]) == 4

    t1_rules = next(
        e for e in trace if e.kind == "rules_built" and e.payload["node"] == "T1"
    )
    assert [r["membership"] for r in t1_rules.payload["rules"]] == ["H", "M", "ML"]

    t1_fusions = [e for e in trace if e.kind == "fusion" and e.payload["node"] == "T1"]
    assert t1_fusions, "no fusion event for T1"
    for event in t1_fusions:
        votes = sorted(c["votes"] for c in event.payload["clusters"])
        assert votes == [1, 2]
        winner = next(
            c for c in event.payload["clusters"] if c["key"] == event.payload["winner_key"]
        )
        assert winner["votes"] == 2
        assert event.payload["answer_text"] == MOVIE_A

    t1_done = next(e for e in trace if e.kind == "node_done" and e.payload["node"] == "T1")
    assert t1_done.payload["attempts_used"] == 3

    spliced = [e for e in trace if e.kind == "node_spliced"]
    assert len(spliced) == 1
    assert spliced[0].payload["node"] == "T3"
    assert spliced[0].payload["chain"] == ["T3a", "T3b", "T3c"]

    final = next(e for e in trace if e.kind == "final")
    terminals = sorted(outcome.graph_final.predecessors("F"))
    assert final.payload["contributing_nodes"] == terminals == ["T1", "T2", "T3c", "T4"]

    first, second = io.StringIO(), io.StringIO()
    write_trace(outcome, first)
    write_trace(execute_task(EMAIL_TASK, email_config()), second)
    assert first.getvalue() == second.getvalue()
    watch.check("3 email-fixture")


def test_criterion_4_two_layer_conflict_resolution():
    watch = Stopwatch(10.0)
    rng = random.Random(4)
    answers = ["alpha", "beta", "gamma", "delta"]
    for _ in range(1000):
        n = rng.randint(1, 9)
        labels = [rng.choice(list(MembershipLabel)) for _ in range(n)]
        texts = [rng.choice(answers) for _ in range(n)]
        cands = [
            CandidateResult(i + 1, "Domain", labels[i], texts[i]) for i in range(n)
        ]
        clusters = cluster_candidates(cands, "lexical")

        # partition: every candidate in exactly one cluster
        assert sum(c.votes for c in clusters) == n
        indices = sorted(m.rule_index for c in clusters for m in c.members)
        assert indices == list(range(1, n + 1))

        winner, _ = resolve_conflict(clusters)
        top_votes = max(c.votes for c in clusters)
        assert winner.votes == top_votes
        tied = [c for c in clusters if c.votes == top_votes]
        top_membership = max(c.max_membership for c in tied)
        assert winner.max_membership is top_membership
        double_tied = [c for c in tied if c.max_membership is top_membership]
        assert winner.min_rule_index == min(c.min_rule_index for c in double_tied)

        # strict vote majority is invariant under membership permutation
        vote_counts = sorted((c.votes for c in clusters), reverse=True)
        if len(vote_counts) > 1 and vote_counts[0] > vote_counts[1]:
            rng.shuffle(labels)
            permuted = [
                CandidateResult(i + 1, "Domain", labels[i], texts[i]) for i in range(n)
            ]
            assert resolve_conflict(cluster_candidates(permuted, "lexical"))[0].key == winner.key
    watch.check("4 conflict-resolution")


def test_criterion_5_termination_under_adversarial_scripting():
    watch = Stopwatch(10.0)
    config = RunConfig(
        provider=MockProvider(adversarial_script()),
        deterministic=True,
        k_rules=3,
        max_reprocess=3,
        max_depth=2,
        max_chain=3,
    )
    with pytest.raises(AllPathsFailed) as err:
        execute_task(ADVERSARIAL_TASK, config)
    trace = err.value.trace

    assert err.value.provider_calls <= call_budget(config, 1)

    depth_capped = [
        e.payload["node"]
        for e in trace
        if e.kind == "warning" and e.payload["reason"] == "depth_cap_forced_removal"
    ]
    deepest = [
        e.payload["node"]
        for e in trace
        if e.kind == "node_start" and e.payload["depth"] == config.max_depth
    ]
    assert deepest and sorted(depth_capped) == sorted(deepest)
    removed = [e.payload["node"] for e in trace if e.kind == "node_removed"]
    assert sorted(removed) == sorted(depth_capped)
    watch.check("5 termination")


def test_criterion_6_scoring():
    watch = Stopwatch(5.0)

    def s(questions_targets):
        return Sample(
            id="s",
            task_text="t",
            questions=tuple(q for q, _ in questions_targets),
            targets=tuple(tuple(t) for _, t in questions_targets),
        )

    q = lambda t: ("q", t)  # noqa: E731 - compact table below
    cases = [
        # (output, sample, expected correct, expected score)
        ("a b c d", s([q(["a"]), q(["b"]), q(["c"]), q(["d"]), q(["e"])]), 4, 4 / 5),
        ("nothing relevant", s([q(["x"]), q(["y"]), q(["z"])]), 0, 0.0),
        ("", s([q(["x"]), q(["y"]), q(["z"]), q(["w"])]), 0, 0.0),
        (
            "she won for guess who's coming to dinner (1967)",
            s([q(["Guess Who's Coming to Dinner"])]),
            1,
            1.0,
        ),
        ("it is everest", s([q(["Mount Everest", "Everest"])]), 1, 1.0),
        ("alpha then beta", s([q(["alpha"]), q(["beta"])]), 2, 1.0),
        ("concatenate things", s([q(["cat"]), q(["dog"])]), 1, 1 / 2),
        ("one three", s([q(["one"]), q(["two"]), q(["three"]), q(["four"])]), 2, 2 / 4),
        (
            "q0 q1 q2 q3 q4 q5 q6",
            s([q([f"q{i}"]) for i in range(10)]),
            7,
            7 / 10,
        ),
        ("mt. everest is tall", s([q(["Mt. Everest"])]), 1, 1.0),
        ("visit åland someday", s([q(["Åland"])]), 1, 1.0),
        ("echo echo", s([q(["echo"])]), 1, 1.0),
        ("zzz", s([q(["a"]), q(["b"]), q(["c"]), q(["d"]), q(["e"])]), 0, 0.0),
        ("a b c d e", s([q(["a"]), q(["b"]), q(["c"]), q(["d"]), q(["e"])]), 5, 1.0),
        ("the answer", s([q(["answer", "the answer"])]), 1, 1.0),
        ("New  York has two spaces", s([q(["New York"])]), 0, 0.0),
        ("only the second", s([q(["first"]), q(["second"])]), 1, 1 / 2),
        ("one hit here", s([q(["hit"]), q(["miss"]), q(["absent"])]), 1, 1 / 3),
        ("x1 x2 x3", s([q([f"x{i}"]) for i in range(1, 7)]), 3, 3 / 6),
        ("the year was 1967.", s([q(["1967"])]), 1, 1.0),
    ]
    assert len(cases) == 20
    for output, sample_, expected_correct, expected_score in cases:
        assert score_sample(output, sample_) == (expected_correct, expected_score)

    dataset = load_dataset(os.path.join(FIXTURES, "trivia5.jsonl"))
    config = RunConfig(provider=MockProvider(bench_script()), deterministic=True)
    report = run_benchmark(dataset, config, dataset_name="trivia5")
    assert [s_.score for s_ in report.per_sample] == [4 / 5, 2 / 5, 0 / 5]
    assert report.aggregate == sum([4 / 5, 2 / 5, 0 / 5]) / 3
    watch.check("6 scoring")


def test_criterion_7_schedule_independence():
    watch = Stopwatch(10.0)
    rendered = []
    for cap in (1, 2, 8):
        outcome = execute_task(EMAIL_TASK, email_config(concurrency=cap))
        sink = io.StringIO()
        write_trace(outcome, sink)
        rendered.append(sink.getvalue())
    assert rendered[0] == rendered[1] == rendered[2]
    watch.check("7 schedule-independence")


LIVE_VARS = ("RULEGRAPH_LIVE_SMOKE", "RULEGRAPH_BASE_URL", "RULEGRAPH_MODEL", "RULEGRAPH_API_KEY")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in LIVE_VARS),
    reason="live smoke test needs " + ", ".join(LIVE_VARS),
)
def test_criterion_8_live_smoke():
    provider = LiveProvider(
        base_url=os.environ["RULEGRAPH_BASE_URL"],
        model=os.environ["RULEGRAPH_MODEL"],
        api_key=os.environ["RULEGRAPH_API_KEY"],
    )
    config = RunConfig(provider=provider, cluster_mode="model", concurrency=2)
    sample = load_dataset(os.path.join(FIXTURES, "trivia5.jsonl"))[0]
    outcome = execute_task(sample.task_text, config)
    assert outcome.final.answer_text.strip()
    print("ACCEPTANCE 8 live-smoke: PASS")
