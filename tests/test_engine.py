import io
import json
import queue
import re
import sys
import threading
import time

import pytest

from helpers import (
    WorstCaseProvider,
    assessment_response,
    assignments_response,
    candidate_response,
    classification_response,
    explore_schedules,
    fusion_answer,
    make_plan,
    plan_response,
    ruleset_response,
)
from scenarios import (
    ADVERSARIAL_TASK,
    EMAIL_GOAL,
    EMAIL_PROVIDER_CALLS,
    EMAIL_TASK,
    FINAL_EMAIL,
    MOVIE_A,
    MOVIE_B,
    adversarial_script,
    email_script,
)
from rulegraph.agents import REASK_LIMIT, MockProvider, NodeSession, RoleKind, ScriptMiss, TransportError
from rulegraph.engine import (
    AllPathsFailed,
    ConfigError,
    EngineError,
    PlanningFailure,
    Repair,
    RunConfig,
    RunPool,
    TraceEvent,
    _Tracer,
    apply_repair,
    call_budget,
    execute_task,
    write_trace,
    write_trace_events,
)
from rulegraph.graph import build_graph


def mk_config(script, **overrides):
    return RunConfig(provider=MockProvider(script), **{"deterministic": True, **overrides})


def events_of(trace, kind):
    return [e for e in trace if e.kind == kind]


def trace_text(outcome):
    sink = io.StringIO()
    write_trace(outcome, sink)
    return sink.getvalue()


SINGLE = {
    ("PA", 1): plan_response("a goal", [("s1", "the only step")]),
    ("DAA", 1): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
    ("DEA", 1): candidate_response("the answer"),
    ("DEA", 2): candidate_response("the answer"),
    ("DEA", 3): candidate_response("the answer"),
    ("GEA", 1): assessment_response("H"),
    ("FEA", 1): fusion_answer("the final answer"),
}


class TestHappyPath:
    def test_single_subtask_one_attempt(self):
        outcome = execute_task("do the thing", mk_config(SINGLE))
        assert outcome.final.answer_text == "the final answer"
        assert outcome.final.contributing_nodes == ("s1",)
        done = events_of(outcome.trace, "node_done")
        assert len(done) == 1 and done[0].payload["attempts_used"] == 1
        assert not events_of(outcome.trace, "reprocess")

    def test_trace_seq_strictly_increasing(self):
        outcome = execute_task("do the thing", mk_config(SINGLE))
        seqs = [e.seq for e in outcome.trace]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_provider_calls_match_trace(self):
        outcome = execute_task("do the thing", mk_config(SINGLE))
        assert outcome.provider_calls == len(events_of(outcome.trace, "provider_call"))

    def test_context_keys_unique(self):
        outcome = execute_task(EMAIL_TASK, mk_config(email_script()))
        contexts = [
            tuple(e.payload["context"].values())
            for e in events_of(outcome.trace, "provider_call")
        ]
        assert len(contexts) == len(set(contexts))


class TestReprocessingLoop:
    def reluctant_script(self):
        script = dict(SINGLE)
        script[("run-0", "s1", "GEA", 1)] = assessment_response("L", "too vague")
        script[("run-0", "s1", "GEA", 2)] = assessment_response("Lr", "still vague")
        script[("run-0", "s1", "GEA", 3)] = assessment_response("H")
        for attempt in (2, 3):
            script[("DAA", attempt)] = script[("DAA", 1)]
        for attempt in range(4, 10):
            script[("DEA", attempt)] = candidate_response("the answer")
        return script

    def test_accepted_on_third_attempt(self):
        outcome = execute_task("do the thing", mk_config(self.reluctant_script()))
        done = events_of(outcome.trace, "node_done")[0]
        assert done.payload["attempts_used"] == 3
        reprocess = events_of(outcome.trace, "reprocess")
        assert [e.payload["attempt"] for e in reprocess] == [1, 2]
        assert reprocess[0].payload["feedback"] == "too vague"

    def test_feedback_threads_into_next_analysis(self):
        prompts = []

        class Recorder(MockProvider):
            def complete(self, request):
                if request.context_key[2] == "DAA":
                    prompts.append(request.rendered_prompt)
                return super().complete(request)

        config = RunConfig(provider=Recorder(self.reluctant_script()), deterministic=True)
        execute_task("do the thing", config)
        assert "too vague" not in prompts[0]
        assert "too vague" in prompts[1]
        assert "still vague" in prompts[2]

    def test_exhaustion_marks_needs_repair(self):
        script = dict(self.reluctant_script())
        script[("run-0", "s1", "GEA", 3)] = assessment_response("L", "hopeless")
        script[("run-0", "s1", "PA", 1)] = classification_response("irrelevant")
        with pytest.raises(AllPathsFailed):
            execute_task("do the thing", mk_config(script))


class TestFailureHandling:
    def two_subtask_script(self, s1_fails=True):
        script = {
            ("PA", 1): plan_response("a goal", [("s1", "first"), ("s2", "second")]),
            ("DAA", 1): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
            ("DAA", 2): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
            ("DAA", 3): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
            ("GEA", 1): assessment_response("H"),
            ("FEA", 1): fusion_answer("combined"),
        }
        for attempt in range(1, 10):
            script[("DEA", attempt)] = candidate_response("some answer")
        if s1_fails:
            for attempt in (1, 2, 3):
                script[("run-0", "s1", "GEA", attempt)] = assessment_response("L", "off goal")
        return script

    def test_irrelevant_node_removed_and_run_completes(self):
        script = self.two_subtask_script()
        script[("run-0", "s1", "PA", 1)] = classification_response("irrelevant")
        outcome = execute_task("task", mk_config(script))
        removed = events_of(outcome.trace, "node_removed")
        assert len(removed) == 1
        assert removed[0].payload == {"node": "s1", "reason": "irrelevant"}
        assert outcome.final.contributing_nodes == ("s2",)
        assert "s1" not in outcome.graph_final.nodes

    def test_classify_and_assess_prompts_carry_the_plan_goal(self):
        goal = "a reply the editor can print unchanged"
        script = self.two_subtask_script()
        script[("PA", 1)] = plan_response(goal, [("s1", "first"), ("s2", "second")])
        script[("run-0", "s1", "PA", 1)] = classification_response("irrelevant")
        requests = []

        class Recorder(MockProvider):
            def complete(self, request):
                requests.append(request)
                return super().complete(request)

        execute_task("task", RunConfig(provider=Recorder(script), deterministic=True))
        gated = [r for r in requests if r.context_key[2] == "GEA" or r.context_key[1:3] == ("s1", "PA")]
        assert [r.context_key[1:] for r in gated] == [
            ("s1", "GEA", 1), ("s1", "GEA", 2), ("s1", "GEA", 3), ("s1", "PA", 1), ("s2", "GEA", 1)
        ]
        assert all(goal in r.rendered_prompt for r in gated)

    def test_single_attempt_budget_with_zero_depth_cap(self):
        # R=1 and D=0: one failing assessment, one classification, then removal
        script = {
            ("PA", 1): plan_response("a goal", [("s1", "first"), ("s2", "second")]),
            ("DAA", 1): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
            ("GEA", 1): assessment_response("H"),
            ("FEA", 1): fusion_answer("combined"),
            ("run-0", "s1", "GEA", 1): assessment_response("L", "off goal"),
            ("run-0", "s1", "PA", 1): classification_response("irrelevant"),
        }
        for attempt in (1, 2, 3):
            script[("DEA", attempt)] = candidate_response("some answer")
        outcome = execute_task(
            "task", mk_config(script, max_reprocess=1, max_depth=0)
        )
        assert [e.payload["node"] for e in events_of(outcome.trace, "node_removed")] == ["s1"]
        assert outcome.final.contributing_nodes == ("s2",)

    def test_too_complex_node_spliced(self):
        script = self.two_subtask_script()
        script[("run-0", "s1", "PA", 1)] = classification_response("too_complex")
        script[("run-0", "s1", "PA", 2)] = plan_response(
            "sub-goal", [("s1x", "simpler first"), ("s1y", "simpler second")], [("s1x", "s1y")]
        )
        outcome = execute_task("task", mk_config(script))
        spliced = events_of(outcome.trace, "node_spliced")[0]
        assert spliced.payload == {"node": "s1", "chain": ["s1x", "s1y"], "depth": 1}
        assert set(outcome.final.contributing_nodes) == {"s1y", "s2"}

    def test_chain_ids_renamed_on_collision(self):
        script = self.two_subtask_script()
        script[("run-0", "s1", "PA", 1)] = classification_response("too_complex")
        # planner reuses the id of the surviving sibling
        script[("run-0", "s1", "PA", 2)] = plan_response(
            "sub-goal", [("s2", "simpler first"), ("z", "simpler second")], [("s2", "z")]
        )
        outcome = execute_task("task", mk_config(script))
        spliced = events_of(outcome.trace, "node_spliced")[0]
        assert spliced.payload["chain"] == ["s1.s2", "s1.z"]

    def test_numbered_chain_ids_skip_used_ids(self):
        # the planner's ids and the prefixed ids collide, and so does s1.1
        graph = build_graph(make_plan(["s1", "s2", "s1.s2", "s1.1"]))
        used_ids = set(graph.nodes)
        session = NodeSession(run_id="run-0", node_id="s1", provider=None)
        repair = Repair(graph.nodes["s1"], chain=(("s2", "simpler first"), ("c", "simpler second")))
        graph = apply_repair(repair, graph, session, used_ids)
        [(kind, payload)] = session.events
        assert (kind, payload["chain"]) == ("node_spliced", ["s1.2", "s1.3"])
        assert {"s1.2", "s1.3"} <= graph.nodes.keys() and {"s1.2", "s1.3"} <= used_ids

    def test_chain_clamped_to_max_chain(self):
        script = self.two_subtask_script()
        script[("run-0", "s1", "PA", 1)] = classification_response("too_complex")
        script[("run-0", "s1", "PA", 2)] = plan_response(
            "sub-goal",
            [(f"c{i}", f"piece {i}") for i in range(1, 6)],
            [(f"c{i}", f"c{i+1}") for i in range(1, 5)],
        )
        outcome = execute_task("task", mk_config(script))
        spliced = events_of(outcome.trace, "node_spliced")[0]
        assert spliced.payload["chain"] == ["c1", "c2", "c3"]
        reasons = [e.payload["reason"] for e in events_of(outcome.trace, "warning")]
        assert "chain_clamped" in reasons

    def test_classification_failure_defaults_to_removal(self):
        script = self.two_subtask_script()
        for attempt in (1, 2, 3):
            script[("run-0", "s1", "PA", attempt)] = "not a classification"
        outcome = execute_task("task", mk_config(script))
        removed = events_of(outcome.trace, "node_removed")[0]
        assert removed.payload["reason"] == "classification_failed"
        reasons = [e.payload["reason"] for e in events_of(outcome.trace, "warning")]
        assert "classification_failed" in reasons

    def test_replan_failure_defaults_to_removal(self):
        script = self.two_subtask_script()
        script[("run-0", "s1", "PA", 1)] = classification_response("too_complex")
        for attempt in (2, 3, 4):
            script[("run-0", "s1", "PA", attempt)] = "not a plan"
        outcome = execute_task("task", mk_config(script))
        removed = events_of(outcome.trace, "node_removed")[0]
        assert removed.payload["reason"] == "replan_failed"


class FaultInjector(MockProvider):
    """Raises a transport error for chosen context keys instead of answering."""

    def __init__(self, script, fail_keys):
        super().__init__(script)
        self.fail_keys = set(fail_keys)

    def complete(self, request):
        if request.context_key in self.fail_keys:
            raise TransportError("injected outage")
        return super().complete(request)


class TestProviderFaults:
    def test_transport_fault_consumes_one_attempt(self):
        script = dict(SINGLE)
        script[("DAA", 2)] = script[("DAA", 1)]
        script[("GEA", 1)] = assessment_response("H")
        for attempt in range(1, 7):
            script[("DEA", attempt)] = candidate_response("the answer")
        for fail_keys, detail in (
            ([("run-0", "s1", "DAA", 1)], "injected outage"),
            ([("run-0", "s1", "DEA", n) for n in (1, 2, 3)], "all 3 rules failed for s1"),
        ):
            provider = FaultInjector(script, fail_keys)
            outcome = execute_task("task", RunConfig(provider=provider, deterministic=True))
            warnings = [e.payload for e in events_of(outcome.trace, "warning")]
            assert [w["detail"] for w in warnings if w["reason"] == "attempt_failed"] == [detail]
            assert events_of(outcome.trace, "node_done")[0].payload["attempts_used"] == 2

    def test_planning_failure_carries_partial_trace(self):
        script = {("PA", n): "garbage" for n in (1, 2, 3)}
        with pytest.raises(PlanningFailure) as err:
            execute_task("task", mk_config(script))
        kinds = [e.kind for e in err.value.trace]
        assert kinds.count("provider_call") == 3
        assert kinds[-1] == "warning"
        assert err.value.provider_calls == 3

    def test_budget_failure_carries_partial_trace(self, monkeypatch):
        # The budget is checked at the flush that counts the calls, so a run that
        # would end in AllPathsFailed stops at its first commit past the budget.
        import rulegraph.engine as engine

        cases = [("task", SINGLE, 0, 6, 15), (ADVERSARIAL_TASK, adversarial_script(), 20, 33, 77)]
        for task, script, budget, calls, events in cases:
            monkeypatch.setattr(engine, "call_budget", lambda config, n_subtasks, budget=budget: budget)
            message = f"provider calls {calls} exceeded the termination budget {budget}"
            with pytest.raises(EngineError, match=message) as err:
                execute_task(task, mk_config(script))
            assert type(err.value) is EngineError
            assert len(err.value.trace) == events
            assert err.value.provider_calls == len(events_of(err.value.trace, "provider_call")) == calls


class TestTermination:
    def test_adversarial_run_terminates_within_budget(self):
        config = mk_config(adversarial_script())
        with pytest.raises(AllPathsFailed) as err:
            execute_task(ADVERSARIAL_TASK, config)
        trace = err.value.trace
        assert len(events_of(trace, "node_start")) == 13
        removods = events_of(trace, "node_removed")
        assert len(removods) == 9
        assert all(e.payload["reason"] == "forced_depth_cap" for e in removods)
        depth_warnings = [
            e for e in events_of(trace, "warning")
            if e.payload["reason"] == "depth_cap_forced_removal"
        ]
        assert len(depth_warnings) == 9
        assert err.value.provider_calls == 213
        assert err.value.provider_calls <= call_budget(config, 1)

    @pytest.mark.parametrize("mode, calls", [("lexical", 639), ("model", 873)])
    def test_worst_case_run_makes_every_budgeted_call_but_final_fusion(self, mode, calls):
        provider = WorstCaseProvider(k=3)
        config = RunConfig(provider=provider, cluster_mode=mode)
        with pytest.raises(AllPathsFailed) as err:
            execute_task(ADVERSARIAL_TASK, config)
        # A failed run never reaches the final fusion, whose tries are the budget's only slack.
        assert err.value.provider_calls == provider.calls == calls
        assert calls == call_budget(config, 1) - (1 + REASK_LIMIT)

    @pytest.mark.parametrize("mode", ["lexical", "model"])
    def test_budget_closed_form_matches_level_sum(self, mode):
        for m in range(1, 5):
            for d in range(6):
                config = RunConfig(provider=None, max_chain=m, max_depth=d, cluster_mode=mode)
                nodes_total = 3 * sum(m**level for level in range(d + 1))
                nodes_splicable = 3 * sum(m**level for level in range(d))
                per_attempt = config.k_rules + (4 if mode == "model" else 2)
                logical = 1 + nodes_total * config.max_reprocess * per_attempt + nodes_total + nodes_splicable + 1
                assert call_budget(config, 3) == logical * (1 + REASK_LIMIT), (m, d)
        started = time.monotonic()
        call_budget(RunConfig(provider=None, max_depth=10**5, cluster_mode=mode), 3)
        assert time.monotonic() - started < 1.0


class TestEmailScenario:
    def run(self, **overrides):
        return execute_task(EMAIL_TASK, mk_config(email_script(), **overrides))

    def test_flow_shape(self):
        outcome = self.run()
        trace = outcome.trace
        plan_events = events_of(trace, "plan")
        assert len(plan_events) == 1
        assert plan_events[0].payload["goal"] == EMAIL_GOAL
        assert len(plan_events[0].payload["subtasks"]) == 4
        assert len(events_of(trace, "node_start")) == 7
        assert len(events_of(trace, "node_done")) == 6
        assert len(events_of(trace, "final")) == 1
        assert outcome.provider_calls == EMAIL_PROVIDER_CALLS

    def test_t1_conflict_and_acceptance(self):
        outcome = self.run()
        rules = [
            e for e in events_of(outcome.trace, "rules_built") if e.payload["node"] == "T1"
        ]
        assert [r["membership"] for r in rules[0].payload["rules"]] == ["H", "M", "ML"]
        fusions = [e for e in events_of(outcome.trace, "fusion") if e.payload["node"] == "T1"]
        for event in fusions:
            assert sorted(c["votes"] for c in event.payload["clusters"]) == [1, 2]
            assert event.payload["layer"] == "votes"
            assert MOVIE_A.lower().startswith(event.payload["answer_text"].lower()[:10])
        done = [e for e in events_of(outcome.trace, "node_done") if e.payload["node"] == "T1"]
        assert done[0].payload["attempts_used"] == 3

    def test_t3_spliced_into_chain(self):
        outcome = self.run()
        spliced = events_of(outcome.trace, "node_spliced")
        assert len(spliced) == 1
        assert spliced[0].payload["chain"] == ["T3a", "T3b", "T3c"]
        assert outcome.graph_final.nodes["T3b"].depth == 1

    def test_final_fusion_consumes_all_terminals(self):
        outcome = self.run()
        assert outcome.final.answer_text == FINAL_EMAIL
        assert outcome.final.contributing_nodes == ("T1", "T2", "T3c", "T4")

    def test_order_respects_edges(self):
        outcome = self.run()
        starts = {e.payload["node"]: e.seq for e in events_of(outcome.trace, "node_start")}
        dones = {e.payload["node"]: e.seq for e in events_of(outcome.trace, "node_done")}
        for a, b in outcome.graph_final.edges:
            if a in dones and b in starts:
                assert dones[a] < starts[b]

    def test_byte_stable_across_runs(self):
        first, second = io.StringIO(), io.StringIO()
        write_trace(self.run(), first)
        write_trace(self.run(), second)
        assert first.getvalue() == second.getvalue()

    def test_schedule_independent(self):
        baseline = trace_text(self.run())
        for cap in (1, 2, 4, 8):
            assert trace_text(self.run(concurrency=cap)) == baseline

    def test_timestamped_trace_is_canonical_json(self):
        config = mk_config(email_script(), deterministic=False)
        lines = trace_text(execute_task(EMAIL_TASK, config, run_id="run-0")).splitlines()
        assert len(lines) > 1
        for line in lines:
            record = json.loads(line)
            assert isinstance(record["timestamp"], float)
            assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


def model_mode_script():
    """Three subtasks under model clustering, c after a and b.

    a's experts word one answer two ways and the fusion expert groups the
    two wordings, so a's winning cluster gets a synthesis call (FEA attempt
    2); b and c answer identically and make none.
    """
    script = {
        ("PA", 1): plan_response(
            "a goal", [("a", "first"), ("b", "second"), ("c", "third")], [("a", "c"), ("b", "c")]
        ),
        ("DAA", 1): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
        ("FEA", 1): assignments_response(["same"] * 3),
        ("GEA", 1): assessment_response("H"),
        ("run-0", "a", "FEA", 1): assignments_response(["dinner", "lion", "dinner"]),
        ("run-0", "a", "FEA", 2): fusion_answer("the consolidated answer"),
        ("run-0", "F", "FEA", 1): fusion_answer("combined"),
    }
    for attempt in (1, 2, 3):
        script[("DEA", attempt)] = candidate_response("some answer")
    answers = (MOVIE_A, MOVIE_B, "Guess Who's Coming to Dinner, released in 1967")
    for attempt, answer in enumerate(answers, 1):
        script[("run-0", "a", "DEA", attempt)] = candidate_response(answer)
    return script


class TestModelClustering:
    def run(self, concurrency=1):
        config = mk_config(model_mode_script(), cluster_mode="model", concurrency=concurrency)
        return execute_task("task", config)

    def test_synthesis_only_for_a_cluster_of_mixed_wordings(self):
        trace = self.run().trace
        fea = [
            (e.payload["context"]["node"], e.payload["context"]["attempt"])
            for e in events_of(trace, "provider_call")
            if e.payload["context"]["role"] == "FEA"
        ]
        assert fea == [("a", 1), ("a", 2), ("b", 1), ("c", 1), ("F", 1)]
        answers = {e.payload["node"]: e.payload["answer_text"] for e in events_of(trace, "fusion")}
        assert answers == {"a": "the consolidated answer", "b": "some answer", "c": "some answer"}

    def test_schedule_independent(self):
        baseline = trace_text(self.run())
        for cap in (4, 8):
            assert trace_text(self.run(concurrency=cap)) == baseline


def repair_script():
    """Two waves of two subtasks (a, b, then c after a and b, d after b).

    a's rule 2 is malformed once, so it re-asks under attempt 4; c fails
    its goal check and is removed; d fails it and is spliced into d1 -> d2.
    REPAIR_FAULTS adds a transport error on b's rule 1.
    """
    script = {
        ("PA", 1): plan_response(
            "a goal",
            [("a", "first"), ("b", "second"), ("c", "third"), ("d", "fourth")],
            [("a", "c"), ("b", "c"), ("b", "d")],
        ),
        ("GEA", 1): assessment_response("H"),
        ("FEA", 1): fusion_answer("combined"),
        ("run-0", "a", "DEA", 2): "garbage",
        ("run-0", "c", "PA", 1): classification_response("irrelevant"),
        ("run-0", "d", "PA", 1): classification_response("too_complex"),
        ("run-0", "d", "PA", 2): plan_response(
            "sub-goal", [("d1", "simpler first"), ("d2", "simpler second")], [("d1", "d2")]
        ),
    }
    for attempt in (1, 2, 3):
        script[("DAA", attempt)] = ruleset_response(
            [("History", "H"), ("Science", "M"), ("Law", "ML")]
        )
        for node in ("c", "d"):
            script[("run-0", node, "GEA", attempt)] = assessment_response("L", "off goal")
    for attempt in range(1, 10):
        script[("DEA", attempt)] = candidate_response("some answer")
    return script


REPAIR_FAULTS = [("run-0", "b", "DEA", 1)]


class Staggered(FaultInjector):
    """Slows node a's calls so that d, a wave later, can finish before a does."""

    def complete(self, request):
        if request.context_key[1] == "a":
            time.sleep(0.002)
        return super().complete(request)


class Handoff(MockProvider):
    """Holds the first call whose context key `holds` matches until a call for node `release` arrives.

    waited is True when the release came within 5 s, False when the wait timed out.
    """

    def __init__(self, script, holds, release):
        super().__init__(script)
        self.holds, self.release = holds, release
        self.released = threading.Event()
        self.waited: bool | None = None

    def complete(self, request):
        if request.context_key[1] == self.release:
            self.released.set()
        elif self.waited is None and self.holds(request.context_key):
            self.waited = self.released.wait(timeout=5)
        return super().complete(request)


class TestScheduler:
    def run(self, provider, **overrides):
        return execute_task("task", RunConfig(provider=provider, deterministic=True, **overrides))

    def test_repair_script_covers_reask_fault_removal_and_splice(self):
        trace = self.run(FaultInjector(repair_script(), REPAIR_FAULTS)).trace
        dea = {
            (e.payload["context"]["node"], e.payload["context"]["attempt"]): e.payload["status"]
            for e in events_of(trace, "provider_call")
            if e.payload["context"]["role"] == "DEA"
        }
        assert dea["a", 2] == "parse_error" and dea["a", 4] == "ok"
        assert dea["b", 1] == "transport_error"
        assert [e.payload["node"] for e in events_of(trace, "node_removed")] == ["c"]
        assert [e.payload["chain"] for e in events_of(trace, "node_spliced")] == [["d1", "d2"]]
        assert events_of(trace, "final")[0].payload["contributing_nodes"] == ["a", "b", "d2"]

    @pytest.mark.parametrize("cap", [1, 2, 4, 8])
    def test_repairs_and_reasks_schedule_independent(self, cap):
        reference = trace_text(self.run(FaultInjector(repair_script(), REPAIR_FAULTS)))
        outcome = self.run(Staggered(repair_script(), REPAIR_FAULTS), concurrency=cap)
        assert trace_text(outcome) == reference

    def test_node_starts_when_its_predecessors_are_done(self):
        # c needs only b; a and b are both in the first wave
        class Gated(MockProvider):
            def __init__(self, script):
                super().__init__(script)
                self.released = threading.Event()
                self.timed_out = False

            def complete(self, request):
                node = request.context_key[1]
                if node == "c":
                    self.released.set()
                elif node == "a" and not self.released.wait(timeout=10):
                    self.timed_out = True  # a wave barrier would hold c until a is done
                    self.released.set()
                return super().complete(request)

        script = dict(SINGLE)
        script[("PA", 1)] = plan_response(
            "a goal", [("a", "first"), ("b", "second"), ("c", "third")], [("b", "c")]
        )
        provider = Gated(script)
        outcome = self.run(provider, concurrency=2)
        assert not provider.timed_out
        assert outcome.final.contributing_nodes == ("a", "c")

    @staticmethod
    def splice_script(failing, others):
        """Each failing node fails every attempt and is replanned into c1 -> c2; the others pass."""
        script = dict(SINGLE)
        script[("PA", 1)] = plan_response("a goal", [(n, f"do {n}") for n in sorted(failing + others)])
        for attempt in range(1, 10):
            script[("DAA", attempt)] = SINGLE[("DAA", 1)]
            script[("DEA", attempt)] = SINGLE[("DEA", 1)]
        for nid in failing:
            for attempt in (1, 2, 3):
                script[("run-0", nid, "GEA", attempt)] = assessment_response("L", "off goal")
            script[("run-0", nid, "PA", 1)] = classification_response("too_complex")
            script[("run-0", nid, "PA", 2)] = plan_response(
                "sub-goal", [("c1", f"{nid} step 1"), ("c2", f"{nid} step 2")], [("c1", "c2")]
            )
        return script

    def test_chain_starts_while_its_wave_still_runs(self):
        # a and z form one wave; a is spliced into c1 -> c2, and z's first call waits for c1
        script = self.splice_script(["a"], ["z"])
        reference = trace_text(self.run(MockProvider(script)))
        provider = Handoff(script, holds=lambda key: key[1] == "z", release="c1")
        outcome = self.run(provider, concurrency=2)
        assert provider.waited  # a commit-time repair would hold c1 until z is done
        assert trace_text(outcome) == reference
        assert outcome.final.contributing_nodes == ("c2", "z")

    def test_same_wave_repairs_keep_commit_order_ids(self):
        # a and b both replan into c1 -> c2; a's replan waits for x, so b finishes first
        script = self.splice_script(["a", "b"], ["x"])
        reference = trace_text(self.run(MockProvider(script)))
        provider = Handoff(script, holds=lambda key: key[1:] == ("a", "PA", 2), release="x")
        outcome = self.run(provider, concurrency=2)
        assert provider.waited
        assert trace_text(outcome) == reference
        chains = {e.payload["node"]: e.payload["chain"] for e in events_of(outcome.trace, "node_spliced")}
        assert chains == {"a": ["c1", "c2"], "b": ["b.c1", "b.c2"]}

    def test_concurrency_one_stays_on_the_calling_thread(self):
        threads_before = threading.active_count()
        seen = []

        class Recording(FaultInjector):
            def complete(self, request):
                seen.append((threading.get_ident(), threading.active_count()))
                return super().complete(request)

        self.run(Recording(repair_script(), REPAIR_FAULTS), concurrency=1)
        assert set(seen) == {(threading.get_ident(), threads_before)}

    @pytest.mark.parametrize("cap", [2, 4])
    def test_in_flight_calls_stay_within_cap_times_k(self, cap):
        lock = threading.Lock()
        in_flight = [0, 0]  # current, peak

        class Counting(FaultInjector):
            def complete(self, request):
                with lock:
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight[1], in_flight[0])
                try:
                    time.sleep(0.001)
                    return super().complete(request)
                finally:
                    with lock:
                        in_flight[0] -= 1

        self.run(Counting(repair_script(), REPAIR_FAULTS), concurrency=cap)
        assert in_flight[1] <= cap * 3

    def test_stress_many_workers_short_switch_interval(self):
        # 12 nodes in flight on 2 cores, each with 3 expert threads, reading
        # one results map; a lost update shows as a changed trace or a
        # repeated context key
        script = dict(SINGLE)
        script[("PA", 1)] = plan_response("a goal", [(f"w{i:02}", f"step {i}") for i in range(12)])
        script[("run-0", "w03", "DEA", 2)] = "garbage"
        script[("DEA", 4)] = candidate_response("the answer")
        reference = trace_text(self.run(MockProvider(script)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = [self.run(MockProvider(script), concurrency=12) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for outcome in outcomes:
            assert trace_text(outcome) == reference
            calls = events_of(outcome.trace, "provider_call")
            keys = [tuple(e.payload["context"].values()) for e in calls]
            assert len(keys) == len(set(keys)) == 12 * 5 + 3  # 5 per node, a re-ask, plan, fusion

    def test_worker_exception_raised_at_commit(self):
        script = repair_script()
        del script[("run-0", "d", "PA", 2)]  # d's replan misses the script
        with pytest.raises(ScriptMiss):
            self.run(MockProvider(script), concurrency=2)

    def test_first_error_in_commit_order_is_raised(self, monkeypatch):
        script = {
            ("PA", 1): plan_response("a goal", [("a", "first"), ("b", "second")]),
            ("DAA", 1): ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")]),
            ("GEA", 1): assessment_response("L", "off goal"),  # so a and b each ask for a second ruleset
            **{("DEA", attempt): candidate_response("some answer") for attempt in (1, 2, 3)},
        }
        config = RunConfig(provider=MockProvider(script), deterministic=True)

        def run():
            try:
                execute_task("task", config)
            except ScriptMiss as exc:
                return str(exc)

        raised = explore_schedules(monkeypatch, 2, run)
        assert len(raised) == 2  # b's miss comes back first in one of the two orders
        assert set(raised) == {"mock script has no entry for ('run-0', 'a', 'DAA', 2)"}


def finish_within(seconds, fn):
    """fn() on a daemon thread: what it returns, or what it raised; fails if it runs past `seconds`."""
    box = []

    def target():
        try:
            box.append((fn(), None))
        except BaseException as exc:
            box.append((None, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    value, error = box[0]
    if error is not None:
        raise error
    return value


TWO_NODES = {
    ("PA", 1): plan_response("a goal", [("a", "first"), ("b", "second")]),
    **{key: SINGLE[key] for key in SINGLE if key[0] != "PA"},
}


class Halt(BaseException):
    """Not an Exception, so _run_node does not keep it."""


class TestRunPool:
    def test_map_runs_the_first_item_on_the_calling_thread(self):
        def caller_and_results():
            return threading.get_ident(), pool.map(lambda i: (i, threading.get_ident()), range(3))

        pool = RunPool(2)
        try:
            caller, results = finish_within(10, caller_and_results)
        finally:
            pool.close()
        assert [i for i, _ in results] == [0, 1, 2]
        assert results[0][1] == caller and caller not in {results[1][1], results[2][1]}

    def test_map_raises_the_first_error_in_item_order(self):
        second_raised = threading.Event()

        def fn(i):
            if i == 1:
                second_raised.wait(timeout=5)  # item 2 raises first
                raise ValueError("item 1")
            if i == 2:
                second_raised.set()
                raise KeyError("item 2")
            return i

        pool = RunPool(2)
        try:
            with pytest.raises(ValueError, match="item 1"):
                finish_within(10, lambda: pool.map(fn, range(3)))
        finally:
            pool.close()

    def test_close_runs_queued_jobs_then_refuses_new_ones(self):
        pool = RunPool(1)
        replies = queue.SimpleQueue()

        def held():
            deadline = time.monotonic() + 5
            while not pool.closed and time.monotonic() < deadline:
                time.sleep(0.001)
            return pool.closed

        pool.submit((replies, "held", held, ()), (replies, "queued", str, (1,)))  # queued waits for close
        finish_within(10, pool.close)
        assert [replies.get_nowait() for _ in range(2)] == [("held", True, None), ("queued", "1", None)]
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit((replies, "late", str, (2,)))
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(str, [1])  # even one item, which would queue no job
        assert replies.empty()


class TestPooledRunThreads:
    """Real threads at concurrency 2: errors reach execute_task and the pool's threads end with the run."""

    @staticmethod
    def run(provider):
        config = RunConfig(provider=provider, deterministic=True, concurrency=2)
        return finish_within(10, lambda: execute_task("task", config))

    def test_script_miss_on_a_helper_thread_is_raised(self):
        threads = {}

        class MissOnHelper(MockProvider):
            def complete(self, request):
                _, _, role, attempt = request.context_key
                if role == "DEA":
                    threads[attempt] = threading.get_ident()
                    if attempt == 3:
                        raise ScriptMiss("no entry for the third expert")
                return super().complete(request)

        before = threading.active_count()
        with pytest.raises(ScriptMiss, match="third expert"):
            self.run(MissOnHelper(SINGLE))
        assert threads[3] not in (threads[1], threading.get_ident())  # first try on the node's thread
        assert threading.active_count() == before

    def test_threads_end_after_success_and_kept_error(self):
        before = threading.active_count()
        self.run(FaultInjector(repair_script(), REPAIR_FAULTS))
        assert threading.active_count() == before
        script = repair_script()
        del script[("run-0", "d", "PA", 2)]  # d's replan misses the script
        with pytest.raises(ScriptMiss):
            self.run(MockProvider(script))
        assert threading.active_count() == before

    def test_threads_end_after_an_error_while_a_sibling_is_mid_batch(self, monkeypatch):
        # a's ruleset misses at once; b's second expert try holds until the pool is closing
        closing = threading.Event()
        close = RunPool.close

        def close_after_signal(pool):
            closing.set()
            close(pool)

        monkeypatch.setattr(RunPool, "close", close_after_signal)

        class SiblingMidBatch(MockProvider):
            waited = None

            def complete(self, request):
                _, node, role, attempt = request.context_key
                if (node, role) == ("a", "DAA"):
                    raise ScriptMiss("no ruleset for a")
                if (node, role, attempt) == ("b", "DEA", 2):
                    self.waited = closing.wait(timeout=5)
                return super().complete(request)

        provider = SiblingMidBatch(TWO_NODES)
        before = threading.active_count()
        with pytest.raises(ScriptMiss, match="no ruleset for a"):
            self.run(provider)
        assert provider.waited is True
        assert threading.active_count() == before

    def test_exception_past_run_node_reaches_the_run_loop(self):
        class Halting(MockProvider):
            def complete(self, request):
                if request.context_key[2] == "GEA":
                    raise Halt()
                return super().complete(request)

        before = threading.active_count()
        with pytest.raises(Halt):
            self.run(Halting(TWO_NODES))
        assert threading.active_count() == before


class TestTraceWriting:
    def test_broken_sink_raises_os_error(self):
        class BrokenSink:
            def write(self, data):
                raise OSError("disk full")

        outcome = execute_task("task", mk_config(SINGLE))
        with pytest.raises(OSError, match="disk full"):
            write_trace(outcome, BrokenSink())

    def test_one_line_per_event(self):
        outcome = execute_task("task", mk_config(SINGLE))
        sink = io.StringIO()
        write_trace(outcome, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == len(outcome.trace)
        assert all(line.startswith('{"kind":') or line.startswith('{"') for line in lines)

    def test_timestamps_absent_in_deterministic_mode(self):
        events = execute_task("task", mk_config(SINGLE)).trace
        assert all(e.timestamp is None for e in events)
        sink = io.StringIO()
        write_trace_events(events, sink)
        assert '"timestamp"' not in sink.getvalue()

    def test_timestamps_present_outside_deterministic_mode(self):
        config = RunConfig(provider=MockProvider(SINGLE), deterministic=False)
        events = execute_task("task", config).trace
        assert all(type(e.timestamp) is float for e in events)
        sink = io.StringIO()
        write_trace_events(events, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == len(events)
        assert all("timestamp" in json.loads(line) for line in lines)

    def test_event_missing_a_field_is_refused(self):
        tracer = _Tracer(deterministic=True)
        with pytest.raises(ValueError, match=r"^trace event 'node_start' missing fields \['depth'\]$"):
            tracer.flush([("node_start", {"node": "T1", "statement": "s"})])
        assert tracer.events == []

    def test_event_of_an_unknown_kind_is_refused(self):
        tracer = _Tracer(deterministic=True)
        with pytest.raises(ValueError, match=r"^unknown trace event kind 'bogus'$"):
            tracer.flush([("bogus", {"node": "T1"})])
        assert tracer.events == []

    def test_payload_with_a_cycle_raises_recursion_error(self):
        payload = {"reason": "loop"}
        payload["self"] = payload
        with pytest.raises(RecursionError):
            write_trace_events([TraceEvent(1, "warning", payload)], io.StringIO())

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_hard_text_is_written_as_canonical_json(self, deterministic):
        hard = 'caf\u00e9 \u00ab\u03bb\u00bb \u2603 \U0001d11e "quoted" back\\slash\nline\x07bell\u2028sep'
        script = {
            **SINGLE,
            ("PA", 1): plan_response(f"goal: {hard}", [("s1", f"step: {hard}")]),
            ("FEA", 1): fusion_answer(f"final: {hard}"),
        }
        for attempt in (1, 2, 3):
            script[("DEA", attempt)] = candidate_response(f"answer: {hard}")
        outcome = execute_task(f"task: {hard}", mk_config(script, deterministic=deterministic), run_id="run-0")
        assert outcome.final.answer_text == f"final: {hard}"
        lines = trace_text(outcome).splitlines()
        assert len(lines) == len(outcome.trace)
        for line, event in zip(lines, outcome.trace):
            assert line.isascii()
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
            record = {"seq": event.seq, "kind": event.kind, "payload": event.payload}
            if event.timestamp is not None:
                record["timestamp"] = event.timestamp
            assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert any(hard in e.payload.get("answer_text", "") for e in outcome.trace)

    def test_run_id_outside_deterministic_mode_is_fresh_hex(self):
        config = RunConfig(provider=MockProvider(SINGLE), deterministic=False)
        traces = [execute_task("task", config).trace for _ in range(2)]
        run_ids = [{e.payload["context"]["run"] for e in events_of(trace, "provider_call")} for trace in traces]
        assert all(len(ids) == 1 and re.fullmatch("[0-9a-f]{12}", *ids) for ids in run_ids)
        assert run_ids[0] != run_ids[1]


class TestConfigValidation:
    def test_bad_values_rejected(self):
        for kwargs in (
            {"k_rules": 0},
            {"max_reprocess": 0},
            {"max_depth": -1},
            {"max_chain": 0},
            {"concurrency": 0},
            {"cluster_mode": "psychic"},
            {"domains": ()},
            {"k_rules": 50},
            {"temperatures": {"DEA": 0.1}},
            {"max_reprocess": 2.5},
            {"concurrency": 1.5},
            {"max_depth": "2"},
            {"k_rules": True},
            {"deterministic": 1},
            {"threshold": "ML"},
            {"domains": "History"},
            {"domains": ("History", "", "Biology", "Law")},
            {"temperatures": {RoleKind.PA: "hot"}},
            {"temperatures": {RoleKind.PA: float("nan")}},
            {"temperatures": {RoleKind.GEA: float("inf")}},
            {"temperatures": None},
            {"temperatures": [(RoleKind.PA, 0.2)]},
            {"temperatures": "PA"},
        ):
            with pytest.raises(ConfigError):
                mk_config(SINGLE, **kwargs).validate()

    def test_deterministic_requires_scripted_provider(self):
        class NotScripted:
            scripted = False

        with pytest.raises(ConfigError):
            RunConfig(provider=NotScripted(), deterministic=True).validate()

    def test_partial_temperatures_keep_the_other_defaults(self):
        sent = {}

        class Recorder(MockProvider):
            def complete(self, request):
                sent.setdefault(request.role_kind, request.temperature)
                return super().complete(request)

        temperatures = {RoleKind.PA: 0.2}
        execute_task("task", RunConfig(provider=Recorder(SINGLE), temperatures=temperatures))
        assert sent == {
            RoleKind.PA: 0.2,
            RoleKind.DAA: 0.0,
            RoleKind.DEA: 0.7,
            RoleKind.GEA: 0.0,
            RoleKind.FEA: 0.0,
        }

    def test_empty_task_rejected(self):
        with pytest.raises(ConfigError):
            execute_task("   ", mk_config(SINGLE))
