import io
import sys
import threading
import time

import pytest

from helpers import (
    assessment_response,
    candidate_response,
    classification_response,
    fusion_answer,
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
    adversarial_script,
    email_script,
)
from rulegraph.agents import MockProvider, ScriptMiss, TransportError
from rulegraph.engine import (
    AllPathsFailed,
    ConfigError,
    PlanningFailure,
    RunConfig,
    call_budget,
    execute_task,
    write_trace,
    write_trace_events,
)


def mk_config(script, **overrides):
    return RunConfig(provider=MockProvider(script), deterministic=True, **overrides)


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
        provider = FaultInjector(script, [("run-0", "s1", "DAA", 1)])
        outcome = execute_task("task", RunConfig(provider=provider, deterministic=True))
        warnings = [e.payload["reason"] for e in events_of(outcome.trace, "warning")]
        assert "attempt_failed" in warnings
        assert events_of(outcome.trace, "node_done")[0].payload["attempts_used"] == 2

    def test_planning_failure_carries_partial_trace(self):
        script = {("PA", n): "garbage" for n in (1, 2, 3)}
        with pytest.raises(PlanningFailure) as err:
            execute_task("task", mk_config(script))
        kinds = [e.kind for e in err.value.trace]
        assert kinds.count("provider_call") == 3
        assert kinds[-1] == "warning"
        assert err.value.provider_calls == 3


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
        assert outcome.graph_final.node("T3b").depth == 1

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
        # 12 nodes in flight on 2 cores, each with 3 expert threads, sharing
        # one attempt ledger and one results map; a lost update shows as a
        # changed trace or a repeated context key
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


class TestTraceWriting:
    def test_broken_sink_raises_sink_unavailable(self):
        from rulegraph.engine import SinkUnavailable

        class BrokenSink:
            def write(self, data):
                raise OSError("disk full")

        outcome = execute_task("task", mk_config(SINGLE))
        with pytest.raises(SinkUnavailable):
            write_trace(outcome, BrokenSink())

    def test_one_line_per_event(self):
        outcome = execute_task("task", mk_config(SINGLE))
        sink = io.StringIO()
        write_trace(outcome, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == len(outcome.trace)
        assert all(line.startswith('{"kind":') or line.startswith('{"') for line in lines)

    def test_timestamps_present_outside_deterministic_mode(self):
        events = execute_task("task", mk_config(SINGLE)).trace
        assert all(e.timestamp is None for e in events)
        sink = io.StringIO()
        write_trace_events(events, sink)
        assert '"timestamp"' not in sink.getvalue()


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
        ):
            with pytest.raises(ConfigError):
                mk_config(SINGLE, **kwargs).validate()

    def test_deterministic_requires_scripted_provider(self):
        class NotScripted:
            scripted = False

        with pytest.raises(ConfigError):
            RunConfig(provider=NotScripted(), deterministic=True).validate()

    def test_empty_task_rejected(self):
        with pytest.raises(ConfigError):
            execute_task("   ", mk_config(SINGLE))
