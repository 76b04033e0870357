import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import assessment_response, candidate_response, ruleset_response
from rulegraph.agents import (
    AttemptLedger,
    MalformedAnalysis,
    MockProvider,
    NodeSession,
    TransportError,
)
from rulegraph.graph import NodeKind, TaskNode
from rulegraph.membership import MembershipLabel
from rulegraph.rules import (
    DEFAULT_DOMAINS,
    AllRulesFailed,
    GlobalRule,
    RuleSet,
    construct_rules,
    run_global_rule,
    run_rules,
)

T1 = TaskNode("T1", NodeKind.SUBTASK, "For which movie did the actress win her second award?")
GLOBAL = GlobalRule(goal="discuss the actress's experience and craft")


class RecordingMock(MockProvider):
    def __init__(self, script):
        super().__init__(script)
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.rendered_prompt)
        return super().complete(request)


def session_for(provider, node_id="T1"):
    return NodeSession(run_id="run-0", node_id=node_id, provider=provider, ledger=AttemptLedger())


T1_RULES = ruleset_response(
    [("Entertainment and Media", "H"), ("History", "M"), ("Biology", "ML")]
)


class TestConstructRules:
    def test_three_rules_with_expected_memberships(self):
        provider = MockProvider({("DAA", 1): T1_RULES})
        ruleset = construct_rules(
            T1, DEFAULT_DOMAINS, 3, global_rule=GLOBAL, session=session_for(provider)
        )
        assert isinstance(ruleset, RuleSet)
        assert [r.index for r in ruleset.rules] == [1, 2, 3]
        assert [r.domain_name for r in ruleset.rules] == [
            "Entertainment and Media",
            "History",
            "Biology",
        ]
        assert [r.membership for r in ruleset.rules] == [
            MembershipLabel.H,
            MembershipLabel.M,
            MembershipLabel.ML,
        ]
        assert ruleset.global_rule is GLOBAL

    def test_k_one(self):
        provider = MockProvider({("DAA", 1): ruleset_response([("History", "SH")])})
        ruleset = construct_rules(
            T1, DEFAULT_DOMAINS, 1, global_rule=GLOBAL, session=session_for(provider)
        )
        assert len(ruleset.rules) == 1

    def test_feedback_travels_verbatim_with_statement(self):
        provider = RecordingMock({("DAA", 1): T1_RULES})
        feedback = "answer drifted from the acting career focus"
        construct_rules(
            T1, DEFAULT_DOMAINS, 3, feedback, global_rule=GLOBAL, session=session_for(provider)
        )
        assert T1.statement in provider.prompts[0]
        assert feedback in provider.prompts[0]

    def test_domain_outside_catalog_reasks_then_fails(self):
        off_catalog = ruleset_response([("Astrology", "H")])
        provider = MockProvider({("DAA", n): off_catalog for n in (1, 2, 3)})
        with pytest.raises(MalformedAnalysis):
            construct_rules(T1, DEFAULT_DOMAINS, 1, global_rule=GLOBAL, session=session_for(provider))

    def test_duplicate_domains_rejected(self):
        dupes = ruleset_response([("History", "H"), ("History", "M")])
        good = ruleset_response([("History", "H"), ("Biology", "M")])
        provider = MockProvider({("DAA", 1): dupes, ("DAA", 2): good})
        ruleset = construct_rules(
            T1, DEFAULT_DOMAINS, 2, global_rule=GLOBAL, session=session_for(provider)
        )
        assert len({r.domain_name for r in ruleset.rules}) == 2

    def test_wrong_rule_count_rejected(self):
        provider = MockProvider(
            {("DAA", 1): ruleset_response([("History", "H")]), ("DAA", 2): T1_RULES}
        )
        ruleset = construct_rules(
            T1, DEFAULT_DOMAINS, 3, global_rule=GLOBAL, session=session_for(provider)
        )
        assert len(ruleset.rules) == 3


def built_ruleset(provider):
    return construct_rules(T1, DEFAULT_DOMAINS, 3, global_rule=GLOBAL, session=session_for(provider))


MOVIE_A = "Guess Who's Coming to Dinner (1967)"
MOVIE_B = "The Lion in Winter (1968)"


class TestRunRules:
    def test_every_rule_executes_and_membership_is_preserved(self):
        provider = MockProvider(
            {
                ("DAA", 1): T1_RULES,
                ("DEA", 1): candidate_response(MOVIE_A),
                ("DEA", 2): candidate_response(MOVIE_B),
                ("DEA", 3): candidate_response(MOVIE_A),
            }
        )
        session = session_for(provider)
        ruleset = built_ruleset(provider)
        candidates = run_rules(ruleset, T1.statement, ["the original task"], session=session)
        assert [c.rule_index for c in candidates] == [1, 2, 3]
        assert [c.answer_text for c in candidates] == [MOVIE_A, MOVIE_B, MOVIE_A]
        assert [c.membership for c in candidates] == [r.membership for r in ruleset.rules]

    def test_single_rule(self):
        provider = MockProvider(
            {
                ("DAA", 1): ruleset_response([("History", "H")]),
                ("DEA", 1): candidate_response("answer"),
            }
        )
        session = session_for(provider)
        ruleset = construct_rules(T1, DEFAULT_DOMAINS, 1, global_rule=GLOBAL, session=session)
        candidates = run_rules(ruleset, T1.statement, [], session=session)
        assert len(candidates) == 1 and candidates[0].rule_index == 1

    def test_one_failed_rule_degrades_gracefully(self):
        provider = MockProvider(
            {
                ("DAA", 1): T1_RULES,
                ("DEA", 1): candidate_response(MOVIE_A),
                # first tries take attempts 1-3 in rule order; rule 2 stays
                # malformed through its re-asks, numbered after them (4-5)
                ("DEA", 2): "garbage",
                ("DEA", 3): candidate_response(MOVIE_A),
                ("DEA", 4): "garbage",
                ("DEA", 5): "garbage",
            }
        )
        session = session_for(provider)
        ruleset = built_ruleset(provider)
        candidates = run_rules(ruleset, T1.statement, [], session=session)
        assert [c.rule_index for c in candidates] == [1, 3]
        warnings = [p for kind, p in session.events if kind == "warning"]
        assert len(warnings) == 1 and warnings[0]["rule_index"] == 2

    def fan_out_script(self):
        return {
            ("DAA", 1): T1_RULES,
            ("DEA", 1): "garbage",  # rule 1 re-asks under attempts 4 and 5
            ("DEA", 2): candidate_response(MOVIE_B),
            ("DEA", 3): candidate_response(MOVIE_A),
            ("DEA", 4): "garbage",
            ("DEA", 5): candidate_response(MOVIE_A),
        }

    def run_with(self, provider, pool=None):
        ruleset = built_ruleset(provider)
        session = session_for(provider)
        session.pool = pool
        return run_rules(ruleset, T1.statement, [], session=session), session.events

    def test_rule_events_stay_together_in_rule_order(self):
        candidates, events = self.run_with(MockProvider(self.fan_out_script()))
        assert [c.answer_text for c in candidates] == [MOVIE_A, MOVIE_B, MOVIE_A]
        attempts = [p["context"]["attempt"] for kind, p in events if kind == "provider_call"]
        assert attempts == [1, 4, 5, 2, 3]

    def test_fan_out_matches_serial(self):
        class Faulty(MockProvider):
            def complete(self, request):
                if request.context_key == ("run-0", "T1", "DEA", 2):
                    raise TransportError("injected outage")
                return super().complete(request)

        serial = self.run_with(Faulty(self.fan_out_script()))
        with ThreadPoolExecutor(3) as pool:
            fanned = self.run_with(Faulty(self.fan_out_script()), pool)
        assert fanned == serial
        warnings = [p for kind, p in serial[1] if kind == "warning"]
        assert [w["rule_index"] for w in warnings] == [2]

    def test_first_tries_are_in_flight_together(self):
        barrier = threading.Barrier(3, timeout=10)

        class Gathering(MockProvider):
            def complete(self, request):
                if request.context_key[2] == "DEA":
                    barrier.wait()  # breaks unless all three first tries arrive
                return super().complete(request)

        script = {
            ("DAA", 1): T1_RULES,
            **{("DEA", n): candidate_response(MOVIE_A) for n in (1, 2, 3)},
        }
        with ThreadPoolExecutor(3) as pool:
            candidates, _ = self.run_with(Gathering(script), pool)
        assert len(candidates) == 3

    def test_all_rules_failed(self):
        provider = MockProvider(
            {("DAA", 1): ruleset_response([("History", "H")]), **{("DEA", n): "junk" for n in (1, 2, 3)}}
        )
        session = session_for(provider)
        ruleset = construct_rules(T1, DEFAULT_DOMAINS, 1, global_rule=GLOBAL, session=session)
        with pytest.raises(AllRulesFailed):
            run_rules(ruleset, T1.statement, [], session=session)

    def test_referential_transparency_with_mock(self):
        script = {
            ("DAA", 1): T1_RULES,
            ("DEA", 1): candidate_response(MOVIE_A),
            ("DEA", 2): candidate_response(MOVIE_B),
            ("DEA", 3): candidate_response(MOVIE_A),
        }

        def one_run():
            provider = MockProvider(script)
            session = session_for(provider)
            ruleset = built_ruleset(provider)
            return run_rules(ruleset, T1.statement, [], session=session)

        assert one_run() == one_run()


class TestGlobalRule:
    def fused(self, text="a plain first-pass answer"):
        from rulegraph.fusion import SemanticCluster, SubtaskResult
        from rulegraph.rules import CandidateResult

        member = CandidateResult(1, "History", MembershipLabel.H, text, "key")
        return SubtaskResult("T1", text, SemanticCluster("key", (member,)))

    def test_low_assessment_carries_diff(self):
        provider = MockProvider({("GEA", 1): assessment_response("L", "misses the career focus")})
        assessment = run_global_rule(GLOBAL, self.fused(), session=session_for(provider))
        assert assessment.membership is MembershipLabel.L
        assert assessment.diff_text == "misses the career focus"

    def test_pass_needs_no_diff(self):
        provider = MockProvider({("GEA", 1): assessment_response("H")})
        assessment = run_global_rule(GLOBAL, self.fused(), session=session_for(provider))
        assert assessment.membership is MembershipLabel.H
        assert assessment.diff_text == ""

    def test_scripted_sequence_in_order(self):
        provider = MockProvider(
            {
                ("GEA", 1): assessment_response("L", "d1"),
                ("GEA", 2): assessment_response("Lr", "d2"),
                ("GEA", 3): assessment_response("H"),
            }
        )
        session = session_for(provider)
        tokens = [
            run_global_rule(GLOBAL, self.fused(), session=session).membership.token
            for _ in range(3)
        ]
        assert tokens == ["L", "Lr", "H"]

    def test_threshold_below_ml_accepts_pass_without_diff(self):
        rule = GlobalRule(goal=GLOBAL.goal, threshold=MembershipLabel.LR)
        provider = MockProvider({("GEA", 1): assessment_response("Lr")})
        session = session_for(provider)
        assessment = run_global_rule(rule, self.fused(), session=session)
        assert assessment.membership is MembershipLabel.LR
        assert assessment.diff_text == ""
        assert [p["status"] for _, p in session.events] == ["ok"]

    def test_custom_threshold_requires_diff_below_it(self):
        rule = GlobalRule(goal=GLOBAL.goal, threshold=MembershipLabel.M)
        provider = MockProvider(
            {
                # ML is below an M threshold, so a missing diff must be re-asked
                ("GEA", 1): assessment_response("ML"),
                ("GEA", 2): assessment_response("ML", "close but shallow"),
            }
        )
        assessment = run_global_rule(rule, self.fused(), session=session_for(provider))
        assert assessment.diff_text == "close but shallow"
