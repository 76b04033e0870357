import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import assessment_response, candidate_response, ruleset_response, session_for
from rulegraph.agents import (
    MockProvider,
    ProviderFailure,
    TransportError,
)
from rulegraph.graph import TaskNode
from rulegraph.membership import MembershipLabel
from rulegraph.rules import (
    DEFAULT_DOMAINS,
    construct_rules,
    run_global_rule,
    run_rules,
)

T1 = TaskNode("T1", "For which movie did the actress win her second award?")
GOAL = "discuss the actress's experience and craft"


class RecordingMock(MockProvider):
    def __init__(self, script):
        super().__init__(script)
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.rendered_prompt)
        return super().complete(request)


T1_RULES = ruleset_response(
    [("Entertainment and Media", "H"), ("History", "M"), ("Biology", "ML")]
)


class TestConstructRules:
    def test_three_rules_with_expected_memberships(self):
        provider = MockProvider({("DAA", 1): T1_RULES})
        rules = construct_rules(T1, DEFAULT_DOMAINS, 3, session=session_for(provider))
        assert isinstance(rules, tuple)
        assert [r.index for r in rules] == [1, 2, 3]
        assert [r.domain_name for r in rules] == [
            "Entertainment and Media",
            "History",
            "Biology",
        ]
        assert [r.membership for r in rules] == [
            MembershipLabel.H,
            MembershipLabel.M,
            MembershipLabel.ML,
        ]

    def test_k_one(self):
        provider = MockProvider({("DAA", 1): ruleset_response([("History", "SH")])})
        rules = construct_rules(T1, DEFAULT_DOMAINS, 1, session=session_for(provider))
        assert len(rules) == 1

    def test_feedback_travels_verbatim_with_statement(self):
        provider = RecordingMock({("DAA", 1): T1_RULES})
        feedback = "answer drifted from the acting career focus"
        construct_rules(T1, DEFAULT_DOMAINS, 3, feedback, session=session_for(provider))
        assert T1.statement in provider.prompts[0]
        assert feedback in provider.prompts[0]

    def test_domain_outside_catalog_reasks_then_fails(self):
        off_catalog = ruleset_response([("Astrology", "H")])
        provider = MockProvider({("DAA", n): off_catalog for n in (1, 2, 3)})
        with pytest.raises(ProviderFailure, match="response still invalid after 2 re-asks"):
            construct_rules(T1, DEFAULT_DOMAINS, 1, session=session_for(provider))

    def test_duplicate_domains_rejected(self):
        dupes = ruleset_response([("History", "H"), ("History", "M")])
        good = ruleset_response([("History", "H"), ("Biology", "M")])
        provider = MockProvider({("DAA", 1): dupes, ("DAA", 2): good})
        rules = construct_rules(T1, DEFAULT_DOMAINS, 2, session=session_for(provider))
        assert len({r.domain_name for r in rules}) == 2

    def test_wrong_rule_count_rejected(self):
        provider = MockProvider(
            {("DAA", 1): ruleset_response([("History", "H")]), ("DAA", 2): T1_RULES}
        )
        rules = construct_rules(T1, DEFAULT_DOMAINS, 3, session=session_for(provider))
        assert len(rules) == 3


def built_rules(provider):
    return construct_rules(T1, DEFAULT_DOMAINS, 3, session=session_for(provider))


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
        rules = built_rules(provider)
        candidates = run_rules(rules, T1.statement, ["the original task"], session=session)
        assert [c.rule_index for c in candidates] == [1, 2, 3]
        assert [c.answer_text for c in candidates] == [MOVIE_A, MOVIE_B, MOVIE_A]
        assert [c.membership for c in candidates] == [r.membership for r in rules]

    def test_single_rule(self):
        provider = MockProvider(
            {
                ("DAA", 1): ruleset_response([("History", "H")]),
                ("DEA", 1): candidate_response("answer"),
            }
        )
        session = session_for(provider)
        rules = construct_rules(T1, DEFAULT_DOMAINS, 1, session=session)
        candidates = run_rules(rules, T1.statement, [], session=session)
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
        rules = built_rules(provider)
        candidates = run_rules(rules, T1.statement, [], session=session)
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
        rules = built_rules(provider)
        session = session_for(provider)
        session.run.pool = pool
        return run_rules(rules, T1.statement, [], session=session), session.events

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
        rules = construct_rules(T1, DEFAULT_DOMAINS, 1, session=session)
        with pytest.raises(ProviderFailure, match="all 1 rules failed for T1"):
            run_rules(rules, T1.statement, [], session=session)

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
            rules = built_rules(provider)
            return run_rules(rules, T1.statement, [], session=session)

        assert one_run() == one_run()


class TestGlobalRule:
    def fused(self, text="a plain first-pass answer"):
        return text

    def test_low_assessment_carries_diff(self):
        provider = MockProvider({("GEA", 1): assessment_response("L", "misses the career focus")})
        assessment = run_global_rule(GOAL, MembershipLabel.ML, self.fused(), session=session_for(provider))
        assert assessment.membership is MembershipLabel.L
        assert assessment.diff_text == "misses the career focus"

    def test_pass_needs_no_diff(self):
        provider = MockProvider({("GEA", 1): assessment_response("H")})
        assessment = run_global_rule(GOAL, MembershipLabel.ML, self.fused(), session=session_for(provider))
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
            run_global_rule(GOAL, MembershipLabel.ML, self.fused(), session=session).membership.token
            for _ in range(3)
        ]
        assert tokens == ["L", "Lr", "H"]

    def test_threshold_below_ml_accepts_pass_without_diff(self):
        provider = MockProvider({("GEA", 1): assessment_response("Lr")})
        session = session_for(provider)
        assessment = run_global_rule(GOAL, MembershipLabel.LR, self.fused(), session=session)
        assert assessment.membership is MembershipLabel.LR
        assert assessment.diff_text == ""
        assert [p["status"] for _, p in session.events] == ["ok"]

    def test_low_without_diff_is_reasked_at_ml(self):
        provider = MockProvider(
            {
                ("GEA", 1): assessment_response("L"),
                ("GEA", 2): assessment_response("L", "off the goal"),
            }
        )
        session = session_for(provider)
        assessment = run_global_rule(GOAL, MembershipLabel.ML, self.fused(), session=session)
        assert assessment.diff_text == "off the goal"
        assert [p["status"] for _, p in session.events] == ["rejected", "ok"]

    def test_threshold_l_accepts_low_without_diff(self):
        provider = MockProvider({("GEA", 1): assessment_response("L")})
        session = session_for(provider)
        assessment = run_global_rule(GOAL, MembershipLabel.L, self.fused(), session=session)
        assert assessment.membership is MembershipLabel.L
        assert assessment.diff_text == ""
        assert [p["status"] for _, p in session.events] == ["ok"]

    def test_custom_threshold_requires_diff_below_it(self):
        provider = MockProvider(
            {
                # ML is below an M threshold, so a missing diff must be re-asked
                ("GEA", 1): assessment_response("ML"),
                ("GEA", 2): assessment_response("ML", "close but shallow"),
            }
        )
        assessment = run_global_rule(GOAL, MembershipLabel.M, self.fused(), session=session_for(provider))
        assert assessment.diff_text == "close but shallow"

    @pytest.mark.parametrize(
        "label, threshold, passed",
        [
            (MembershipLabel.LR, MembershipLabel.ML, False),
            (MembershipLabel.ML, MembershipLabel.ML, True),
            (MembershipLabel.H, MembershipLabel.ML, True),
            (MembershipLabel.L, MembershipLabel.H, False),
        ],
    )
    def test_verdict_fails_only_strictly_below_threshold(self, label, threshold, passed):
        provider = MockProvider({("GEA", 1): assessment_response(label.token, "off goal")})
        assessment = run_global_rule(GOAL, threshold, self.fused(), session=session_for(provider))
        assert assessment.passed is passed
