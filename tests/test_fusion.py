import random
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assignments_response, fusion_answer, json_doc, session_for
from rulegraph.agents import MockProvider, ProviderResponse
from rulegraph.fusion import (
    _PUNCT_TABLE,
    FinalResult,
    SemanticCluster,
    cluster_candidates,
    fuse_final,
    fuse_subtask,
    lexical_key,
    resolve_conflict,
)
from rulegraph.graph import TaskNode
from rulegraph.membership import MembershipLabel
from rulegraph.rules import CandidateResult

MOVIE_A = "Guess Who's Coming to Dinner (1967)"
MOVIE_B = "The Lion in Winter (1968)"
T1 = TaskNode("T1", "Which movie won the second award?")

H, SH, M, ML, LR, L = (
    MembershipLabel.H,
    MembershipLabel.SH,
    MembershipLabel.M,
    MembershipLabel.ML,
    MembershipLabel.LR,
    MembershipLabel.L,
)


def cand(index, membership, answer, domain="History"):
    return CandidateResult(index, domain, membership, answer)


def movie_candidates():
    return [cand(1, H, MOVIE_A, "Entertainment and Media"), cand(2, M, MOVIE_B), cand(3, ML, MOVIE_A, "Biology")]


# Three cluster keys, some of them blank; a list of three JSON values; or any JSON value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ASSIGNMENTS = (
    st.lists(st.sampled_from(["k1", " k2 ", "k3", " "]), min_size=3, max_size=3)
    | st.lists(JSON_VALUES, min_size=3, max_size=3)
    | JSON_VALUES
)


def winning_cluster(session):
    """The winner's entry in the one fusion event fuse_subtask emitted."""
    [event] = [p for kind, p in session.events if kind == "fusion"]
    [winner] = [c for c in event["clusters"] if c["key"] == event["winner_key"]]
    return winner


class TestLexicalKey:
    def test_normalization(self):
        assert lexical_key("  ABC. ") == lexical_key("abc") == "abc"

    def test_punctuation_and_whitespace_collapse(self):
        assert lexical_key("Guess Who's   Coming, to Dinner!") == "guess whos coming to dinner"

    def test_punctuation_table_strips_string_punctuation(self):
        assert _PUNCT_TABLE == str.maketrans("", "", string.punctuation)


class TestClusterCandidates:
    def test_two_against_one(self):
        clusters = cluster_candidates(movie_candidates(), "lexical")
        assert sorted(c.votes for c in clusters) == [1, 2]
        by_votes = {c.votes: c for c in clusters}
        assert {m.rule_index for m in by_votes[2].members} == {1, 3}
        assert by_votes[2].max_membership is H
        assert all(lexical_key(m.answer_text) == c.key for c in clusters for m in c.members)

    def test_single_candidate(self):
        clusters = cluster_candidates([cand(1, M, "only")], "lexical")
        assert len(clusters) == 1 and clusters[0].votes == 1

    def test_partition_property(self):
        rng = random.Random(7)
        pool = ["alpha", "beta", "gamma"]
        for _ in range(200):
            n = rng.randint(1, 8)
            cands = [
                cand(i + 1, rng.choice(list(MembershipLabel)), rng.choice(pool))
                for i in range(n)
            ]
            clusters = cluster_candidates(cands, "lexical")
            assert sum(c.votes for c in clusters) == n
            seen = [m.rule_index for c in clusters for m in c.members]
            assert sorted(seen) == list(range(1, n + 1))

    def test_members_keep_the_candidates_order(self):
        clusters = cluster_candidates([cand(3, M, MOVIE_A), cand(2, H, MOVIE_B), cand(1, ML, MOVIE_A)], "lexical")
        members = {c.key: [m.rule_index for m in c.members] for c in clusters}
        assert members == {lexical_key(MOVIE_A): [3, 1], lexical_key(MOVIE_B): [2]}
        assert [c.min_rule_index for c in clusters] == [1, 2]

    def test_model_mode_uses_expert_assignments(self):
        provider = MockProvider({("FEA", 1): assignments_response(["k1", "k2", "k1"])})
        clusters = cluster_candidates(movie_candidates(), "model", session_for(provider))
        assert {c.key: c.votes for c in clusters} == {"k1": 2, "k2": 1}

    def test_model_mode_falls_back_to_lexical_with_warning(self):
        provider = MockProvider({("FEA", n): "junk" for n in (1, 2, 3)})
        session = session_for(provider)
        clusters = cluster_candidates(movie_candidates(), "model", session)
        assert sorted(c.votes for c in clusters) == [1, 2]
        reasons = [p["reason"] for kind, p in session.events if kind == "warning"]
        assert "cluster_fallback_lexical" in reasons

    def test_non_string_assignments_are_reasked_then_fall_back(self):
        # the answer satisfies the fusion schema, so only the assignment check can reject this
        bad = json_doc({"answer": "x", "assignments": [1, 2, 3]})
        session = session_for(MockProvider({("FEA", n): bad for n in (1, 2, 3)}))
        clusters = cluster_candidates(movie_candidates(), "model", session)
        assert sorted(c.votes for c in clusters) == [1, 2]
        assert [p["status"] for kind, p in session.events if kind == "provider_call"] == ["rejected"] * 3
        assert [p["reason"] for kind, p in session.events if kind == "warning"] == ["cluster_fallback_lexical"]

    @settings(max_examples=50)  # a small property: tier-1 has a time budget
    @given(st.fixed_dictionaries({"assignments": ASSIGNMENTS}, optional={"answer": st.just("x")}))
    def test_model_mode_partitions_or_falls_back_on_any_assignments(self, doc):
        session = session_for(MockProvider({("FEA", n): json_doc(doc) for n in (1, 2, 3)}))
        clusters = cluster_candidates(movie_candidates(), "model", session)
        assert sorted(m.rule_index for c in clusters for m in c.members) == [1, 2, 3]
        reasons = [p["reason"] for kind, p in session.events if kind == "warning"]
        if reasons != ["cluster_fallback_lexical"]:
            assert not reasons
            assert {c.key for c in clusters} == {key.strip() for key in doc["assignments"]}


class TestResolveConflict:
    def make_cluster(self, key, *members):
        return SemanticCluster(key, tuple(members))

    def test_vote_majority_wins(self):
        clusters = cluster_candidates(movie_candidates(), "lexical")
        winner, layer = resolve_conflict(clusters)
        assert winner.key == lexical_key(MOVIE_A)
        assert layer == "votes"

    def test_tie_resolved_by_membership(self):
        a = self.make_cluster("a", cand(1, H, "a"))
        b = self.make_cluster("b", cand(2, M, "b"))
        assert resolve_conflict([a, b]) == (a, "membership")
        assert resolve_conflict([b, a]) == (a, "membership")

    def test_double_tie_resolved_by_lowest_rule_index(self):
        a = self.make_cluster("a", cand(2, M, "a"))
        b = self.make_cluster("b", cand(1, M, "b"))
        assert resolve_conflict([a, b]) == (b, "index")

    def test_figures_hold_for_members_out_of_rule_order(self):
        cluster = self.make_cluster("k", cand(3, ML, "k"), cand(1, L, "k"), cand(2, H, "k"))
        assert (cluster.votes, cluster.max_membership, cluster.min_rule_index) == (3, H, 1)
        # Each layer must read the figure, not the first member.
        a = self.make_cluster("a", cand(4, SH, "a"), cand(2, L, "a"))
        b = self.make_cluster("b", cand(3, L, "b"), cand(1, SH, "b"))
        assert resolve_conflict([a, b]) == (b, "index")
        c = self.make_cluster("c", cand(1, L, "c"), cand(5, H, "c"))
        assert resolve_conflict([a, b, c]) == (c, "membership")

    def test_vote_dominance_invariant_under_membership_permutation(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 8)
            answers = [rng.choice(["x", "y", "z"]) for _ in range(n)]
            labels = [rng.choice(list(MembershipLabel)) for _ in range(n)]
            cands = [cand(i + 1, labels[i], answers[i]) for i in range(n)]
            clusters = cluster_candidates(cands, "lexical")
            votes = sorted((c.votes for c in clusters), reverse=True)
            if len(votes) < 2 or votes[0] == votes[1]:
                continue
            winner = resolve_conflict(clusters)[0].key
            rng.shuffle(labels)
            permuted = [cand(i + 1, labels[i], answers[i]) for i in range(n)]
            assert resolve_conflict(cluster_candidates(permuted, "lexical"))[0].key == winner

    def test_deterministic_for_any_input_order(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 7)
            cands = [
                cand(i + 1, rng.choice(list(MembershipLabel)), rng.choice(["p", "q", "r"]))
                for i in range(n)
            ]
            clusters = cluster_candidates(cands, "lexical")
            baseline = resolve_conflict(clusters)[0].key
            for _ in range(5):
                shuffled = clusters[:]
                rng.shuffle(shuffled)
                assert resolve_conflict(shuffled)[0].key == baseline


class SynthesizingStub:
    """Non-scripted provider stub that answers every call with one synthesized answer."""

    scripted = False

    def __init__(self, answer):
        self.answer = answer
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return ProviderResponse(
            raw_text=fusion_answer(self.answer),
            token_usage={"prompt_tokens": 0, "completion_tokens": 0},
        )


class TestFuseSubtask:
    def test_conflict_resolved_to_majority_answer(self):
        session = session_for(MockProvider({}))
        result = fuse_subtask(movie_candidates(), T1, session=session)
        assert result == MOVIE_A
        assert winning_cluster(session)["votes"] == 2
        fusion_events = [p for kind, p in session.events if kind == "fusion"]
        assert len(fusion_events) == 1
        assert fusion_events[0]["winner_key"] == lexical_key(MOVIE_A)
        assert fusion_events[0]["layer"] == "votes"
        assert sorted(c["votes"] for c in fusion_events[0]["clusters"]) == [1, 2]

    def test_single_candidate_verbatim(self):
        session = session_for(MockProvider({}))
        result = fuse_subtask([cand(1, L, "only answer")], T1, session=session)
        assert result == "only answer"

    def test_unanimity(self):
        session = session_for(MockProvider({}))
        cands = [cand(i, M, "same thing") for i in (1, 2, 3)]
        result = fuse_subtask(cands, T1, session=session)
        assert winning_cluster(session)["votes"] == 3
        assert result == "same thing"

    def test_mock_answer_is_strongest_member(self):
        # members rule1 (ML) and rule3 (H) agree; the H member's wording wins
        cands = [cand(1, ML, "the answer"), cand(2, M, "other"), cand(3, H, "THE ANSWER")]
        session = session_for(MockProvider({}))
        result = fuse_subtask(cands, T1, session=session)
        assert result == "THE ANSWER"

    def test_model_mode_synthesizes_from_winning_cluster(self):
        # The fusion expert groups two wordings of one answer, so the winner mixes them.
        cands = movie_candidates()
        cands[2] = cand(3, ML, "Guess Who's Coming to Dinner, released in 1967", "Biology")
        provider = MockProvider(
            {
                ("FEA", 1): assignments_response(["dinner", "lion", "dinner"]),
                ("FEA", 2): fusion_answer("a consolidated answer"),
            }
        )
        session = session_for(provider)
        result = fuse_subtask(cands, T1, mode="model", session=session)
        assert result == "a consolidated answer"
        assert winning_cluster(session)["key"] == "dinner"
        assert [p["context"]["attempt"] for kind, p in session.events if kind == "provider_call"] == [1, 2]

    def test_model_mode_skips_synthesis_when_winners_differ_only_lexically(self):
        # As above, but the two grouped wordings share a lexical key: no synthesis call.
        cands = movie_candidates()
        cands[2] = cand(3, ML, "GUESS WHO'S COMING TO DINNER (1967)!", "Biology")
        provider = MockProvider({("FEA", 1): assignments_response(["dinner", "lion", "dinner"])})
        session = session_for(provider)
        assert fuse_subtask(cands, T1, mode="model", session=session) == MOVIE_A  # the H member
        assert winning_cluster(session)["votes"] == 2
        assert [p["context"]["attempt"] for kind, p in session.events if kind == "provider_call"] == [1]

    def test_lexical_mode_never_synthesizes(self):
        # Members of a lexical cluster differ at most in case and punctuation.
        stub = SynthesizingStub("a consolidated answer")
        cands = [cand(1, ML, "the answer"), cand(2, M, "other"), cand(3, H, "THE ANSWER!")]
        session = session_for(stub)
        result = fuse_subtask(cands, T1, session=session)
        assert result == "THE ANSWER!"
        assert winning_cluster(session)["votes"] == 2
        assert stub.calls == 0


class TestFuseFinal:
    def test_combines_all_predecessors(self):
        provider = MockProvider({("run-0", "F", "FEA", 1): fusion_answer("the reply email")})
        session = session_for(provider, node_id="F")
        answers = {f"T{i}": f"section {i}" for i in range(1, 5)}
        final = fuse_final(answers, "reply to the editor", session=session)
        assert isinstance(final, FinalResult)
        assert final.answer_text == "the reply email"
        assert final.contributing_nodes == ("T1", "T2", "T3", "T4")

    def test_single_predecessor(self):
        provider = MockProvider({("FEA", 1): fusion_answer("restated")})
        final = fuse_final({"T1": "only part"}, "task", session=session_for(provider, "F"))
        assert final.answer_text == "restated"

    def test_deterministic_across_runs(self):
        script = {("FEA", 1): fusion_answer("stable output")}

        def once():
            session = session_for(MockProvider(script), node_id="F")
            return fuse_final({"T1": "a", "T2": "b"}, "task", session=session)

        assert once() == once()
