import pytest

from helpers import candidate_response, json_doc, plan_response
from rulegraph.agents import (
    AttemptLedger,
    LiveProvider,
    MalformedPlan,
    MockProvider,
    NodeSession,
    NoDocumentFound,
    ProviderRequest,
    RoleKind,
    SchemaViolation,
    ScriptMiss,
    TemplateError,
    TransportError,
    parse_structured,
    plan,
    render_prompt,
    ROLES,
)


def make_session(script, node_id="T", run_id="run-0"):
    return NodeSession(
        run_id=run_id,
        node_id=node_id,
        provider=MockProvider(script),
        ledger=AttemptLedger(),
    )


class TestParseStructured:
    def test_fenced_block(self):
        text = json_doc({"membership": "H"})
        assert parse_structured(text, "assessment") == {"membership": "H"}

    def test_prose_then_trailing_object(self):
        text = 'Thinking out loud first...\nfinal: {"answer": "42"}'
        assert parse_structured(text, "candidate") == {"answer": "42"}

    def test_first_document_wins(self):
        text = '{"answer": "first"} and then {"answer": "second"}'
        assert parse_structured(text, "candidate")["answer"] == "first"

    def test_idempotent(self):
        text = json_doc({"answer": "same"})
        assert parse_structured(text, "candidate") == parse_structured(text, "candidate")

    def test_no_document(self):
        with pytest.raises(NoDocumentFound):
            parse_structured("no json here, just words", "candidate")

    def test_low_assessment_requires_diff_text(self):
        text = json_doc({"membership": "L"})
        with pytest.raises(SchemaViolation) as err:
            parse_structured(text, "assessment")
        assert err.value.field == "diff_text"

    def test_passing_assessment_needs_no_diff(self):
        assert parse_structured(json_doc({"membership": "ML"}), "assessment")

    def test_bad_membership_token(self):
        with pytest.raises(SchemaViolation):
            parse_structured(json_doc({"membership": "super high"}), "assessment")

    def test_plan_schema(self):
        good = {
            "goal": "g",
            "subtasks": [{"id": "a", "statement": "s"}],
            "edges": [["a", "a"]],
        }
        assert parse_structured(json_doc(good), "plan")
        with pytest.raises(SchemaViolation):
            parse_structured(json_doc({"goal": "g", "subtasks": [], "edges": []}), "plan")

    def test_ruleset_schema(self):
        bad = {"rules": [{"domain": "History", "antecedent": "a", "membership": "H"}]}
        with pytest.raises(SchemaViolation) as err:
            parse_structured(json_doc(bad), "ruleset")
        assert err.value.field == "expert_prompt"

    def test_fusion_needs_answer_or_assignments(self):
        assert parse_structured(json_doc({"assignments": ["k1", "k2"]}), "fusion")
        assert parse_structured(json_doc({"answer": "x"}), "fusion")
        with pytest.raises(SchemaViolation):
            parse_structured(json_doc({"other": 1}), "fusion")

    def test_classification_schema(self):
        assert parse_structured(json_doc({"scenario": "irrelevant"}), "failure_classification")
        with pytest.raises(SchemaViolation):
            parse_structured(json_doc({"scenario": "maybe"}), "failure_classification")


class TestPrompts:
    def test_missing_slot_is_an_error(self):
        with pytest.raises(TemplateError):
            render_prompt(ROLES["plan"], {})

    def test_all_templates_render_with_their_slots(self):
        slots = {
            "plan": {"task": "t"},
            "classify": {"statement": "s", "goal": "g", "attempts": 3},
            "analyze": {"statement": "s", "k": 3, "catalog": "History", "feedback_block": ""},
            "execute": {"statement": "s", "context": "(none)", "instructions": "i"},
            "assess": {"goal": "g", "result": "r", "threshold": "ML"},
            "cluster": {"candidates": "1. a"},
            "fuse_subtask": {"statement": "s", "candidates": "- a"},
            "fuse_final": {"task": "t", "results": "- a"},
        }
        for key, role in ROLES.items():
            text = render_prompt(role, slots[key])
            assert "$" not in text


class TestMockProvider:
    def request(self, attempt=1, node="T1", run="run-0", schema="candidate"):
        return ProviderRequest(
            role_kind=RoleKind.DEA,
            rendered_prompt="p",
            response_schema=schema,
            temperature=0.0,
            context_key=(run, node, "DEA", attempt),
        )

    def test_exact_key_lookup(self):
        provider = MockProvider({("run-0", "T1", "DEA", 1): candidate_response("exact")})
        assert provider.complete(self.request()).parsed == {"answer": "exact"}

    def test_exact_beats_fallback(self):
        provider = MockProvider(
            {
                ("run-0", "T1", "DEA", 1): candidate_response("exact"),
                ("DEA", 1): candidate_response("fallback"),
            }
        )
        assert provider.complete(self.request()).parsed["answer"] == "exact"
        assert provider.complete(self.request(node="T9")).parsed["answer"] == "fallback"

    def test_deterministic(self):
        provider = MockProvider({("DEA", 1): candidate_response("same")})
        first = provider.complete(self.request())
        second = provider.complete(self.request())
        assert first.raw_text == second.raw_text

    def test_script_miss(self):
        with pytest.raises(ScriptMiss):
            MockProvider({}).complete(self.request())

    def test_pure_under_concurrent_calls(self):
        from concurrent.futures import ThreadPoolExecutor

        provider = MockProvider(
            {("DEA", n): candidate_response(f"answer {n}") for n in (1, 2, 3)}
        )
        requests = [self.request(attempt=1 + i % 3) for i in range(60)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(provider.complete, requests))
        for request, response in zip(requests, responses):
            assert response.parsed["answer"] == f"answer {request.context_key[3]}"

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(
            '{"entries": ['
            '{"run": "run-0", "node": "T1", "role": "DEA", "attempt": 1, "response": "{\\"answer\\": \\"a\\"}"},'
            '{"role": "PA", "attempt": 1, "response": "{\\"goal\\": \\"g\\", \\"subtasks\\": [{\\"id\\": \\"s\\", \\"statement\\": \\"x\\"}], \\"edges\\": []}"}'
            "]}",
            encoding="utf-8",
        )
        provider = MockProvider.from_file(str(path))
        assert provider.complete(self.request()).parsed["answer"] == "a"


class FlakyTransport:
    """Fails with transport errors a fixed number of times, then succeeds."""

    def __init__(self, failures, body):
        self.failures = failures
        self.body = body
        self.calls = 0

    def __call__(self, url, headers, payload, timeout):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("injected fault")
        return self.body


def chat_body(content):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 5},
    }


class TestLiveProvider:
    def make(self, transport, retries=3):
        return LiveProvider(
            base_url="http://example.test/v1",
            model="m",
            api_key="k",
            transport_retries=retries,
            backoff_s=0.0,
            transport=transport,
        )

    def request(self):
        return ProviderRequest(
            role_kind=RoleKind.GEA,
            rendered_prompt="p",
            response_schema="assessment",
            temperature=0.0,
            context_key=("r", "T1", "GEA", 1),
        )

    def test_two_faults_then_success_records_three_attempts(self):
        transport = FlakyTransport(2, chat_body(json_doc({"membership": "H"})))
        response = self.make(transport).complete(self.request())
        assert response.attempts == 3
        assert response.parsed == {"membership": "H"}
        assert response.token_usage == {"prompt_tokens": 7, "completion_tokens": 5}

    def test_non_json_body_is_provider_failure(self, monkeypatch):
        import requests

        from rulegraph.agents import ProviderFailure

        class HtmlResponse:
            status_code = 200
            text = "<html>gateway</html>"

            def json(self):
                raise requests.JSONDecodeError("Expecting value", self.text, 0)

        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: HtmlResponse())
        provider = LiveProvider(base_url="http://example.test/v1", model="m", api_key="k")
        with pytest.raises(ProviderFailure, match="non-JSON"):
            provider.complete(self.request())

    def test_exhausted_retries_raise(self):
        transport = FlakyTransport(5, chat_body("x"))
        with pytest.raises(TransportError):
            self.make(transport).complete(self.request())
        assert transport.calls == 3


class TestNodeSession:
    def test_reask_appends_violation_and_uses_fresh_attempt(self):
        script = {
            ("DEA", 1): "not json at all",
            ("DEA", 2): candidate_response("recovered"),
        }
        prompts = []

        class Recorder(MockProvider):
            def complete(self, request):
                prompts.append(request.rendered_prompt)
                return super().complete(request)

        session = NodeSession(
            run_id="run-0", node_id="T1", provider=Recorder(script), ledger=AttemptLedger()
        )
        doc = session.call(
            "execute",
            {"statement": "s", "context": "(none)", "instructions": "i"},
            "candidate",
            failure=MalformedPlan,
        )
        assert doc == {"answer": "recovered"}
        assert len(prompts) == 2
        assert "rejected" in prompts[1]
        statuses = [p["status"] for kind, p in session.events if kind == "provider_call"]
        assert statuses == ["parse_error", "ok"]

    def test_attempt_numbers_monotonic_per_node_and_role(self):
        ledger = AttemptLedger()
        assert ledger.next("T1", RoleKind.DEA) == 1
        assert ledger.next("T1", RoleKind.DEA) == 2
        assert ledger.next("T1", RoleKind.GEA) == 1
        assert ledger.next("T2", RoleKind.DEA) == 1

    def test_reserved_attempt_numbers(self):
        ledger = AttemptLedger()
        assert ledger.next("T1", RoleKind.DEA, 3) == 1
        assert ledger.next("T1", RoleKind.DEA) == 4


class TestPlan:
    def test_valid_plan(self):
        script = {("PA", 1): plan_response("g", [("s1", "one"), ("s2", "two")], [("s1", "s2")])}
        result = plan("the task", make_session(script))
        assert result.task == "the task"
        assert result.global_goal == "g"
        assert result.subtasks == (("s1", "one"), ("s2", "two"))
        assert result.edges == (("s1", "s2"),)

    def test_semantic_violation_triggers_reask(self):
        script = {
            ("PA", 1): plan_response("g", [("s1", "one"), ("s2", "two")], [("s1", "s2"), ("s2", "s1")]),
            ("PA", 2): plan_response("g", [("s1", "one")]),
        }
        result = plan("the task", make_session(script))
        assert result.subtasks == (("s1", "one"),)

    def test_malformed_after_retries(self):
        script = {("PA", n): "garbage" for n in (1, 2, 3)}
        with pytest.raises(MalformedPlan):
            plan("the task", make_session(script))
