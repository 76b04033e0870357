import hashlib
import itertools
import json
import os
import time
import tracemalloc
import urllib.request

import pytest

from chat_server import inject, needs_loopback
from helpers import (
    assessment_response,
    assignments_response,
    candidate_response,
    classification_response,
    fusion_answer,
    json_doc,
    make_plan,
    plan_response,
    ruleset_response,
)
from rulegraph.agents import (
    LiveProvider,
    MockProvider,
    NodeSession,
    ParseError,
    ProviderRequest,
    RoleKind,
    ScriptMiss,
    TransportError,
    parse_structured,
    ProviderFailure,
    plan,
    render_prompt,
    ROLES,
)
from rulegraph.engine import Run, RunConfig, RunPool, handle_failure
from rulegraph.fusion import cluster_candidates, fuse_final
from rulegraph.graph import TaskNode, build_graph
from rulegraph.membership import MembershipLabel
from rulegraph.rules import CandidateResult, construct_rules, run_global_rule

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")

# Slots that render each role's template.
SLOTS = {
    "plan": {"task": "t"},
    "classify": {"statement": "s", "goal": "g", "attempts": 3},
    "analyze": {"statement": "s", "k": 1, "catalog": "History", "feedback_block": ""},
    "execute": {"statement": "s", "context": "(none)", "instructions": "i"},
    "assess": {"goal": "g", "result": "r", "threshold": "ML"},
    "cluster": {"candidates": "1. a"},
    "fuse_subtask": {"statement": "s", "candidates": "- a"},
    "fuse_final": {"task": "t", "results": "- a"},
}

# Slots for the golden prompt hashes: integers, a non-empty feedback block,
# and values holding template syntax that must pass through as text.
GOLDEN_SLOTS = {
    "plan": {"task": "Plan a 3-day trip; budget 100% in $USD."},
    "classify": {"statement": "Book the hotel", "goal": "A trip plan", "attempts": 3},
    "analyze": {
        "statement": "Pick a route",
        "k": 3,
        "catalog": "History, Biology, Law",
        "feedback_block": "\nFeedback from the previous attempt:\nthe route skips $task and %(goal)s\n",
    },
    "execute": {"statement": "s", "context": "1. earlier", "instructions": "You are an expert in Law."},
    "assess": {"goal": "g", "result": "r 50%", "threshold": "ML"},
    "cluster": {"candidates": "1. a\n2. b"},
    "fuse_subtask": {"statement": "s", "candidates": "- a\n- b"},
    "fuse_final": {"task": "t", "results": "- T1: a\n- T2: b"},
}
GOLDEN_PROMPT_SHA256 = {
    "plan": "f8c5e2ab173bdf3a3a44e4cf74765f7bb7c4a9846ffd6cc3ba0d0cf6ec6d7fb7",
    "classify": "e3ce56b89333d9cfb06de73de5d66f149367fae75b5a5e62df091dde03cf3d12",
    "analyze": "7988bd239af7b321e03c92771ef8424b5085b58f9ba7d61a0ab86b772b5de358",
    "execute": "d175a5407cae49830bf5c6d8f061159aac6a9d4c858902ac14c80ceb4c74e34b",
    "assess": "ca70c5e342cbc630946a166a4b40c70e293bc085be4d416b64871df1a10641df",
    "cluster": "f30f4e9f87378335203681dfe30cb25835553a80531224c5206feaf77537170a",
    "fuse_subtask": "2fafd867b97a36f22692327fc27a7c0cf709dab33575c189363ab0912a6d9052",
    "fuse_final": "be76e7c9a92f5791abbd5ce26233a9d0d61b4af33e69a214c050bec5c38ef538",
}
GOLDEN_REASK_SHA256 = "23e09698354454e2e3e58cf29bfea370d556ae481c42d976f7359b996bfe3a1a"


def make_session(script, node_id="T", run_id="run-0"):
    return NodeSession(Run(run_id, MockProvider(script)), node_id)


def whole(doc):
    """A reader that keeps the parsed document, for tests of the session itself."""
    return doc


def answering(kind, response, node_id="T"):
    """A session whose provider gives response to every one of the role's first three attempts."""
    return make_session({(kind, n): response for n in (1, 2, 3)}, node_id=node_id)


def first_call(session):
    """(status, error) of the session's first provider_call record."""
    payload = next(p for kind, p in session.events if kind == "provider_call")
    return payload["status"], payload.get("error")


class TestParseStructured:
    """Extraction of a response's first JSON object, and each role reader's check of it."""

    def test_fenced_block(self):
        text = json_doc({"membership": "H"})
        assert parse_structured(text) == {"membership": "H"}

    def test_prose_then_trailing_object(self):
        text = 'Thinking out loud first...\nfinal: {"answer": "42"}'
        assert parse_structured(text) == {"answer": "42"}

    def test_first_document_wins(self):
        text = '{"answer": "first"} and then {"answer": "second"}'
        assert parse_structured(text)["answer"] == "first"

    def test_idempotent(self):
        text = json_doc({"answer": "same"})
        assert parse_structured(text) == parse_structured(text)

    def test_no_document(self):
        with pytest.raises(ParseError, match="no JSON object found in response"):
            parse_structured("no json here, just words")

    @pytest.mark.parametrize("unit", ["{", '{"'], ids=["braces", "brace-quotes"])
    def test_rejected_response_is_scanned_in_linear_time(self, unit):
        text = unit * 320_000
        started = time.perf_counter()
        with pytest.raises(ParseError):
            parse_structured(text)
        assert time.perf_counter() - started < 0.1

    def test_braces_that_cannot_start_an_object_are_not_tries(self):
        text = "{ 1 {[ {x " * 1000 + json_doc({"answer": "found"})
        assert parse_structured(text) == {"answer": "found"}

    def test_decode_tries_are_capped(self):
        # README: at most 32 object starts per response are tried, so a document at the 33rd is not
        broken = '{"unclosed " '
        found = broken * 31 + json_doc({"answer": "found"})
        assert parse_structured(found) == {"answer": "found"}
        with pytest.raises(ParseError, match="no JSON object found in response"):
            parse_structured(broken + found)

    def test_low_assessment_parses_without_diff_text(self):
        # Whether a deviation must be described is the run threshold's call.
        low = assessment_response("L")
        verdict = run_global_rule("g", MembershipLabel.L, "r", session=answering("GEA", low))
        assert (verdict.diff_text, verdict.passed) == ("", True)
        session = answering("GEA", low)
        with pytest.raises(ProviderFailure):
            run_global_rule("g", MembershipLabel.ML, "r", session=session)
        assert first_call(session) == ("rejected", "membership L is below ML so diff_text must be non-empty")

    def test_passing_assessment_needs_no_diff(self):
        session = answering("GEA", assessment_response("ML"))
        verdict = run_global_rule("g", MembershipLabel.ML, "r", session=session)
        assert (verdict.membership, verdict.diff_text, verdict.passed) == (MembershipLabel.ML, "", True)

    def test_bad_membership_token(self):
        session = answering("GEA", json_doc({"membership": "super high"}))
        with pytest.raises(ProviderFailure, match="unknown membership token: 'super high'"):
            run_global_rule("g", MembershipLabel.ML, "r", session=session)
        assert first_call(session) == ("parse_error", "unknown membership token: 'super high'")

    def test_plan_schema(self):
        # A self-loop has the plan's shape; the plan reader refuses it on its meaning.
        session = answering("PA", plan_response("g", [("a", "s")], [("a", "a")]))
        with pytest.raises(ProviderFailure):
            plan("t", session)
        assert first_call(session) == ("rejected", "dependency edges contain a cycle")
        session = answering("PA", json_doc({"goal": "g", "subtasks": [], "edges": []}))
        with pytest.raises(ProviderFailure, match="field 'subtasks' must be non-empty"):
            plan("t", session)
        assert first_call(session) == ("parse_error", "field 'subtasks' must be non-empty")

    def test_ruleset_schema(self):
        bad = {"rules": [{"domain": "History", "antecedent": "a", "membership": "H"}]}
        session = answering("DAA", json_doc(bad))
        with pytest.raises(ProviderFailure, match="missing required field 'expert_prompt'"):
            construct_rules(TaskNode("T1", "s"), ("History",), 1, session=session)
        assert first_call(session) == ("parse_error", "missing required field 'expert_prompt'")

    def test_fusion_needs_answer_or_assignments(self):
        candidates = [CandidateResult(i, "History", MembershipLabel.H, f"answer {i}") for i in (1, 2)]
        session = answering("FEA", assignments_response(["k1", "k2"]))
        assert [c.key for c in cluster_candidates(candidates, "model", session)] == ["k1", "k2"]
        final = fuse_final({"T1": "a"}, "t", session=answering("FEA", fusion_answer("x")))
        assert final.answer_text == "x"
        neither = json_doc({"other": 1})
        session = answering("FEA", neither)
        cluster_candidates(candidates, "model", session)
        assert first_call(session) == ("parse_error", "fusion response needs 'answer' or 'assignments'")
        session = answering("FEA", neither)
        with pytest.raises(ProviderFailure, match="fusion response needs 'answer' or 'assignments'"):
            fuse_final({"T1": "a"}, "t", session=session)

    def test_classification_schema(self):
        one = make_plan(["T1"])
        node, config = build_graph(one).nodes["T1"], RunConfig(provider=MockProvider({}))
        session = answering("PA", classification_response("irrelevant"))
        repair = handle_failure(node, one.global_goal, config, session)
        assert (repair.reason, repair.chain) == ("irrelevant", ())
        session = answering("PA", classification_response("maybe"))
        assert handle_failure(node, one.global_goal, config, session).reason == "classification_failed"
        assert first_call(session) == ("parse_error", "scenario must be 'irrelevant' or 'too_complex'")


class TestPrompts:
    def test_missing_slot_is_an_error(self):
        with pytest.raises(KeyError, match="'task'"):
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
            assert "%(" not in text

    def test_rendered_prompts_are_byte_stable(self):
        """The scripted provider ignores prompts, so no trace hash sees a change to their bytes."""
        digests = {
            key: hashlib.sha256(render_prompt(role, GOLDEN_SLOTS[key]).encode()).hexdigest()
            for key, role in ROLES.items()
        }
        assert digests == GOLDEN_PROMPT_SHA256

    def test_reask_prompt_is_byte_stable(self):
        prompts = []

        class Recorder(MockProvider):
            def complete(self, request):
                prompts.append(request.rendered_prompt)
                return super().complete(request)

        script = {("DAA", 1): "no document", ("DAA", 2): ruleset_response([("History", "H")])}
        session = NodeSession(Run("run-0", Recorder(script)), "T1")
        session.call("analyze", GOLDEN_SLOTS["analyze"], whole)
        assert hashlib.sha256(prompts[1].encode()).hexdigest() == GOLDEN_REASK_SHA256


class TestMockProvider:
    def request(self, attempt=1, node="T1", run="run-0"):
        return ProviderRequest(
            role_kind=RoleKind.DEA,
            rendered_prompt="p",
            temperature=0.0,
            context_key=(run, node, "DEA", attempt),
        )

    def test_exact_key_lookup(self):
        provider = MockProvider({("run-0", "T1", "DEA", 1): candidate_response("exact")})
        assert provider.complete(self.request()).raw_text == candidate_response("exact")

    def test_exact_beats_fallback(self):
        provider = MockProvider(
            {
                ("run-0", "T1", "DEA", 1): candidate_response("exact"),
                ("DEA", 1): candidate_response("fallback"),
            }
        )
        assert provider.complete(self.request()).raw_text == candidate_response("exact")
        assert provider.complete(self.request(node="T9")).raw_text == candidate_response("fallback")

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
            assert response.raw_text == candidate_response(f"answer {request.context_key[3]}")

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
        assert provider.complete(self.request()).raw_text == '{"answer": "a"}'

    @pytest.mark.parametrize("fixture", ["email_script.json", "bench_script.json"])
    def test_from_file_indexes_like_plain_json_load(self, fixture):
        path = os.path.join(FIXTURES, fixture)
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        keys = [(e["run"], e["node"]) if "run" in e else () for e in entries]
        reference = {(*key, e["role"], e["attempt"]): e["response"] for key, e in zip(keys, entries)}
        assert MockProvider.from_file(path)._script == reference

    def test_from_file_shares_equal_names(self, tmp_path):
        path = tmp_path / "script.json"
        entries = [{"run": "run-0", "node": "T1", "role": "DEA", "attempt": n, "response": "r"} for n in (1, 2)]
        path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        first, second = MockProvider.from_file(str(path))._script
        assert all(a is b for a, b in zip(first[:3], second[:3]))

    def test_from_file_empty_entries(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text('{"entries": []}', encoding="utf-8")
        assert MockProvider.from_file(str(path))._script == {}

    @pytest.mark.parametrize(
        "text",
        [
            '{"entries": [{"role": "PA", "attempt": 1, "response": "r", "meta": {"note": "n"}}]}',
            '{"entries": [{"role": "PA", "attempt": 1, "response": "r", "meta": '
            '{"role": "PA", "attempt": 2, "response": "s"}}]}',
            '{"entries": [{"role": "PA", "attempt": 1, "response": "r", "entries": []}]}',
            '{"entries": [{"role": "PA", "response": "r"}]}',
            '{"entries": [{"role": ["PA"], "attempt": 1, "response": "r"}]}',
            '{"entries": [1, 2]}',
            '[{"role": "PA", "attempt": 1, "response": "r"}]',
            '{"entries": ' + "[" * 100_000,
        ],
        ids=[
            "nested-object",
            "nested-entry",
            "own-entries",
            "missing-field",
            "list-name",
            "entries-ints",
            "document-list",
            "nested-too-deep",
        ],
    )
    def test_from_file_malformed_script_is_value_error(self, text, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            MockProvider.from_file(str(path))

    def test_from_file_memory(self, tmp_path):
        # 5,000 entries of 160-character responses. Indexing each entry as it
        # parses, with shared names, keeps 1.27x the file size and peaks at
        # 2.32x it. A loader that keeps the parsed document beside the index,
        # with a copy of each name per key, keeps 1.91x and peaks at 3.28x.
        # Each bound sits halfway between.
        path = tmp_path / "script.json"
        body = "w" * 100
        lines = [
            f'{{"run": "run-{i // 25:03d}", "node": "s{i // 5 % 5}", "role": "{kind.value}", "attempt": 1, '
            f'"response": "Here is the result.\\n```json\\n{{\\"answer\\": \\"answer {i:05d} {body}\\"}}\\n```\\n"}}'
            for i, kind in zip(range(5000), itertools.cycle(RoleKind))
        ]
        path.write_text('{"entries": [' + ",\n".join(lines) + "]}", encoding="utf-8")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            provider = MockProvider.from_file(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(provider._script) == 5000
        assert retained / size < 1.59
        assert peak / size < 2.80


class TestLiveProvider:
    def make(self, server, retries=3, **options):
        return LiveProvider(
            base_url=server.url, model="m", api_key="k", transport_retries=retries, backoff_s=0.0, **options
        )

    def request(self):
        return ProviderRequest(
            role_kind=RoleKind.GEA,
            rendered_prompt=render_prompt(ROLES["assess"], SLOTS["assess"]),
            temperature=0.0,
            context_key=("r", "T1", "GEA", 1),
        )

    @needs_loopback
    def test_two_faults_then_success_records_three_attempts(self, chat_server):
        chat_server.fault = inject(503, tries=(1, 2))
        response = self.make(chat_server).complete(self.request())
        assert len(chat_server.posts) == 3
        assert response.raw_text == json_doc({"membership": "H"})
        assert response.token_usage == {"prompt_tokens": 7, "completion_tokens": 5}

    @needs_loopback
    def test_non_json_body_is_provider_failure(self, chat_server):
        chat_server.fault = inject(b"<html>gateway</html>")
        with pytest.raises(ProviderFailure, match="non-JSON"):
            self.make(chat_server).complete(self.request())

    @needs_loopback
    def test_deeply_nested_body_is_provider_failure(self, chat_server):
        chat_server.fault = inject(b"[" * 100_000)
        with pytest.raises(ProviderFailure, match="non-JSON body: maximum recursion depth"):
            self.make(chat_server).complete(self.request())

    @needs_loopback
    def test_exhausted_retries_raise(self, chat_server):
        chat_server.fault = inject(503)
        with pytest.raises(TransportError):
            self.make(chat_server).complete(self.request())
        assert len(chat_server.posts) == 3

    @pytest.mark.parametrize(
        "options", [{"timeout_s": "60"}, {"backoff_s": True}], ids=["timeout-string", "backoff-bool"]
    )
    def test_non_number_waits_rejected_when_built(self, options):
        with pytest.raises(ValueError, match="must be numbers"):
            LiveProvider(base_url="http://example.test/v1", model="m", api_key="k", **options)

    @needs_loopback
    def test_zero_transport_retries_rejected_when_built(self, chat_server):
        for retries in (0, 2.5, True):  # a float or a bool would reach range() in complete
            with pytest.raises(ValueError, match="1 <= transport_retries"):
                self.make(chat_server, retries=retries)
        assert chat_server.posts == []

    @needs_loopback
    @pytest.mark.parametrize(
        "fault, message",
        [
            ("slow", "timed out"),
            ("close", "closed connection without response"),
            (429, "rate limited by provider"),
            (503, "server error 503"),
            ("truncate", "IncompleteRead"),
        ],
        ids=["timeout", "connection-error", "http-429", "http-503", "incomplete-read"],
    )
    def test_http_faults_are_retried_transport_errors(self, fault, message, chat_server):
        chat_server.fault = inject(fault, tries=(1, 2))
        provider = self.make(chat_server, retries=2, timeout_s=0.1)
        with pytest.raises(TransportError, match=message):
            provider.complete(self.request())
        assert len(chat_server.posts) == 2
        assert provider.complete(self.request()).raw_text == json_doc({"membership": "H"})
        assert len(chat_server.posts) == 3

    @needs_loopback
    def test_http_400_is_not_retried(self, chat_server):
        chat_server.fault = inject(400)
        with pytest.raises(ProviderFailure, match="provider returned 400") as err:
            self.make(chat_server).complete(self.request())
        assert not isinstance(err.value, TransportError)
        assert len(chat_server.posts) == 1

    @needs_loopback
    def test_post_carries_model_prompt_key_and_timeout(self, chat_server, monkeypatch):
        timeouts = []
        urlopen = urllib.request.urlopen

        def spy(request, timeout):
            timeouts.append(timeout)
            return urlopen(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", spy)
        provider = LiveProvider(base_url=chat_server.url + "/", model="m", api_key="k", timeout_s=9.0)
        provider.complete(self.request())
        [(path, headers, body)] = chat_server.posts
        assert (path, timeouts) == ("/v1/chat/completions", [9.0])
        assert headers["Authorization"] == "Bearer k"
        assert body == {
            "model": "m",
            "messages": [{"role": "user", "content": self.request().rendered_prompt}],
            "temperature": 0.0,
        }


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

        session = NodeSession(Run("run-0", Recorder(script)), "T1")
        doc = session.call(
            "execute",
            {"statement": "s", "context": "(none)", "instructions": "i"},
            whole,
        )
        assert doc == {"answer": "recovered"}
        assert len(prompts) == 2
        assert "rejected" in prompts[1]
        statuses = [p["status"] for kind, p in session.events if kind == "provider_call"]
        assert statuses == ["parse_error", "ok"]

    def test_deeply_nested_response_is_reasked(self):
        script = {("DEA", 1): '{"answer": ' + "[" * 5000, ("DEA", 2): candidate_response("recovered")}
        session = make_session(script, node_id="T1")
        assert session.call("execute", SLOTS["execute"], whole) == {"answer": "recovered"}
        statuses = [p["status"] for kind, p in session.events if kind == "provider_call"]
        assert statuses == ["parse_error", "ok"]

    def test_each_response_is_parsed_once(self, monkeypatch):
        import rulegraph.agents as agents

        texts, docs = [], []
        real = agents.parse_structured

        def counting(text):
            texts.append(text)
            return real(text)

        def read(doc):
            docs.append(doc)
            return doc["answer"]

        monkeypatch.setattr(agents, "parse_structured", counting)
        script = {("DEA", 1): "prose, no document", ("DEA", 2): candidate_response("ok")}
        answer = make_session(script, node_id="T1").call(
            "execute",
            {"statement": "s", "context": "(none)", "instructions": "i"},
            read,
        )
        assert answer == "ok"
        assert texts == ["prose, no document", candidate_response("ok")]
        assert docs == [{"answer": "ok"}]

    @pytest.mark.parametrize(
        "template_key, schema, response",
        [
            ("plan", "plan", plan_response("g", [("s1", "one")])),
            ("classify", "failure_classification", classification_response("irrelevant")),
            ("analyze", "ruleset", ruleset_response([("History", "H")])),
            ("execute", "candidate", candidate_response("a")),
            ("assess", "assessment", assessment_response("H")),
            ("cluster", "fusion", assignments_response(["k"])),
            ("fuse_subtask", "fusion", fusion_answer("a")),
            ("fuse_final", "fusion", fusion_answer("a")),
        ],
        ids=["plan", "classify", "analyze", "execute", "assess", "cluster", "fuse_subtask", "fuse_final"],
    )
    def test_each_role_fixes_its_schema(self, template_key, schema, response):
        assert set(SLOTS) == set(ROLES)
        session = make_session({(ROLES[template_key].kind.value, 1): response})
        session.call(template_key, SLOTS[template_key], whole)
        [(kind, payload)] = session.events
        assert kind == "provider_call"
        assert payload["schema"] == schema and payload["status"] == "ok"

    def test_transport_error_on_a_reask_propagates(self):
        class FailsOnReask(MockProvider):
            def complete(self, request):
                if request.context_key[3] == 2:
                    raise TransportError("outage on re-ask")
                return super().complete(request)

        session = NodeSession(Run("run-0", FailsOnReask({("DEA", 1): "not json"})), "T1")
        with pytest.raises(TransportError, match="outage on re-ask"):
            session.call("execute", SLOTS["execute"], whole)
        calls = [p for kind, p in session.events if kind == "provider_call"]
        assert [c["status"] for c in calls] == ["parse_error", "transport_error"]
        assert calls[1]["error"] == "outage on re-ask"

    @pytest.mark.parametrize(
        "body",
        [
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": "n/a"}},
            {},
            {"choices": []},
        ],
        ids=["null-content", "non-integer-usage", "no-choices", "empty-choices"],
    )
    @needs_loopback
    def test_malformed_live_body_fails_the_call(self, body, chat_server):
        chat_server.fault = inject(body)
        provider = LiveProvider(base_url=chat_server.url, model="m", api_key="k")
        session = NodeSession(Run("run-0", provider), "T1")
        with pytest.raises(ProviderFailure, match="malformed completion body"):
            session.call("execute", SLOTS["execute"], whole)
        [(kind, payload)] = session.events
        assert (kind, payload["status"]) == ("provider_call", "transport_error")

    def test_one_call_never_uses_the_pool(self):
        class NoPool(RunPool):
            def submit(self, job):
                raise AssertionError("a single call went to the pool")

        session = make_session({("DEA", n): candidate_response("a") for n in (1, 2)})
        session.run.pool = NoPool()
        assert session.call("execute", SLOTS["execute"], whole) == {"answer": "a"}
        [(outcome, _)] = session.call_many("execute", [SLOTS["execute"]], whole)
        assert outcome == {"answer": "a"}

    def test_attempt_numbers_monotonic_per_node_and_role(self):
        keys = []

        class Recorder(MockProvider):
            def complete(self, request):
                keys.append(request.context_key[1:])
                return super().complete(request)

        script = {("DEA", n): candidate_response("a") for n in range(1, 6)}
        script[("DEA", 2)] = "no document here"
        script[("GEA", 1)] = assessment_response("H")
        session = NodeSession(Run("run-0", Recorder(script)), "T1")
        session.call_many("execute", [SLOTS["execute"]] * 3, whole)  # first tries 1-3, the re-ask 4
        session.call("execute", SLOTS["execute"], whole)
        session.call("assess", SLOTS["assess"], whole)
        NodeSession(Run("run-0", Recorder(script)), "T2").call(
            "execute", SLOTS["execute"], whole
        )
        assert keys == [
            *(("T1", "DEA", n) for n in range(1, 6)),
            ("T1", "GEA", 1),
            ("T2", "DEA", 1),
        ]

    def test_reserved_attempt_numbers(self):
        from concurrent.futures import ThreadPoolExecutor

        script = {("DEA", n): candidate_response(f"a{n}") for n in range(1, 5)}
        session = make_session(script, node_id="T1")
        with ThreadPoolExecutor(max_workers=2) as pool:
            session.run.pool = pool
            outcomes = session.call_many("execute", [SLOTS["execute"]] * 3, whole)
        assert [outcome for outcome, _ in outcomes] == [{"answer": f"a{n}"} for n in (1, 2, 3)]
        session.run.pool = None
        assert session.call("execute", SLOTS["execute"], whole) == {"answer": "a4"}


class TestPlan:
    def test_valid_plan(self):
        script = {("PA", 1): plan_response("g", [("s1", "one"), ("s2", "two")], [("s1", "s2")])}
        result = plan("the task", make_session(script))
        assert result.task == "the task"
        assert result.global_goal == "g"
        assert result.subtasks == (("s1", "one"), ("s2", "two"))
        assert result.edges == (("s1", "s2"),)

    @pytest.mark.parametrize(
        "subtasks, edges, violation",
        [
            ([("s1", "one"), ("s2", "two")], [("s1", "s2"), ("s2", "s1")], "contain a cycle"),
            ([("s1", "one")], [("s1", "s9")], "edge (s1, s9) references an unknown subtask"),
            ([("s1", "one"), ("s1", "again")], [], "subtask ids must be unique"),
            ([("s1", "one"), ("F", "fuse early")], [], "subtask id 'F' is reserved"),
        ],
        ids=["cycle", "dangling-edge", "duplicate-id", "reserved-id"],
    )
    def test_semantic_violation_triggers_reask(self, subtasks, edges, violation):
        script = {
            ("PA", 1): plan_response("g", subtasks, edges),
            ("PA", 2): plan_response("g", [("s1", "one")]),
        }
        session = make_session(script)
        result = plan("the task", session)
        assert result.subtasks == (("s1", "one"),)
        calls = [p for kind, p in session.events if kind == "provider_call"]
        assert [c["status"] for c in calls] == ["rejected", "ok"]
        assert violation in calls[0]["error"]

    def test_malformed_after_retries(self):
        script = {("PA", n): "garbage" for n in (1, 2, 3)}
        with pytest.raises(ProviderFailure, match="response still invalid after 2 re-asks"):
            plan("the task", make_session(script))
