"""`rulegraph run` with a live provider, over real HTTP to a loopback chat-completions server.

Each HTTP fault must end in a re-ask, a transport_error record or a
README exit code, with no traceback. The server decides each fault from
the request, so a run at concurrency 1 and one at 2 give one trace once
the run id and timestamps are taken out.
"""

import json

import pytest

from chat_server import PLAN, REASK, chat_body, inject, needs_loopback
from helpers import candidate_response
from rulegraph import agents
from rulegraph.cli import EXIT_OK, EXIT_PLANNING, EXIT_PROVIDER, main

pytestmark = needs_loopback

PLANNER = "You are a task planner. Decompose"
ANALYST = "You are a domain analyst."
EXPERT = f"You are an expert in History. Answer precisely.\n\nSubtask:\n{PLAN[0][1]}\n"  # one rule of s1
FINAL = "You are a fusion expert. Combine"
# a valid expert body padded past every other body of the run; the test caps bodies one byte short of it
OVER_CAP = json.dumps(chat_body(candidate_response("History view"))).encode().ljust(65_537)


def run(server, tmp_path, monkeypatch, capsys, concurrency=2, timeout_s=5.0):
    """(exit code, trace records) of one `rulegraph run` against the server."""
    provider = {"type": "live", "model": "m", "timeout_s": timeout_s, "transport_retries": 2, "backoff_s": 0}
    config = tmp_path / "live.json"
    settings = {"provider": provider, "k_rules": 2, "domains": ["History", "Law", "Science"]}
    settings.update(cluster_mode="model", concurrency=concurrency)
    config.write_text(json.dumps(settings), encoding="utf-8")
    monkeypatch.setenv("RULEGRAPH_BASE_URL", server.url)
    monkeypatch.setenv("RULEGRAPH_API_KEY", "test-key")
    monkeypatch.delenv("RULEGRAPH_MODEL", raising=False)
    trace = tmp_path / f"trace-{concurrency}.jsonl"
    code = main(["run", "--task", "Reply to the editor", "--config", str(config), "--trace", str(trace)])
    assert "Traceback" not in capsys.readouterr().err
    return code, [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]


def normalized(records):
    """The trace text with the run id and timestamps taken out."""
    for record in records:
        assert type(record.pop("timestamp")) is float
        if record["kind"] == "provider_call":
            record["payload"]["context"]["run"] = "RUN"
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def test_clean_run_gives_one_trace_at_concurrency_1_and_2(chat_server, tmp_path, monkeypatch, capsys):
    traces = []
    for concurrency in (1, 2):
        code, records = run(chat_server, tmp_path, monkeypatch, capsys, concurrency)
        assert code == EXIT_OK
        traces.append(normalized(records))
    calls = [r["payload"] for r in records if r["kind"] == "provider_call"]
    # the plan; per node the analyst, two experts, clustering, synthesis and the goal check; final fusion
    node = ["DAA", "DEA", "DEA", "FEA", "FEA", "GEA"]
    assert [c["context"]["role"] for c in calls] == ["PA", *node, *node, "FEA"]
    assert {c["status"] for c in calls} == {"ok"}
    assert all(c["usage"] == {"prompt_tokens": 7, "completion_tokens": 5} for c in calls)
    assert records[-1]["payload"]["answer_text"] == " / ".join(f"History view of: {st}" for _, st in PLAN)
    assert traces[0] == traces[1]
    assert {headers["Authorization"] for _, headers, _ in chat_server.posts} == {"Bearer test-key"}
    assert "test-key" not in "".join(traces)  # the key goes in each request's header, never in the trace


@pytest.mark.parametrize(
    "prefix, fault, tries, code, failed, warnings, posts",
    [
        pytest.param(PLANNER, 429, (1,), EXIT_OK, [], [], [2], id="http-429-then-200"),
        pytest.param(
            PLANNER, 503, range(1, 9), EXIT_PLANNING, [("T", "PA", "transport_error", "server error 503")],
            ["planning_failed"], [2], id="http-503-planning",
        ),
        pytest.param(
            EXPERT, 503, range(1, 9), EXIT_OK, [("s1", "DEA", "transport_error", "server error 503")],
            ["rule_failed"], [2], id="http-503-one-expert",
        ),
        pytest.param(
            FINAL, 503, range(1, 9), EXIT_PROVIDER, [("F", "FEA", "transport_error", "server error 503")],
            ["final_fusion_failed"], [2], id="http-503-final-fusion",
        ),
        pytest.param(EXPERT, "slow", (1,), EXIT_OK, [], [], [2], id="slow-reply"),
        pytest.param(EXPERT, "close", (1,), EXIT_OK, [], [], [2], id="closed-connection"),
        pytest.param(EXPERT, "truncate", (1,), EXIT_OK, [], [], [2], id="truncated-body"),
        pytest.param(
            EXPERT, b"<html>gateway</html>", (1,), EXIT_OK,
            [("s1", "DEA", "transport_error", "provider returned a non-JSON body")], ["rule_failed"], [1],
            id="non-json-body",
        ),
        pytest.param(
            EXPERT, {"choices": [{"message": {"content": None}}]}, (1,), EXIT_OK,
            [("s1", "DEA", "transport_error", "malformed completion body")], ["rule_failed"], [1],
            id="null-content",
        ),
        pytest.param(
            EXPERT, b"[" * 100_000, (1,), EXIT_OK,
            [("s1", "DEA", "transport_error", "provider returned a non-JSON body: maximum recursion")],
            ["rule_failed"], [1], id="deeply-nested-body",
        ),
        pytest.param(
            EXPERT, OVER_CAP, (1,), EXIT_OK,
            [("s1", "DEA", "transport_error", "provider returned a body over 65536 bytes")], ["rule_failed"], [1],
            id="body-one-byte-over-the-cap",
        ),
        pytest.param(
            ANALYST, chat_body("no document here"), (1,), EXIT_OK,
            [("s1", "DAA", "parse_error", "no JSON object"), ("s2", "DAA", "parse_error", "no JSON object")],
            [], [1, 1], id="prose-is-reasked",
        ),
    ],
)
def test_http_fault_ends_in_a_record_or_an_exit_code(
    prefix, fault, tries, code, failed, warnings, posts, chat_server, tmp_path, monkeypatch, capsys
):
    if fault is OVER_CAP:
        monkeypatch.setattr(agents, "_MAX_BODY_BYTES", len(OVER_CAP) - 1)
    chat_server.fault = inject(fault, tries, prefix)
    timeout_s = 0.05 if fault == "slow" else 5.0
    traces = []
    for concurrency in (1, 2):
        chat_server.tries.clear()
        exit_code, records = run(chat_server, tmp_path, monkeypatch, capsys, concurrency, timeout_s)
        assert exit_code == code
        calls = [r["payload"] for r in records if r["kind"] == "provider_call"]
        not_ok = [
            (c["context"]["node"], c["context"]["role"], c["status"], c["error"])
            for c in calls
            if c["status"] != "ok"
        ]
        assert len(not_ok) == len(failed)
        for (node, role, status, error), expected in zip(not_ok, failed):
            assert (node, role, status) == expected[:3] and error.startswith(expected[3])
        assert [r["payload"]["reason"] for r in records if r["kind"] == "warning"] == warnings
        faulted = [n for p, n in chat_server.tries.items() if p.startswith(prefix) and REASK not in p]
        assert sorted(faulted) == posts
        traces.append(normalized(records))
    assert traces[0] == traces[1]
