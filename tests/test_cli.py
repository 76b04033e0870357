import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from scenarios import FINAL_EMAIL
import rulegraph.cli as cli
from rulegraph.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PLANNING,
    load_config,
    main,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "fixtures")
DEMO_CONFIG = os.path.join(FIXTURES, "config.demo.json")
BENCH_CONFIG = os.path.join(FIXTURES, "config.bench.json")
TRIVIA = os.path.join(FIXTURES, "trivia5.jsonl")
# SHA-256 of the demo run's deterministic trace; any change to trace bytes moves it.
DEMO_TRACE_SHA256 = "e90506556f3304a66a310824679843e6b9cd958c3bf364380a7f88d959bb6719"
# Writes to /dev/full fail with ENOSPC, on write or at the latest on close.
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


class TestLoadConfig:
    def test_demo_config(self):
        config = load_config(DEMO_CONFIG)
        assert config.deterministic is True
        assert config.k_rules == 3
        assert getattr(config.provider, "scripted", False)

    def test_domains_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "provider": {"type": "mock", "script": os.path.join(FIXTURES, "bench_script.json")},
                    "domains": ["A", "B", "C"],
                    "k_rules": 2,
                }
            ),
            encoding="utf-8",
        )
        config = load_config(str(path))
        assert config.domains == ("A", "B", "C")

    def test_catalog_path(self, tmp_path):
        catalog = tmp_path / "domains.txt"
        catalog.write_text("History\nScience\nLaw\n", encoding="utf-8")
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "provider": {"type": "mock", "script": os.path.join(FIXTURES, "bench_script.json")},
                    "catalog_path": "domains.txt",
                }
            ),
            encoding="utf-8",
        )
        assert load_config(str(path)).domains == ("History", "Science", "Law")

    def test_live_requires_env_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RULEGRAPH_API_KEY", raising=False)
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"provider": {"type": "live", "base_url": "http://x/v1", "model": "m"}}
            ),
            encoding="utf-8",
        )
        from rulegraph.engine import ConfigError

        with pytest.raises(ConfigError):
            load_config(str(path))
        monkeypatch.setenv("RULEGRAPH_API_KEY", "secret")
        config = load_config(str(path))
        assert config.provider.model == "m"


MOCK_SCRIPT = os.path.join(FIXTURES, "email_script.json")
LIVE = {"type": "live", "base_url": "http://example.test/v1", "model": "m"}


def mock_config(tmp_path, script) -> str:
    """Write a deterministic mock config and its script into tmp_path; returns the config path."""
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"provider": {"type": "mock", "script": "script.json"}, "deterministic": True}),
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize(
    "settings",
    [
        {"k_rules": "abc"},
        {"k_rules": True},
        {"concurrency": 2.7},
        {"deterministic": "false"},
        {"provider": {**LIVE, "timeout_s": "x"}},
        {"provider": {**LIVE, "timeout_s": -1}},
        {"provider": {**LIVE, "backoff_s": -1.0}},
        {"provider": {**LIVE, "transport_retries": 0}},
        {"provider": {**LIVE, "base_url": "file:///tmp/v1"}},
        {"provider": {**LIVE, "timeout_s": 1e12}},
        {"provider": {**LIVE, "backoff_s": 1e300}},
        {"provider": {**LIVE, "timeout_s": float("nan")}},
        {"provider": {**LIVE, "backoff_s": float("inf")}},
        {"provider": {**LIVE, "transport_retries": 11}},
        {"max_reprocces": 5},
        {"provider": {"type": "mock", "script": MOCK_SCRIPT, "scirpt": "other.json"}},
        {"provider": {**LIVE, "timeout": 5}},
        {"domains": "History"},
        {"temperatures": {"PA": "hot"}},
        {"temperatures": {"PA": float("nan")}},  # json.load reads NaN; a request body cannot carry it
        {"temperatures": {"DEA": -float("inf")}},
        {"threshold": 3},
        {"temperatures": ["PA"]},
        {"catalog_path": 5},
        {"provider": {"type": "mock", "script": 5}},
        {"provider": {**LIVE, "model": 5}},
        {"provider": {**LIVE, "api_key_env": 5}},
    ],
    ids=[
        "k_rules-string",
        "k_rules-bool",
        "concurrency-float",
        "deterministic-string",
        "live-timeout-string",
        "live-timeout-negative",
        "live-backoff-negative",
        "live-retries-zero",
        "live-base-url-file",
        "live-timeout-huge",
        "live-backoff-huge",
        "live-timeout-nan",
        "live-backoff-infinite",
        "live-retries-eleven",
        "unknown-key",
        "mock-unknown-key",
        "live-unknown-key",
        "domains-string",
        "temperature-string",
        "temperature-nan",
        "temperature-minus-infinity",
        "threshold-number",
        "temperatures-list",
        "catalog-path-number",
        "mock-script-number",
        "live-model-number",
        "live-key-env-number",
    ],
)
def test_mistyped_config_value_exits_3(settings, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RULEGRAPH_API_KEY", "secret")
    for name in ("RULEGRAPH_BASE_URL", "RULEGRAPH_MODEL"):  # either would win over the file's value
        monkeypatch.delenv(name, raising=False)
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"provider": {"type": "mock", "script": MOCK_SCRIPT}, **settings}), encoding="utf-8"
    )
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "must be" in err and err.count("\n") == 1
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--task", "t", "--config", str(path), "--trace", str(trace)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "must be" in err and err.count("\n") == 1
    assert not trace.exists()


@pytest.mark.parametrize("verb", ["validate-config", "run"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({}, "config needs a provider object"),
        ({"provider": [{"type": "mock"}]}, "config needs a provider object"),
        ({"provider": {"type": "mock", "script": MOCK_SCRIPT}, "threshold": "XX"}, "bad threshold"),
        (
            {"provider": {"type": "mock", "script": MOCK_SCRIPT}, "temperatures": {"XYZ": 0.5}},
            "bad temperature for role",
        ),
        ({"provider": {"type": "mock"}}, "needs a 'script' path"),
        ({"provider": {"type": "live", "model": "m"}}, "needs base_url and model"),
    ],
    ids=["no-provider", "provider-list", "threshold", "temperature-role", "mock-no-script", "live-no-base-url"],
)
def test_config_refusal_exits_3_with_one_line(config, message, verb, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RULEGRAPH_API_KEY", "secret")
    monkeypatch.delenv("RULEGRAPH_BASE_URL", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(verb_argv(verb, str(path), tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["validate-config", "run"])
@pytest.mark.parametrize(
    "undecodable, message",
    [("config.json", "config file is not valid JSON"), ("domains.txt", "cannot read domain catalog")],
    ids=["config", "catalog"],
)
def test_undecodable_config_or_catalog_exits_3(undecodable, message, verb, tmp_path, capsys):
    config = {"provider": {"type": "mock", "script": MOCK_SCRIPT}, "catalog_path": "domains.txt"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / undecodable).write_bytes(b"\xff\xfe")
    assert main(verb_argv(verb, str(path), tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "catalog", [{"domains": []}, {"catalog_path": "blank.txt"}], ids=["domains-empty", "catalog-blank-lines"]
)
def test_empty_catalog_exits_3(catalog, tmp_path, capsys):
    (tmp_path / "blank.txt").write_text("\n  \n", encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"provider": {"type": "mock", "script": MOCK_SCRIPT}, **catalog}), encoding="utf-8"
    )
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    assert "domain catalog is empty" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate-config", "run"])
def test_domains_and_catalog_path_together_exit_3(verb, tmp_path, capsys):
    config = {
        "provider": {"type": "mock", "script": MOCK_SCRIPT},
        "domains": ["History", "Biology", "Law"],
        "catalog_path": "no-such-file.txt",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(verb_argv(verb, str(path), tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "domains and catalog_path" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb", ["validate-config", "run"])
@pytest.mark.parametrize("limit", ["max_depth", "max_chain"])
def test_unbounded_repair_tree_exits_3_at_once(limit, verb, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"provider": {"type": "mock", "script": MOCK_SCRIPT}, limit: 10**9}), encoding="utf-8")
    started = time.monotonic()
    assert main(verb_argv(verb, str(path), tmp_path)) == EXIT_CONFIG
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert "nodes per subtask" in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate-config", "run"])
def test_repeated_catalog_domains_exit_3(verb, tmp_path, capsys):
    # k_rules = 3 needs three distinct domains; this catalog names only two.
    config = {"provider": {"type": "mock", "script": MOCK_SCRIPT}, "domains": ["History", "History", "Biology"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(verb_argv(verb, str(path), tmp_path)) == EXIT_CONFIG
    assert "k_rules exceeds the number of distinct catalog domains" in capsys.readouterr().err


def in_fresh_interpreter(code: str, result: str):
    """Run code in a new interpreter, then the expression result; returns its value through JSON."""
    code += f"; import json, sys; print(json.dumps({result}))"
    paths = [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def loaded_in_fresh_interpreter(code: str, modules: tuple[str, ...]) -> list[str]:
    """Run code in a new interpreter; returns those of modules it left in sys.modules."""
    return in_fresh_interpreter(code, f"[m for m in {modules!r} if m in sys.modules]")


def test_cli_import_loads_no_http_stack():
    # Only a live call needs HTTP, so importing the CLI must load no HTTP client.
    modules = ("requests", "urllib.request", "http.client")
    assert loaded_in_fresh_interpreter("import rulegraph.cli", modules) == []


def test_config_load_imports_no_pool_parser_or_bench():
    # A config load runs no thread pool, parses no argv and runs no dataset, so it imports none.
    code = f"from rulegraph.cli import load_config; load_config({DEMO_CONFIG!r})"
    modules = ("concurrent.futures", "uuid", "argparse", "rulegraph.bench")
    assert loaded_in_fresh_interpreter(code, modules) == []


def test_pooled_run_imports_no_concurrent_futures():
    # A run at concurrency above 1 builds its thread pool from queue and threading alone.
    code = (
        "from dataclasses import replace; from rulegraph.cli import load_config; "
        "from rulegraph.engine import execute_task; "
        f"config = replace(load_config({DEMO_CONFIG!r}), concurrency=2); "
        "assert execute_task('Reply to the film magazine editor', config).provider_calls > 0"
    )
    assert loaded_in_fresh_interpreter(code, ("concurrent.futures",)) == []


def test_config_load_builds_one_dataclass():
    # Each @dataclass generates and compiles its methods at import, a cold-start cost;
    # RunConfig keeps it because dataclasses.replace is its documented copy path.
    code = f"from rulegraph.cli import load_config; load_config({DEMO_CONFIG!r})"
    dataclasses = (
        "sorted({c.__qualname__ for name, m in list(sys.modules.items()) if name.split('.')[0] == 'rulegraph'"
        " for c in vars(m).values() if isinstance(c, type) and '__dataclass_fields__' in vars(c)})"
    )
    assert in_fresh_interpreter(code, dataclasses) == ["RunConfig"]


def verb_argv(verb, config, tmp_path):
    argv = {
        "validate-config": ["validate-config"],
        "run": ["run", "--task", "reply", "--trace", str(tmp_path / "t.jsonl")],
        "bench": ["bench", "--dataset", TRIVIA, "--report", str(tmp_path / "r.json")],
    }[verb]
    return argv + ["--config", config]


@pytest.mark.parametrize("verb", ["validate-config", "run", "bench"])
@pytest.mark.parametrize(
    "script",
    [
        {"entries": [{"role": "PA", "attempt": "one", "response": "{}"}]},
        {"entries": [1, 2]},
        {"entries": "abc"},
        {"entries": 5},
        ["not", "an", "object"],
        {"entries": [{"role": "PA", "attempt": 1, "response": 5}]},
        {"entries": [{"role": "PA", "attempt": a, "response": "{}"} for a in (1, 1.9)]},
        {"entries": [{"role": "PA", "attempt": 1, "response": r} for r in ("first", "second")]},
    ],
    ids=[
        "attempt-string",
        "entries-ints",
        "entries-string",
        "entries-number",
        "script-list",
        "response-number",
        "attempt-float",
        "duplicate-key",
    ],
)
def test_bad_mock_script_exits_3(script, verb, tmp_path, capsys):
    assert main(verb_argv(verb, mock_config(tmp_path, script), tmp_path)) == EXIT_CONFIG
    assert "cannot load mock script" in capsys.readouterr().err


@pytest.mark.parametrize(
    "deep, message",
    [
        ("config.json", "config file is not valid JSON"),
        ("script.json", "cannot load mock script"),
        ("dataset.jsonl", "line 1: invalid JSON"),
        ("trace.jsonl", "cannot read trace"),
    ],
    ids=["config", "mock-script", "dataset", "trace"],
)
def test_deeply_nested_json_input_exits_3(deep, message, tmp_path, capsys):
    config = mock_config(tmp_path, {"entries": []})
    path = tmp_path / deep  # config.json and script.json overwrite what mock_config wrote
    path.write_text('{"entries": ' + "[" * 100_000, encoding="utf-8")
    argv = {
        "dataset.jsonl": ["bench", "--dataset", str(path), "--report", str(tmp_path / "r.json")],
        "trace.jsonl": ["export-dot", "--trace", str(path)],
    }.get(deep, ["validate-config"])
    if deep != "trace.jsonl":
        argv += ["--config", config]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "fixture, verb", [("email_script.json", "run"), ("bench_script.json", "bench")]
)
def test_incomplete_mock_script_exits_3(fixture, verb, tmp_path, capsys):
    with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as handle:
        entries = json.load(handle)["entries"][:5]
    config = mock_config(tmp_path, {"entries": entries})
    assert main(verb_argv(verb, config, tmp_path)) == EXIT_CONFIG
    assert "mock script has no entry for" in capsys.readouterr().err


class TestRunCommand:
    def test_interrupt_exits_130_with_one_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(task, config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "execute_task", interrupted)
        assert main(verb_argv("run", DEMO_CONFIG, tmp_path)) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"

    def test_run_prints_answer_and_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--task", "reply to the editor", "--config", DEMO_CONFIG,
             "--trace", str(trace), "--deterministic"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out == FINAL_EMAIL + "\n"
        assert "trace written" in captured.err
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["kind"] == "provider_call" or json.loads(lines[0])["seq"] == 1

    def test_run_is_byte_stable(self, tmp_path, capsys):
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            main(["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(path)])
            traces.append(path.read_bytes())
        capsys.readouterr()
        assert traces[0] == traces[1]

    def test_demo_trace_matches_its_golden_hash(self, tmp_path, capsys):
        trace = tmp_path / "demo.jsonl"
        code = main(
            ["run", "--task", "Reply to the film magazine editor", "--config", DEMO_CONFIG,
             "--deterministic", "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == DEMO_TRACE_SHA256

    @pytest.mark.parametrize("hash_seed", ["0", "424242"])
    def test_demo_trace_hash_holds_under_any_hash_seed(self, hash_seed, tmp_path):
        # String hashes follow PYTHONHASHSEED and role hashes follow memory addresses,
        # so a fresh interpreter per seed shows whether set or dict order reaches the trace.
        trace = tmp_path / "demo.jsonl"
        paths = [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        argv = ["run", "--task", "Reply to the film magazine editor", "--config", DEMO_CONFIG,
                "--deterministic", "--trace", str(trace)]
        child = subprocess.run(
            [sys.executable, "-m", "rulegraph.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == EXIT_OK, child.stderr
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == DEMO_TRACE_SHA256

    def test_task_from_file(self, tmp_path, capsys):
        task_file = tmp_path / "task.txt"
        task_file.write_text("reply to the editor\n", encoding="utf-8")
        code = main(
            ["run", "--task", str(task_file), "--config", DEMO_CONFIG,
             "--trace", str(tmp_path / "t.jsonl")]
        )
        capsys.readouterr()
        assert code == EXIT_OK

    def test_undecodable_task_file_exits_3(self, tmp_path, capsys):
        task_file = tmp_path / "task.txt"
        task_file.write_bytes(b"\xff\xfe")
        trace = tmp_path / "t.jsonl"
        code = main(["run", "--task", str(task_file), "--config", DEMO_CONFIG, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "cannot read task file" in captured.err and captured.out == ""
        assert not trace.exists()

    def test_blank_task_exits_3_with_one_line(self, tmp_path, capsys):
        code = main(["run", "--task", "   ", "--config", DEMO_CONFIG, "--trace", str(tmp_path / "t.jsonl")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "run failed: task must be non-empty\n" and captured.out == ""

    def test_planning_failure_exit_code_and_partial_trace(self, tmp_path, capsys):
        script = {"entries": [{"role": "PA", "attempt": n, "response": "junk"} for n in (1, 2, 3)]}
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"provider": {"type": "mock", "script": "script.json"}, "deterministic": True}),
            encoding="utf-8",
        )
        trace = tmp_path / "trace.jsonl"
        code = main(["run", "--task", "t", "--config", str(config_path), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_PLANNING
        assert "run failed" in captured.err
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert kinds.count("provider_call") == 3 and kinds[-1] == "warning"

    def test_budget_overrun_exits_1_with_the_committed_prefix(self, tmp_path, capsys, monkeypatch):
        import rulegraph.engine as engine

        full, partial = tmp_path / "full.jsonl", tmp_path / "partial.jsonl"
        assert main(["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(full)]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(engine, "call_budget", lambda config, n_subtasks: 5)
        code = main(["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(partial)])
        captured = capsys.readouterr()
        assert code == EXIT_FAILURE and captured.out == ""
        assert captured.err.startswith("run failed: provider calls ")
        assert captured.err.endswith(" exceeded the termination budget 5\n")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        text = partial.read_text(encoding="utf-8")
        assert full.read_text(encoding="utf-8").startswith(text)
        calls = [line for line in text.splitlines() if json.loads(line)["kind"] == "provider_call"]
        assert f"provider calls {len(calls)} exceeded" in captured.err

    def test_run_exactly_at_the_budget_exits_0_and_one_call_fewer_exits_1(self, tmp_path, capsys, monkeypatch):
        import rulegraph.engine as engine

        trace = tmp_path / "trace.jsonl"
        argv = ["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(trace)]
        assert main(argv) == EXIT_OK
        kinds = [json.loads(line)["kind"] for line in trace.read_text(encoding="utf-8").splitlines()]
        calls = kinds.count("provider_call")
        monkeypatch.setattr(engine, "call_budget", lambda config, n_subtasks: calls)
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(engine, "call_budget", lambda config, n_subtasks: calls - 1)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_FAILURE and captured.out == ""
        assert captured.err == f"run failed: provider calls {calls} exceeded the termination budget {calls - 1}\n"

    def test_unwritable_trace_fails_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        from rulegraph.agents import MockProvider

        calls = []
        complete = MockProvider.complete
        monkeypatch.setattr(
            MockProvider, "complete", lambda self, request: calls.append(request) or complete(self, request)
        )
        trace = tmp_path / "missing" / "trace.jsonl"
        code = main(["run", "--task", "t", "--config", DEMO_CONFIG, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert calls == []
        assert "cannot open trace file" in captured.err and captured.out == ""

    def test_unwritable_report_fails_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        from rulegraph.agents import MockProvider

        calls = []
        complete = MockProvider.complete
        monkeypatch.setattr(
            MockProvider, "complete", lambda self, request: calls.append(request) or complete(self, request)
        )
        report = tmp_path / "missing" / "r.json"
        code = main(["bench", "--dataset", TRIVIA, "--config", BENCH_CONFIG, "--report", str(report)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert calls == []
        assert "cannot open report file" in captured.err and captured.out == ""

    @needs_dev_full
    def test_failing_trace_write_prints_answer_then_exits_3(self, capsys):
        code = main(
            ["run", "--task", "reply to the editor", "--config", DEMO_CONFIG,
             "--trace", "/dev/full", "--deterministic"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == FINAL_EMAIL + "\n"
        assert "cannot write trace file" in captured.err and "trace written" not in captured.err

    @needs_dev_full
    def test_failing_trace_write_keeps_engine_exit_code(self, tmp_path, capsys):
        script = {"entries": [{"role": "PA", "attempt": n, "response": "junk"} for n in (1, 2, 3)]}
        (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
        (tmp_path / "config.json").write_text(
            json.dumps({"provider": {"type": "mock", "script": "script.json"}}), encoding="utf-8"
        )
        code = main(
            ["run", "--task", "t", "--config", str(tmp_path / "config.json"), "--trace", "/dev/full"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_PLANNING
        assert "cannot write trace file" in captured.err and "run failed" in captured.err

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--task", "t", "--config", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_malformed_final_fusion_maps_to_provider_exit(self, tmp_path, capsys):
        from helpers import (
            assessment_response,
            candidate_response,
            plan_response,
            ruleset_response,
        )
        from rulegraph.cli import EXIT_PROVIDER

        entries = [
            {"role": "PA", "attempt": 1, "response": plan_response("g", [("s1", "only step")])},
            {"role": "DAA", "attempt": 1,
             "response": ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")])},
            {"role": "GEA", "attempt": 1, "response": assessment_response("H")},
        ]
        entries += [
            {"role": "DEA", "attempt": n, "response": candidate_response("a")} for n in (1, 2, 3)
        ]
        entries += [{"role": "FEA", "attempt": n, "response": "junk"} for n in (1, 2, 3)]
        (tmp_path / "script.json").write_text(json.dumps({"entries": entries}), encoding="utf-8")
        (tmp_path / "config.json").write_text(
            json.dumps({"provider": {"type": "mock", "script": "script.json"}, "deterministic": True}),
            encoding="utf-8",
        )
        code = main(
            ["run", "--task", "t", "--config", str(tmp_path / "config.json"),
             "--trace", str(tmp_path / "t.jsonl")]
        )
        captured = capsys.readouterr()
        assert code == EXIT_PROVIDER
        assert "provider failure" in captured.err
        records = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert records[-1]["kind"] == "warning"
        assert records[-1]["payload"]["reason"] == "final_fusion_failed"
        assert [r["kind"] for r in records].count("provider_call") == 9

    def test_blank_subtask_statement_is_replanned(self, tmp_path, capsys):
        from helpers import (
            assessment_response,
            candidate_response,
            classification_response,
            fusion_answer,
            plan_response,
            ruleset_response,
        )

        rules = ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")])
        entries = [
            {"role": "PA", "attempt": 1, "response": plan_response("g", [("s1", "   ")])},
            {"role": "GEA", "attempt": 1, "response": assessment_response("H")},
            {"role": "FEA", "attempt": 1, "response": fusion_answer("done")},
            {"run": "run-0", "node": "s1", "role": "PA", "attempt": 1,
             "response": classification_response("too_complex")},
            {"run": "run-0", "node": "s1", "role": "PA", "attempt": 2,
             "response": plan_response("g", [("c1", "a step with words")])},
        ]
        entries += [{"role": "DAA", "attempt": n, "response": rules} for n in (1, 2, 3)]
        entries += [{"role": "DEA", "attempt": n, "response": candidate_response("a")} for n in range(1, 10)]
        entries += [
            {"run": "run-0", "node": "s1", "role": "GEA", "attempt": n,
             "response": assessment_response("L", "says nothing")}
            for n in (1, 2, 3)
        ]
        trace = tmp_path / "t.jsonl"
        argv = ["run", "--task", "t", "--config", mock_config(tmp_path, {"entries": entries}),
                "--trace", str(trace), "--deterministic"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.out == "done\n"
        assert "Traceback" not in captured.err
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        spliced = [r["payload"] for r in records if r["kind"] == "node_spliced"]
        assert spliced == [{"node": "s1", "chain": ["c1"], "depth": 1}]


class TestBenchCommand:
    def test_bench_table_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["bench", "--dataset", TRIVIA, "--config", BENCH_CONFIG, "--report", str(report)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = captured.out.splitlines()
        assert lines[0].split() == ["sample", "correct", "score", "error"]
        assert lines[-1].split()[:2] == ["aggregate", "0.400"]
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["aggregate"] == pytest.approx(0.4)
        assert [s["id"] for s in payload["samples"]] == ["t1", "t2", "t3"]

    def test_bench_report_byte_stable(self, tmp_path, capsys):
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            main(["bench", "--dataset", TRIVIA, "--config", BENCH_CONFIG, "--report", str(path)])
            reports.append(path.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_deterministic_flag_overrides_the_config(self, tmp_path, capsys):
        with open(BENCH_CONFIG, encoding="utf-8") as handle:
            raw = json.load(handle)
        raw["deterministic"] = False
        raw["provider"]["script"] = os.path.join(FIXTURES, raw["provider"]["script"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            args = ["bench", "--dataset", TRIVIA, "--config", str(config), "--report", str(path)]
            assert main([*args, "--deterministic"]) == EXIT_OK
            reports.append(path.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["run_stats"]["wall_time_s"] == 0

    def test_empty_dataset_exits_3_with_one_line(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        code = main(
            ["bench", "--dataset", str(dataset), "--config", BENCH_CONFIG,
             "--report", str(tmp_path / "r.json")]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "bench error: dataset contains no samples\n" and captured.out == ""

    @needs_dev_full
    def test_failing_report_write_prints_table_then_exits_3(self, capsys):
        code = main(["bench", "--dataset", TRIVIA, "--config", BENCH_CONFIG, "--report", "/dev/full"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out.splitlines()[-1].split()[:2] == ["aggregate", "0.400"]
        assert "cannot write report file" in captured.err and "report written" not in captured.err

    def test_undecodable_dataset_exits_3(self, tmp_path, capsys):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_bytes(b"\xff\xfe")
        code = main(
            ["bench", "--dataset", str(dataset), "--config", BENCH_CONFIG,
             "--report", str(tmp_path / "r.json")]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "bench setup error" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "record, error",
        [
            ([1, 2], "line 1: record must be an object"),
            (
                {"id": "a", "task": "t", "questions": ["q"], "targets": [[]]},
                "line 1: every question needs at least one target string",
            ),
        ],
        ids=["not-an-object", "empty-targets"],
    )
    def test_bad_dataset_record_exits_3_with_one_line(self, record, error, tmp_path, capsys):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
        report = tmp_path / "r.json"
        code = main(["bench", "--dataset", str(dataset), "--config", BENCH_CONFIG, "--report", str(report)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"bench setup error: {error}\n" and captured.out == ""


def graph_record(nodes, edges, kind="plan"):
    """One trace line: a plan or final record whose graph has the (id, kind, statement) nodes."""
    graph = {"nodes": [{"id": i, "kind": k, "statement": st} for i, k, st in nodes], "edges": edges}
    return json.dumps({"kind": kind, "seq": 1, "payload": {"graph": graph}}).encode() + b"\n"


def final_record(subtasks, edges):
    """A final record over T, F and the given subtask ids, each with a statement."""
    nodes = [("T", "original", "t"), ("F", "fusion", ""), *((i, "subtask", f"do {i}") for i in subtasks)]
    return graph_record(nodes, edges, kind="final")


class TestExportDot:
    def test_rerenders_final_graph_from_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(trace)])
        capsys.readouterr()
        code = main(["export-dot", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        dot = captured.out
        assert dot.startswith("digraph")
        assert '"T3a" -> "T3b";' in dot
        assert '"T3"' not in dot.replace('"T3a"', "").replace('"T3b"', "").replace('"T3c"', "")
        assert "T1\\nsubtask\\nH" in dot

    def test_out_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(trace)])
        out = tmp_path / "graph.dot"
        code = main(["export-dot", "--trace", str(trace), "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK and out.read_text(encoding="utf-8").startswith("digraph")


    @pytest.mark.parametrize(
        "content, error",
        [
            (b"\xff\xfe", "UnicodeDecodeError"),
            (b"[1, 2]\n", "TypeError"),
            (b'{"a": 1}\n', "KeyError"),
            (b'{"kind": "plan", "seq": 1, "payload": {"goal": "g", "graph": {"nodes": [], "edges": []}}}\n',
             "GraphError"),
            (b'{"kind": "plan", "seq": 1}\n', "KeyError"),
            (graph_record([("T", "original", "t"), ("s1", "fusion", "x"), ("F", "fusion", "")],
                          [("T", "s1"), ("s1", "F")]), "GraphError: node s1 has kind 'fusion'"),
            (graph_record([("X", "original", "t"), ("F", "fusion", "")], [("X", "F")]),
             "GraphError: node X has kind 'original'"),
            (graph_record([("T", "original", "t"), ("s1", "subtask", ""), ("F", "fusion", "")],
                          [("T", "s1"), ("s1", "F")], kind="final"),
             "GraphError: node s1 has an empty statement"),
            (final_record(["s1"], [("T", "s1"), ("s1", "s1"), ("s1", "F")]),
             "GraphError: self edge on s1"),
            (final_record(["s1"], [("T", "s1"), ("s1", "F"), ("s1", "s9")]),
             "GraphError: edge (s1, s9) references an unknown node"),
            (final_record(["s1"], [("T", "s1"), ("s1", "F"), ("s1", "T")]),
             "GraphError: original node must have in-degree 0"),
            (final_record(["s1"], [("T", "s1"), ("s1", "F"), ("F", "s1")]),
             "GraphError: fusion node must have out-degree 0"),
            (final_record(["s1", "s2"], [("T", "s1"), ("s1", "s2"), ("s2", "s1"), ("s2", "F")]),
             "GraphError: graph contains a cycle"),
            (final_record(["s1", "s2"], [("T", "s1"), ("s1", "F"), ("s2", "F")]),
             "GraphError: subtask s2 unreachable from the original node"),
            (final_record(["s1", "s2"], [("T", "s1"), ("s1", "F"), ("T", "s2")]),
             "GraphError: subtask s2 cannot reach the fusion node"),
            (graph_record([("T", "original", "t"), (5, "subtask", "do 5"), ("F", "fusion", "")],
                          [("T", 5), (5, "F")]), "GraphError: node id 5 is not a string"),
        ],
        ids=["undecodable", "not-an-object", "no-kind", "graph-without-nodes", "no-payload",
             "kind-disagrees-with-id", "original-not-T", "empty-statement", "self-edge",
             "unknown-node", "original-in-degree", "fusion-out-degree", "cycle",
             "unreachable-from-T", "cannot-reach-F", "non-string-id"],
    )
    def test_unreadable_trace_exits_3(self, content, error, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(content)
        code = main(["export-dot", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert f"cannot read trace {trace}: {error}" in captured.err and captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_non_string_membership_exits_3_naming_its_type(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        done = {"kind": "node_done", "seq": 2, "payload": {"node": "s1", "membership": 5}}
        trace.write_bytes(final_record(["s1"], [("T", "s1"), ("s1", "F")]) + json.dumps(done).encode() + b"\n")
        code = main(["export-dot", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == (
            f"cannot read trace {trace}: UnrecognizedLabel: membership token must be a string, got int: 5\n"
        )

    def test_trace_without_graph_snapshot_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"kind": "node_start", "seq": 1, "payload": {}}) + "\n", encoding="utf-8")
        code = main(["export-dot", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "trace contains no graph snapshot\n" and captured.out == ""

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["run", "--task", "reply", "--config", DEMO_CONFIG, "--trace", str(trace)])
        code = main(["export-dot", "--trace", str(trace), "--out", str(tmp_path / "missing" / "g.dot")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "cannot write dot file" in captured.err


class TestValidateConfig:
    def test_ok(self, capsys):
        assert main(["validate-config", "--config", DEMO_CONFIG]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"provider": {"type": "warp"}}', encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "invalid config" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--task", "t", "--config", "c", "--warp-speed"])
        capsys.readouterr()
        assert err.value.code == 2

    def test_missing_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        capsys.readouterr()
        assert err.value.code == 2


def test_exit_codes_are_the_readme_table():
    # literals, since the other tests compare exit codes with the module's constants
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        table = handle.read().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) +\|", table, re.M)
    assert [int(code) for code in rows] == [0, 1, 2, 3, 4, 5, 6, 130]
    codes = (
        cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_USAGE, cli.EXIT_CONFIG, cli.EXIT_PLANNING,
        cli.EXIT_ALL_PATHS, cli.EXIT_PROVIDER, cli.EXIT_INTERRUPTED,
    )
    assert codes == (0, 1, 2, 3, 4, 5, 6, 130)
