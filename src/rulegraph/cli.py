"""Command-line front end: run one task, run a benchmark, re-render graphs, check config.

stdout carries only the requested artifact (the final answer, the score
table, or DOT text); everything else goes to stderr. Engine failures map
to distinct exit codes, documented in the README.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import fields, replace
from typing import TYPE_CHECKING

from .agents import LiveProvider, MockProvider, RoleKind, ScriptMiss
from .engine import (
    _JSON_TYPES,
    AllPathsFailed,
    ConfigError,
    EngineError,
    FusionFailure,
    PlanningFailure,
    RunConfig,
    execute_task,
    write_trace,
    write_trace_events,
)
from .graph import GraphError, TaskGraph, export_dot
from .membership import UnrecognizedLabel, parse_label
from .rules import DEFAULT_DOMAINS

if TYPE_CHECKING:  # pragma: no cover
    import argparse

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_PLANNING = 4
EXIT_ALL_PATHS = 5
EXIT_PROVIDER = 6
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it

DEFAULT_API_KEY_ENV = "RULEGRAPH_API_KEY"

# RunConfig fields a config file sets directly; RunConfig checks their types.
_SCALAR_FIELDS = {f.name for f in fields(RunConfig) if type(f.default) in (bool, int, str)}
_CONFIG_KEYS = {*_SCALAR_FIELDS, "provider", "threshold", "domains", "catalog_path", "temperatures"}
_LIVE_OPTIONS = ("timeout_s", "transport_retries", "backoff_s")
_PROVIDER_KEYS = {
    "mock": {"type", "script"},
    "live": {"type", "base_url", "model", "api_key_env", *_LIVE_OPTIONS},
}


def _known_keys(spec: dict, allowed: set[str], what: str) -> None:
    """Reject the first key of spec outside allowed; a mistyped key would otherwise be ignored."""
    for key in spec:
        if key not in allowed:
            known = ", ".join(sorted(allowed))
            raise ConfigError(f"unknown {what} key {key!r}; keys must be among {known}")


def _typed(spec: dict, key: str, default):
    """spec[key] if it has the JSON type of default, default if absent, else a ConfigError.

    Only for keys whose file form RunConfig or LiveProvider does not take as is.
    """
    if key not in spec:
        return default
    value, kind = spec[key], type(default)
    if type(value) is kind:
        return value
    raise ConfigError(f"{key!r} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")


def load_config(path: str) -> RunConfig:
    """Build a RunConfig from a JSON file.

    Relative paths inside the file resolve against the file's directory.
    Secrets come from the environment only: the live provider reads its key
    from the env var named by api_key_env. RULEGRAPH_BASE_URL and
    RULEGRAPH_MODEL override the file's live-provider settings.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes, not JSON, or nested too deep
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))

    provider_spec = raw.get("provider") if isinstance(raw, dict) else None
    if not isinstance(provider_spec, dict) or "type" not in provider_spec:
        raise ConfigError("config needs a provider object with a 'type'")
    _known_keys(raw, _CONFIG_KEYS, "config")
    provider = _build_provider(provider_spec, base_dir)

    domains = raw.get("domains")
    if domains is not None and "catalog_path" in raw:
        raise ConfigError("give one of domains and catalog_path, not both")
    if "catalog_path" in raw:
        catalog_file = os.path.join(base_dir, _typed(raw, "catalog_path", ""))
        try:
            with open(catalog_file, encoding="utf-8") as handle:
                domains = [line.strip() for line in handle if line.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read domain catalog: {exc}") from exc

    temperatures = {}
    for name, value in _typed(raw, "temperatures", {}).items():
        try:
            temperatures[RoleKind(name)] = value
        except ValueError as exc:
            raise ConfigError(f"bad temperature for role {name!r}: {exc}") from exc

    try:
        threshold = parse_label(_typed(raw, "threshold", RunConfig.threshold.token))
    except UnrecognizedLabel as exc:
        raise ConfigError(f"bad threshold: {exc}") from exc

    return RunConfig(
        provider=provider,
        threshold=threshold,
        domains=DEFAULT_DOMAINS if domains is None else domains,
        temperatures=temperatures,
        **{name: raw[name] for name in _SCALAR_FIELDS if name in raw},
    )


def _build_provider(spec: dict, base_dir: str):
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _PROVIDER_KEYS:
        raise ConfigError(f"unknown provider type {kind!r}")
    _known_keys(spec, _PROVIDER_KEYS[kind], f"{kind} provider")
    if kind == "mock":
        script_path = _typed(spec, "script", "")
        if not script_path:
            raise ConfigError("mock provider needs a 'script' path")
        resolved = os.path.join(base_dir, script_path)  # an absolute script_path wins
        try:
            return MockProvider.from_file(resolved)
        except (OSError, ValueError) as exc:  # from_file raises ValueError for any malformed script
            raise ConfigError(f"cannot load mock script {resolved}: {exc}") from exc
    base_url = os.environ.get("RULEGRAPH_BASE_URL") or _typed(spec, "base_url", "")
    model = os.environ.get("RULEGRAPH_MODEL") or _typed(spec, "model", "")
    if not base_url or not model:
        raise ConfigError("live provider needs base_url and model (config or env)")
    if not base_url.lower().startswith(("http://", "https://")):
        raise ConfigError(f"live provider base_url must be an http or https URL, got {base_url!r}")
    key_env = _typed(spec, "api_key_env", DEFAULT_API_KEY_ENV)
    api_key = os.environ.get(key_env, "")
    if not api_key:
        raise ConfigError(f"live provider key env var {key_env} is not set")
    options = {name: spec[name] for name in _LIVE_OPTIONS if name in spec}
    try:
        return LiveProvider(base_url=base_url, model=model, api_key=api_key, **options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_task(value: str) -> str:
    if not os.path.isfile(value):
        return value
    try:
        with open(value, encoding="utf-8") as handle:
            return handle.read().strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read task file {value}: {exc}") from exc


def _save(sink, write, what: str) -> bool:
    """Call write(), then close sink; if either fails, print one line and return False."""
    try:
        write()
        sink.close()
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _engine_exit(exc: EngineError) -> int:
    if isinstance(exc, PlanningFailure):
        return EXIT_PLANNING
    if isinstance(exc, AllPathsFailed):
        return EXIT_ALL_PATHS
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, FusionFailure):
        return EXIT_PROVIDER
    return EXIT_FAILURE


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.deterministic:
            config = replace(config, deterministic=True)
        task = _read_task(args.task)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sink = open(args.trace, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot open trace file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with sink:
        try:
            outcome = execute_task(task, config)
        except EngineError as exc:
            _save(sink, lambda: write_trace_events(exc.trace, sink), "trace file")
            print(f"run failed: {exc}", file=sys.stderr)
            return _engine_exit(exc)
        saved = _save(sink, lambda: write_trace(outcome, sink), "trace file")
    print(outcome.final.answer_text)
    if not saved:
        return EXIT_CONFIG
    print(
        f"trace written to {args.trace} ({outcome.provider_calls} provider calls)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    # imported here: only this verb runs a dataset
    from .bench import DatasetError, load_dataset, render_table, report_to_json, run_benchmark

    try:
        config = load_config(args.config)
        if args.deterministic:
            config = replace(config, deterministic=True)
        dataset = load_dataset(args.dataset)
    except (ConfigError, DatasetError, OSError, UnicodeDecodeError) as exc:
        print(f"bench setup error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sink = open(args.report, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot open report file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with sink:
        try:
            report = run_benchmark(dataset, config, dataset_name=os.path.basename(args.dataset))
        except DatasetError as exc:
            print(f"bench error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        saved = _save(sink, lambda: sink.write(report_to_json(report)), "report file")
    sys.stdout.write(render_table(report))
    if not saved:
        return EXIT_CONFIG
    print(f"report written to {args.report}", file=sys.stderr)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    try:
        with open(args.trace, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        graph_payload = None
        memberships: dict[str, str] = {}
        for event in events:
            if event["kind"] in ("plan", "final"):
                graph_payload = event["payload"]["graph"]
            if event["kind"] == "node_done":
                memberships[event["payload"]["node"]] = event["payload"]["membership"]
        if graph_payload is None:
            print("trace contains no graph snapshot", file=sys.stderr)
            return EXIT_CONFIG
        graph = TaskGraph.from_payload(graph_payload)
        labels = {node: parse_label(token) for node, token in memberships.items() if node in graph.nodes}
    except (OSError, ValueError, RecursionError, LookupError, TypeError, GraphError) as exc:
        # a decode or JSON error is a ValueError, a line nested too deep a RecursionError;
        # a record of the wrong shape, a LookupError or TypeError; a graph that breaks an
        # invariant, a GraphError
        print(f"cannot read trace {args.trace}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    dot = export_dot(graph, labels)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            print(f"cannot write dot file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"dot written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    provider_kind = "mock" if getattr(config.provider, "scripted", False) else "live"
    print(
        "config ok: "
        f"provider={provider_kind} k_rules={config.k_rules} "
        f"max_reprocess={config.max_reprocess} max_depth={config.max_depth} "
        f"max_chain={config.max_chain} threshold={config.threshold.token} "
        f"cluster_mode={config.cluster_mode} domains={len(config.domains)}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import argparse  # imported here: load_config and the verbs never parse argv

    parser = argparse.ArgumentParser(
        prog="rulegraph",
        description="Rule-driven task-graph orchestration over LLM agent roles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one task")
    p_run.add_argument("--task", required=True, help="task text, or a path to a text file")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--trace", default="trace.jsonl", help="trace output path")
    p_run.add_argument("--deterministic", action="store_true", help="byte-stable trace, scripted provider only")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a benchmark dataset")
    p_bench.add_argument("--dataset", required=True, help="line-delimited dataset file")
    p_bench.add_argument("--config", required=True, help="JSON config file")
    p_bench.add_argument("--report", default="report.json", help="report output path")
    p_bench.add_argument("--deterministic", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_dot = sub.add_parser("export-dot", help="re-render the run graph from a trace")
    p_dot.add_argument("--trace", required=True, help="trace file from a previous run")
    p_dot.add_argument("--out", help="output path (default: stdout)")
    p_dot.set_defaults(func=_cmd_export_dot)

    p_val = sub.add_parser("validate-config", help="check a config file and its catalog")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScriptMiss as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
