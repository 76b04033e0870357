"""rulegraph benchmark: one workload, one seed, one measured phase.

    python3 benchmarks/run.py --workload batch-mixed --seed 7 --seconds 50 --trace 0

Run from the root of a checkout: rulegraph is imported from its src/, and
generated inputs, traces and spans go to benchmarks/.out/. The load is a
closed loop from one process with one client: the next task starts when
the previous one returns. With --trace 0 the last stdout line reports the
end-to-end metrics. With --trace 1 it reports per-layer figures from
wrapped calls, plus the tracing overhead measured against untraced tasks
interleaved with the traced ones. Every task is checked against what the
generator scripted; any failure makes the exit code 1.

    python3 benchmarks/run.py --print-hashes

prints the default-seed trace hashes that benchmarks/expected.json records.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, ".out")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_SAMPLES = 10  # fresh interpreters timed, spread evenly over the measured phase
BATCH_CHUNK = 100  # samples per run_benchmark call
CAP_CHECK_SAMPLES = 50  # batch samples re-run at the other concurrency
# Tail percentile per workload, fixed so that a faster build (more tasks in
# a run) cannot move the metric to another percentile. Each leaves at least
# ten samples beyond it in a 50 s run.
TAIL_PERCENTILE = {"repair-mix": 75, "dag-latency": 75, "batch-mixed": 99}
ROLES = ("PA", "DAA", "DEA", "FEA", "GEA")
STATUSES = ("ok", "parse_error", "rejected")

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rulegraph
from rulegraph.cli import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def _import_rulegraph() -> None:
    """Import the package from this checkout's src/, or exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "rulegraph", "__init__.py")):
        print(f"benchmark: no rulegraph sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    global rulegraph, bench, cli, engine, graph, tracing, workloads
    import rulegraph
    import rulegraph.bench as bench
    import rulegraph.cli as cli
    import rulegraph.engine as engine
    import rulegraph.graph as graph

    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(rulegraph.__file__)) != os.path.join(SRC, "rulegraph"):
        print(f"benchmark: rulegraph came from {rulegraph.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class LatencyProvider:
    """Sleeps a fixed simulated latency before each scripted call; stays scripted."""

    scripted = True

    def __init__(self, inner, latency_s: float) -> None:
        self.inner = inner
        self.latency_s = latency_s

    def complete(self, request):
        time.sleep(self.latency_s)
        return self.inner.complete(request)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


class Gate:
    """Counts tasks attempted and failed; any failure fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, outcome, exp, config, reference: str | None) -> str:
        """Check one outcome against the generator's record; returns its trace text."""
        self.attempted += 1
        buf = io.StringIO()
        engine.write_trace_events(outcome.trace, buf)
        text = buf.getvalue()
        problems = []
        if reference is not None and sha256(text) != reference:
            problems.append("trace differs from the task's first run")
        if outcome.final.answer_text != exp.answer:
            problems.append("final answer differs from the scripted one")
        if outcome.provider_calls != exp.provider_calls:
            problems.append(f"{outcome.provider_calls} provider calls, scripted {exp.provider_calls}")
        budget = engine.call_budget(config, exp.n_subtasks)
        if outcome.provider_calls > budget:
            problems.append(f"provider calls {outcome.provider_calls} over budget {budget}")
        try:
            graph.validate(outcome.graph_final)
        except graph.GraphError as exc:
            problems.append(f"final graph invalid: {exc}")
        kinds = [event.kind for event in outcome.trace]
        if (kinds.count("node_removed"), kinds.count("node_spliced")) != (exp.removed, exp.spliced):
            problems.append("repairs differ from the scripted failing set")
        if problems:
            self.fail(f"{exp.run_id}: " + "; ".join(problems), attempted=False)
        return text

    def fail(self, reason: str, attempted: bool = True) -> None:
        self.attempted += attempted
        self.failed += 1
        print(f"benchmark: FAILED {reason}", file=sys.stderr)


@dataclass
class Side:
    """Samples from the untraced or the traced units of a measured phase."""

    task_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    tasks: int = 0
    calls: int = 0
    trace_bytes: int = 0
    trace_events: int = 0
    role_status: Counter = field(default_factory=Counter)

    def add(self, task_s, wall_s, cpu_s, done, texts) -> None:
        self.task_s += task_s
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.tasks += len(task_s)
        for (outcome, _), text in zip(done, texts):
            self.calls += outcome.provider_calls
            self.trace_bytes += len(text.encode("utf-8"))
            self.trace_events += len(outcome.trace)
            for event in outcome.trace:
                if event.kind == "provider_call":
                    self.role_status[event.payload["context"]["role"], event.payload["status"]] += 1


class Runner:
    """Executes the workload's tasks and checks each one.

    A unit is one task for single-task workloads and BATCH_CHUNK samples
    through bench.run_benchmark for batch-mixed. Task time is execute_task
    plus write_trace to a file, what `rulegraph run --trace` costs. The
    file stays open and is rewritten for each task, so that the time of
    opening it, which depends on the filesystem, stays out.
    """

    def __init__(self, wl, config, workdir: str, gate: Gate) -> None:
        self.wl = wl
        self.config = config
        self.gate = gate
        self.sink = open(os.path.join(workdir, "trace.jsonl"), "w", encoding="utf-8")
        self.reference: dict[str, str] = {}  # run id -> trace hash of its first run
        self.task_s: list[float] = []
        self.samples = None
        self.next_sample = 0
        if wl.samples is not None:
            self.samples = bench.load_dataset(os.path.join(workdir, "dataset.jsonl"))

    def _timed_task(self, task: str, config, run_id: str | None):
        start = time.perf_counter()
        outcome = engine.execute_task(task, config, run_id=run_id)
        self.sink.seek(0)
        self.sink.truncate()
        engine.write_trace(outcome, self.sink)
        self.sink.flush()
        self.task_s.append(time.perf_counter() - start)
        return outcome

    def unit(self, config=None) -> tuple[list, float, float]:
        """Run one unit; returns ([(outcome, expectation)], wall s, cpu s)."""
        config = config or self.config
        self.task_s = []
        wall, cpu = time.perf_counter(), time.process_time()
        if self.samples is None:
            exp = self.wl.expected[0]
            try:
                done = [(self._timed_task(self.wl.task, config, None), exp)]
            except Exception:
                self.gate.fail(f"{exp.run_id} raised\n{traceback.format_exc()}")
                done = []
        else:
            done = self._batch_unit(config)
        return done, time.perf_counter() - wall, time.process_time() - cpu

    def _batch_unit(self, config) -> list:
        lo = self.next_sample
        chunk = self.samples[lo : lo + BATCH_CHUNK]
        self.next_sample = (lo + len(chunk)) % len(self.samples)
        outcomes = {}

        def timed_execute(task, config, run_id=None):
            outcomes[run_id] = self._timed_task(task, config, run_id)
            return outcomes[run_id]

        bench.execute_task = timed_execute
        try:
            report = bench.run_benchmark(chunk, config)
        finally:
            bench.execute_task = engine.execute_task
        expected = self.wl.expected[lo : lo + len(chunk)]
        done = []
        for exp, score in zip(expected, report.per_sample):
            if exp.run_id not in outcomes or score.error:
                self.gate.fail(f"{exp.run_id} raised {score.error}")
            elif (score.correct, score.score) != (exp.correct, exp.score):
                self.gate.fail(f"{exp.run_id} scored {score.score}, scripted {exp.score}")
            else:
                done.append((outcomes[exp.run_id], exp))
        scripted = sum(e.score for e in expected) / len(expected)
        if report.aggregate != scripted:
            self.gate.fail(f"aggregate {report.aggregate} at sample {lo}, scripted {scripted}")
        return done

    def check(self, done, config=None) -> list[str]:
        """Gate every outcome; the first run of each task sets its reference hash."""
        texts = []
        for outcome, exp in done:
            text = self.gate.check(outcome, exp, config or self.config, self.reference.get(exp.run_id))
            self.reference.setdefault(exp.run_id, sha256(text))
            texts.append(text)
        return texts

    def close(self) -> None:
        self.sink.close()

    def one_pass(self, config=None) -> None:
        """Every task once, checked; the first pass sets the reference traces."""
        while True:
            done, _, _ = self.unit(config)
            self.check(done, config)
            if self.next_sample == 0:
                return


def write_inputs(wl, name: str) -> str:
    workdir = os.path.join(OUT, name)
    os.makedirs(workdir, exist_ok=True)
    for filename, text in wl.files().items():
        with open(os.path.join(workdir, filename), "w", encoding="utf-8") as handle:
            handle.write(text)
    return workdir


def setup_time(config_path: str) -> float:
    """import rulegraph + cli.load_config in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, SRC, config_path],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(child.stdout.split()[-1])


def zero_latency(config):
    return replace(config, provider=getattr(config.provider, "inner", config.provider))


def cap_check(runner: Runner) -> None:
    """Traces at concurrency 1 and at the cap must match; re-run the warm-up at the other one."""
    other = 1 if runner.config.concurrency > 1 else min(2, os.cpu_count() or 1)
    config = replace(zero_latency(runner.config), concurrency=other)
    saved = runner.samples, runner.next_sample
    if runner.samples is not None:
        runner.samples, runner.next_sample = runner.samples[:CAP_CHECK_SAMPLES], 0
    try:
        runner.check(runner.unit(config)[0], config)
    finally:
        runner.samples, runner.next_sample = saved


def default_seed_hash(name: str, seed: int, runner: Runner) -> str:
    """SHA-256 of the default seed's trace; for a dataset, of its per-sample hashes in order.

    Reuses this run's reference traces when it ran the default seed and
    reached every task; otherwise runs the default seed once, without latency.
    """
    if runner.wl.seed != seed or len(runner.reference) < len(runner.wl.expected):
        default = workloads.GENERATORS[name](seed)
        workdir = write_inputs(default, f"{name}-default")
        config = zero_latency(cli.load_config(os.path.join(workdir, "config.json")))
        with closing(Runner(default, config, workdir, runner.gate)) as runner:
            runner.one_pass()
    hashes = [runner.reference.get(e.run_id, "missing") for e in runner.wl.expected]
    return hashes[0] if len(hashes) == 1 else sha256("\n".join(hashes))


def measure(seconds: float, runner: Runner, recorder, config_path: str) -> tuple[Side, Side, list]:
    """Units until `seconds` have passed; with a recorder every other unit is traced.

    Untraced runs also time SETUP_SAMPLES fresh interpreters between units,
    spread evenly over the phase, so that setup_s sees the same host state
    as the task figures. No unit is running while a setup sample runs.
    """
    plain, traced, setup = Side(), Side(), []
    traced_config = runner.config
    if recorder is not None:
        traced_config = replace(
            runner.config, provider=tracing.TimedProvider(runner.config.provider, recorder)
        )
    units = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if recorder is None and len(setup) < SETUP_SAMPLES * elapsed / seconds:
            setup.append(setup_time(config_path))
        if recorder is not None and units % 2:
            recorder.install()
            try:
                done, wall, cpu = runner.unit(traced_config)
            finally:
                recorder.uninstall()
            recorder.close_unit()
            side = traced
        else:
            done, wall, cpu = runner.unit()
            side = plain
        side.add(runner.task_s, wall, cpu, done, runner.check(done))
        units += 1
    return plain, traced, setup


def end_to_end(name: str, wl, setup: list[float], plain: Side, peak_rss_mb: float) -> list[tuple]:
    """(metric, value, unit, detail) rows; latency_units is None without simulated latency."""
    p25, p50, p75 = quartiles(plain.task_s)
    pct = TAIL_PERCENTILE[name]
    beyond = plain.tasks - math.ceil(pct / 100 * plain.tasks)
    s25, s50, s75 = quartiles(setup)
    rows = [
        ("setup_s", s50, "s", f"n={len(setup)} p25={s25:.4f} p75={s75:.4f}"),
        ("task_s_p50", p50, "s", f"n={plain.tasks} p25={p25:.4f} p75={p75:.4f}"),
        (
            "task_s_tail",
            nearest_rank(plain.task_s, pct),
            "s",
            f"p{pct}, n={plain.tasks}, {beyond} samples beyond"
            + ("" if beyond >= 10 else " (fewer than 10: not a supported tail)"),
        ),
        ("tasks_per_s", plain.tasks / plain.wall_s, "1/s", f"{plain.tasks} tasks / {plain.wall_s:.3f} s"),
        ("cpu_s_per_task", plain.cpu_s / plain.tasks, "s", "process CPU time"),
        ("provider_calls_per_task", plain.calls / plain.tasks, "count", "re-asks included"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process"),
    ]
    if wl.latency_s:
        rows.append(
            ("latency_units", p50 / wl.latency_s, "calls", f"task_s_p50 / L, L = {wl.latency_s * 1000:g} ms")
        )
    else:
        rows.append(("latency_units", None, "calls", "n/a: zero-latency workload"))
    return rows


def per_layer(recorder, plain: Side, traced: Side, load_s: list[float]) -> dict[str, tuple]:
    tasks = max(traced.tasks, 1)
    values = tracing.layer_metrics(recorder.totals, tasks)
    rows = {name: (value, "count" if name.endswith(".calls") else "s") for name, value in values.items()}
    rows["engine.trace_bytes"] = (traced.trace_bytes / tasks, "bytes")
    rows["engine.trace_events"] = (traced.trace_events / tasks, "count")
    rows["agents.provider_calls"] = (traced.calls / tasks, "count")
    for role in ROLES:
        for status in STATUSES:
            rows[f"agents.calls.{role}.{status}"] = (traced.role_status[role, status] / tasks, "count")
    ok = sum(n for (_, status), n in traced.role_status.items() if status == "ok")
    rows["agents.ok_share"] = (ok / max(traced.calls, 1), "ratio")
    rows["cli.load_config.s"] = (statistics.median(load_s), "s")
    overhead = statistics.median(traced.task_s) - statistics.median(plain.task_s)
    rows["trace.overhead_s"] = (overhead, "s")
    return rows


def src_lines() -> int:
    """Line count of the package sources, tracked for the simplicity aim (not gated)."""
    package = os.path.join(SRC, "rulegraph")
    total = 0
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def print_hashes(seed: int) -> int:
    hashes = {}
    for name, generate in workloads.GENERATORS.items():
        wl = generate(seed)
        workdir = write_inputs(wl, f"{name}-default")
        config = zero_latency(cli.load_config(os.path.join(workdir, "config.json")))
        gate = Gate()
        with closing(Runner(wl, config, workdir, gate)) as runner:
            runner.one_pass()
        hashes[name] = default_seed_hash(name, seed, runner)
        if gate.failed:
            return 1
    print(json.dumps(hashes, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-hashes", action="store_true")
    args = parser.parse_args(argv)
    _import_rulegraph()
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    if args.print_hashes:
        return print_hashes(expected["seed"])
    if args.workload is None:
        parser.error("--workload is required")

    name = args.workload
    wl = workloads.GENERATORS[name](args.seed)
    workdir = write_inputs(wl, name)
    config_path = os.path.join(workdir, "config.json")
    load_s = []
    for _ in range(3):
        start = time.perf_counter()
        config = cli.load_config(config_path)
        load_s.append(time.perf_counter() - start)
    if wl.latency_s:
        config = replace(config, provider=LatencyProvider(config.provider, wl.latency_s))

    gate = Gate()
    recorder = tracing.Recorder(config.concurrency) if args.trace else None
    with closing(Runner(wl, config, workdir, gate)) as runner:
        runner.check(runner.unit()[0])  # warm-up; a task's first run sets its reference trace
        cap_check(runner)
        plain, traced, setup = measure(args.seconds, runner, recorder, config_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace_hash = default_seed_hash(name, expected["seed"], runner)
    if trace_hash != expected["trace_sha256"][name]:
        gate.fail(f"default-seed trace hash {trace_hash} differs from expected.json", attempted=False)

    print(
        f"workload {name}, seed {args.seed}: {len(wl.expected)} task(s) per pass, "
        f"concurrency {config.concurrency}, {plain.tasks + traced.tasks} tasks measured"
    )
    if args.trace:
        rows = per_layer(recorder, plain, traced, load_s)
        recorder.write_kept(os.path.join(workdir, "spans.jsonl"))
        for metric, (value, unit) in rows.items():
            print(f"  {metric:34} {value:14.6g} {unit}")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in rows.items()}
    else:
        rows = end_to_end(name, wl, setup, plain, peak_rss_mb)
        for metric, value, unit, detail in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:24} {shown:>12} {unit:6} {detail}")
        metrics = {m: {"value": v, "unit": u} for m, v, u, _ in rows if v is not None and m != "latency_units"}
    share = gate.failed / max(gate.attempted, 1)
    print(f"  {'failed_share':24} {share:12.6g} ratio  {gate.failed} failed / {gate.attempted} attempted")
    print(f"  default-seed trace sha256 {trace_hash}")
    print(f"  src lines {src_lines()} (recorded at definition: {expected['src_lines']})")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
