"""Span tracing for the benchmark's traced run, recorded from outside the package.

Tracing wraps rulegraph's public functions in the namespace their caller
looks them up in: names the engine imported (construct_rules, fuse_subtask,
...) are wrapped on rulegraph.engine, graph helpers on rulegraph.graph
(the engine reaches them as g.<name>), methods on their class. Nothing
under src/ changes. Each span records its id, parent id, name, start, end
and task id; spans stay in memory and are reduced to per-layer figures
when a unit of work ends.

Wrapping TaskGraph.predecessors costs a few microseconds on each of tens
of thousands of calls per task, so end-to-end figures come from untraced
runs only.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import rulegraph.agents as agents
import rulegraph.bench as bench
import rulegraph.engine as engine
import rulegraph.fusion as fusion
import rulegraph.graph as graph

# (owner, attribute, span name). The owner is where the caller resolves the name.
WRAPPED = (
    (engine, "execute_task", "engine.execute_task"),
    (engine, "write_trace", "engine.write_trace"),
    (engine, "process_node", "engine.process_node"),
    (engine, "handle_failure", "engine.handle_failure"),
    (engine, "construct_rules", "rules.construct_rules"),
    (engine, "run_rules", "rules.run_rules"),
    (engine, "run_global_rule", "rules.run_global_rule"),
    (engine, "fuse_subtask", "fusion.fuse_subtask"),
    (engine, "fuse_final", "fusion.fuse_final"),
    (graph, "build_graph", "graph.build_graph"),
    (graph, "ready_nodes", "graph.ready_nodes"),
    (graph, "predecessor_results", "graph.predecessor_results"),
    (graph, "validate", "graph.validate"),
    (graph, "remove_node", "graph.remove_node"),
    (graph, "splice_chain", "graph.splice_chain"),
    (graph.TaskGraph, "predecessors", "graph.predecessors"),
    (agents, "render_prompt", "agents.render_prompt"),
    (agents, "parse_structured", "agents.parse_structured"),
    (agents.NodeSession, "call", "agents.session_call"),
    (fusion, "cluster_candidates", "fusion.cluster_candidates"),
    (fusion, "resolve_conflict", "fusion.resolve_conflict"),
    (bench, "run_benchmark", "bench.run_benchmark"),
    (bench, "score_sample", "bench.score_sample"),
)
ROOT_SPAN = "engine.execute_task"
PROVIDER_SPAN = "agents.provider.wait"

# Per-layer metrics that are span counts, total durations or self times.
CALLS = (
    "graph.ready_nodes",
    "graph.predecessors",
    "graph.validate",
    "graph.remove_node",
    "graph.splice_chain",
    "engine.handle_failure",
    "engine.process_node",
    "agents.parse_structured",
)
TOTAL_S = (
    "graph.predecessors",
    "graph.predecessor_results",
    "graph.build_graph",
    "graph.validate",
    "engine.write_trace",
    PROVIDER_SPAN,
    "agents.render_prompt",
    "agents.parse_structured",
    "fusion.cluster_candidates",
    "fusion.resolve_conflict",
    "bench.score_sample",
)
SELF_S = (
    "graph.ready_nodes",
    "graph.remove_node",
    "graph.splice_chain",
    "engine.handle_failure",
    "engine.process_node",
    "engine.execute_task",
    "agents.session_call",
    "rules.construct_rules",
    "rules.run_rules",
    "rules.run_global_rule",
    "fusion.fuse_subtask",
    "fusion.fuse_final",
    "bench.run_benchmark",
)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class Recorder:
    """Collects spans; install() wraps the package, uninstall() restores it.

    Spans opened on a thread with no open span (engine pool workers) take
    the current execute_task span as parent, so a task's self time excludes
    work its worker threads did on its behalf. A span's task id is the id
    of the execute_task span it ran under, or None outside any task.
    """

    def __init__(self, concurrency: int) -> None:
        self.concurrency = concurrency
        self.spans: list[tuple] = []
        self.kept: list[tuple] = []  # spans of the first traced unit, written out at the end
        self.totals: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._originals: list[tuple] = []

    def span(self, name: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        if name == ROOT_SPAN:
            self._root = sid
        task = self._root  # the enclosing execute_task span identifies the task
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == ROOT_SPAN:
                self._root = None
            self.spans.append((sid, parent, name, start, end, task))

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def close_unit(self) -> None:
        """Reduce the spans recorded since the last call into self.totals."""
        spans, self.spans = self.spans, []
        if not self.kept:
            self.kept = spans
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            children[span[1]].append(span)
        totals = self.totals
        for sid, _, name, start, end, _ in spans:
            duration = end - start
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += duration
            kids = children.get(sid, ())
            totals[f"{name}.self_s"] += duration - _covered(
                [(k[3], k[4]) for k in kids], start, end
            )
            if name == ROOT_SPAN:
                totals["engine.slot_idle_s"] += self._slot_idle(kids)

    def _slot_idle(self, kids: list[tuple]) -> float:
        """Concurrency cap x execution phase - time nodes and repairs kept slots busy.

        The execution phase runs from the end of graph construction (after
        planning) to the start of final fusion.
        """
        phase_start = max((k[4] for k in kids if k[2] == "graph.build_graph"), default=None)
        phase_end = min((k[3] for k in kids if k[2] == "fusion.fuse_final"), default=None)
        if phase_start is None or phase_end is None:
            return 0.0
        busy = sum(
            k[4] - k[3] for k in kids if k[2] in ("engine.process_node", "engine.handle_failure")
        )
        return self.concurrency * (phase_end - phase_start) - busy

    def write_kept(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, task in self.kept:
                record = {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "task": task}
                handle.write(json.dumps(record) + "\n")


class TimedProvider:
    """Provider wrapper that records each complete() call as a span; stays scripted."""

    scripted = True

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder

    def complete(self, request):
        return self.recorder.span(PROVIDER_SPAN, self.inner.complete, (request,), {})


def layer_metrics(totals: dict[str, float], tasks: int) -> dict[str, float]:
    """Per-task counts, total durations and self times under the metric names."""
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = totals.get(f"{name}.calls", 0.0) / tasks
    for name in TOTAL_S:
        metric = "agents.provider.wait_s" if name == PROVIDER_SPAN else f"{name}.s"
        out[metric] = totals.get(f"{name}.s", 0.0) / tasks
    for name in SELF_S:
        out[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) / tasks
    out["engine.slot_idle_s"] = totals.get("engine.slot_idle_s", 0.0) / tasks
    return out
