"""Run orchestration: plan, build the graph, execute nodes under the goal-alignment
loop, repair failures by removal or chain splicing, and fuse the final answer.

Every state change emits a trace event. A node starts as soon as each of
its predecessors has a result, with up to a configured cap of nodes in
flight. Each node buffers its events locally, and a failed node's worker
decides its repair (classification and replan calls) straight away. The
single-owner run loop commits buffers, results and repair edits in the
order a barrier engine running the graph in waves would have used: by
logical wave (1 + the larger of the predecessors' waves and the wave of the
repair that last rewired the node), node buffers in node-id order, then
repairs in node-id order. So the trace is a total order that does not
depend on scheduling.

Termination is guaranteed by three bounds: at most R reprocessing attempts
per node, repair splices clamped to M_max chain nodes, and a depth cap D
after which a still-failing node is force-removed.
"""

from __future__ import annotations

import heapq
import json
import queue
import time
import uuid
from collections import defaultdict
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import IO, Callable, Mapping

from . import graph as g
from .agents import (
    REASK_LIMIT,
    AttemptLedger,
    MalformedClassification,
    MalformedPlan,
    MalformedResponse,
    NodeSession,
    PlannerPlan,
    ProviderFailure,
    RoleKind,
    DEFAULT_TEMPERATURES,
    plan as plan_task,
)
from .fusion import FinalResult, SubtaskResult, fuse_final, fuse_subtask
from .membership import MembershipLabel, below
from .rules import DEFAULT_DOMAINS, AllRulesFailed, GlobalRule, construct_rules, run_global_rule, run_rules

DETERMINISTIC_RUN_ID = "run-0"


class EngineError(Exception):
    """Base class for run-level failures; carries the partial trace."""

    def __init__(self, message: str, trace=None, provider_calls: int = 0, token_usage=None):
        super().__init__(message)
        self.trace = trace or []
        self.provider_calls = provider_calls
        self.token_usage = token_usage or {"prompt_tokens": 0, "completion_tokens": 0}


class ConfigError(EngineError):
    pass


class PlanningFailure(EngineError):
    pass


class AllPathsFailed(EngineError):
    """Every path from the root to the fusion node was removed."""


class SinkUnavailable(Exception):
    """Trace sink rejected a write."""


@dataclass(frozen=True)
class RunConfig:
    """Tunable limits and provider selection for one run.

    provider must expose complete(request) and a scripted flag; deterministic
    mode refuses non-scripted providers, fixes the run id and drops
    timestamps so traces are byte-stable.
    """

    provider: object
    k_rules: int = 3
    max_reprocess: int = 3
    max_depth: int = 2
    max_chain: int = 3
    threshold: MembershipLabel = MembershipLabel.ML
    cluster_mode: str = "lexical"
    concurrency: int = 1
    deterministic: bool = False
    domains: tuple[str, ...] = DEFAULT_DOMAINS
    temperatures: Mapping[RoleKind, float] = field(default_factory=lambda: dict(DEFAULT_TEMPERATURES))

    def validate(self) -> None:
        if self.k_rules < 1:
            raise ConfigError("k_rules must be at least 1")
        if self.max_reprocess < 1:
            raise ConfigError("max_reprocess must be at least 1")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be non-negative")
        if self.max_chain < 1:
            raise ConfigError("max_chain must be at least 1")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be at least 1")
        if self.cluster_mode not in ("model", "lexical"):
            raise ConfigError(f"unknown cluster_mode {self.cluster_mode!r}")
        if not self.domains:
            raise ConfigError("domain catalog is empty")
        if self.k_rules > len(self.domains):
            raise ConfigError("k_rules exceeds the domain catalog size")
        if self.deterministic and not getattr(self.provider, "scripted", False):
            raise ConfigError("deterministic mode requires a scripted provider")


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: str
    payload: dict
    timestamp: float | None = None


# Required payload fields per event kind; emission validates against this.
TRACE_KINDS: dict[str, tuple[str, ...]] = {
    "plan": ("task", "goal", "subtasks", "edges", "graph"),
    "node_start": ("node", "statement", "depth"),
    "rules_built": ("node", "attempt", "rules"),
    "rule_result": ("node", "attempt", "rule_index", "domain", "membership", "answer_text"),
    "fusion": ("node", "attempt", "clusters", "winner_key", "layer", "answer_text"),
    "assessment": ("node", "attempt", "membership", "diff_text"),
    "reprocess": ("node", "attempt", "feedback"),
    "node_removed": ("node", "reason"),
    "node_spliced": ("node", "chain", "depth"),
    "node_done": ("node", "attempts_used", "membership", "answer_text"),
    "final": ("answer_text", "contributing_nodes", "graph"),
    "provider_call": ("context", "schema", "status", "usage"),
    "warning": ("reason",),
}


@dataclass
class RunOutcome:
    final: FinalResult
    graph_final: g.TaskGraph
    trace: list[TraceEvent]
    provider_calls: int
    token_usage: dict[str, int]


class _Tracer:
    """Single-owner trace assembly: assigns seq numbers and totals usage."""

    def __init__(self, deterministic: bool):
        self.deterministic = deterministic
        self.events: list[TraceEvent] = []
        self.provider_calls = 0
        self.token_usage = {"prompt_tokens": 0, "completion_tokens": 0}
        self._seq = 0

    def flush(self, buffered: list[tuple[str, dict]]) -> None:
        for kind, payload in buffered:
            missing = [f for f in TRACE_KINDS[kind] if f not in payload]
            if missing:
                raise ValueError(f"trace event {kind!r} missing fields {missing}")
            self._seq += 1
            self.events.append(
                TraceEvent(
                    seq=self._seq,
                    kind=kind,
                    payload=payload,
                    timestamp=None if self.deterministic else time.time(),
                )
            )
            if kind == "provider_call":
                self.provider_calls += 1
                for key in self.token_usage:
                    self.token_usage[key] += int(payload["usage"].get(key, 0))
        buffered.clear()


def call_budget(config: RunConfig, n_subtasks: int) -> int:
    """Closed-form ceiling on provider calls for a run with n planned subtasks.

    Each failing node at depth d < D spawns at most max_chain children, so
    node count is bounded by the geometric sum over depths; each node makes
    at most R * (K + 3) logical calls (construct, K rules, fuse, assess)
    plus one classification, and each non-depth-capped node one replan.
    Every logical call costs at most 1 + REASK_LIMIT provider calls.
    """
    m, d, r, k = config.max_chain, config.max_depth, config.max_reprocess, config.k_rules
    nodes_total = n_subtasks * sum(m**level for level in range(d + 1))
    nodes_splicable = n_subtasks * sum(m**level for level in range(d))
    logical = (
        1  # plan
        + nodes_total * r * (k + 3)
        + nodes_total  # failure classifications
        + nodes_splicable  # replans
        + 1  # final fusion
    )
    return logical * (1 + REASK_LIMIT)


def process_node(
    node: g.TaskNode,
    graph: g.TaskGraph,
    results: Mapping[str, SubtaskResult],
    config: RunConfig,
    session: NodeSession,
) -> SubtaskResult | None:
    """Run the reprocessing loop for one subtask node.

    Up to R attempts of construct rules (with deviation feedback after the
    first), execute them, fuse, and gate against the global goal. Returns
    the accepted result, or None when the node still fails after R attempts
    and needs repair. Provider failures mark the attempt failed instead of
    aborting the run.
    """
    session.emit(
        "node_start",
        {"node": node.id, "statement": node.statement, "depth": node.depth},
    )
    preds = g.predecessor_results(graph, node.id, results)
    global_rule = GlobalRule(goal=graph.global_goal, threshold=config.threshold)
    feedback: str | None = None

    for attempt in range(1, config.max_reprocess + 1):
        try:
            ruleset = construct_rules(
                node,
                config.domains,
                config.k_rules,
                feedback,
                global_rule=global_rule,
                session=session,
            )
            session.emit(
                "rules_built",
                {
                    "node": node.id,
                    "attempt": attempt,
                    "rules": [
                        {
                            "rule_index": rule.index,
                            "domain": rule.domain_name,
                            "membership": rule.membership.token,
                            "antecedent": rule.antecedent,
                        }
                        for rule in ruleset.rules
                    ],
                },
            )
            candidates = run_rules(ruleset, node.statement, preds, session=session)
            for candidate in candidates:
                session.emit(
                    "rule_result",
                    {
                        "node": node.id,
                        "attempt": attempt,
                        "rule_index": candidate.rule_index,
                        "domain": candidate.domain_name,
                        "membership": candidate.membership.token,
                        "answer_text": candidate.answer_text,
                    },
                )
            fused = fuse_subtask(
                candidates, node, mode=config.cluster_mode, session=session, attempt=attempt
            )
            assessment = run_global_rule(global_rule, fused, session=session)
            session.emit(
                "assessment",
                {
                    "node": node.id,
                    "attempt": attempt,
                    "membership": assessment.membership.token,
                    "diff_text": assessment.diff_text,
                },
            )
        except (ProviderFailure, MalformedResponse, AllRulesFailed) as exc:
            session.emit(
                "warning",
                {"node": node.id, "reason": "attempt_failed", "detail": str(exc)},
            )
            continue

        if not below(assessment.membership, config.threshold):
            result = replace(
                fused, attempts_used=attempt, membership_vs_goal=assessment.membership
            )
            session.emit(
                "node_done",
                {
                    "node": node.id,
                    "attempts_used": attempt,
                    "membership": assessment.membership.token,
                    "answer_text": result.answer_text,
                },
            )
            return result

        feedback = assessment.diff_text
        if attempt < config.max_reprocess:
            session.emit(
                "reprocess", {"node": node.id, "attempt": attempt, "feedback": feedback}
            )
    return None


@dataclass(frozen=True)
class Repair:
    """A failed node's repair, decided by its worker and applied at commit time.

    An empty chain means removal for `reason`; otherwise the chain's
    (planner id, statement) entries replace the node, in order.
    """

    node: g.TaskNode
    reason: str = ""
    chain: tuple[tuple[str, str], ...] = ()


def handle_failure(
    node: g.TaskNode,
    graph: g.TaskGraph,
    config: RunConfig,
    session: NodeSession,
) -> Repair:
    """Decide the repair of a node that exhausted its reprocessing budget.

    A planner classification picks the scenario: an irrelevant node is
    removed (bridging predecessors to successors); a too-complex node below
    the depth cap is replanned into a chain of at most M_max simpler
    subtasks. At the depth cap, and whenever classification or replanning
    itself fails, removal is forced with a warning so the run always
    terminates. The graph is left untouched: apply_repair edits it at the
    node's commit slot.
    """
    reason = "irrelevant"
    try:
        doc = session.call(
            "classify",
            {
                "statement": node.statement,
                "goal": graph.global_goal,
                "attempts": config.max_reprocess,
            },
            "failure_classification",
            failure=MalformedClassification,
        )
        scenario = doc["scenario"]
    except (ProviderFailure, MalformedClassification) as exc:
        session.emit(
            "warning",
            {"node": node.id, "reason": "classification_failed", "detail": str(exc)},
        )
        scenario, reason = "irrelevant", "classification_failed"

    if scenario == "too_complex":
        if node.depth >= config.max_depth:
            session.emit(
                "warning",
                {"node": node.id, "reason": "depth_cap_forced_removal", "depth": node.depth},
            )
            reason = "forced_depth_cap"
        else:
            try:
                subplan = plan_task(node.statement, session)
            except (ProviderFailure, MalformedPlan) as exc:
                session.emit(
                    "warning",
                    {"node": node.id, "reason": "replan_failed", "detail": str(exc)},
                )
                reason = "replan_failed"
            else:
                return Repair(node, chain=_clamp_chain(node, subplan, config, session))
    return Repair(node, reason=reason)


def _clamp_chain(
    node: g.TaskNode, subplan: PlannerPlan, config: RunConfig, session: NodeSession
) -> tuple[tuple[str, str], ...]:
    entries = subplan.subtasks
    if len(entries) > config.max_chain:
        session.emit(
            "warning",
            {
                "node": node.id,
                "reason": "chain_clamped",
                "detail": f"replan produced {len(entries)} subtasks, keeping {config.max_chain}",
            },
        )
        entries = entries[: config.max_chain]
    return entries


def apply_repair(
    repair: Repair, graph: g.TaskGraph, session: NodeSession, used_ids: set[str]
) -> g.TaskGraph:
    """Edit the graph for a decided repair and emit node_removed or node_spliced.

    Chain ids are the planner's when fresh in this run, else prefixed with
    the failed node's id, else numbered under it; used_ids records them.
    """
    node = repair.node
    if not repair.chain:
        graph = g.remove_node(graph, node.id)
        session.emit("node_removed", {"node": node.id, "reason": repair.reason})
        return graph

    ids = [sid for sid, _ in repair.chain]
    if any(sid in used_ids for sid in ids):
        ids = [f"{node.id}.{sid}" for sid in ids]
    if any(sid in used_ids for sid in ids):
        ids = [f"{node.id}.{i}" for i in range(1, len(ids) + 1)]

    chain = [
        g.TaskNode(new_id, g.NodeKind.SUBTASK, statement)
        for new_id, (_, statement) in zip(ids, repair.chain)
    ]
    graph = g.splice_chain(graph, node.id, chain)
    used_ids.update(ids)
    session.emit(
        "node_spliced", {"node": node.id, "chain": ids, "depth": node.depth + 1}
    )
    return graph


@dataclass
class _Finished:
    """A node worker's output, held until the node's commit slot."""

    events: list[tuple[str, dict]]
    result: SubtaskResult | None = None
    repair: Repair | None = None
    repair_session: NodeSession | None = None
    error: Exception | None = None  # raised while processing the node
    repair_error: Exception | None = None  # raised while deciding its repair


def _run_node(
    node: g.TaskNode,
    graph: g.TaskGraph,
    results: Mapping[str, SubtaskResult],
    config: RunConfig,
    new_session: Callable[[str], NodeSession],
) -> _Finished:
    """Worker: process one node and, if it fails, decide its repair.

    Exceptions are kept, not raised, so that the run loop re-raises them
    at the node's commit slot.
    """
    session = new_session(node.id)
    done = _Finished(session.events)
    try:
        done.result = process_node(node, graph, results, config, session)
    except Exception as exc:
        done.error = exc
        return done
    if done.result is None:
        done.repair_session = new_session(node.id)
        try:
            done.repair = handle_failure(node, graph, config, done.repair_session)
        except Exception as exc:
            done.repair_error = exc
    return done


class _Scheduler:
    """Runs the subtask nodes of one graph: dispatch on ready, commit in wave order.

    waiting[n] counts n's predecessors that have no result yet; a node is
    ready when it reaches zero. Ready nodes start in (wave, id) order while
    fewer than `concurrency` are in flight. A wave commits once all of its
    nodes have finished; every node of wave w is known by the time waves
    before w have committed, because its predecessors and the repairs that
    rewired it belong to earlier waves.
    """

    def __init__(
        self,
        graph: g.TaskGraph,
        config: RunConfig,
        tracer: _Tracer,
        new_session: Callable[[str], NodeSession],
        pool: Executor | None,
    ):
        self.graph = graph
        self.config = config
        self.tracer = tracer
        self.new_session = new_session
        self.pool = pool
        self.used_ids = set(graph.nodes)
        self.results: dict[str, SubtaskResult] = {}
        self.waiting: dict[str, int] = {}
        self.wave: dict[str, int] = {g.ROOT_ID: 0}
        self.rewired: dict[str, int] = {}  # node -> wave of the last repair that rewired it
        self.ready: list[tuple[int, str]] = []  # heap of (wave, node id)
        self.members: dict[int, list[str]] = defaultdict(list)
        self.unfinished: dict[int, int] = defaultdict(int)
        self.finished: dict[str, _Finished] = {}
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.commit_wave = 1

    def run(self) -> tuple[g.TaskGraph, dict[str, SubtaskResult]]:
        for nid in self.graph.subtask_ids():
            self._recount(nid)
        in_flight = 0
        while True:
            while self.ready and in_flight < self.config.concurrency:
                self._start(heapq.heappop(self.ready)[1])
                in_flight += 1
            if not in_flight:
                return self.graph, self.results
            nid, done = self.done.get()
            in_flight -= 1
            if isinstance(done, Future):
                done = done.result()  # _run_node keeps its errors; this re-raises any other
            self._finish(nid, done)
            while self.members.get(self.commit_wave) and not self.unfinished[self.commit_wave]:
                self._commit(self.commit_wave)
                self.commit_wave += 1

    def _start(self, nid: str) -> None:
        args = (self.graph.node(nid), self.graph, self.results, self.config, self.new_session)
        if self.pool is None:
            self.done.put((nid, _run_node(*args)))
        else:
            future = self.pool.submit(_run_node, *args)
            future.add_done_callback(lambda future: self.done.put((nid, future)))

    def _recount(self, nid: str) -> None:
        """Count nid's predecessors without a result; at zero, give nid its wave and queue it."""
        waiting, wave = 0, self.rewired.get(nid, 0)
        for p in self.graph.predecessors(nid):
            if p == g.ROOT_ID or p in self.results:
                wave = max(wave, self.wave[p])
            else:
                waiting += 1
        self.waiting[nid] = waiting
        if waiting:
            return
        wave += 1
        self.wave[nid] = wave
        self.members[wave].append(nid)
        self.unfinished[wave] += 1
        heapq.heappush(self.ready, (wave, nid))

    def _finish(self, nid: str, done: _Finished) -> None:
        self.finished[nid] = done
        self.unfinished[self.wave[nid]] -= 1
        if done.result is None:
            return
        self.results[nid] = done.result
        for succ in self.graph.successors(nid):
            if succ != g.FUSION_ID:
                self.waiting[succ] -= 1
                if not self.waiting[succ]:
                    self._recount(succ)

    def _commit(self, wave: int) -> None:
        """Flush a finished wave's buffers in node-id order, then apply its repairs."""
        ids = sorted(self.members.pop(wave))
        done = [self.finished.pop(nid) for nid in ids]
        for item in done:
            if item.error is not None:
                raise item.error
        for item in done:
            self.tracer.flush(item.events)
        for nid, item in zip(ids, done):
            if item.result is not None:
                continue
            if item.repair_error is not None:
                raise item.repair_error
            before = self.graph
            self.graph = apply_repair(item.repair, before, item.repair_session, self.used_ids)
            self.tracer.flush(item.repair_session.events)
            new_nodes = self.graph.nodes.keys() - before.nodes.keys()
            for succ in sorted((before.successors(nid) | new_nodes) - {g.FUSION_ID}):
                self.rewired[succ] = wave
                self._recount(succ)
        if not self.graph.predecessors(g.FUSION_ID):
            raise AllPathsFailed(
                "every root-to-fusion path failed and was removed",
                self.tracer.events,
                self.tracer.provider_calls,
                self.tracer.token_usage,
            )


def execute_task(task: str, config: RunConfig, run_id: str | None = None) -> RunOutcome:
    """Run one task end to end and return the fused answer with its full trace."""
    config.validate()
    if not task or not task.strip():
        raise ConfigError("task must be non-empty")
    if run_id is None:
        run_id = DETERMINISTIC_RUN_ID if config.deterministic else uuid.uuid4().hex[:12]

    tracer = _Tracer(deterministic=config.deterministic)
    ledger = AttemptLedger()

    def new_session(node_id: str, pool: Executor | None = None) -> NodeSession:
        return NodeSession(
            run_id=run_id,
            node_id=node_id,
            provider=config.provider,
            ledger=ledger,
            temperatures=config.temperatures,
            pool=pool,
        )

    root_session = new_session(g.ROOT_ID)
    try:
        the_plan = plan_task(task, root_session)
        graph = g.build_graph(the_plan)
    except (ProviderFailure, MalformedPlan, g.GraphError) as exc:
        root_session.emit("warning", {"reason": "planning_failed", "detail": str(exc)})
        tracer.flush(root_session.events)
        raise PlanningFailure(
            str(exc), tracer.events, tracer.provider_calls, tracer.token_usage
        ) from exc
    root_session.emit(
        "plan",
        {
            "task": task,
            "goal": the_plan.global_goal,
            "subtasks": [{"id": sid, "statement": st} for sid, st in the_plan.subtasks],
            "edges": [list(e) for e in the_plan.edges],
            "graph": graph.to_payload(),
        },
    )
    tracer.flush(root_session.events)

    budget = call_budget(config, len(the_plan.subtasks))
    if config.concurrency == 1:
        graph, results = _Scheduler(graph, config, tracer, new_session, None).run()
    else:
        # At most `concurrency` nodes are in flight and each waits on at most K
        # expert calls, so at most concurrency x K provider calls are in flight.
        with ThreadPoolExecutor(config.concurrency) as nodes, ThreadPoolExecutor(
            config.concurrency * config.k_rules
        ) as experts:
            graph, results = _Scheduler(
                graph, config, tracer, partial(new_session, pool=experts), nodes
            ).run()

    preds = g.predecessor_results(graph, g.FUSION_ID, results)
    fusion_session = new_session(g.FUSION_ID)
    final = fuse_final(preds, task, session=fusion_session)
    fusion_session.emit(
        "final",
        {
            "answer_text": final.answer_text,
            "contributing_nodes": list(final.contributing_nodes),
            "graph": graph.to_payload(),
        },
    )
    tracer.flush(fusion_session.events)

    if tracer.provider_calls > budget:
        raise EngineError(
            f"provider calls {tracer.provider_calls} exceeded the termination budget {budget}"
        )
    return RunOutcome(
        final=final,
        graph_final=graph,
        trace=tracer.events,
        provider_calls=tracer.provider_calls,
        token_usage=tracer.token_usage,
    )


def write_trace_events(events: list[TraceEvent], sink: IO[str]) -> None:
    """One canonical JSON record per line; timestamps omitted when absent."""
    try:
        for event in events:
            record: dict = {"seq": event.seq, "kind": event.kind}
            if event.timestamp is not None:
                record["timestamp"] = event.timestamp
            record["payload"] = event.payload
            sink.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        raise SinkUnavailable(str(exc)) from exc


def write_trace(outcome: RunOutcome, sink: IO[str]) -> None:
    """Serialize a run's trace, one structured record per line, byte-stable."""
    write_trace_events(outcome.trace, sink)
