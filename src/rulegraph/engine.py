"""Run orchestration: plan, build the graph, execute nodes under the goal-alignment
loop, repair failures by removal or chain splicing, and fuse the final answer.

Every state change emits a trace event. The run loop is a barrier engine
over the graph: a wave is the set of nodes ready on the graph as the last
commit left it, walked in node-id order. The loop waits for each member
in turn and applies a failed member's repair (decided by its worker, with
classification and replan calls) when the walk reaches it. Once the wave
is walked it commits the members' buffered events, node buffers in
node-id order, then repair buffers in node-id order, and reads the next
wave. So the trace is a total order that does not depend on scheduling.

Dispatch is the one eager part: while the loop waits, any node whose
predecessors all have results starts, lowest id first, up to a configured
cap of nodes in flight, so a replanned chain can start while the rest of
its wave runs. A node's job is handed its node, the goal, its
predecessors' answers and its session when it starts, and reads no graph
and no shared results. No started node loses its inputs: a repair rewires
only the successors of its own failed node, which has no result, so none
of them has started.

Termination is guaranteed by three bounds: at most R reprocessing attempts
per node, repair splices clamped to M_max chain nodes, and a depth cap D
after which a still-failing node is force-removed. Each commit checks the
run's provider calls against call_budget, and the first commit past it
ends the run.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import queue
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import IO, Callable, Mapping, NamedTuple, Sequence

from . import graph as g
from .agents import (
    REASK_LIMIT,
    NodeSession,
    ParseError,
    PlannerPlan,
    ProviderFailure,
    RoleKind,
    DEFAULT_TEMPERATURES,
    need_field,
    plan as plan_task,
)
from .fusion import FinalResult, fuse_final, fuse_subtask
from .membership import MembershipLabel
from .rules import DEFAULT_DOMAINS, construct_rules, run_global_rule, run_rules

DETERMINISTIC_RUN_ID = "run-0"
_JSON_TYPES = {bool: "a boolean", int: "an integer", str: "a string", dict: "an object"}


class EngineError(Exception):
    """Base class for run-level failures.

    execute_task sets trace, provider_calls and token_usage to the run's
    partial trace and totals before the error leaves it.
    """

    trace: list[TraceEvent]
    provider_calls: int
    token_usage: dict[str, int]


class ConfigError(EngineError):
    pass


class PlanningFailure(EngineError):
    pass


class AllPathsFailed(EngineError):
    """Every path from the root to the fusion node was removed."""


class FusionFailure(EngineError):
    """The final fusion call failed at the provider or stayed malformed."""


@dataclass(frozen=True)
class RunConfig:
    """Tunable limits and provider selection for one run.

    provider must expose complete(request) and a scripted flag, true when it
    replays a fixed script; deterministic mode requires that flag, fixes the
    run id and drops timestamps so traces are byte-stable. A config is
    validated when built, dataclasses.replace included: a bool, int or str
    field must have exactly its default's type (a bool is not an int),
    threshold a MembershipLabel, domains a list or tuple of non-empty
    strings (stored as a tuple), temperatures a mapping and each
    temperature a finite int or float.
    Temperatures given for some roles keep the defaults of the others.
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
    temperatures: Mapping[RoleKind, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.temperatures, Mapping):
            raise ConfigError(f"'temperatures' must be a mapping of roles, got {self.temperatures!r}")
        object.__setattr__(self, "temperatures", {**DEFAULT_TEMPERATURES, **self.temperatures})
        self.validate()
        object.__setattr__(self, "domains", tuple(self.domains))

    def validate(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind in (bool, int, str) and type(value) is not kind:
                raise ConfigError(f"{f.name!r} must be {_JSON_TYPES[kind]}, got {value!r}")
        if not isinstance(self.threshold, MembershipLabel):
            raise ConfigError(f"'threshold' must be a MembershipLabel, got {self.threshold!r}")
        if not isinstance(self.domains, (list, tuple)) or not all(
            isinstance(d, str) and d for d in self.domains
        ):
            raise ConfigError(f"'domains' must be a list of non-empty strings, got {self.domains!r}")
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
        if self.k_rules > len(set(self.domains)):
            raise ConfigError("k_rules exceeds the number of distinct catalog domains")
        if self.deterministic and not getattr(self.provider, "scripted", False):
            raise ConfigError("deterministic mode requires a scripted provider")
        for role, temperature in self.temperatures.items():
            if not isinstance(role, RoleKind):
                raise ConfigError(f"temperature key {role!r} is not a RoleKind")
            if type(temperature) not in (int, float) or not math.isfinite(temperature):
                raise ConfigError(
                    f"temperature for {role.value} must be a finite number, got {temperature!r}"
                )


class TraceEvent(NamedTuple):
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
_REQUIRED = {kind: frozenset(names) for kind, names in TRACE_KINDS.items()}


class RunOutcome(NamedTuple):
    final: FinalResult
    graph_final: g.TaskGraph
    trace: list[TraceEvent]
    provider_calls: int
    token_usage: dict[str, int]


class _Tracer:
    """Single-owner trace assembly: assigns seq numbers, totals usage and bounds calls.

    A flush that takes provider_calls past budget raises EngineError once
    its events are in the trace. Flushes come in commit order, so the
    flush that raises does not depend on the schedule.
    """

    def __init__(self, deterministic: bool):
        self.deterministic = deterministic
        self.budget: float = math.inf  # execute_task sets call_budget once the plan is known
        self.events: list[TraceEvent] = []
        self.provider_calls = 0
        self.token_usage = {"prompt_tokens": 0, "completion_tokens": 0}
        self._seq = 0

    def flush(self, buffered: list[tuple[str, dict]]) -> None:
        events, totals = self.events, self.token_usage
        for kind, payload in buffered:
            required = _REQUIRED.get(kind)
            if required is None:
                raise ValueError(f"unknown trace event kind {kind!r}")
            if not payload.keys() >= required:
                missing = [f for f in TRACE_KINDS[kind] if f not in payload]
                raise ValueError(f"trace event {kind!r} missing fields {missing}")
            self._seq += 1
            events.append(TraceEvent(self._seq, kind, payload, None if self.deterministic else time.time()))
            if kind == "provider_call":
                self.provider_calls += 1
                usage = payload["usage"]
                totals["prompt_tokens"] += usage.get("prompt_tokens", 0)
                totals["completion_tokens"] += usage.get("completion_tokens", 0)
        buffered.clear()
        if self.provider_calls > self.budget:
            raise EngineError(
                f"provider calls {self.provider_calls} exceeded the termination budget {self.budget}"
            )


def call_budget(config: RunConfig, n_subtasks: int) -> int:
    """Closed-form ceiling on provider calls for a run with n planned subtasks.

    Each failing node at depth d < D spawns at most max_chain children, so
    node count is bounded by the geometric sum over depths; each node makes
    at most R attempts of K + 2 logical calls (construct, K rules, assess;
    model clustering adds cluster and synthesis), one classification and,
    below D, one replan. A logical call costs at most 1 + REASK_LIMIT tries.
    """
    m, d, r, k = config.max_chain, config.max_depth, config.max_reprocess, config.k_rules
    below_cap = d if m == 1 else (m**d - 1) // (m - 1)  # sum of m**level over levels 0..d-1
    nodes_total = n_subtasks * (1 + m * below_cap)
    nodes_splicable = n_subtasks * below_cap
    logical = (
        1  # plan
        + nodes_total * r * (k + (4 if config.cluster_mode == "model" else 2))
        + nodes_total  # failure classifications
        + nodes_splicable  # replans
        + 1  # final fusion
    )
    return logical * (1 + REASK_LIMIT)


def process_node(
    node: g.TaskNode, goal: str, preds: list[str], config: RunConfig, session: NodeSession
) -> str | None:
    """Run the reprocessing loop for one subtask node.

    Up to R attempts of construct rules (with deviation feedback after the
    first), execute them over preds (its predecessors' answers in id
    order), fuse, and gate against the plan's goal. Reads no graph and no
    shared results. Returns the accepted result, or None when the node
    still fails after R attempts and needs repair. Provider failures mark
    the attempt failed instead of aborting the run.
    """
    session.emit("node_start", {"node": node.id, "statement": node.statement, "depth": node.depth})
    feedback: str | None = None

    for attempt in range(1, config.max_reprocess + 1):
        try:
            rules = construct_rules(node, config.domains, config.k_rules, feedback, session=session)
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
                        for rule in rules
                    ],
                },
            )
            candidates = run_rules(rules, node.statement, preds, session=session)
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
            assessment = run_global_rule(goal, config.threshold, fused, session=session)
            session.emit(
                "assessment",
                {
                    "node": node.id,
                    "attempt": attempt,
                    "membership": assessment.membership.token,
                    "diff_text": assessment.diff_text,
                },
            )
        except ProviderFailure as exc:
            session.emit(
                "warning",
                {"node": node.id, "reason": "attempt_failed", "detail": str(exc)},
            )
            continue

        if assessment.passed:
            session.emit(
                "node_done",
                {
                    "node": node.id,
                    "attempts_used": attempt,
                    "membership": assessment.membership.token,
                    "answer_text": fused,
                },
            )
            return fused

        feedback = assessment.diff_text
        if attempt < config.max_reprocess:
            session.emit("reprocess", {"node": node.id, "attempt": attempt, "feedback": feedback})
    return None


class Repair(NamedTuple):
    """A failed node's repair, decided by its worker and applied by the run loop in commit order.

    An empty chain means removal for `reason`; otherwise the chain's
    (planner id, statement) entries replace the node, in order.
    """

    node: g.TaskNode
    reason: str = ""
    chain: tuple[tuple[str, str], ...] = ()


def handle_failure(node: g.TaskNode, goal: str, config: RunConfig, session: NodeSession) -> Repair:
    """Decide the repair of a node that exhausted its reprocessing budget.

    A planner classification picks the scenario: an irrelevant node is
    removed (bridging predecessors to successors); a too-complex node below
    the depth cap is replanned into a chain of at most M_max simpler
    subtasks. At the depth cap, and whenever classification or replanning
    itself fails, removal is forced with a warning so the run always
    terminates. The graph is left untouched: the run loop edits it with
    apply_repair, in commit order.
    """
    reason = "irrelevant"
    try:
        scenario = session.call(
            "classify",
            {
                "statement": node.statement,
                "goal": goal,
                "attempts": config.max_reprocess,
            },
            _read_scenario,
        )
    except ProviderFailure as exc:
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
            except ProviderFailure as exc:
                session.emit(
                    "warning",
                    {"node": node.id, "reason": "replan_failed", "detail": str(exc)},
                )
                reason = "replan_failed"
            else:
                return Repair(node, chain=_clamp_chain(node, subplan, config, session))
    return Repair(node, reason=reason)


def _read_scenario(doc: dict) -> str:
    scenario = need_field(doc, "scenario")
    if scenario not in ("irrelevant", "too_complex"):
        raise ParseError("scenario must be 'irrelevant' or 'too_complex'")
    return scenario


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
    the failed node's id, else the first fresh ids numbered under it;
    used_ids records them. So no two nodes of a run share an id.
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
        numbered = (f"{node.id}.{i}" for i in itertools.count(1))
        ids = list(itertools.islice((sid for sid in numbered if sid not in used_ids), len(ids)))

    chain = [g.TaskNode(new_id, statement) for new_id, (_, statement) in zip(ids, repair.chain)]
    graph = g.splice_chain(graph, node.id, chain)
    used_ids.update(ids)
    session.emit(
        "node_spliced", {"node": node.id, "chain": ids, "depth": node.depth + 1}
    )
    return graph


class _Finished:
    """A node worker's output, held until the node's commit slot.

    A failed node's session buffers its repair events apart from `events`.
    """

    __slots__ = ("session", "events", "result", "repair", "error")

    def __init__(self, session: NodeSession, events: list[tuple[str, dict]]) -> None:
        self.session, self.events = session, events
        self.result: str | None = None
        self.repair: Repair | None = None
        self.error: Exception | None = None  # raised while processing the node or deciding its repair


def _run_node(
    node: g.TaskNode, goal: str, preds: list[str], config: RunConfig, session: NodeSession
) -> _Finished:
    """Worker: process one node and, if it fails, decide its repair.

    A function of its arguments: it reads no graph and no shared results.
    Exceptions are kept, not raised, so that the run loop re-raises them
    in commit order.
    """
    done = _Finished(session, session.events)
    try:
        done.result = process_node(node, goal, preds, config, session)
        if done.result is None:
            session.events = []
            done.repair = handle_failure(node, goal, config, session)
    except Exception as exc:
        done.error = exc
    return done


class RunPool:
    """One run's threads for node jobs and expert helpers, fed from one queue.

    A job is (replies, key, fn, args): a thread puts (key, fn(*args), None)
    on replies, or (key, None, the exception fn raised). map runs its first
    item on the calling thread. close refuses new jobs and queues one stop
    per thread behind the queued jobs, which still run.
    """

    def __init__(self, size: int) -> None:
        import threading  # already loaded by queue

        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.lock, self.closed = threading.Lock(), False
        self.threads = [threading.Thread(target=self._work, daemon=True) for _ in range(size)]
        for thread in self.threads:
            thread.start()

    def _work(self) -> None:
        while (job := self.jobs.get()) is not None:
            replies, key, fn, args = job
            try:
                replies.put((key, fn(*args), None))
            except BaseException as exc:
                replies.put((key, None, exc))

    def submit(self, *jobs: tuple) -> None:
        with self.lock:
            if self.closed:
                raise RuntimeError("the run's pool is closed")
            for job in jobs:
                self.jobs.put(job)

    def map(self, fn: Callable, items: Sequence) -> list:
        """fn over a non-empty sequence, results in order; the first item in order that raised raises."""
        replies = [queue.SimpleQueue() for _ in range(1, len(items))]
        self.submit(*[(reply, None, fn, (item,)) for reply, item in zip(replies, items[1:])])
        results = [fn(items[0])]
        for reply in replies:
            _, value, error = reply.get()
            if error is not None:
                raise error
            results.append(value)
        return results

    def close(self) -> None:
        with self.lock:
            self.closed = True
            for _ in self.threads:
                self.jobs.put(None)
        for thread in self.threads:
            thread.join()


class _Scheduler:
    """Runs the subtask nodes of one graph: the module's barrier loop, with eager dispatch.

    run walks each wave (the nodes ready on the committed graph, in id
    order): it waits for each member, raises its kept error or applies its
    repair, then commits the wave and reads the next. While it waits,
    _dispatch starts the lowest-id nodes whose predecessors all have
    results, committed or not, up to `concurrency` in flight. Each job's
    inputs are read on the run-loop thread when it starts.
    """

    def __init__(
        self,
        graph: g.TaskGraph,
        goal: str,
        config: RunConfig,
        tracer: _Tracer,
        new_session: Callable[[str], NodeSession],
        pool: RunPool | None,
    ):
        self.graph = graph
        self.goal = goal
        self.config = config
        self.tracer = tracer
        self.new_session = new_session
        self.pool = pool
        self.used_ids = set(graph.nodes)
        self.results: dict[str, str] = {}
        self.started: set[str] = set()
        self.finished: dict[str, _Finished] = {}  # finished nodes whose wave has not committed
        self.in_flight = 0
        self.done: queue.SimpleQueue = queue.SimpleQueue()

    def run(self) -> tuple[g.TaskGraph, dict[str, str]]:
        """Walk each wave in id order, then commit it; the first error in commit order is raised."""
        while wave := sorted(
            g.ready_nodes(self.graph, self.results.keys() - self.finished.keys()) - {g.FUSION_ID}
        ):
            for nid in wave:
                while nid not in self.finished:
                    self._dispatch()
                    self._receive()
                done = self.finished[nid]
                if done.error is not None:
                    raise done.error
                if done.result is None:
                    self.graph = apply_repair(done.repair, self.graph, done.session, self.used_ids)
            self._commit(wave)
        return self.graph, self.results

    def _dispatch(self) -> None:
        """Start the lowest-id ready nodes while fewer than `concurrency` are in flight."""
        if self.in_flight < self.config.concurrency:
            ready = g.ready_nodes(self.graph, self.results) - self.started - {g.FUSION_ID}
            for nid in sorted(ready)[: self.config.concurrency - self.in_flight]:
                self._start(nid)

    def _receive(self) -> None:
        """Take one finished node job off `done`; raise what it raised past _run_node."""
        nid, done, error = self.done.get()
        self.in_flight -= 1
        if error is not None:
            raise error
        self.finished[nid] = done
        if done.result is not None:
            self.results[nid] = done.result

    def _start(self, nid: str) -> None:
        self.started.add(nid)
        self.in_flight += 1
        preds = g.predecessor_results(self.graph, nid, self.results)
        args = (self.graph.nodes[nid], self.goal, preds, self.config, self.new_session(nid))
        if self.pool is None:
            self.done.put((nid, _run_node(*args), None))
        else:
            self.pool.submit((self.done, nid, _run_node, args))

    def _commit(self, wave: list[str]) -> None:
        """Flush the walked wave: node buffers in node-id order, then repair buffers."""
        done = [self.finished.pop(nid) for nid in wave]
        for item in done:
            self.tracer.flush(item.events)
        for item in done:
            if item.result is None:
                self.tracer.flush(item.session.events)
        if not self.graph.predecessors(g.FUSION_ID):
            raise AllPathsFailed("every root-to-fusion path failed and was removed")


def execute_task(task: str, config: RunConfig, run_id: str | None = None) -> RunOutcome:
    """Run one task end to end and return the fused answer with its full trace.

    Every run failure leaves as an EngineError carrying the trace, provider
    calls and token usage of the run so far.
    """
    tracer = _Tracer(deterministic=config.deterministic)
    try:
        if not task or not task.strip():
            raise ConfigError("task must be non-empty")
        if run_id is None:
            run_id = DETERMINISTIC_RUN_ID if config.deterministic else os.urandom(6).hex()

        new_session = partial(NodeSession, run_id, provider=config.provider, temperatures=config.temperatures)
        root_session = new_session(g.ROOT_ID)
        try:
            the_plan = plan_task(task, root_session)
            graph = g.build_graph(the_plan)
        except ProviderFailure as exc:
            root_session.emit("warning", {"reason": "planning_failed", "detail": str(exc)})
            tracer.flush(root_session.events)
            raise PlanningFailure(str(exc)) from exc
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

        tracer.budget = call_budget(config, len(the_plan.subtasks))
        # c node jobs, each waiting on at most K - 1 helper jobs: c x K threads run every job
        pool = RunPool(config.concurrency * config.k_rules) if config.concurrency > 1 else None
        try:
            graph, results = _Scheduler(
                graph, the_plan.global_goal, config, tracer, partial(new_session, pool=pool), pool
            ).run()
        finally:
            if pool is not None:
                pool.close()

        answers = {nid: results[nid] for nid in sorted(graph.predecessors(g.FUSION_ID))}
        fusion_session = new_session(g.FUSION_ID)
        try:
            final = fuse_final(answers, task, session=fusion_session)
        except ProviderFailure as exc:
            fusion_session.emit("warning", {"reason": "final_fusion_failed", "detail": str(exc)})
            tracer.flush(fusion_session.events)
            raise FusionFailure(f"provider failure in final fusion: {exc}") from exc
        fusion_session.emit(
            "final",
            {
                "answer_text": final.answer_text,
                "contributing_nodes": list(final.contributing_nodes),
                "graph": graph.to_payload(),
            },
        )
        tracer.flush(fusion_session.events)
    except EngineError as exc:
        exc.trace, exc.provider_calls = tracer.events, tracer.provider_calls
        exc.token_usage = tracer.token_usage
        raise
    return RunOutcome(
        final=final,
        graph_final=graph,
        trace=tracer.events,
        provider_calls=tracer.provider_calls,
        token_usage=tracer.token_usage,
    )


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_HEADS = {kind: '{"kind":%s,"payload":' % json.dumps(kind) for kind in TRACE_KINDS}


def write_trace_events(events: list[TraceEvent], sink: IO[str]) -> None:
    """One canonical JSON record per line, in one write; timestamps omitted when absent.

    Envelope keys in sorted order around one payload encode; a payload cycle raises RecursionError.
    """
    lines = []
    for seq, kind, payload, timestamp in events:
        stamp = "" if timestamp is None else f',"timestamp":{timestamp!r}'
        lines.append(f'{_HEADS[kind]}{_ENCODE(payload)},"seq":{seq}{stamp}}}\n')
    sink.write("".join(lines))


def write_trace(outcome: RunOutcome, sink: IO[str]) -> None:
    """Serialize a run's trace, one structured record per line, byte-stable."""
    write_trace_events(outcome.trace, sink)
