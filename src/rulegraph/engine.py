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

Dispatch is eager: while the loop waits, any node whose predecessors all
have results starts, lowest id first, so a replanned chain can start while
the rest of its wave runs. At concurrency c = 1 one node is in flight and
every call runs on the calling thread. Above 1 the run caps provider calls,
not nodes: up to c x K nodes are in flight, and every request takes one of
the c x K + 1 slots of the run's call gate. When none is free, a freed
slot goes to the waiting request whose node ranks highest, that is, has
the most nodes on its longest path to F in the current graph, and among
equal ranks to the one that came first. The gate decides when the slot
is claimed, not when it is freed: a request that ranks strictly higher
and arrives before the chosen waiter's thread has woken takes the slot,
and the waiter waits on at its old place. So calls on the critical path
go first; node starts stay in id order. One analyst lane also runs
ahead, one job at a time: the lowest-id node that has not started, and
whose predecessors all have, gets attempt 1's rules built, since that call
reads no predecessor's answer. A node's job is handed its node, the goal,
its predecessors' answers, its session and any rules the lane built when
it starts, and reads no graph and no shared results. No started node loses
its inputs: a repair rewires only the successors of its own failed node,
which has no result, so none of them has started. Every session holds the
one Run of its run: workers read its id, provider, temperatures, pool,
gate, node ranks and stop flag; only the run loop writes the ranks, when
it starts and after each repair, the flag and the trace.

Termination is guaranteed by three bounds: at most R reprocessing attempts
per node, repair splices clamped to M_max chain nodes, and a depth cap D
after which a still-failing node is force-removed. Each commit checks the
run's provider calls against call_budget, and the first commit past it
ends the run.
"""

from __future__ import annotations

import heapq  # heapq and threading are already loaded by queue
import itertools
import json
import math
import os
import queue
import threading
import time
from dataclasses import dataclass, field, fields
from typing import IO, Callable, Mapping, NamedTuple, Sequence

from . import graph as g
from .agents import (
    REASK_LIMIT,
    NodeSession,
    ParseError,
    PlannerPlan,
    ProviderFailure,
    ProviderRequest,
    ProviderResponse,
    RoleKind,
    DEFAULT_TEMPERATURES,
    need_field,
    plan as plan_task,
)
from .fusion import FinalResult, fuse_final, fuse_subtask
from .membership import MembershipLabel
from .rules import DEFAULT_DOMAINS, construct_rules, run_global_rule, run_rules

DETERMINISTIC_RUN_ID = "run-0"
# Most nodes one subtask's repair tree may reach, 1 + M_max + M_max**2 + ... + M_max**D
# (13 at the defaults); a config past it is refused, so call_budget stays small to compute.
MAX_SUBTASK_NODES = 10_000
_JSON_TYPES = {bool: "a boolean", int: "an integer", str: "a string", dict: "an object"}


class EngineError(Exception):
    """Base class for run-level failures.

    execute_task sets trace, provider_calls and token_usage from the run's
    Run, its partial trace and totals, before the error leaves it.
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
    temperature a finite int or float. max_chain and max_depth may give
    one subtask's repair tree at most MAX_SUBTASK_NODES nodes.
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
        if _repair_tree(self.max_chain, self.max_depth)[0] > MAX_SUBTASK_NODES:
            raise ConfigError(
                f"max_chain {self.max_chain} and max_depth {self.max_depth} allow more than "
                f"{MAX_SUBTASK_NODES} nodes per subtask"
            )
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


def _repair_tree(max_chain: int, max_depth: int) -> tuple[int, int]:
    """Most nodes of one subtask's repair tree, 1 + M_max + ... + M_max**D, and of them those of depth below D."""
    replannable, level = 0, 1
    for _ in range(max_depth):
        replannable, level = replannable + level, level * max_chain
        if replannable + level > MAX_SUBTASK_NODES:  # past the bound: stop, so max_depth 10**9 is cheap
            break
    return replannable + level, replannable


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
    encoded: tuple = ()  # (trace, n, text chunks): trace's first n lines, encoded while the run loop waited


class Run:
    """What one run's sessions share: id, provider, temperatures, pool, gate, ranks, stop flag and trace.

    pool is the process's RunPool and gate the run's CallGate; both are
    None at concurrency 1. ranks maps each node of the current graph to its
    upward rank (graph.ranks), the key by which the gate grants a slot to a
    session's request. stopped is set when an error ends the run; a node
    job's next pooled expert batch then raises (NodeSession.call_many).
    Node workers read only these fields, run_id, provider and temperatures,
    and make every request through request. Only the run-loop thread, the
    one that called execute_task, writes ranks, replacing the whole map,
    stopped, and the trace fields, through flush; an event's seq is its
    position in events, from 1. It calls encode while it waits, so the
    first `encoded` events are lines. A buffer holding an unknown kind or a
    missing field raises ValueError and commits none of its events. A flush
    that takes provider_calls past budget raises EngineError once its
    events are in the trace. Flushes come in commit order, so the flush
    that raises does not depend on the schedule.
    """

    __slots__ = ("run_id", "provider", "temperatures", "deterministic", "pool", "gate", "ranks", "stopped",
                 "budget", "events", "provider_calls", "token_usage", "lines", "encoded")

    def __init__(
        self,
        run_id: str,
        provider: object,
        temperatures: Mapping[RoleKind, float] = DEFAULT_TEMPERATURES,
        deterministic: bool = False,
    ) -> None:
        self.run_id, self.provider, self.temperatures = run_id, provider, temperatures
        self.deterministic = deterministic
        self.pool: RunPool | None = None
        self.gate: CallGate | None = None
        self.ranks: Mapping[str, int] = {}
        self.stopped = False
        self.budget: float = math.inf  # execute_task sets call_budget once the plan is known
        self.events: list[TraceEvent] = []
        self.provider_calls = 0
        self.token_usage = {"prompt_tokens": 0, "completion_tokens": 0}
        self.lines: list[str] = []
        self.encoded = 0

    def encode(self) -> None:
        """Append the events committed since the last encode to lines, as one chunk."""
        if len(self.events) > self.encoded:
            self.lines.append(_encode(self.events[self.encoded :]))
            self.encoded = len(self.events)

    def request(self, session: NodeSession, request: ProviderRequest) -> ProviderResponse:
        """The provider's response to one of session's requests: the one place a request is made.

        With a gate, the request holds one of its slots while the provider
        works, so no more requests than the gate has slots are in flight.
        When none is free, it waits under its session's node rank: a freed
        slot goes to the highest-ranked request present when the slot is
        claimed, the longest-waiting first among equal ranks (CallGate).
        """
        gate = self.gate
        if gate is None:
            return self.provider.complete(request)
        gate.acquire(self.ranks.get(session.node_id, 0))
        try:
            return self.provider.complete(request)
        finally:
            gate.release()

    def flush(self, buffered: list[tuple[str, dict]]) -> None:
        for kind, payload in buffered:  # the whole buffer is checked before any of it commits
            required = _REQUIRED.get(kind)
            if required is None:
                raise ValueError(f"unknown trace event kind {kind!r}")
            if not payload.keys() >= required:
                missing = [f for f in TRACE_KINDS[kind] if f not in payload]
                raise ValueError(f"trace event {kind!r} missing fields {missing}")
        events, totals = self.events, self.token_usage
        for kind, payload in buffered:
            events.append(TraceEvent(len(events) + 1, kind, payload, None if self.deterministic else time.time()))
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
    nodes, replannable = _repair_tree(config.max_chain, config.max_depth)
    nodes_total, nodes_splicable = n_subtasks * nodes, n_subtasks * replannable
    logical = (
        1  # plan
        + nodes_total * config.max_reprocess * (config.k_rules + (4 if config.cluster_mode == "model" else 2))
        + nodes_total  # failure classifications
        + nodes_splicable  # replans
        + 1  # final fusion
    )
    return logical * (1 + REASK_LIMIT)


def process_node(
    node: g.TaskNode, goal: str, preds: list[str], config: RunConfig, session: NodeSession,
    first_rules: tuple | None = None,
) -> str | None:
    """Run the reprocessing loop for one subtask node.

    Up to R attempts of construct rules (with deviation feedback after the
    first), execute them over preds (its predecessors' answers in id
    order), fuse, and gate against the plan's goal. Reads no graph and no
    shared results. first_rules is (attempt 1's rules or the exception
    that ended their call, the call's records) when the analyst lane made
    that call ahead: the records follow node_start, so the trace is the
    same. Returns the accepted result, or None when the node still fails
    after R attempts and needs repair. Provider failures mark the attempt
    failed instead of aborting the run.
    """
    session.emit("node_start", {"node": node.id, "statement": node.statement, "depth": node.depth})
    if first_rules is not None:
        session.events += first_rules[1]
    feedback: str | None = None

    for attempt in range(1, config.max_reprocess + 1):
        try:
            if attempt > 1 or first_rules is None:
                rules = construct_rules(node, config.domains, config.k_rules, feedback, session=session)
            elif isinstance(rules := first_rules[0], Exception):
                raise rules
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


class _Finished(NamedTuple):
    """A node worker's output, held until the node's commit slot.

    A failed node's session buffers its repair events apart from `events`.
    error is what processing the node or deciding its repair raised.
    """

    session: NodeSession
    events: list[tuple[str, dict]]
    result: str | None = None
    repair: Repair | None = None
    error: Exception | None = None


def _run_node(
    node: g.TaskNode, goal: str, preds: list[str], config: RunConfig, session: NodeSession,
    first_rules: tuple | None,
) -> _Finished:
    """Worker: process one node and, if it fails, decide its repair.

    A function of its arguments: it reads no graph and no shared results.
    Exceptions are kept, not raised, so that the run loop re-raises them
    in commit order.
    """
    events = session.events
    try:
        result = process_node(node, goal, preds, config, session, first_rules)
        if result is not None:
            return _Finished(session, events, result)
        session.events = []
        return _Finished(session, events, repair=handle_failure(node, goal, config, session))
    except Exception as exc:
        return _Finished(session, events, error=exc)


def _analyze(node: g.TaskNode, config: RunConfig, session: NodeSession) -> tuple:
    """Lane job: attempt 1's construct_rules for a node not yet started; (session, first_rules)."""
    try:
        rules = construct_rules(node, config.domains, config.k_rules, session=session)
    except Exception as exc:  # process_node raises it in attempt 1's place
        rules = exc
    records, session.events = session.events, []
    return session, (rules, records)


class RunPool:
    """Threads for node, lane and expert helper jobs, fed from one queue and shared by all pooled runs.

    A job is (replies, key, fn, args): a thread puts (key, fn(*args), None)
    on replies, or (key, None, the exception fn raised), having counted
    itself idle first. submit reserves an idle thread for its job or starts
    one, so no job waits for a thread; a thread the OS refuses raises EngineError.
    """

    def __init__(self) -> None:
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.lock, self.idle = threading.Lock(), 0

    def _work(self) -> None:
        while True:
            replies, key, fn, args = self.jobs.get()
            try:
                reply = (key, fn(*args), None)
            except BaseException as exc:
                reply = (key, None, exc)
            with self.lock:
                self.idle += 1
            replies.put(reply)

    def submit(self, job: tuple) -> None:
        with self.lock:
            reserved = self.idle > 0  # an idle thread that will take this job
            self.idle -= reserved
        if not reserved:
            try:
                threading.Thread(target=self._work, daemon=True).start()
            except RuntimeError as exc:
                raise EngineError(f"cannot start a pool thread: {exc}") from exc
        self.jobs.put(job)

    def map(self, fn: Callable, items: Sequence) -> list:
        """fn over a non-empty sequence, results in order, the first item run on the calling thread.

        The first item in order that raised raises, and only once every queued item has replied.
        """
        replies = []
        try:
            for item in items[1:]:
                reply = queue.SimpleQueue()
                self.submit((reply, None, fn, (item,)))
                replies.append(reply)
            results = [fn(items[0])]
        finally:
            done = [reply.get() for reply in replies]
        for _, value, error in done:
            if error is not None:
                raise error
            results.append(value)
        return results


_pool = RunPool()  # every pooled run's pool; reset in a forked child, which has none of its threads
if hasattr(os, "register_at_fork"):  # absent where the OS cannot fork
    os.register_at_fork(after_in_child=lambda: _pool.__init__())


class CallGate:
    """A run's call slots, granted highest rank first and, within a rank, in arrival order.

    acquire takes a free slot or, when none is, waits in a heap keyed by
    (-rank, arrival number); release hands its slot to the head of that
    heap, or frees it when no request waits. Who gets a handed slot is
    decided when it is claimed, not when it is freed: until its waiter's
    thread wakes, the grant is pending, and an acquire ranked strictly
    above the lowest pending grant takes that slot instead. The displaced
    waiter, once awake, takes a free slot, takes a pending grant ranked
    below it, or waits again under its old arrival number. So a slot is
    free only while no request waits, and no more requests than `slots`
    hold one.
    """

    __slots__ = ("free", "waiting", "pending", "lock", "_arrivals")

    def __init__(self, slots: int) -> None:
        self.free, self.waiting, self.pending = slots, [], []  # (-rank, arrival, a lock its request waits on)
        self.lock, self._arrivals = threading.Lock(), itertools.count()

    def acquire(self, rank: int) -> None:
        entry = None
        while True:
            with self.lock:
                if self._claim(rank, entry):
                    return
                if entry is None:
                    entry = (-rank, next(self._arrivals), threading.Lock())
                    entry[2].acquire()
                heapq.heappush(self.waiting, entry)
            entry[2].acquire()  # released by the release that hands this request a slot

    def _claim(self, rank: int, entry: tuple | None) -> bool:
        """Take entry's pending grant, a free slot, or the lowest pending grant ranked below rank."""
        if entry in self.pending:
            self.pending.remove(entry)
        elif self.free:
            self.free -= 1
        elif self.pending and (lowest := max(self.pending))[0] > -rank:  # ties are never taken
            self.pending.remove(lowest)
        else:
            return False
        return True

    def release(self) -> None:
        with self.lock:
            if self.waiting:
                self.pending.append(entry := heapq.heappop(self.waiting))
                entry[2].release()
            else:
                self.free += 1


_ENCODE_AFTER_S = 0.001  # a run loop that waits this long for a reply encodes the trace meanwhile


class _Scheduler:
    """Runs the subtask nodes of one graph: the module's barrier loop, with eager dispatch.

    run walks each wave (the nodes ready on the committed graph, in id
    order): it waits for each member, raises its kept error or applies its
    repair, then commits the wave and reads the next. While it waits,
    _dispatch starts the lowest-id nodes whose predecessors all have
    results, committed or not, up to `cap` in flight: c x K with a pool,
    whose calls the run's gate, built here with c x K + 1 slots, bounds,
    else one. Each job's inputs, its session on the shared Run among them,
    are read on the run-loop thread when it starts.

    With a pool, _dispatch also feeds the analyst lane one _analyze job at a
    time (see the module docstring); a ready node waits for its analysis.
    The lane rescans for a candidate only after a node starts or a lane
    job returns (`stale`); a chain that a repair splices in is found at the
    next such event. With a pool, run also sets the shared Run's ranks, by
    which the gate grants call slots, from the graph when it starts and
    after each repair it applies.
    """

    def __init__(self, run: Run, graph: g.TaskGraph, goal: str, config: RunConfig):
        self.shared = run
        self.graph = graph
        self.goal = goal
        self.config = config
        self.pool = run.pool
        self.used_ids = set(graph.nodes)
        self.results: dict[str, str] = {}
        self.started: set[str] = set()
        self.finished: dict[str, _Finished] = {}  # finished nodes whose wave has not committed
        self.cap = config.concurrency * config.k_rules if self.pool is not None else 1
        if self.pool is not None:
            run.gate = CallGate(self.cap + 1)
        self.in_flight = 0
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.lane: str | None = None  # the node whose analysis is in flight
        self.analysed: dict[str, tuple] = {}  # unstarted node -> (session, first_rules)
        self.stale = True  # the lane's candidates may have changed since its last scan

    def run(self) -> tuple[g.TaskGraph, dict[str, str]]:
        """Walk each wave in id order, then commit it; the first error in commit order is raised.

        Any error stops the shared Run and leaves once no node or lane job is outstanding.
        """
        try:
            self._rank()
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
                        self._rank()
                self._commit(wave)
            return self.graph, self.results
        except BaseException:
            self.shared.stopped = True
            for _ in range(self.in_flight + (self.lane is not None)):  # each outstanding job's reply, dropped
                self.done.get()
            raise

    def _rank(self) -> None:
        """With a pool, give the shared Run the current graph's ranks."""
        if self.pool is not None:
            self.shared.ranks = g.ranks(self.graph)

    def _dispatch(self) -> None:
        """Start the lowest-id ready nodes while fewer than `cap` are in flight; feed the lane."""
        if self.in_flight < self.cap:
            ready = g.ready_nodes(self.graph, self.results) - self.started - {g.FUSION_ID, self.lane}
            for nid in sorted(ready)[: self.cap - self.in_flight]:
                self._start(nid)
        if self.stale and self.lane is None and self.pool is not None:
            self.stale = False
            ahead = g.ready_nodes(self.graph, self.started) - self.analysed.keys() - {g.FUSION_ID}
            if ahead:
                nid = min(ahead)
                args = (self.graph.nodes[nid], self.config, NodeSession(self.shared, nid))
                self.pool.submit((self.done, None, _analyze, args))
                self.lane = nid

    def _receive(self) -> None:
        """Take one reply off `done`, a lane analysis (key None) or a node's; raise what escaped its job.

        The job is no longer counted in flight when it raises. A wait past _ENCODE_AFTER_S (never at
        c = 1, where jobs ran inline) encodes the committed events meanwhile; the delay first lets the
        jobs just started, which encoding holds up, reach their calls.
        """
        try:
            nid, done, error = self.done.get(timeout=_ENCODE_AFTER_S)
        except queue.Empty:
            self.shared.encode()
            nid, done, error = self.done.get()
        if nid is None:
            lane, self.lane, self.stale = self.lane, None, True
        else:
            self.in_flight -= 1
        if error is not None:
            raise error
        if nid is None:
            self.analysed[lane] = done
            return
        self.finished[nid] = done
        if done.result is not None:
            self.results[nid] = done.result

    def _start(self, nid: str) -> None:
        preds = g.predecessor_results(self.graph, nid, self.results)
        session, first_rules = self.analysed.pop(nid, None) or (NodeSession(self.shared, nid), None)
        args = (self.graph.nodes[nid], self.goal, preds, self.config, session, first_rules)
        if self.pool is None:
            self.done.put((nid, _run_node(*args), None))
        else:
            self.pool.submit((self.done, nid, _run_node, args))
        self.started.add(nid)  # counted once submit returns: a refused job is never waited for
        self.in_flight += 1
        self.stale = True

    def _commit(self, wave: list[str]) -> None:
        """Flush the walked wave: node buffers in node-id order, then repair buffers."""
        done = [self.finished.pop(nid) for nid in wave]
        for item in done:
            self.shared.flush(item.events)
        for item in done:
            if item.result is None:
                self.shared.flush(item.session.events)
        if not self.graph.predecessors(g.FUSION_ID):
            raise AllPathsFailed("every root-to-fusion path failed and was removed")


def execute_task(task: str, config: RunConfig, run_id: str | None = None) -> RunOutcome:
    """Run one task end to end and return the fused answer with its full trace.

    Every run failure leaves as an EngineError carrying the trace, provider
    calls and token usage of the run so far.
    Above concurrency 1 the run's node, lane and helper jobs run on the
    process's RunPool, and any exception leaves only once each of them has
    ended (_Scheduler.run).
    """
    if run_id is None:
        run_id = DETERMINISTIC_RUN_ID if config.deterministic else os.urandom(6).hex()
    run = Run(run_id, config.provider, config.temperatures, config.deterministic)
    try:
        if not task or not task.strip():
            raise ConfigError("task must be non-empty")
        root_session = NodeSession(run, g.ROOT_ID)
        try:
            the_plan = plan_task(task, root_session)
            graph = g.build_graph(the_plan)
        except ProviderFailure as exc:
            root_session.emit("warning", {"reason": "planning_failed", "detail": str(exc)})
            run.flush(root_session.events)
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
        run.flush(root_session.events)

        run.budget = call_budget(config, len(the_plan.subtasks))
        run.pool = _pool if config.concurrency > 1 else None
        graph, results = _Scheduler(run, graph, the_plan.global_goal, config).run()

        answers = {nid: results[nid] for nid in sorted(graph.predecessors(g.FUSION_ID))}
        fusion_session = NodeSession(run, g.FUSION_ID)
        try:
            final = fuse_final(answers, task, session=fusion_session)
        except ProviderFailure as exc:
            fusion_session.emit("warning", {"reason": "final_fusion_failed", "detail": str(exc)})
            run.flush(fusion_session.events)
            raise FusionFailure(f"provider failure in final fusion: {exc}") from exc
        fusion_session.emit(
            "final",
            {
                "answer_text": final.answer_text,
                "contributing_nodes": list(final.contributing_nodes),
                "graph": graph.to_payload(),
            },
        )
        run.flush(fusion_session.events)
    except EngineError as exc:
        exc.trace, exc.provider_calls = run.events, run.provider_calls
        exc.token_usage = run.token_usage
        raise
    return RunOutcome(
        final=final,
        graph_final=graph,
        trace=run.events,
        provider_calls=run.provider_calls,
        token_usage=run.token_usage,
        encoded=(run.events, run.encoded, run.lines) if run.encoded else (),
    )


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_HEADS = {kind: '{"kind":%s,"payload":' % json.dumps(kind) for kind in TRACE_KINDS}


def _encode(events: list[TraceEvent]) -> str:
    """One canonical JSON record per line; timestamps omitted when absent.

    Envelope keys in sorted order around one payload encode; a payload cycle raises RecursionError.
    """
    lines = []
    for seq, kind, payload, timestamp in events:
        stamp = "" if timestamp is None else f',"timestamp":{timestamp!r}'
        lines.append(f'{_HEADS[kind]}{_ENCODE(payload)},"seq":{seq}{stamp}}}\n')
    return "".join(lines)


def write_trace_events(events: list[TraceEvent], sink: IO[str]) -> None:
    """Write events' trace lines (see _encode) in one write."""
    sink.write(_encode(events))


def write_trace(outcome: RunOutcome, sink: IO[str]) -> None:
    """Serialize a run's trace, one structured record per line, byte-stable, in one write.

    Reuses the lines the run loop encoded only while they encode this outcome's own trace list.
    """
    trace, encoded = outcome.trace, outcome.encoded
    if not encoded or encoded[0] is not trace:
        return write_trace_events(trace, sink)
    sink.write("".join([*encoded[2], _encode(trace[encoded[1] :])]))
