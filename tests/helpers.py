"""Shared test helpers: plan/graph generators, mock-script response builders, seeded
scenarios, and schedulers that decide the order in which node and lane jobs finish."""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import queue
import random
import threading
import time
from collections import Counter

from rulegraph import engine
from rulegraph.agents import REASK_LIMIT, NodeSession, PlannerPlan, ProviderResponse, RoleKind
from rulegraph.engine import (
    EngineError, Run, RunConfig, call_budget, execute_task, write_trace, write_trace_events,
)
from rulegraph.graph import RESERVED_IDS, ROOT_ID, TaskGraph, build_graph
from rulegraph.rules import DEFAULT_DOMAINS


def json_doc(payload: dict) -> str:
    """Wrap a payload the way a model would: prose around a fenced JSON block."""
    return "Here is the result.\n```json\n" + json.dumps(payload) + "\n```\n"


def plan_response(goal: str, subtasks: list[tuple[str, str]], edges: list[tuple[str, str]] = ()) -> str:
    return json_doc(
        {
            "goal": goal,
            "subtasks": [{"id": sid, "statement": st} for sid, st in subtasks],
            "edges": [list(e) for e in edges],
        }
    )


def ruleset_response(rules: list[tuple[str, str]]) -> str:
    """rules: list of (domain, membership token)."""
    return json_doc(
        {
            "rules": [
                {
                    "domain": domain,
                    "antecedent": f"the subtask concerns {domain}",
                    "membership": token,
                    "expert_prompt": f"You are an expert in {domain}. Answer precisely.",
                }
                for domain, token in rules
            ]
        }
    )


def candidate_response(answer: str) -> str:
    return json_doc({"answer": answer})


def assessment_response(membership: str, diff_text: str = "") -> str:
    doc = {"membership": membership}
    if diff_text:
        doc["diff_text"] = diff_text
    return json_doc(doc)


def classification_response(scenario: str, reason: str = "decided by review") -> str:
    return json_doc({"scenario": scenario, "reason": reason})


def fusion_answer(answer: str) -> str:
    return json_doc({"answer": answer})


def assignments_response(keys: list[str]) -> str:
    return json_doc({"assignments": keys})


def refuse_threads_after(monkeypatch, allowed):
    """Patch threading.Thread.start to raise, as a refusing OS would, once `allowed` threads started."""
    start, starts = threading.Thread.start, itertools.count()

    def refusing(thread):
        if next(starts) >= allowed:  # one atomic step, as threads may start threads at once
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", refusing)


def session_for(provider, node_id="T1") -> NodeSession:
    """A session for node_id in a run of its own, "run-0", answered by provider."""
    return NodeSession(Run("run-0", provider), node_id)


def make_plan(
    subtasks: list[tuple[str, str]] | list[str],
    edges: list[tuple[str, str]] = (),
    goal: str = "answer the task",
    task: str = "the original task",
) -> PlannerPlan:
    normalized = [
        (entry, f"statement for {entry}") if isinstance(entry, str) else entry
        for entry in subtasks
    ]
    return PlannerPlan(
        task=task, global_goal=goal, subtasks=tuple(normalized), edges=tuple(edges)
    )


def random_plan(rng: random.Random, max_subtasks: int = 10) -> PlannerPlan:
    n = rng.randint(1, max_subtasks)
    ids = [f"n{i:02d}" for i in range(1, n + 1)]
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.25
    ]
    return make_plan([(sid, f"do {sid}") for sid in ids], edges)


def subtask_ids(graph: TaskGraph) -> list[str]:
    return sorted(graph.nodes.keys() - RESERVED_IDS)


def random_graph(rng: random.Random, max_subtasks: int = 10) -> TaskGraph:
    return build_graph(random_plan(rng, max_subtasks))


class WorstCaseProvider:
    """Drives a run into its call budget's worst case.

    Each (node, prompt without the re-ask suffix) gets a valid answer only on
    every (1 + REASK_LIMIT)-th ask, so every logical call uses all its tries.
    Every assessment fails, every failure is too complex and every replan
    has three subtasks. Expert answers differ lexically; model clustering
    puts them all in one cluster, so the synthesis call is made.
    """

    scripted = False

    def __init__(self, k: int):
        self.k = k
        self.calls = 0
        self._asks: Counter = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        node = request.context_key[1]
        prompt = request.rendered_prompt.split("\n\nYour previous response was rejected:")[0]
        with self._lock:
            self.calls += 1
            self._asks[node, prompt] += 1
            valid = self._asks[node, prompt] % (1 + REASK_LIMIT) == 0
        text = self._answer(request.role_kind, node, prompt) if valid else "no document here"
        return ProviderResponse(raw_text=text, token_usage={"prompt_tokens": 0, "completion_tokens": 0})

    def _answer(self, role: RoleKind, node: str, prompt: str) -> str:
        if "Decompose the task" in prompt:
            if node == ROOT_ID:
                return plan_response("an unreachable goal", [("s1", "solve the unsolvable part")])
            pieces = [("a", "piece one"), ("b", "piece two"), ("c", "piece three")]
            return plan_response("split it further", pieces, [("a", "b"), ("b", "c")])
        if "Decide why" in prompt:
            return classification_response("too_complex", "still too hard")
        if role is RoleKind.DAA:
            return ruleset_response([(domain, "M") for domain in DEFAULT_DOMAINS[: self.k]])
        if role is RoleKind.DEA:  # the first prompt line names the rule's domain
            return candidate_response(f"the view of {prompt.splitlines()[0]}")
        if role is RoleKind.GEA:
            return assessment_response("L", "the output does not approach the goal")
        if "Group the candidate" in prompt:
            return assignments_response(["one cluster"] * self.k)
        return fusion_answer("a consolidated answer")


class FateProvider:
    """Answers every role from the request alone, by each node's seeded fate.

    A node's fate comes from random.Random(f"{seed}/{node}"): pass at
    attempt 1, 2 or 3; fail every attempt and be removed as irrelevant; or
    fail every attempt and be spliced into a chain of 1-3 nodes, some of
    whose planner ids collide with the plan's. A fifth of the nodes answer
    their second expert call with prose, which costs one re-ask. With
    jitter, each call sleeps 0-0.3 ms keyed by its context key, so
    completions reorder under concurrency.
    """

    scripted = True

    def __init__(self, seed: int, jitter: bool = False):
        self.seed = seed
        self.jitter = jitter
        self.plan = random_plan(random.Random(seed), 8)

    def fate(self, node: str) -> tuple[str, int, bool]:
        """(fate, pass attempt or chain length, second expert call malformed)."""
        rng = random.Random(f"{self.seed}/{node}")
        roll, count, malformed = rng.random(), rng.randint(1, 3), rng.random() < 0.2
        fate = "pass" if roll < 0.6 else "remove" if roll < 0.8 else "splice"
        return fate, count, malformed

    def complete(self, request):
        if self.jitter:
            time.sleep(random.Random(f"{self.seed}/{request.context_key}").random() * 0.0003)
        _, node, _, attempt = request.context_key
        text = self._answer(request.role_kind, node, attempt, request.rendered_prompt)
        return ProviderResponse(raw_text=text, token_usage={"prompt_tokens": 0, "completion_tokens": 0})

    def _answer(self, role: RoleKind, node: str, attempt: int, prompt: str) -> str:
        if node == ROOT_ID:
            return plan_response("a goal", list(self.plan.subtasks), list(self.plan.edges))
        if role is RoleKind.FEA:
            return fusion_answer("the combined answer")
        fate, count, malformed = self.fate(node)
        if role is RoleKind.DAA:
            return ruleset_response([("History", "H"), ("Science", "M"), ("Law", "ML")])
        if role is RoleKind.DEA:
            if malformed and attempt == 2:
                return "no document here"
            return candidate_response(f"{node} is done")
        if role is RoleKind.GEA:
            if fate == "pass" and attempt >= count:
                return assessment_response("H")
            return assessment_response("L", f"{node} is off goal")
        if "Decide why" in prompt:
            return classification_response("irrelevant" if fate == "remove" else "too_complex")
        ids = [f"c{i}" for i in range(1, count + 1)]
        if random.Random(f"{self.seed}/{node}/chain").random() < 0.3:
            ids[0] = "n01"  # taken by the plan, so the engine renames the chain
        return plan_response(
            "a sub-goal", [(sid, f"{node} step {sid}") for sid in ids], list(zip(ids, ids[1:]))
        )


class KeyCounting(FateProvider):
    """FateProvider that counts each context key it is asked for, on any thread."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys: Counter = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.keys[request.context_key] += 1
        return super().complete(request)


def record_starts(monkeypatch) -> set[str]:
    """The ids of the nodes whose job has started, T and F from the outset; engine.process_node adds them."""
    started = set(RESERVED_IDS)
    original = engine.process_node

    def process_node(node, *args):
        started.add(node.id)
        return original(node, *args)

    monkeypatch.setattr(engine, "process_node", process_node)
    return started


@functools.lru_cache(maxsize=None)
def run_scenario(provider_cls, seed: int, concurrency: int, jitter: bool = False):
    """(outcome name, trace bytes, trace events) of one seeded scenario; each is run once.

    provider_cls(seed, jitter) answers the run; an engine error ends it
    under the error's class name.
    """
    config = RunConfig(
        provider=provider_cls(seed, jitter), deterministic=True, concurrency=concurrency
    )
    return run_traced("the original task", config)


def run_traced(task: str, config: RunConfig):
    """(outcome name, trace bytes, trace events) of one run; an engine error names the outcome.

    A RunOutcome is written with write_trace, so its lines encoded during
    the run are in the bytes; an EngineError's trace with write_trace_events.
    """
    sink = io.StringIO()
    try:
        outcome = execute_task(task, config)
    except EngineError as exc:
        name, events = type(exc).__name__, exc.trace
        write_trace_events(events, sink)
    else:
        name, events = "RunOutcome", outcome.trace
        write_trace(outcome, sink)
    return name, sink.getvalue(), events


def check_trace(events, n_subtasks: int) -> None:
    """Run-wide checks on a trace from a plan of n_subtasks under the default config.

    Each event's seq is its position, context keys are unique, provider
    calls stay within call_budget, and every plan and final graph reads
    back with TaskGraph.from_payload.
    """
    assert [event.seq for event in events] == list(range(1, len(events) + 1))
    keys = [tuple(e.payload["context"].values()) for e in events if e.kind == "provider_call"]
    assert len(keys) == len(set(keys))
    assert len(keys) <= call_budget(RunConfig(provider=None), n_subtasks)
    for event in events:
        if event.kind in ("plan", "final"):
            TaskGraph.from_payload(event.payload["graph"])  # raises unless the graph is valid


def scenario_digest(provider_cls, seeds) -> str:
    """SHA-256 over each seed's outcome name and trace bytes at concurrency 1."""
    digest = hashlib.sha256()
    for seed in seeds:
        name, text, _ = run_scenario(provider_cls, seed, 1)
        digest.update(f"{seed} {name}\n{text}".encode())
    return digest.hexdigest()


class _HeldJob:
    """A node or lane job (key None) that a held-job scheduler finishes when its policy says.

    rounds, waiting and since are the virtual clock's: the widths of the
    rounds still to come, the calls of the current round that wait for a
    slot, and the time the current round began.
    """

    __slots__ = ("key", "fn", "args", "value", "rounds", "waiting", "since")

    def __init__(self, key, fn, args) -> None:
        self.key, self.fn, self.args, self.value = key, fn, args, None

    def run(self) -> None:
        self.value = self.fn(*self.args)


class _HeldJobScheduler(engine._Scheduler):
    """engine._Scheduler as its own pool and done-queue: jobs finish one at a time, no threads.

    Install a subclass with monkeypatch.setattr(engine, "_Scheduler", ...)
    and run under a concurrency-1 RunConfig. The run then has no pool and
    no call gate, so expert calls run inline, and __init__ raises
    the node cap to the subclass's `nodes`. The scheduler is its own pool,
    so its analyst lane runs. submit holds each node and lane job; get
    finishes the job that take() picks and returns its reply, as a pool
    thread would put it on the done-queue. A get with a timeout finds no
    reply, so the run loop encodes its committed events at every receive.
    """

    nodes = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.cap = self.nodes
        self.pool = self.done = self
        self.held: list[_HeldJob] = []

    def submit(self, job) -> _HeldJob:
        _, key, fn, args = job
        held = _HeldJob(key, fn, args)
        self.held.append(held)
        return held

    def get(self, timeout=None):
        if timeout is not None:
            raise queue.Empty
        job = self.take()
        return job.key, job.value, None

    def take(self) -> _HeldJob:
        raise NotImplementedError


def explore_schedules(monkeypatch, nodes: int, run, lanes: bool = True) -> list:
    """run() once per order in which node and lane jobs can finish, up to `nodes` in flight; each result.

    A stateless depth-first search in the manner of CHESS: each run
    replays a prefix of choices (which held job finishes next), takes the
    first job at every later choice, and the next prefix bumps the last
    choice that has an untried alternative. With lanes false, a held lane
    job finishes before any node job and is no choice, so only the node
    jobs' orders are enumerated.
    """
    prefix: list[int] = []
    trail: list[tuple[int, int]] = []  # (choice, options) at each get of the current run

    class Explorer(_HeldJobScheduler):
        def take(self) -> _HeldJob:
            if not lanes and self.lane is not None:
                choice = next(i for i, job in enumerate(self.held) if job.key is None)
            else:
                step = len(trail)
                choice = prefix[step] if step < len(prefix) else 0
                trail.append((choice, len(self.held)))
            job = self.held.pop(choice)
            job.run()
            return job

    Explorer.nodes = nodes
    monkeypatch.setattr(engine, "_Scheduler", Explorer)
    results = []
    while True:
        trail.clear()
        results.append(run())
        while trail and trail[-1][0] + 1 == trail[-1][1]:
            trail.pop()
        if not trail:
            return results
        prefix = [choice for choice, _ in trail[:-1]] + [trail[-1][0] + 1]


def random_schedules(monkeypatch, nodes: int, seed, walks: int, run) -> list:
    """run() `walks` times, jobs finishing in a seeded random order, up to `nodes` in flight; each result.

    A random walk over the choices explore_schedules enumerates, for plans
    too wide to enumerate: each get finishes a held job picked uniformly
    by one random.Random(seed), which the walks draw from in turn.
    """
    rng = random.Random(seed)

    class RandomWalk(_HeldJobScheduler):
        def take(self) -> _HeldJob:
            job = self.held.pop(rng.randrange(len(self.held)))
            job.run()
            return job

    RandomWalk.nodes = nodes
    monkeypatch.setattr(engine, "_Scheduler", RandomWalk)
    return [run() for _ in range(walks)]


def _rounds(job: _HeldJob) -> list[int]:
    """The widths of a finished job's provider rounds, in order: calls that go out together.

    An expert batch's first tries are one round of K calls, and every other
    call, re-asks included, is a round of one. A lane job's rounds are its
    analyst calls. A node job skips the records of its lane job, which
    follow its node_start.
    """
    if job.key is None:
        return [1] * len(job.value[1][1])
    done, first_rules = job.value, job.args[-1]
    buffers = [done.events] if done.result is not None else [done.events, done.session.events]
    skip = len(first_rules[1]) if first_rules else 0
    widths, expert, batch_end = [], 0, 0  # last expert attempt seen; the batch's last first try
    for kind, payload in itertools.chain(*buffers):
        if kind == "rules_built":
            widths.append(len(payload["rules"]))
            batch_end = expert + len(payload["rules"])
        elif kind == "provider_call":
            if skip:
                skip -= 1
                continue
            context = payload["context"]
            if context["role"] == "DEA":
                expert = max(expert, context["attempt"])
                if context["attempt"] <= batch_end:
                    continue  # a first try, counted in its batch's round
            widths.append(1)
    return widths


def virtual_units(monkeypatch, concurrency: int, run, late: bool = False) -> tuple[int, object]:
    """(latency units, run()) with jobs finishing on a virtual clock at concurrency c.

    As in a pooled run, up to c x K nodes are in flight, and each call
    holds one of the c x K + 1 slots of the call gate for one unit. A job
    runs when it is submitted and makes its rounds (see _rounds) in turn:
    each call of a round waits for a slot, and the next round begins once
    the whole round is back. Slots go in the gate's order: highest rank
    first, by the ranks the run loop gives the run (engine.Run.ranks, from
    graph.ranks), then to the calls that have waited longest, ties by node
    id. A lane job's calls take the rank of the node it analyses. Plan and
    final fusion cost one unit each. The first job done comes back first,
    ties by node id.

    With late, a job whose round begins at the current tick (it was just
    submitted, or its previous round has just ended) is served after the
    calls already waiting. That models requests that reach the gate only
    after the slots freed at their tick were granted, as on a real clock a
    releasing thread's next request does when the gate grants at release.
    """
    clock = [1]  # the plan's round

    class VirtualClock(_HeldJobScheduler):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.cap = concurrency * self.config.k_rules
            self.slots = self.cap + 1

        def submit(self, job) -> _HeldJob:
            job = super().submit(job)
            job.run()
            job.rounds = _rounds(job)[::-1]
            self._next_round(job)
            return job

        def _next_round(self, job: _HeldJob) -> None:
            job.waiting = job.rounds.pop() if job.rounds else 0
            job.since = clock[0]

        def take(self) -> _HeldJob:
            while not (done := [job for job in self.held if not job.waiting]):
                free, rank = self.slots, self.shared.ranks.get
                for job in sorted(
                    self.held,
                    key=lambda job: (
                        late and job.since == clock[0], -rank(job.args[0].id, 0), job.since, job.args[0].id
                    ),
                ):
                    granted = min(job.waiting, free)
                    job.waiting -= granted
                    free -= granted
                clock[0] += 1
                for job in self.held:
                    if not job.waiting:
                        self._next_round(job)
            job = min(done, key=lambda job: job.args[0].id)
            self.held.remove(job)
            return job

    monkeypatch.setattr(engine, "_Scheduler", VirtualClock)
    result = run()
    return clock[0] + 1, result  # final fusion's round
