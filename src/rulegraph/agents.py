"""Agent roles, prompt rendering, structured-output parsing and the provider boundary.

Five fixed roles drive a run: the planner (PA) decomposes tasks and
classifies failures, the domain analyst (DAA) writes IF-THEN rules, domain
experts (DEA) execute rule consequents, the fusion expert (FEA) clusters
and synthesizes, and the global expert (GEA) gates fused results against
the global goal.

Every role emits a JSON document embedded in free text; parse_structured
extracts the first well-formed object and validates it against a named
schema. Two provider implementations sit behind one interface: a live
OpenAI-compatible chat-completions client and a deterministic scripted
mock keyed by call context, used by every test.
"""

from __future__ import annotations

import json
import string
import threading
from concurrent.futures import Executor, wait
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import requests

from . import graph as graph_mod
from .membership import MembershipLabel, UnrecognizedLabel, parse_label

REASK_LIMIT = 2  # re-asks after a malformed response, then hard error


# ---------------------------------------------------------------------------
# errors


class ProviderFailure(Exception):
    """Base class for provider-call failures."""


class Timeout(ProviderFailure):
    pass


class RateLimited(ProviderFailure):
    pass


class TransportError(ProviderFailure):
    pass


class ScriptMiss(Exception):
    """Mock script has no entry for a context key; a test authoring error."""


class ParseError(Exception):
    """Base class for structured-output extraction failures."""


class NoDocumentFound(ParseError):
    """Response text contains no well-formed JSON object."""


class SchemaViolation(ParseError):
    """Extracted document fails schema validation for a named field."""

    def __init__(self, fieldname: str, message: str | None = None):
        self.field = fieldname
        super().__init__(message or f"schema violation on field {fieldname!r}")


class ResponseViolation(Exception):
    """Semantic check on a parsed response failed; triggers a re-ask."""


class MalformedResponse(Exception):
    """A role response stayed invalid through all configured re-asks."""


class MalformedPlan(MalformedResponse):
    pass


class MalformedAnalysis(MalformedResponse):
    pass


class MalformedAssessment(MalformedResponse):
    pass


class MalformedFusion(MalformedResponse):
    pass


class MalformedClassification(MalformedResponse):
    pass


class TemplateError(Exception):
    """A prompt template referenced a slot that was not supplied."""


# ---------------------------------------------------------------------------
# roles and prompt templates


class RoleKind(Enum):
    PA = "PA"
    DAA = "DAA"
    DEA = "DEA"
    FEA = "FEA"
    GEA = "GEA"


@dataclass(frozen=True)
class Role:
    kind: RoleKind
    template: str


_JSON_RULES = (
    "Respond with a single JSON object inside a ```json fenced block. "
    "Do not add commentary after the block."
)

_PLAN_TEMPLATE = f"""You are a task planner. Decompose the task below into the smallest set of
concrete subtasks that together answer it, define dependency edges between
subtasks where one needs another's result, and state the global goal the
final answer must satisfy.

Task:
$task

{_JSON_RULES}
Fields: "goal" (string), "subtasks" (array of {{"id", "statement"}}),
"edges" (array of [from_id, to_id] pairs; empty if subtasks are independent).
"""

_CLASSIFY_TEMPLATE = f"""You are a task planner reviewing a subtask that kept failing its goal check
after $attempts attempts. Decide why.

Global goal:
$goal

Failing subtask:
$statement

Answer "irrelevant" if the subtask does not serve the global goal and should
be dropped, or "too_complex" if it is relevant but needs to be broken into
simpler steps.

{_JSON_RULES}
Fields: "scenario" ("irrelevant" or "too_complex"), "reason" (string).
"""

_ANALYZE_TEMPLATE = f"""You are a domain analyst. For the subtask below, write $k IF-THEN domain
rules. For each rule pick a distinct domain from the catalog, write the
IF-part in that domain's terminology, judge how strongly the subtask belongs
to the domain as one of H, SH, M, ML, Lr, L, and write the THEN-part as an
initialization prompt for a domain expert who will answer the subtask.

Subtask:
$statement
$feedback_block
Domain catalog: $catalog

{_JSON_RULES}
Fields: "rules" (array of {{"domain", "antecedent", "membership",
"expert_prompt"}}).
"""

_EXECUTE_TEMPLATE = f"""$instructions

Subtask:
$statement

Results from earlier steps:
$context

{_JSON_RULES}
Fields: "answer" (string with your full answer).
"""

_ASSESS_TEMPLATE = f"""You are a global reviewer. Judge how strongly the result below satisfies the
global goal, as one of H, SH, M, ML, Lr, L. If your judgement is below
$threshold, describe precisely what deviates from the goal so the subtask
can be reworked.

Global goal:
$goal

Result:
$result

{_JSON_RULES}
Fields: "membership" (label), "diff_text" (string; required and non-empty
when membership is below $threshold).
"""

_CLUSTER_TEMPLATE = f"""You are a fusion expert. Group the candidate answers below by meaning:
answers that state the same thing get the same short cluster key, answers
that disagree get different keys.

Candidates:
$candidates

{_JSON_RULES}
Fields: "assignments" (array of cluster-key strings, one per candidate, in
the order given).
"""

_FUSE_SUBTASK_TEMPLATE = f"""You are a fusion expert. The answers below agree on the substance of the
subtask result. Write one consolidated answer grounded only in them.

Subtask:
$statement

Supporting answers:
$candidates

{_JSON_RULES}
Fields: "answer" (string).
"""

_FUSE_FINAL_TEMPLATE = f"""You are a fusion expert. Combine the completed subtask results below into a
single final answer to the original task. Use every result.

Original task:
$task

Subtask results:
$results

{_JSON_RULES}
Fields: "answer" (string).
"""

ROLES: dict[str, Role] = {
    "plan": Role(RoleKind.PA, _PLAN_TEMPLATE),
    "classify": Role(RoleKind.PA, _CLASSIFY_TEMPLATE),
    "analyze": Role(RoleKind.DAA, _ANALYZE_TEMPLATE),
    "execute": Role(RoleKind.DEA, _EXECUTE_TEMPLATE),
    "assess": Role(RoleKind.GEA, _ASSESS_TEMPLATE),
    "cluster": Role(RoleKind.FEA, _CLUSTER_TEMPLATE),
    "fuse_subtask": Role(RoleKind.FEA, _FUSE_SUBTASK_TEMPLATE),
    "fuse_final": Role(RoleKind.FEA, _FUSE_FINAL_TEMPLATE),
}

DEFAULT_TEMPERATURES: dict[RoleKind, float] = {
    RoleKind.PA: 0.7,
    RoleKind.DEA: 0.7,
    RoleKind.DAA: 0.0,
    RoleKind.FEA: 0.0,
    RoleKind.GEA: 0.0,
}


def render_prompt(role: Role, slots: Mapping[str, object]) -> str:
    """Fill a role template; every slot the template references must be given."""
    try:
        return string.Template(role.template).substitute({k: str(v) for k, v in slots.items()})
    except KeyError as exc:
        raise TemplateError(f"missing template slot {exc.args[0]!r}") from None


def render_result_set(preds: Sequence[object]) -> str:
    """Render predecessor results (subtask results or the task statement) as prompt text."""
    if not preds:
        return "(none)"
    lines = []
    for i, item in enumerate(preds, 1):
        text = getattr(item, "answer_text", None)
        lines.append(f"{i}. {text if text is not None else item}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# structured-output parsing


SCHEMA_IDS = ("plan", "ruleset", "candidate", "fusion", "assessment", "failure_classification")


def parse_structured(response_text: str, schema_id: str) -> dict:
    """Extract the first well-formed JSON object from text and validate it.

    Models wrap documents in prose or markdown fences; extraction scans for
    the first position where a JSON object parses, and never consumes more
    than that one document.
    """
    if schema_id not in SCHEMA_IDS:
        raise ValueError(f"unknown schema id {schema_id!r}")
    doc = _first_json_object(response_text)
    _validate_schema(doc, schema_id)
    return doc


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    idx = text.find("{")
    while idx != -1:
        try:
            value, _ = decoder.raw_decode(text[idx:])
        except json.JSONDecodeError:
            idx = text.find("{", idx + 1)
            continue
        if isinstance(value, dict):
            return value
        idx = text.find("{", idx + 1)
    raise NoDocumentFound("no JSON object found in response")


def _need(doc: Mapping, fieldname: str, kind: type, nonempty: bool = False):
    if fieldname not in doc:
        raise SchemaViolation(fieldname, f"missing required field {fieldname!r}")
    value = doc[fieldname]
    if not isinstance(value, kind):
        raise SchemaViolation(fieldname, f"field {fieldname!r} must be {kind.__name__}")
    if nonempty and not value:
        raise SchemaViolation(fieldname, f"field {fieldname!r} must be non-empty")
    return value


def _need_label(doc: Mapping, fieldname: str) -> MembershipLabel:
    raw = _need(doc, fieldname, str, nonempty=True)
    try:
        return parse_label(raw)
    except UnrecognizedLabel as exc:
        raise SchemaViolation(fieldname, str(exc)) from None


def _validate_schema(doc: dict, schema_id: str) -> None:
    if schema_id == "plan":
        _need(doc, "goal", str, nonempty=True)
        subtasks = _need(doc, "subtasks", list, nonempty=True)
        for entry in subtasks:
            if not isinstance(entry, dict):
                raise SchemaViolation("subtasks", "each subtask must be an object")
            _need(entry, "id", str, nonempty=True)
            _need(entry, "statement", str, nonempty=True)
        edges = _need(doc, "edges", list)
        for edge in edges:
            if not (isinstance(edge, list) and len(edge) == 2 and all(isinstance(e, str) for e in edge)):
                raise SchemaViolation("edges", "each edge must be a [from, to] pair of strings")
    elif schema_id == "ruleset":
        rules = _need(doc, "rules", list, nonempty=True)
        for entry in rules:
            if not isinstance(entry, dict):
                raise SchemaViolation("rules", "each rule must be an object")
            _need(entry, "domain", str, nonempty=True)
            _need(entry, "antecedent", str, nonempty=True)
            _need_label(entry, "membership")
            _need(entry, "expert_prompt", str, nonempty=True)
    elif schema_id == "candidate":
        _need(doc, "answer", str, nonempty=True)
    elif schema_id == "fusion":
        has_answer = isinstance(doc.get("answer"), str) and doc.get("answer")
        assignments = doc.get("assignments")
        has_assignments = (
            isinstance(assignments, list)
            and len(assignments) > 0
            and all(isinstance(a, str) and a.strip() for a in assignments)
        )
        if not has_answer and not has_assignments:
            raise SchemaViolation("answer", "fusion response needs 'answer' or 'assignments'")
    elif schema_id == "assessment":
        # The run's threshold decides when a deviation must be described
        # (rules.run_global_rule). L fails every threshold but L itself, so an
        # L judgement always carries one.
        if _need_label(doc, "membership") is MembershipLabel.L:
            _need(doc, "diff_text", str, nonempty=True)
        elif "diff_text" in doc and not isinstance(doc["diff_text"], str):
            raise SchemaViolation("diff_text", "diff_text must be a string")
    elif schema_id == "failure_classification":
        scenario = _need(doc, "scenario", str, nonempty=True)
        if scenario not in ("irrelevant", "too_complex"):
            raise SchemaViolation("scenario", "scenario must be 'irrelevant' or 'too_complex'")


# ---------------------------------------------------------------------------
# provider boundary


@dataclass(frozen=True)
class ProviderRequest:
    role_kind: RoleKind
    rendered_prompt: str
    response_schema: str
    temperature: float
    context_key: tuple[str, str, str, int]  # (run id, node id, role kind, attempt)


@dataclass(frozen=True)
class ProviderResponse:
    raw_text: str
    parsed: dict | None
    token_usage: dict[str, int]
    attempts: int = 1


def _try_parse(text: str, schema_id: str) -> dict | None:
    try:
        return parse_structured(text, schema_id)
    except ParseError:
        return None


class MockProvider:
    """Deterministic scripted provider; no network.

    Lookup order for a request with context key (run, node, role, attempt):
    exact 4-part key first, then the (role, attempt) fallback. A miss is a
    test authoring error and is never retried.
    """

    scripted = True

    def __init__(self, script: Mapping[tuple, str]):
        self._script = dict(script)

    @classmethod
    def from_file(cls, path: str) -> "MockProvider":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        script: dict[tuple, str] = {}
        for entry in payload["entries"]:
            if "run" in entry:
                key = (entry["run"], entry["node"], entry["role"], int(entry["attempt"]))
            else:
                key = (entry["role"], int(entry["attempt"]))
            script[key] = entry["response"]
        return cls(script)

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        run_id, node_id, role, attempt = request.context_key
        text = self._script.get((run_id, node_id, role, attempt))
        if text is None:
            text = self._script.get((role, attempt))
        if text is None:
            raise ScriptMiss(f"no script entry for {request.context_key}")
        return ProviderResponse(
            raw_text=text,
            parsed=_try_parse(text, request.response_schema),
            token_usage={"prompt_tokens": 0, "completion_tokens": 0},
        )


class LiveProvider:
    """OpenAI-compatible chat-completions client with transport retries.

    Timeouts, HTTP 429 and transient transport faults are retried up to
    transport_retries total attempts; the API key is read once and never
    logged or traced.
    """

    scripted = False

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str,
        timeout_s: float = 60.0,
        transport_retries: int = 3,
        backoff_s: float = 1.0,
        transport: Callable | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self._api_key = api_key
        self.timeout_s = timeout_s
        self.transport_retries = max(1, transport_retries)
        self.backoff_s = backoff_s
        self._transport = transport or self._http_post

    def _http_post(self, url: str, headers: dict, payload: dict, timeout: float) -> dict:
        try:
            response = requests.post(url, headers=headers, json=payload, timeout=timeout)
        except requests.Timeout as exc:
            raise Timeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if response.status_code == 429:
            raise RateLimited("rate limited by provider")
        if response.status_code >= 500:
            raise TransportError(f"server error {response.status_code}")
        if response.status_code != 200:
            raise ProviderFailure(f"provider returned {response.status_code}: {response.text[:200]}")
        try:
            return response.json()
        except ValueError as exc:
            raise ProviderFailure(f"provider returned a non-JSON body: {exc}") from exc

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        url = f"{self.base_url}/chat/completions"
        headers = {"Authorization": f"Bearer {self._api_key}", "Content-Type": "application/json"}
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.rendered_prompt}],
            "temperature": request.temperature,
        }
        last: ProviderFailure | None = None
        for attempt in range(1, self.transport_retries + 1):
            try:
                body = self._transport(url, headers, payload, self.timeout_s)
            except (Timeout, RateLimited, TransportError) as exc:
                last = exc
                if attempt < self.transport_retries and self.backoff_s:
                    import time

                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                continue
            try:
                text = body["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise ProviderFailure(f"malformed completion body: {exc}") from exc
            usage = body.get("usage") or {}
            return ProviderResponse(
                raw_text=text,
                parsed=_try_parse(text, request.response_schema),
                token_usage={
                    "prompt_tokens": int(usage.get("prompt_tokens", 0)),
                    "completion_tokens": int(usage.get("completion_tokens", 0)),
                },
                attempts=attempt,
            )
        assert last is not None
        raise last


# ---------------------------------------------------------------------------
# call context and the node session


class AttemptLedger:
    """Monotonic attempt numbers per (node id, role kind) within one run."""

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def next(self, node_id: str, role: RoleKind, count: int = 1) -> int:
        """Take the next `count` numbers at once; returns the first of them."""
        with self._lock:
            key = (node_id, role.value)
            first = self._counts.get(key, 0) + 1
            self._counts[key] = first + count - 1
            return first


@dataclass
class NodeSession:
    """Provider access bound to one node of one run.

    Buffers trace events locally; the engine flushes buffers in a
    deterministic order so concurrent node processing cannot reorder the
    trace. Malformed responses are re-asked up to REASK_LIMIT times with the
    violation appended to the prompt, each re-ask under a fresh attempt
    number. With a pool, call_many runs its first tries on the pool's
    threads.
    """

    run_id: str
    node_id: str
    provider: object
    ledger: AttemptLedger
    temperatures: Mapping[RoleKind, float] = field(default_factory=lambda: DEFAULT_TEMPERATURES)
    events: list[tuple[str, dict]] = field(default_factory=list)
    pool: Executor | None = None

    def emit(self, kind: str, payload: dict) -> None:
        self.events.append((kind, payload))

    def call(
        self,
        template_key: str,
        slots: Mapping[str, object],
        schema_id: str,
        failure: type[MalformedResponse],
        extra_check: Callable[[dict], None] | None = None,
    ) -> dict:
        role = ROLES[template_key]
        prompt = render_prompt(role, slots)
        attempt = self.ledger.next(self.node_id, role.kind)
        doc, violation = self._ask(
            role, prompt, schema_id, attempt, None, extra_check, self.events
        )
        if doc is not None:
            return doc
        return self._reask(role, prompt, schema_id, violation, failure, extra_check, self.events)

    def call_many(
        self,
        template_key: str,
        slot_list: Sequence[Mapping[str, object]],
        schema_id: str,
        failure: type[MalformedResponse],
    ) -> list[tuple[dict | Exception, list[tuple[str, dict]]]]:
        """One call per slot mapping: every first try at once, then the re-asks.

        The first tries take the next len(slot_list) attempt numbers in
        order and run on the session's pool when it has one. Re-asks follow
        in order, numbered after them. Each call gets its own event buffer.
        Returns (document, or the ProviderFailure or `failure` that ended
        the call, buffer) per call; the caller appends the buffers in order.
        """
        role = ROLES[template_key]
        prompts = [render_prompt(role, slots) for slots in slot_list]
        first = self.ledger.next(self.node_id, role.kind, len(prompts))
        buffers: list[list[tuple[str, dict]]] = [[] for _ in prompts]

        def first_try(i: int) -> tuple[dict | Exception | None, str | None]:
            try:
                return self._ask(role, prompts[i], schema_id, first + i, None, None, buffers[i])
            except ProviderFailure as exc:
                return exc, None

        if self.pool is None:
            tries = [first_try(i) for i in range(len(prompts))]
        else:
            futures = [self.pool.submit(first_try, i) for i in range(len(prompts))]
            wait(futures)
            tries = [future.result() for future in futures]

        outcomes = []
        for i, (outcome, violation) in enumerate(tries):
            if outcome is None:
                try:
                    outcome = self._reask(
                        role, prompts[i], schema_id, violation, failure, None, buffers[i]
                    )
                except (ProviderFailure, MalformedResponse) as exc:
                    outcome = exc
            outcomes.append((outcome, buffers[i]))
        return outcomes

    def _reask(
        self,
        role: Role,
        prompt: str,
        schema_id: str,
        violation: str | None,
        failure: type[MalformedResponse],
        extra_check: Callable[[dict], None] | None,
        events: list[tuple[str, dict]],
    ) -> dict:
        """Re-ask a rejected call up to REASK_LIMIT times, each under a fresh attempt."""
        for _ in range(REASK_LIMIT):
            attempt = self.ledger.next(self.node_id, role.kind)
            doc, violation = self._ask(
                role, prompt, schema_id, attempt, violation, extra_check, events
            )
            if doc is not None:
                return doc
        raise failure(f"response still invalid after {REASK_LIMIT} re-asks: {violation}")

    def _ask(
        self,
        role: Role,
        prompt: str,
        schema_id: str,
        attempt: int,
        violation: str | None,
        extra_check: Callable[[dict], None] | None,
        events: list[tuple[str, dict]],
    ) -> tuple[dict | None, str | None]:
        """One provider request, logged to `events`.

        Returns (document, None) when the response is valid, else (None,
        the violation to re-ask with). A previous violation is appended to
        the prompt. Provider failures and script misses propagate.
        """
        if violation:
            prompt += (
                "\n\nYour previous response was rejected: "
                f"{violation}\nRespond again following the required format."
            )
        request = ProviderRequest(
            role_kind=role.kind,
            rendered_prompt=prompt,
            response_schema=schema_id,
            temperature=self.temperatures.get(role.kind, 0.0),
            context_key=(self.run_id, self.node_id, role.kind.value, attempt),
        )
        try:
            response = self.provider.complete(request)
        except ScriptMiss:
            _log_call(events, request, "script_miss", None)
            raise
        except ProviderFailure as exc:
            _log_call(events, request, "transport_error", None, error=str(exc))
            raise
        if response.parsed is None:
            try:
                parse_structured(response.raw_text, schema_id)
            except ParseError as exc:
                violation = str(exc)
            _log_call(events, request, "parse_error", response, error=violation)
            return None, violation
        try:
            if extra_check is not None:
                extra_check(response.parsed)
        except ResponseViolation as exc:
            violation = str(exc)
            _log_call(events, request, "rejected", response, error=violation)
            return None, violation
        _log_call(events, request, "ok", response)
        return response.parsed, None


def _log_call(
    events: list[tuple[str, dict]],
    request: ProviderRequest,
    status: str,
    response: ProviderResponse | None,
    error: str | None = None,
) -> None:
    usage = response.token_usage if response else {"prompt_tokens": 0, "completion_tokens": 0}
    payload = {
        "context": {
            "run": request.context_key[0],
            "node": request.context_key[1],
            "role": request.context_key[2],
            "attempt": request.context_key[3],
        },
        "schema": request.response_schema,
        "status": status,
        "usage": dict(usage),
    }
    if error:
        payload["error"] = error
    events.append(("provider_call", payload))


# ---------------------------------------------------------------------------
# planner role


@dataclass(frozen=True)
class PlannerPlan:
    """Validated planner output: subtasks, dependency edges and the global goal.

    task carries the planner's input text so graph construction can fill the
    original node's statement.
    """

    task: str
    global_goal: str
    subtasks: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str], ...]


def _check_plan_semantics(doc: dict) -> None:
    ids = [entry["id"] for entry in doc["subtasks"]]
    if len(set(ids)) != len(ids):
        raise ResponseViolation("subtask ids must be unique")
    for sid in ids:
        if sid in graph_mod.RESERVED_IDS:
            raise ResponseViolation(f"subtask id {sid!r} is reserved")
    known = set(ids)
    edges = [tuple(edge) for edge in doc["edges"]]
    for a, b in edges:
        if a not in known or b not in known:
            raise ResponseViolation(f"edge ({a}, {b}) references an unknown subtask")
    if graph_mod.topological_order(ids, edges) is None:
        raise ResponseViolation("dependency edges contain a cycle")


def plan(task: str, session: NodeSession) -> PlannerPlan:
    """One planner invocation; used for the original task and for failed-subtask decomposition."""
    if not task or not task.strip():
        raise ValueError("task must be non-empty")
    doc = session.call(
        "plan",
        {"task": task},
        "plan",
        failure=MalformedPlan,
        extra_check=_check_plan_semantics,
    )
    return PlannerPlan(
        task=task,
        global_goal=doc["goal"],
        subtasks=tuple((entry["id"], entry["statement"]) for entry in doc["subtasks"]),
        edges=tuple((a, b) for a, b in doc["edges"]),
    )
