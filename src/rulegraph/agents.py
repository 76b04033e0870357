"""Agent roles, prompt rendering, structured-output parsing and the provider boundary.

Five fixed roles drive a run: the planner (PA) decomposes tasks and
classifies failures, the domain analyst (DAA) writes IF-THEN rules, domain
experts (DEA) execute rule consequents, the fusion expert (FEA) clusters
and synthesizes, and the global expert (GEA) gates fused results against
the global goal.

Each role's prompt is a printf-style template filled by render_prompt.
Every role emits a JSON document embedded in free text; parse_structured
extracts the first well-formed object, trying at most _MAX_PARSE_TRIES
places where one can start, and the call's reader checks that object and
builds the value its caller uses. Two provider implementations sit behind
one interface: a live OpenAI-compatible chat-completions client and a
deterministic scripted mock keyed by call context.
"""

from __future__ import annotations

import json
import re
import time
from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from . import graph as graph_mod
from .membership import MembershipLabel, UnrecognizedLabel, parse_label

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Run

REASK_LIMIT = 2  # re-asks after a malformed response, then hard error
_MAX_WAIT_S = 86_400  # one day: no useful wait is longer, and far longer ones overflow time_t
_MAX_BODY_BYTES = 8 * 2**20  # a live response body past this is a ProviderFailure, not read further
_MAX_TRANSPORT_RETRIES = 10
_MAX_PARSE_TRIES = 32  # decode tries per response before it counts as holding no JSON object


# ---------------------------------------------------------------------------
# errors


class ProviderFailure(Exception):
    """Base class for provider-call failures."""


class TransportError(ProviderFailure):
    """A transient fault: timeout, connection error, HTTP 429 or 5xx. LiveProvider retries it."""


class ScriptMiss(Exception):
    """Mock script has no entry for a context key; a test authoring error."""


class ParseError(Exception):
    """Response text holds no JSON object, or the first one has the wrong shape for its role."""


class ResponseViolation(Exception):
    """A call's reader refused a well-shaped response on its meaning; triggers a re-ask."""


# ---------------------------------------------------------------------------
# roles and prompt templates


class RoleKind(Enum):
    PA = "PA"
    DAA = "DAA"
    DEA = "DEA"
    FEA = "FEA"
    GEA = "GEA"

    # Members are singletons that compare by identity, so C identity hashing is safe; Enum.__hash__ is Python.
    __hash__ = object.__hash__


class Role(NamedTuple):
    kind: RoleKind
    schema: str  # names the response shape in each provider_call record
    template: str  # printf-style: %(name)s is a slot, and a literal % must be written %%


_JSON_RULES = (
    "Respond with a single JSON object inside a ```json fenced block. "
    "Do not add commentary after the block."
)

_PLAN_TEMPLATE = f"""You are a task planner. Decompose the task below into the smallest set of
concrete subtasks that together answer it, define dependency edges between
subtasks where one needs another's result, and state the global goal the
final answer must satisfy.

Task:
%(task)s

{_JSON_RULES}
Fields: "goal" (string), "subtasks" (array of {{"id", "statement"}}),
"edges" (array of [from_id, to_id] pairs; empty if subtasks are independent).
"""

_CLASSIFY_TEMPLATE = f"""You are a task planner reviewing a subtask that kept failing its goal check
after %(attempts)s attempts. Decide why.

Global goal:
%(goal)s

Failing subtask:
%(statement)s

Answer "irrelevant" if the subtask does not serve the global goal and should
be dropped, or "too_complex" if it is relevant but needs to be broken into
simpler steps.

{_JSON_RULES}
Fields: "scenario" ("irrelevant" or "too_complex"), "reason" (string).
"""

_ANALYZE_TEMPLATE = f"""You are a domain analyst. For the subtask below, write %(k)s IF-THEN domain
rules. For each rule pick a distinct domain from the catalog, write the
IF-part in that domain's terminology, judge how strongly the subtask belongs
to the domain as one of H, SH, M, ML, Lr, L, and write the THEN-part as an
initialization prompt for a domain expert who will answer the subtask.

Subtask:
%(statement)s
%(feedback_block)s
Domain catalog: %(catalog)s

{_JSON_RULES}
Fields: "rules" (array of {{"domain", "antecedent", "membership",
"expert_prompt"}}).
"""

_EXECUTE_TEMPLATE = f"""%(instructions)s

Subtask:
%(statement)s

Results from earlier steps:
%(context)s

{_JSON_RULES}
Fields: "answer" (string with your full answer).
"""

_ASSESS_TEMPLATE = f"""You are a global reviewer. Judge how strongly the result below satisfies the
global goal, as one of H, SH, M, ML, Lr, L. If your judgement is below
%(threshold)s, describe precisely what deviates from the goal so the subtask
can be reworked.

Global goal:
%(goal)s

Result:
%(result)s

{_JSON_RULES}
Fields: "membership" (label), "diff_text" (string; required and non-empty
when membership is below %(threshold)s).
"""

_CLUSTER_TEMPLATE = f"""You are a fusion expert. Group the candidate answers below by meaning:
answers that state the same thing get the same short cluster key, answers
that disagree get different keys.

Candidates:
%(candidates)s

{_JSON_RULES}
Fields: "assignments" (array of cluster-key strings, one per candidate, in
the order given).
"""

_FUSE_SUBTASK_TEMPLATE = f"""You are a fusion expert. The answers below agree on the substance of the
subtask result. Write one consolidated answer grounded only in them.

Subtask:
%(statement)s

Supporting answers:
%(candidates)s

{_JSON_RULES}
Fields: "answer" (string).
"""

_FUSE_FINAL_TEMPLATE = f"""You are a fusion expert. Combine the completed subtask results below into a
single final answer to the original task. Use every result.

Original task:
%(task)s

Subtask results:
%(results)s

{_JSON_RULES}
Fields: "answer" (string).
"""

ROLES: dict[str, Role] = {
    "plan": Role(RoleKind.PA, "plan", _PLAN_TEMPLATE),
    "classify": Role(RoleKind.PA, "failure_classification", _CLASSIFY_TEMPLATE),
    "analyze": Role(RoleKind.DAA, "ruleset", _ANALYZE_TEMPLATE),
    "execute": Role(RoleKind.DEA, "candidate", _EXECUTE_TEMPLATE),
    "assess": Role(RoleKind.GEA, "assessment", _ASSESS_TEMPLATE),
    "cluster": Role(RoleKind.FEA, "fusion", _CLUSTER_TEMPLATE),
    "fuse_subtask": Role(RoleKind.FEA, "fusion", _FUSE_SUBTASK_TEMPLATE),
    "fuse_final": Role(RoleKind.FEA, "fusion", _FUSE_FINAL_TEMPLATE),
}

DEFAULT_TEMPERATURES: dict[RoleKind, float] = {
    RoleKind.PA: 0.7,
    RoleKind.DEA: 0.7,
    RoleKind.DAA: 0.0,
    RoleKind.FEA: 0.0,
    RoleKind.GEA: 0.0,
}


def render_prompt(role: Role, slots: Mapping[str, object]) -> str:
    """Fill a role template with str() of each slot; a slot that slots lacks raises KeyError."""
    return role.template % slots


def render_result_set(preds: Sequence[str]) -> str:
    """Render predecessor results (answer texts or the task statement) as prompt text."""
    if not preds:
        return "(none)"
    return "\n".join(f"{i}. {text}" for i, text in enumerate(preds, 1))


# ---------------------------------------------------------------------------
# structured-output parsing


_DECODER = json.JSONDecoder()
# Where an object can start: a brace, JSON whitespace, then a key or the closing brace.
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


def parse_structured(response_text: str) -> dict:
    """Extract the first well-formed JSON object from text; the call's reader checks it.

    Models wrap documents in prose or markdown fences, so this decodes at
    each place an object can start, at most _MAX_PARSE_TRIES of them, and
    never consumes more than the first document. Each try copies the rest
    of the text, so the cap keeps a rejected response linear in its length.
    """
    start = _OBJECT_START.search(response_text)
    for _ in range(_MAX_PARSE_TRIES):
        if start is None:
            break
        idx = start.start()
        try:
            return _DECODER.raw_decode(response_text[idx:])[0]  # an object, since it starts with a brace
        except (json.JSONDecodeError, RecursionError):  # nesting too deep fails like bad JSON
            start = _OBJECT_START.search(response_text, idx + 1)
    raise ParseError("no JSON object found in response")


def need_field(doc: Mapping, fieldname: str, kind: type = str, nonempty: bool = True):
    """doc[fieldname] if it is a kind, and non-empty unless nonempty is false; else a ParseError.

    kind MembershipLabel takes a label token and returns the label it names.
    Readers share this check, so a field's shape fails with one message
    whichever role's response carries it.
    """
    if fieldname not in doc:
        raise ParseError(f"missing required field {fieldname!r}")
    value = doc[fieldname]
    if kind is str and type(value) is str and value:
        return value  # the common case, before the general checks
    shape = str if kind is MembershipLabel else kind
    if not isinstance(value, shape):
        raise ParseError(f"field {fieldname!r} must be {shape.__name__}")
    if nonempty and not value:
        raise ParseError(f"field {fieldname!r} must be non-empty")
    if kind is MembershipLabel:
        try:
            return parse_label(value)
        except UnrecognizedLabel as exc:
            raise ParseError(str(exc)) from None
    return value


# ---------------------------------------------------------------------------
# provider boundary


class ProviderRequest(NamedTuple):
    role_kind: RoleKind
    rendered_prompt: str
    temperature: float
    context_key: tuple[str, str, str, int]  # (run id, node id, role kind, attempt)


class ProviderResponse(NamedTuple):
    """A completion as the provider returned it; NodeSession parses and checks it."""

    raw_text: str
    token_usage: dict[str, int]


class MockProvider:
    """Deterministic scripted provider; no network.

    Lookup order for a request with context key (run, node, role, attempt):
    exact 4-part key first, then the (role, attempt) fallback. A miss is a
    test authoring error and is never retried. The script is used as
    given, not copied.
    """

    scripted = True

    def __init__(self, script: Mapping[tuple, str]):
        self._script = script

    @classmethod
    def from_file(cls, path: str) -> "MockProvider":
        """Load a script file; a malformed script or a repeated key raises ValueError.

        Each entry is indexed as the parser closes its object, so the entry
        objects never exist together, and equal run, node and role names
        share one string. The parser hands every object to the indexer, the
        document and any object nested in an entry too, so the shape is
        checked once the parse ends: the document is an object whose
        entries list holds indexed entries and nothing else.
        """
        script: dict[tuple, str] = {}
        share = {}.setdefault  # name -> the first string seen with that value
        indexed = object()  # what an indexed entry leaves in the parsed document

        def index(entry: dict) -> object:
            if "entries" in entry:
                return entry  # the document, or an entry that the shape check refuses
            role, attempt, response = entry["role"], entry["attempt"], entry["response"]
            if type(attempt) is not int:
                raise ValueError(f"attempt {attempt!r} must be an integer")
            if "run" in entry:
                run, node = entry["run"], entry["node"]
                key = (share(run, run), share(node, node), share(role, role), attempt)
            else:
                key = (share(role, role), attempt)
            if type(response) is not str:
                raise ValueError(f"response for {key} must be a string")
            size = len(script)
            script[key] = response
            if len(script) == size:
                raise ValueError(f"duplicate script entry for {key}")
            return indexed

        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle, object_hook=index)
        except (KeyError, TypeError, RecursionError) as exc:  # no such field, a list as a name, too deep
            raise ValueError(f"malformed script: {type(exc).__name__}: {exc}") from None
        entries = doc.get("entries") if type(doc) is dict else None
        if type(entries) is not list or not len(entries) == len(script) == entries.count(indexed):
            raise ValueError("a script is an object whose 'entries' is a list of flat entry objects")
        return cls(script)

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        run_id, node_id, role, attempt = request.context_key
        text = self._script.get((run_id, node_id, role, attempt))
        if text is None:
            text = self._script.get((role, attempt))
        if text is None:
            raise ScriptMiss(f"mock script has no entry for {request.context_key}")
        return ProviderResponse(text, {"prompt_tokens": 0, "completion_tokens": 0})


class LiveProvider:
    """OpenAI-compatible chat-completions client; complete checks every body.

    A TransportError (timeout, connection or protocol error, HTTP 429 or
    5xx) is retried up to transport_retries total attempts; the API key is
    read once and never logged or traced. Options out of range, or not
    numbers (a bool is not one), raise ValueError.
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
    ):
        # NaN and the infinities fail these comparisons, so non-finite values are rejected too.
        if not (
            all(type(wait) in (int, float) for wait in (timeout_s, backoff_s))
            and 0 < timeout_s <= _MAX_WAIT_S
            and 0 <= backoff_s <= _MAX_WAIT_S
            and type(transport_retries) is int
            and 1 <= transport_retries <= _MAX_TRANSPORT_RETRIES
        ):
            raise ValueError(
                f"live options must be numbers 0 < timeout_s <= {_MAX_WAIT_S}, "
                f"0 <= backoff_s <= {_MAX_WAIT_S} and an integer 1 <= transport_retries <= "
                f"{_MAX_TRANSPORT_RETRIES}, got timeout_s={timeout_s!r}, "
                f"backoff_s={backoff_s!r}, transport_retries={transport_retries!r}"
            )
        self.model = model
        self._url = f"{base_url.rstrip('/')}/chat/completions"
        self._headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        self.timeout_s = timeout_s
        self.transport_retries = transport_retries
        self.backoff_s = backoff_s

    def _http_post(self, payload: dict) -> dict:
        import http.client  # imported here: only a live call needs an HTTP stack
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self._url, json.dumps(payload).encode(), self._headers, method="POST")
        try:
            try:
                response = urllib.request.urlopen(request, timeout=self.timeout_s)
            except urllib.error.HTTPError as exc:  # an OSError: caught first, its status decides
                response = exc
            with response:
                status, body = response.status, response.read(_MAX_BODY_BYTES + 1)
                if len(body) <= _MAX_BODY_BYTES:  # read() raises IncompleteRead on a body cut short
                    body += response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(str(exc)) from exc
        if status == 429 or status >= 500:
            raise TransportError("rate limited by provider" if status == 429 else f"server error {status}")
        if status != 200:
            raise ProviderFailure(f"provider returned {status}: {body[:200].decode(errors='replace')}")
        if len(body) > _MAX_BODY_BYTES:
            raise ProviderFailure(f"provider returned a body over {_MAX_BODY_BYTES} bytes")
        try:
            return json.loads(body)
        except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not text, too deep
            raise ProviderFailure(f"provider returned a non-JSON body: {exc}") from exc

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.rendered_prompt}],
            "temperature": request.temperature,
        }
        for attempt in range(self.transport_retries):
            try:
                body = self._http_post(payload)
                break
            except TransportError:
                if attempt == self.transport_retries - 1:
                    raise
                time.sleep(self.backoff_s * 2**attempt)
        try:
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage") or {}
            tokens = {key: usage.get(key, 0) for key in ("prompt_tokens", "completion_tokens")}
        except (LookupError, TypeError, AttributeError) as exc:
            raise ProviderFailure(f"malformed completion body: {exc}") from exc
        if not isinstance(text, str) or any(type(n) is not int for n in tokens.values()):
            raise ProviderFailure(f"malformed completion body: content {text!r:.60}, usage {tokens}")
        return ProviderResponse(raw_text=text, token_usage=tokens)


# ---------------------------------------------------------------------------
# call context and the node session


class NodeSession:
    """Provider access bound to one node of one run.

    run is the engine's Run, from which the session reads the run id,
    temperatures and pool, and through whose request method it makes every
    provider request. Buffers trace events locally; the
    engine flushes buffers in a deterministic order so concurrent node
    processing cannot reorder the trace. The session numbers its calls'
    attempts per role (_attempts holds the last number taken), and the
    engine opens one session per node id and run, so every context key is
    unique. call makes one call directly; call_many makes several, their
    first tries at once. Each response's first JSON object goes to the
    call's reader, which checks it whole and builds the call's value; a
    response it refuses is re-asked up to REASK_LIMIT times with the
    violation appended to the prompt, each re-ask under a fresh attempt
    number.
    """

    __slots__ = ("run", "node_id", "events", "_attempts")

    def __init__(self, run: Run, node_id: str) -> None:
        self.run, self.node_id = run, node_id
        self.events: list[tuple[str, dict]] = []
        self._attempts: dict[RoleKind, int] = {}

    def emit(self, kind: str, payload: dict) -> None:
        self.events.append((kind, payload))

    def call(
        self,
        template_key: str,
        slots: Mapping[str, object],
        read: Callable[[dict], object],
    ):
        """One call under the next attempt number, logged to this session's events.

        Returns what read made of the document, or raises the
        ProviderFailure that ended the call.
        """
        role = ROLES[template_key]
        attempt = self._attempts[role.kind] = self._attempts.get(role.kind, 0) + 1
        prompt = render_prompt(role, slots)
        outcome, violation = self._ask(role, prompt, attempt, None, read, self.events)
        if outcome is None:
            outcome = self._reask(role, prompt, violation, read, self.events)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def call_many(
        self,
        template_key: str,
        slot_list: Sequence[Mapping[str, object]],
        read: Callable[[dict], object],
    ) -> list[tuple[object, list[tuple[str, dict]]]]:
        """One call per slot mapping: every first try at once, then the re-asks.

        The first tries take the next len(slot_list) attempt numbers in
        order. With the run's pool, the first runs on this thread and the
        others on pool threads; without one, they run here in turn. Re-asks
        follow in order, numbered after them. Each call gets its own event
        buffer.
        Returns (what read made of the document, or the ProviderFailure that
        ended the call, buffer) per call; the caller appends the buffers in
        order. A response still invalid after the re-asks ends its call with
        a ProviderFailure.
        """
        role = ROLES[template_key]
        calls = [(render_prompt(role, slots), []) for slots in slot_list]  # (prompt, events)
        first = self._attempts.get(role.kind, 0) + 1
        self._attempts[role.kind] = first + len(calls) - 1

        def first_try(i: int) -> tuple[object, str | None]:
            prompt, events = calls[i]
            return self._ask(role, prompt, first + i, None, read, events)

        if self.run.pool is None:
            tries = [first_try(i) for i in range(len(calls))]
        else:
            tries = self.run.pool.map(first_try, range(len(calls)))

        return [
            (self._reask(role, prompt, violation, read, events) if outcome is None else outcome, events)
            for (outcome, violation), (prompt, events) in zip(tries, calls)
        ]

    def _reask(
        self,
        role: Role,
        prompt: str,
        violation: str | None,
        read: Callable[[dict], object],
        events: list[tuple[str, dict]],
    ) -> object:
        """Re-ask a first try that left no outcome, up to REASK_LIMIT times.

        Returns the outcome, or a ProviderFailure when the response is still
        invalid after the re-asks.
        """
        for _ in range(REASK_LIMIT):
            attempt = self._attempts[role.kind] = self._attempts[role.kind] + 1
            outcome, violation = self._ask(role, prompt, attempt, violation, read, events)
            if outcome is not None:
                return outcome
        return ProviderFailure(f"response still invalid after {REASK_LIMIT} re-asks: {violation}")

    def _ask(
        self,
        role: Role,
        prompt: str,
        attempt: int,
        violation: str | None,
        read: Callable[[dict], object],
        events: list[tuple[str, dict]],
    ) -> tuple[object, str | None]:
        """One provider request, made by Run.request and logged to `events` as one provider_call record.

        Returns (what read made of the document, None) for a valid response,
        (the ProviderFailure, its text) when the provider failed, else (None,
        the violation to re-ask with). A ParseError, from extraction or the
        reader, is a parse_error; a reader's ResponseViolation is rejected. A
        previous violation is appended to the prompt.
        """
        if violation:
            prompt += (
                "\n\nYour previous response was rejected: "
                f"{violation}\nRespond again following the required format."
            )
        run, kind = self.run, role.kind._value_
        request = ProviderRequest(
            role.kind, prompt, run.temperatures[role.kind], (run.run_id, self.node_id, kind, attempt)
        )
        response = outcome = error = None
        try:
            response = run.request(self, request)
            outcome = read(parse_structured(response.raw_text))
            status = "ok"
        except ProviderFailure as exc:
            status, outcome, error = "transport_error", exc, str(exc)
        except (ParseError, ResponseViolation) as exc:
            status = "parse_error" if isinstance(exc, ParseError) else "rejected"
            outcome, error = None, str(exc)
        usage = {"prompt_tokens": 0, "completion_tokens": 0} if response is None else dict(response.token_usage)
        payload = {
            "context": {"run": run.run_id, "node": self.node_id, "role": kind, "attempt": attempt},
            "schema": role.schema,
            "status": status,
            "usage": usage,
        }
        if error:
            payload["error"] = error
        events.append(("provider_call", payload))
        return outcome, error


# ---------------------------------------------------------------------------
# planner role


class PlannerPlan:
    """A plan that forms a run graph: subtasks, dependency edges and the global goal.

    task carries the planner's input text so graph construction can fill the
    original node's statement. A plan that cannot form a run graph raises
    GraphError when built.
    """

    __slots__ = ("task", "global_goal", "subtasks", "edges")

    def __init__(
        self,
        task: str,
        global_goal: str,
        subtasks: tuple[tuple[str, str], ...],
        edges: tuple[tuple[str, str], ...],
    ) -> None:
        self.task, self.global_goal, self.subtasks, self.edges = task, global_goal, subtasks, edges
        graph_mod.check_plan(self)


def plan(task: str, session: NodeSession) -> PlannerPlan:
    """One planner invocation; used for the original task and for failed-subtask decomposition."""

    def read(doc: dict) -> PlannerPlan:
        goal = need_field(doc, "goal")
        subtasks = []
        for entry in need_field(doc, "subtasks", list):
            if not isinstance(entry, dict):
                raise ParseError("each subtask must be an object")
            subtasks.append((need_field(entry, "id"), need_field(entry, "statement")))
        edges = need_field(doc, "edges", list, nonempty=False)
        for edge in edges:
            if not (isinstance(edge, list) and len(edge) == 2 and all(isinstance(e, str) for e in edge)):
                raise ParseError("each edge must be a [from, to] pair of strings")
        try:
            return PlannerPlan(task, goal, tuple(subtasks), tuple((a, b) for a, b in edges))
        except graph_mod.GraphError as exc:
            raise ResponseViolation(str(exc)) from None

    return session.call("plan", {"task": task}, read)
