"""Task-processing graph: structure, validation, traversal and failure repairs.

A run's graph is a DAG with exactly one original task node at the root,
N subtask nodes in the middle, and one fusion node at the sink. A node's
id decides its role (kind_of): the reserved id T is the original node, F
the fusion node, and every other id a subtask. Edges are unweighted and
encode dependency only. Two repair edits exist for failing subtasks:
removal (with predecessor-to-successor bridging) and splicing a
planner-generated chain of simpler subtasks in place of the failed node.

Graphs are immutable values; every edit returns a new graph. Each value
indexes its predecessors and successors once, when it is built.

A PlannerPlan refuses a plan that cannot form a run graph, so build_graph
wires it without checking again; from_payload validates what it builds.
The edits keep the invariants by construction and check only their own
request:

- Removal bridges every predecessor of the node to every successor, so
  every path through the node survives with the node cut out.
- A bridge p->s cannot close a cycle, because p->node->s was already a
  path in an acyclic graph.
- The one bridge skipped is original-to-fusion. It matters only when the
  node was the last path between them, and the engine reports that case
  as AllPathsFailed.
- A splice swaps the node for a non-empty linear chain of fresh ids with
  non-empty statements, wired from the node's predecessors to its
  successors, so the same argument holds for each path through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .agents import PlannerPlan
    from .membership import MembershipLabel

ROOT_ID = "T"
FUSION_ID = "F"
RESERVED_IDS = (ROOT_ID, FUSION_ID)
_NONE: frozenset[str] = frozenset()


class GraphError(Exception):
    """A plan cannot form a run graph, an edit is invalid, or a structural invariant failed."""


def kind_of(node_id: str) -> str:
    """The role a node id decides: "original" for T, "fusion" for F, else "subtask"."""
    return "original" if node_id == ROOT_ID else "fusion" if node_id == FUSION_ID else "subtask"


class TaskNode(NamedTuple):
    """One node of the graph; its id decides its role (kind_of).

    depth is 0 for planner-created nodes and increments once per repair
    splice; the engine uses it to bound reconstruction recursion.
    """

    id: str
    statement: str
    depth: int = 0


class TaskGraph:
    """Immutable dependency graph over task nodes, keyed by id.

    Invariants (checked by validate): acyclic; the original node T with
    in-degree 0 and the fusion node F with out-degree 0; every other node,
    a subtask by its id, lies on a T-to-F path; no self or duplicate edges.
    """

    __slots__ = ("nodes", "edges", "_preds", "_succs")

    def __init__(self, nodes: Mapping[str, TaskNode], edges: frozenset[tuple[str, str]]) -> None:
        self.nodes, self.edges = nodes, edges
        # Predecessor and successor index, built once per graph value.
        preds: dict[str, list[str]] = {}
        succs: dict[str, list[str]] = {}
        for a, b in edges:
            succs.setdefault(a, []).append(b)
            preds.setdefault(b, []).append(a)
        self._preds = {n: frozenset(p) for n, p in preds.items()}
        self._succs = {n: frozenset(s) for n, s in succs.items()}

    def predecessors(self, node_id: str) -> frozenset[str]:
        return self._preds.get(node_id, _NONE)

    def successors(self, node_id: str) -> frozenset[str]:
        return self._succs.get(node_id, _NONE)

    def to_payload(self) -> dict:
        """Serialized node/edge lists with canonical field names, stable order."""
        return {
            "nodes": [
                {"id": n.id, "kind": kind_of(n.id), "statement": n.statement, "depth": n.depth}
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
            "edges": [list(e) for e in sorted(self.edges)],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "TaskGraph":
        """Read and validate a to_payload graph; each node id must be a string that decides its kind."""
        nodes = {}
        for n in payload["nodes"]:
            if not isinstance(n["id"], str):
                raise GraphError(f"node id {n['id']!r} is not a string")
            if n["kind"] != kind_of(n["id"]):
                raise GraphError(f"node {n['id']} has kind {n['kind']!r}, not {kind_of(n['id'])!r}")
            nodes[n["id"]] = TaskNode(n["id"], n["statement"], n.get("depth", 0))
        edges = frozenset((a, b) for a, b in payload["edges"])
        graph = cls(nodes, edges)
        validate(graph)
        return graph


def _peel(ids: Iterable[str], edges: Iterable[Sequence[str]]) -> list[str]:
    """Kahn's algorithm: the nodes in a topological order, missing every node on or after a cycle."""
    indegree = dict.fromkeys(ids, 0)
    succs: dict[str, list[str]] = {}
    for a, b in edges:
        succs.setdefault(a, []).append(b)
        indegree[b] += 1
    order = [i for i, d in indegree.items() if not d]
    for node_id in order:  # grows while it is walked
        for nxt in succs.get(node_id, ()):
            indegree[nxt] -= 1
            if not indegree[nxt]:
                order.append(nxt)
    return order


def validate(graph: TaskGraph) -> None:
    """Check every structural invariant; raise GraphError otherwise."""
    if ROOT_ID not in graph.nodes or FUSION_ID not in graph.nodes:
        raise GraphError("graph must have the original node T and the fusion node F")
    for node in graph.nodes.values():
        if node.id != FUSION_ID and not node.statement:
            raise GraphError(f"node {node.id} has an empty statement")
    for a, b in graph.edges:
        if a == b:
            raise GraphError(f"self edge on {a}")
        if a not in graph.nodes or b not in graph.nodes:
            raise GraphError(f"edge ({a}, {b}) references an unknown node")
    if graph.predecessors(ROOT_ID):
        raise GraphError("original node must have in-degree 0")
    if graph.successors(FUSION_ID):
        raise GraphError("fusion node must have out-degree 0")
    if len(_peel(graph.nodes, graph.edges)) < len(graph.nodes):
        raise GraphError("graph contains a cycle")
    # Acyclic, so a walk back from a subtask ends at a node without predecessors
    # and a walk on at one without successors. F is no node's predecessor and
    # T no node's successor, so when every subtask has both, those walks end at
    # T and at F. Hence every subtask lies on a T-to-F path exactly when every
    # subtask has a predecessor and a successor.
    for node_id in graph.nodes:
        if node_id in RESERVED_IDS:
            continue
        if not graph.predecessors(node_id):
            raise GraphError(f"subtask {node_id} unreachable from the original node")
        if not graph.successors(node_id):
            raise GraphError(f"subtask {node_id} cannot reach the fusion node")


def check_plan(plan: "PlannerPlan") -> None:
    """Raise GraphError with the first reason a plan cannot form a run graph.

    Checked in order: no subtasks, duplicate ids, reserved ids, dangling
    edges, a cycle, an empty task or subtask statement.
    """
    ids = [sid for sid, _ in plan.subtasks]
    if not ids:
        raise GraphError("plan contains no subtasks")
    if len(set(ids)) != len(ids):
        raise GraphError("subtask ids must be unique")
    for sid in ids:
        if sid in RESERVED_IDS:
            raise GraphError(f"subtask id {sid!r} is reserved")
    known = set(ids)
    for a, b in plan.edges:
        if a not in known or b not in known:
            raise GraphError(f"edge ({a}, {b}) references an unknown subtask")
    if len(_peel(ids, plan.edges)) < len(ids):
        raise GraphError("dependency edges contain a cycle")
    for sid, statement in ((ROOT_ID, plan.task), *plan.subtasks):
        if not statement:
            raise GraphError(f"node {sid} has an empty statement")


def build_graph(plan: "PlannerPlan") -> TaskGraph:
    """Build the run graph from a planner plan.

    The original node is wired to every subtask without an in-plan
    predecessor, every subtask without an in-plan successor is wired to the
    fusion node, and all plan edges are preserved. A PlannerPlan is valid
    by construction, so the graph is not validated again.
    """
    nodes = {ROOT_ID: TaskNode(ROOT_ID, plan.task), FUSION_ID: TaskNode(FUSION_ID, "")}
    for sid, statement in plan.subtasks:
        nodes[sid] = TaskNode(sid, statement)

    edges = {(a, b) for a, b in plan.edges}
    has_pred = {b for _, b in plan.edges}
    has_succ = {a for a, _ in plan.edges}
    for sid, _ in plan.subtasks:
        if sid not in has_pred:
            edges.add((ROOT_ID, sid))
        if sid not in has_succ:
            edges.add((sid, FUSION_ID))

    return TaskGraph(nodes, frozenset(edges))


def ready_nodes(graph: TaskGraph, completed: Iterable[str]) -> set[str]:
    """Not-yet-completed subtask/fusion nodes whose predecessors are all done.

    The original node counts as completed from run start.
    """
    done = {ROOT_ID, *completed}
    preds = graph.predecessors
    return {node_id for node_id in graph.nodes if node_id not in done and preds(node_id) <= done}


def ranks(graph: TaskGraph) -> dict[str, int]:
    """Each node's upward rank: how many nodes its longest path to F holds, itself included and F not.

    F ranks 0 and every other node one more than its highest-ranked
    successor, so a node with a longer chain of work after it ranks
    higher. It walks the topological peel in reverse, so each node's
    successors are ranked before it.
    """
    rank: dict[str, int] = {}
    for node_id in reversed(_peel(graph.nodes, graph.edges)):
        rank[node_id] = 1 + max((rank[s] for s in graph.successors(node_id)), default=-1)
    return rank


def predecessor_results(
    graph: TaskGraph, node_id: str, results: Mapping[str, str]
) -> list[str]:
    """Results of a node's predecessors, ordered by node id.

    The original node contributes its task statement; every other
    predecessor must be present in results.
    """
    ordered = []
    for pred in sorted(graph.predecessors(node_id)):
        if pred == ROOT_ID:
            ordered.append(graph.nodes[ROOT_ID].statement)
        elif pred in results:
            ordered.append(results[pred])
        else:
            raise GraphError(f"no result recorded for predecessor {pred} of {node_id}")
    return ordered


def remove_node(graph: TaskGraph, node_id: str) -> TaskGraph:
    """Remove a subtask node, bridging its predecessors to its successors.

    Every (pred, succ) pair gains a bridging edge unless it already exists.
    The degenerate original-to-fusion bridge is skipped: those two nodes
    stay connected through the remaining subtasks, and a graph that loses
    its last path is the engine's signal that the run cannot complete.
    """
    _require_subtask(graph, node_id)
    preds = graph.predecessors(node_id)
    succs = graph.successors(node_id)
    edges = {(a, b) for a, b in graph.edges if node_id not in (a, b)}
    for p in preds:
        for s in succs:
            if p == ROOT_ID and s == FUSION_ID:
                continue
            edges.add((p, s))
    nodes = {nid: n for nid, n in graph.nodes.items() if nid != node_id}
    return TaskGraph(nodes, frozenset(edges))


def splice_chain(graph: TaskGraph, failed_id: str, chain: Sequence[TaskNode]) -> TaskGraph:
    """Replace a failed subtask with a linear chain of new subtask nodes.

    Former predecessors of the failed node feed the chain head; the chain
    tail feeds its former successors. Chain depth is failed.depth + 1.
    """
    _require_subtask(graph, failed_id)
    if not chain:
        raise GraphError("splice chain is empty")
    chain_ids = [n.id for n in chain]
    if len(set(chain_ids)) != len(chain_ids):
        raise GraphError("chain node ids are not unique")
    for member in chain:
        if member.id in graph.nodes or member.id in RESERVED_IDS:
            raise GraphError(f"chain node id {member.id!r} is not fresh")
        if not member.statement:
            raise GraphError(f"chain node {member.id} has an empty statement")

    failed = graph.nodes[failed_id]
    preds = graph.predecessors(failed_id)
    succs = graph.successors(failed_id)
    depth = failed.depth + 1

    nodes = {nid: n for nid, n in graph.nodes.items() if nid != failed_id}
    for member in chain:
        nodes[member.id] = member._replace(depth=depth)

    edges = {(a, b) for a, b in graph.edges if failed_id not in (a, b)}
    edges.update(zip(chain_ids, chain_ids[1:]))
    edges.update((p, chain_ids[0]) for p in preds)
    edges.update((chain_ids[-1], s) for s in succs)

    return TaskGraph(nodes, frozenset(edges))


def export_dot(graph: TaskGraph, labels: Mapping[str, MembershipLabel] | None = None) -> str:
    """Render the graph as a DOT digraph with deterministic ordering.

    Node labels carry id and kind, plus the node's membership token when
    labels has an entry for it. A planner id may hold any character, so
    each id is escaped inside its DOT string.
    """
    lines = ["digraph taskgraph {"]
    for node in sorted(graph.nodes.values(), key=lambda n: n.id):
        escaped = _dot_escape(node.id)
        label = f"{escaped}\\n{kind_of(node.id)}"
        membership = (labels or {}).get(node.id)
        if membership is not None:
            label += f"\\n{membership.token}"
        lines.append(f'  "{escaped}" [label="{label}"];')
    for a, b in sorted(graph.edges):
        lines.append(f'  "{_dot_escape(a)}" -> "{_dot_escape(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _require_subtask(graph: TaskGraph, node_id: str) -> None:
    if node_id not in graph.nodes:
        raise GraphError(f"unknown node {node_id}")
    if node_id in RESERVED_IDS:
        raise GraphError(f"{node_id} is not a subtask node")
