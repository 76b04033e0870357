"""Task-processing graph: structure, validation, traversal and failure repairs.

A run's graph is a DAG with exactly one original task node at the root,
N subtask nodes in the middle, and one fusion node at the sink. Edges are
unweighted and encode dependency only. Two repair edits exist for failing
subtasks: removal (with predecessor-to-successor bridging) and splicing a
planner-generated chain of simpler subtasks in place of the failed node.

Graphs are immutable values; every edit returns a new graph and re-checks
all structural invariants. Each value indexes its predecessors and
successors once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .agents import PlannerPlan

ROOT_ID = "T"
FUSION_ID = "F"
RESERVED_IDS = (ROOT_ID, FUSION_ID)
_NONE: frozenset[str] = frozenset()


class GraphError(Exception):
    """Base class for graph construction and edit errors."""


class EmptyPlan(GraphError):
    """Plan contains no subtasks."""


class CyclicPlan(GraphError):
    """Plan edges contain a cycle."""


class DanglingEdge(GraphError):
    """Plan edge references an unknown subtask id."""


class NotASubtask(GraphError):
    """Edit targeted the original or fusion node."""


class EmptyChain(GraphError):
    """Splice chain is empty."""


class DuplicateNodeId(GraphError):
    """Node id collides with an existing or reserved id."""


class MissingPredecessor(GraphError):
    """A predecessor of the requested node has no recorded result."""


class InvariantViolation(GraphError):
    """A structural invariant failed; indicates a bug in graph construction."""


class NodeKind(Enum):
    ORIGINAL = "original"
    SUBTASK = "subtask"
    FUSION = "fusion"


@dataclass(frozen=True)
class TaskNode:
    """One node of the graph.

    depth is 0 for planner-created nodes and increments once per repair
    splice; the engine uses it to bound reconstruction recursion.
    """

    id: str
    kind: NodeKind
    statement: str
    depth: int = 0


@dataclass(frozen=True)
class TaskGraph:
    """Immutable dependency graph over task nodes.

    Invariants (checked by validate): acyclic; exactly one original node
    with in-degree 0 and one fusion node with out-degree 0; every subtask
    node lies on a root-to-fusion path; no self or duplicate edges.
    """

    nodes: Mapping[str, TaskNode]
    edges: frozenset[tuple[str, str]]
    global_goal: str

    def __post_init__(self) -> None:
        # Predecessor and successor index, built once per graph value.
        preds: dict[str, list[str]] = {}
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            succs.setdefault(a, []).append(b)
            preds.setdefault(b, []).append(a)
        object.__setattr__(self, "_preds", {n: frozenset(p) for n, p in preds.items()})
        object.__setattr__(self, "_succs", {n: frozenset(s) for n, s in succs.items()})

    def node(self, node_id: str) -> TaskNode:
        return self.nodes[node_id]

    def predecessors(self, node_id: str) -> frozenset[str]:
        return self._preds.get(node_id, _NONE)

    def successors(self, node_id: str) -> frozenset[str]:
        return self._succs.get(node_id, _NONE)

    def subtask_ids(self) -> list[str]:
        return sorted(n for n, node in self.nodes.items() if node.kind is NodeKind.SUBTASK)

    def to_payload(self) -> dict:
        """Serialized node/edge lists with canonical field names, stable order."""
        return {
            "nodes": [
                {"id": n.id, "kind": n.kind.value, "statement": n.statement, "depth": n.depth}
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
            "edges": [list(e) for e in sorted(self.edges)],
        }

    @classmethod
    def from_payload(cls, payload: Mapping, global_goal: str = "") -> "TaskGraph":
        nodes = {
            n["id"]: TaskNode(n["id"], NodeKind(n["kind"]), n["statement"], n.get("depth", 0))
            for n in payload["nodes"]
        }
        edges = frozenset((a, b) for a, b in payload["edges"])
        graph = cls(nodes=nodes, edges=edges, global_goal=global_goal)
        validate(graph)
        return graph


def topological_order(ids: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """Kahn's algorithm; returns None when the edge set contains a cycle."""
    ids = list(ids)
    indegree = {i: 0 for i in ids}
    succs: dict[str, list[str]] = {i: [] for i in ids}
    for a, b in edges:
        succs[a].append(b)
        indegree[b] += 1
    frontier = sorted(i for i, d in indegree.items() if d == 0)
    order: list[str] = []
    while frontier:
        current = frontier.pop(0)
        order.append(current)
        for nxt in sorted(succs[current]):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                frontier.append(nxt)
        frontier.sort()
    if len(order) != len(ids):
        return None
    return order


def validate(graph: TaskGraph) -> None:
    """Check every structural invariant; raise InvariantViolation otherwise."""
    originals = [n for n in graph.nodes.values() if n.kind is NodeKind.ORIGINAL]
    fusions = [n for n in graph.nodes.values() if n.kind is NodeKind.FUSION]
    if len(originals) != 1 or len(fusions) != 1:
        raise InvariantViolation("graph must have exactly one original and one fusion node")
    root, fusion = originals[0], fusions[0]
    for node in graph.nodes.values():
        if node.kind in (NodeKind.ORIGINAL, NodeKind.SUBTASK) and not node.statement:
            raise InvariantViolation(f"node {node.id} has an empty statement")
    for a, b in graph.edges:
        if a == b:
            raise InvariantViolation(f"self edge on {a}")
        if a not in graph.nodes or b not in graph.nodes:
            raise InvariantViolation(f"edge ({a}, {b}) references an unknown node")
    if graph.predecessors(root.id):
        raise InvariantViolation("original node must have in-degree 0")
    if graph.successors(fusion.id):
        raise InvariantViolation("fusion node must have out-degree 0")
    if topological_order(graph.nodes.keys(), graph.edges) is None:
        raise InvariantViolation("graph contains a cycle")

    reachable_from_root = _reach(graph, root.id, forward=True)
    reaches_fusion = _reach(graph, fusion.id, forward=False)
    for node in graph.nodes.values():
        if node.kind is NodeKind.SUBTASK:
            if node.id not in reachable_from_root:
                raise InvariantViolation(f"subtask {node.id} unreachable from the original node")
            if node.id not in reaches_fusion:
                raise InvariantViolation(f"subtask {node.id} cannot reach the fusion node")


def _reach(graph: TaskGraph, start: str, forward: bool) -> set[str]:
    step = graph.successors if forward else graph.predecessors
    seen = {start}
    stack = [start]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def build_graph(plan: "PlannerPlan") -> TaskGraph:
    """Build the run graph from a planner plan.

    The original node is wired to every subtask without an in-plan
    predecessor, every subtask without an in-plan successor is wired to the
    fusion node, and all plan edges are preserved.
    """
    if not plan.subtasks:
        raise EmptyPlan("plan contains no subtasks")
    ids = [sid for sid, _ in plan.subtasks]
    if len(set(ids)) != len(ids):
        raise DuplicateNodeId("plan subtask ids are not unique")
    for sid in ids:
        if sid in RESERVED_IDS:
            raise DuplicateNodeId(f"subtask id {sid!r} is reserved")
    known = set(ids)
    for a, b in plan.edges:
        if a not in known or b not in known:
            raise DanglingEdge(f"plan edge ({a}, {b}) references an unknown subtask")
    if topological_order(ids, plan.edges) is None:
        raise CyclicPlan("plan edges contain a cycle")

    nodes: dict[str, TaskNode] = {
        ROOT_ID: TaskNode(ROOT_ID, NodeKind.ORIGINAL, plan.task),
        FUSION_ID: TaskNode(FUSION_ID, NodeKind.FUSION, ""),
    }
    for sid, statement in plan.subtasks:
        nodes[sid] = TaskNode(sid, NodeKind.SUBTASK, statement)

    edges = {(a, b) for a, b in plan.edges}
    has_pred = {b for _, b in plan.edges}
    has_succ = {a for a, _ in plan.edges}
    for sid in ids:
        if sid not in has_pred:
            edges.add((ROOT_ID, sid))
        if sid not in has_succ:
            edges.add((sid, FUSION_ID))

    graph = TaskGraph(nodes=nodes, edges=frozenset(edges), global_goal=plan.global_goal)
    validate(graph)
    return graph


def ready_nodes(graph: TaskGraph, completed: set[str]) -> set[str]:
    """Not-yet-completed subtask/fusion nodes whose predecessors are all done.

    The original node counts as completed from run start.
    """
    done = set(completed) | {ROOT_ID}
    ready = set()
    for node_id, node in graph.nodes.items():
        if node.kind is NodeKind.ORIGINAL or node_id in done:
            continue
        if graph.predecessors(node_id) <= done:
            ready.add(node_id)
    return ready


def predecessor_results(
    graph: TaskGraph, node_id: str, results: Mapping[str, object]
) -> list[object]:
    """Results of a node's predecessors, ordered by node id.

    The original node contributes its task statement; every other
    predecessor must be present in results.
    """
    ordered = []
    for pred in sorted(graph.predecessors(node_id)):
        if pred == ROOT_ID:
            ordered.append(graph.node(ROOT_ID).statement)
        elif pred in results:
            ordered.append(results[pred])
        else:
            raise MissingPredecessor(f"no result recorded for predecessor {pred} of {node_id}")
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
    out = replace(graph, nodes=nodes, edges=frozenset(edges))
    validate(out)
    return out


def splice_chain(graph: TaskGraph, failed_id: str, chain: Sequence[TaskNode]) -> TaskGraph:
    """Replace a failed subtask with a linear chain of new subtask nodes.

    Former predecessors of the failed node feed the chain head; the chain
    tail feeds its former successors. Chain depth is failed.depth + 1.
    """
    _require_subtask(graph, failed_id)
    if not chain:
        raise EmptyChain("splice chain is empty")
    chain_ids = [n.id for n in chain]
    if len(set(chain_ids)) != len(chain_ids):
        raise DuplicateNodeId("chain node ids are not unique")
    for cid in chain_ids:
        if cid in graph.nodes or cid in RESERVED_IDS:
            raise DuplicateNodeId(f"chain node id {cid!r} is not fresh")

    failed = graph.node(failed_id)
    preds = graph.predecessors(failed_id)
    succs = graph.successors(failed_id)
    depth = failed.depth + 1

    nodes = {nid: n for nid, n in graph.nodes.items() if nid != failed_id}
    for member in chain:
        nodes[member.id] = replace(member, kind=NodeKind.SUBTASK, depth=depth)

    edges = {(a, b) for a, b in graph.edges if failed_id not in (a, b)}
    edges.update(zip(chain_ids, chain_ids[1:]))
    edges.update((p, chain_ids[0]) for p in preds)
    edges.update((chain_ids[-1], s) for s in succs)

    out = replace(graph, nodes=nodes, edges=frozenset(edges))
    validate(out)
    return out


def export_dot(graph: TaskGraph, results: Mapping[str, object] | None = None) -> str:
    """Render the graph as a DOT digraph with deterministic ordering.

    Node labels carry id and kind, plus the result membership token when a
    results map is supplied and has an entry for the node.
    """
    lines = ["digraph taskgraph {"]
    for node in sorted(graph.nodes.values(), key=lambda n: n.id):
        label = f"{node.id}\\n{node.kind.value}"
        result = (results or {}).get(node.id)
        membership = getattr(result, "membership_vs_goal", None)
        if membership is not None:
            label += f"\\n{membership.token}"
        lines.append(f'  "{node.id}" [label="{label}"];')
    for a, b in sorted(graph.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require_subtask(graph: TaskGraph, node_id: str) -> None:
    if node_id not in graph.nodes:
        raise GraphError(f"unknown node {node_id}")
    if graph.node(node_id).kind is not NodeKind.SUBTASK:
        raise NotASubtask(f"{node_id} is not a subtask node")
