import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from helpers import make_plan, random_graph, random_plan, subtask_ids
from rulegraph.agents import PlannerPlan
from rulegraph.graph import (
    FUSION_ID,
    ROOT_ID,
    GraphError,
    TaskGraph,
    TaskNode,
    build_graph,
    export_dot,
    kind_of,
    predecessor_results,
    ranks,
    ready_nodes,
    remove_node,
    splice_chain,
    validate,
)

STAR = ["T1", "T2", "T3", "T4"]


def star_graph():
    return build_graph(make_plan(STAR, goal="discussion of an actress's craft"))


class TestBuildGraph:
    def test_star_plan_wires_root_and_fusion(self):
        graph = star_graph()
        assert graph.edges == frozenset(
            {(ROOT_ID, s) for s in STAR} | {(s, FUSION_ID) for s in STAR}
        )
        kinds = {n["id"]: n["kind"] for n in graph.to_payload()["nodes"]}
        assert kinds == {ROOT_ID: "original", FUSION_ID: "fusion", **dict.fromkeys(STAR, "subtask")}

    def test_minimal_single_subtask(self):
        graph = build_graph(make_plan(["T1"]))
        assert graph.edges == frozenset({(ROOT_ID, "T1"), ("T1", FUSION_ID)})

    def test_single_chain_skips_redundant_attachment(self):
        graph = build_graph(make_plan(["T1", "T2"], edges=[("T1", "T2")]))
        assert graph.edges == frozenset(
            {(ROOT_ID, "T1"), ("T1", "T2"), ("T2", FUSION_ID)}
        )

    def test_empty_plan_rejected(self):
        with pytest.raises(GraphError, match="plan contains no subtasks"):
            build_graph(make_plan([]))

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError, match=r"edge \(T1, T9\) references an unknown subtask"):
            build_graph(make_plan(["T1"], edges=[("T1", "T9")]))

    def test_cyclic_plan_rejected(self):
        with pytest.raises(GraphError, match="dependency edges contain a cycle"):
            build_graph(make_plan(["T1", "T2"], edges=[("T1", "T2"), ("T2", "T1")]))

    def test_reserved_ids_rejected(self):
        with pytest.raises(GraphError, match="subtask id 'T' is reserved"):
            build_graph(make_plan(["T", "T1"]))

    @pytest.mark.parametrize(
        "task, subtasks, node",
        [("", [("T1", "do it")], ROOT_ID), ("the task", [("T1", "do it"), ("T2", "")], "T2")],
        ids=["task", "subtask"],
    )
    def test_empty_statement_rejected_when_planned(self, task, subtasks, node):
        with pytest.raises(GraphError, match=f"node {node} has an empty statement"):
            make_plan(subtasks, task=task)

    def test_random_plans_satisfy_invariants(self):
        rng = random.Random(11)
        for _ in range(200):
            validate(build_graph(random_plan(rng)))

    @given(
        ids=st.lists(st.sampled_from("abcde"), unique=True, max_size=5),
        extra=st.sampled_from(["", "a", ROOT_ID, FUSION_ID]),
        ends=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=5),
    )
    def test_a_plan_that_builds_gives_a_valid_graph(self, ids, extra, ends):
        # extra repeats "a" when it was drawn or adds a reserved id; edge ends
        # index the ids and "x", which is never an id, and may close cycles.
        ids = [*ids, extra] if extra else ids
        names = [*ids, "x"]
        edges = tuple((names[a % len(names)], names[b % len(names)]) for a, b in ends)
        subtasks = tuple((sid, f"do {sid}") for sid in ids)
        try:
            plan = PlannerPlan(task="t", global_goal="g", subtasks=subtasks, edges=edges)
        except GraphError:
            return
        validate(build_graph(plan))


class TestReadyNodes:
    def test_chain_start(self):
        graph = build_graph(make_plan(["T1", "T2"], edges=[("T1", "T2")]))
        assert ready_nodes(graph, {ROOT_ID}) == {"T1"}

    def test_star_all_subtasks_ready(self):
        graph = star_graph()
        ready = ready_nodes(graph, {ROOT_ID})
        # independent oracle: brute-force predecessor check
        expected = {
            nid
            for nid in graph.nodes
            if nid not in (ROOT_ID,)
            and graph.predecessors(nid) <= {ROOT_ID}
        }
        assert ready == expected == set(STAR)

    def test_nothing_left_when_all_completed(self):
        graph = star_graph()
        assert ready_nodes(graph, set(graph.nodes)) == set()

    def test_fusion_ready_only_after_all_terminals(self):
        graph = star_graph()
        assert FUSION_ID not in ready_nodes(graph, {ROOT_ID, "T1", "T2"})
        assert ready_nodes(graph, {ROOT_ID, *STAR}) == {FUSION_ID}

    def test_any_ready_order_is_a_valid_linearization(self):
        rng = random.Random(5)
        for _ in range(50):
            graph = random_graph(rng)
            completed = {ROOT_ID}
            order = [ROOT_ID]
            while True:
                ready = ready_nodes(graph, completed)
                if not ready:
                    break
                pick = rng.choice(sorted(ready))
                order.append(pick)
                completed.add(pick)
            assert len(order) == len(set(order)) == len(graph.nodes)
            position = {nid: i for i, nid in enumerate(order)}
            for a, b in graph.edges:
                assert position[a] < position[b]


class TestPredecessorResults:
    def test_single_predecessor(self):
        graph = build_graph(make_plan(["T1", "T2"], edges=[("T1", "T2")]))
        assert predecessor_results(graph, "T2", {"T1": "r1"}) == ["r1"]

    def test_fusion_collects_all_in_id_order(self):
        graph = star_graph()
        results = {"T4": "r4", "T2": "r2", "T1": "r1", "T3": "r3"}
        assert predecessor_results(graph, FUSION_ID, results) == ["r1", "r2", "r3", "r4"]

    def test_root_contributes_task_statement(self):
        graph = build_graph(make_plan(["T1"], task="the original task"))
        assert predecessor_results(graph, "T1", {}) == ["the original task"]

    def test_missing_predecessor(self):
        graph = star_graph()
        with pytest.raises(GraphError, match="no result recorded for predecessor T2 of F"):
            predecessor_results(graph, FUSION_ID, {"T1": "r1"})


def _walk(start, step):
    """Every node that repeated steps reach from start, breadth first, start included."""
    seen, frontier = {start}, [start]
    for node_id in frontier:
        for nxt in step(node_id):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestValidateDegreeRule:
    @settings(max_examples=300)
    @given(ids=st.lists(st.sampled_from("abcdefg"), unique=True, max_size=6), data=st.data())
    def test_refuses_exactly_the_graphs_with_a_subtask_off_every_t_to_f_path(self, ids, data):
        # Edges only run forward along T, ids, F: acyclic, T of in-degree 0 and F
        # of out-degree 0, with any extra sources, sinks, chains and cut-off parts.
        order = [ROOT_ID, *ids, FUSION_ID]
        forward = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
        keep = data.draw(st.lists(st.booleans(), min_size=len(forward), max_size=len(forward)))
        nodes = {n: TaskNode(n, f"do {n}") for n in order}
        graph = TaskGraph(nodes, frozenset(e for e, kept in zip(forward, keep) if kept))
        from_root, to_fusion = _walk(ROOT_ID, graph.successors), _walk(FUSION_ID, graph.predecessors)
        if all(s in from_root and s in to_fusion for s in ids):
            validate(graph)
            return
        with pytest.raises(GraphError) as refused:
            validate(graph)
        offender, reason = re.fullmatch(
            r"subtask (\w) (unreachable from the original node|cannot reach the fusion node)", str(refused.value)
        ).groups()
        assert offender not in (from_root if reason.startswith("unreachable") else to_fusion)


class TestRanks:
    def test_rank_counts_the_nodes_of_the_longest_path_to_fusion(self):
        # T1 -> T2 -> T4 and T1 -> T3 -> T4: T1's longest path is 3 nodes; T5 feeds F directly
        edges = [("T1", "T2"), ("T1", "T3"), ("T2", "T4"), ("T3", "T4")]
        graph = build_graph(make_plan(["T1", "T2", "T3", "T4", "T5"], edges=edges))
        assert ranks(graph) == {ROOT_ID: 4, "T1": 3, "T2": 2, "T3": 2, "T4": 1, "T5": 1, FUSION_ID: 0}

    def test_a_splice_raises_its_predecessors_ranks(self):
        graph = build_graph(make_plan(["T1", "T2"], edges=[("T1", "T2")]))
        spliced = splice_chain(graph, "T2", [TaskNode("c1", "one"), TaskNode("c2", "two")])
        assert ranks(spliced) == {ROOT_ID: 4, "T1": 3, "c1": 2, "c2": 1, FUSION_ID: 0}

    @settings(max_examples=50)
    @given(st.randoms(use_true_random=False))
    def test_every_edge_steps_down_and_some_successor_is_one_below(self, rng):
        graph = random_graph(rng)
        rank = ranks(graph)
        assert rank.keys() == graph.nodes.keys() and rank[FUSION_ID] == 0
        for node_id in graph.nodes.keys() - {FUSION_ID}:
            assert rank[node_id] - 1 == max(rank[s] for s in graph.successors(node_id))


class TestRemoveNode:
    def test_star_removal_adds_no_root_fusion_bridge(self):
        graph = remove_node(star_graph(), "T2")
        remaining = {"T1", "T3", "T4"}
        assert set(subtask_ids(graph)) == remaining
        assert graph.edges == frozenset(
            {(ROOT_ID, s) for s in remaining} | {(s, FUSION_ID) for s in remaining}
        )

    def test_chain_removal_bridges_neighbours(self):
        graph = build_graph(make_plan(["T1", "T2"], edges=[("T1", "T2")]))
        graph = remove_node(graph, "T1")
        assert graph.edges == frozenset({(ROOT_ID, "T2"), ("T2", FUSION_ID)})

    def test_diamond_removal(self):
        plan = make_plan(["a", "b", "c"], edges=[("a", "c"), ("b", "c")])
        graph = remove_node(build_graph(plan), "a")
        assert graph.edges == frozenset(
            {(ROOT_ID, "b"), (ROOT_ID, "c"), ("b", "c"), ("c", FUSION_ID)}
        )

    @pytest.mark.parametrize(
        "edit",
        [remove_node, lambda graph, node_id: splice_chain(graph, node_id, [TaskNode("x", "do x")])],
        ids=["remove", "splice"],
    )
    def test_unknown_node_rejected(self, edit):
        with pytest.raises(GraphError, match="unknown node T9"):
            edit(star_graph(), "T9")

    def test_only_subtasks_removable(self):
        with pytest.raises(GraphError, match="T is not a subtask node"):
            remove_node(star_graph(), ROOT_ID)
        with pytest.raises(GraphError, match="F is not a subtask node"):
            remove_node(star_graph(), FUSION_ID)


class TestSpliceChain:
    def chain_nodes(self, ids):
        return [TaskNode(i, f"do {i}") for i in ids]

    def test_star_splice_wires_linear_chain(self):
        graph = splice_chain(star_graph(), "T3", self.chain_nodes(["T3a", "T3b", "T3c"]))
        assert "T3" not in graph.nodes
        for edge in [(ROOT_ID, "T3a"), ("T3a", "T3b"), ("T3b", "T3c"), ("T3c", FUSION_ID)]:
            assert edge in graph.edges
        assert all(graph.nodes[n].depth == 1 for n in ("T3a", "T3b", "T3c"))

    def test_single_node_chain_is_replacement(self):
        graph = splice_chain(star_graph(), "T1", self.chain_nodes(["T1x"]))
        assert (ROOT_ID, "T1x") in graph.edges and ("T1x", FUSION_ID) in graph.edges
        assert graph.nodes["T1x"].depth == 1

    def test_diamond_splice_remains_valid(self):
        plan = make_plan(["a", "b", "c"], edges=[("a", "c"), ("b", "c")])
        graph = splice_chain(build_graph(plan), "c", self.chain_nodes(["c1", "c2"]))
        validate(graph)
        assert graph.predecessors("c1") == {"a", "b"}
        assert graph.successors("c2") == {FUSION_ID}

    def test_neighbourhood_preserved(self):
        rng = random.Random(31)
        for _ in range(100):
            graph = random_graph(rng)
            target = rng.choice(subtask_ids(graph))
            preds, succs = graph.predecessors(target), graph.successors(target)
            ids = [f"x{i}" for i in range(1, rng.randint(2, 5))]
            out = splice_chain(graph, target, self.chain_nodes(ids))
            validate(out)
            assert out.predecessors(ids[0]) == preds
            assert out.successors(ids[-1]) == succs
            depth = graph.nodes[target].depth + 1
            assert all(out.nodes[i].depth == depth for i in ids)

    def test_empty_chain_rejected(self):
        with pytest.raises(GraphError, match="splice chain is empty"):
            splice_chain(star_graph(), "T1", [])

    def test_stale_ids_rejected(self):
        with pytest.raises(GraphError, match="chain node id 'T2' is not fresh"):
            splice_chain(star_graph(), "T1", self.chain_nodes(["T2"]))
        with pytest.raises(GraphError, match="F is not a subtask node"):
            splice_chain(star_graph(), FUSION_ID, self.chain_nodes(["x"]))

    @pytest.mark.parametrize(
        "ids, statement, message",
        [
            (["x", "x"], "do x", "chain node ids are not unique"),
            (["x", "T2"], "do x", "chain node id 'T2' is not fresh"),
            (["x", "F"], "do x", "chain node id 'F' is not fresh"),
            (["x"], "", "empty statement"),
        ],
        ids=["duplicate", "stale", "reserved", "empty-statement"],
    )
    def test_invalid_chain_rejected(self, ids, statement, message):
        chain = [TaskNode(i, statement) for i in ids]
        with pytest.raises(GraphError, match=message):
            splice_chain(star_graph(), "T1", chain)


class GraphEdits(RuleBasedStateMachine):
    """Any sequence of removals and splices leaves a graph that validate accepts.

    The edits do not re-check the graph themselves, so this is what shows
    they keep every invariant. Removing the last subtask leaves the
    original and fusion nodes unconnected, the engine's AllPathsFailed
    case; restart then seeds a new graph.
    """

    @initialize(seed=st.integers(0, 2**16))
    def start(self, seed):
        self.graph = random_graph(random.Random(seed))
        self.fresh = 0

    def pick_subtask(self, data):
        return data.draw(st.sampled_from(subtask_ids(self.graph)))

    @precondition(lambda self: subtask_ids(self.graph))
    @rule(data=st.data())
    def remove(self, data):
        self.graph = remove_node(self.graph, self.pick_subtask(data))

    @precondition(lambda self: subtask_ids(self.graph))
    @rule(data=st.data(), length=st.integers(1, 3))
    def splice(self, data, length):
        ids = [f"x{self.fresh + i}" for i in range(length)]
        self.fresh += length
        chain = [TaskNode(i, f"do {i}") for i in ids]
        self.graph = splice_chain(self.graph, self.pick_subtask(data), chain)

    @precondition(lambda self: not subtask_ids(self.graph))
    @rule(seed=st.integers(0, 2**16))
    def restart(self, seed):
        assert not self.graph.successors(ROOT_ID) and not self.graph.predecessors(FUSION_ID)
        self.start(seed)

    @invariant()
    def valid(self):
        validate(self.graph)


TestGraphEdits = GraphEdits.TestCase
TestGraphEdits.settings = settings(max_examples=25, stateful_step_count=12)


class TestFromPayload:
    def test_a_graph_is_its_nodes_edges_and_their_index(self):
        assert TaskGraph.__slots__ == ("nodes", "edges", "_preds", "_succs")

    def test_read_graph_takes_both_edits(self):
        read = TaskGraph.from_payload(star_graph().to_payload())
        removed = remove_node(read, "T2")
        spliced = splice_chain(removed, "T3", [TaskNode("x", "do x"), TaskNode("y", "do y")])
        validate(spliced)
        assert set(subtask_ids(spliced)) == {"T1", "T4", "x", "y"}
        assert spliced.predecessors("x") == {ROOT_ID} and spliced.successors("y") == {FUSION_ID}

    def test_round_trip_keeps_depth(self):
        graph = splice_chain(star_graph(), "T1", [TaskNode("x", "do x")])
        read = TaskGraph.from_payload(graph.to_payload())
        assert read.nodes == graph.nodes and read.edges == graph.edges
        assert read.nodes["x"].depth == 1

    @pytest.mark.parametrize(
        "node, kind",
        [(ROOT_ID, "subtask"), (FUSION_ID, "original"), ("T1", "original"), ("T1", "fusion"), ("T1", "leaf")],
    )
    def test_kind_must_follow_from_id(self, node, kind):
        payload = star_graph().to_payload()
        for entry in payload["nodes"]:
            if entry["id"] == node:
                entry["kind"] = kind
        with pytest.raises(GraphError, match=f"node {node} has kind '{kind}', not '{kind_of(node)}'"):
            TaskGraph.from_payload(payload)


class TestExportDot:
    def test_edge_line_count_matches_edge_set(self):
        graph = star_graph()
        dot = export_dot(graph)
        edge_lines = [line for line in dot.splitlines() if "->" in line]
        assert len(edge_lines) == len(graph.edges) == 8

    def test_deterministic_output(self):
        graph = star_graph()
        assert export_dot(graph) == export_dot(graph)

    def test_membership_included_when_results_present(self):
        from rulegraph.membership import MembershipLabel

        graph = build_graph(make_plan(["T1"]))
        dot = export_dot(graph, {"T1": MembershipLabel.SH})
        assert "T1\\nsubtask\\nSH" in dot

    def test_ordinary_ids_render_byte_stable(self):
        from rulegraph.membership import MembershipLabel

        graph = build_graph(make_plan(["T1", "T2"], [("T1", "T2")]))
        dot = export_dot(graph, {"T1": MembershipLabel.SH, "T2": MembershipLabel.LR})
        assert dot == (
            "digraph taskgraph {\n"
            '  "F" [label="F\\nfusion"];\n'
            '  "T" [label="T\\noriginal"];\n'
            '  "T1" [label="T1\\nsubtask\\nSH"];\n'
            '  "T2" [label="T2\\nsubtask\\nLr"];\n'
            '  "T" -> "T1";\n'
            '  "T1" -> "T2";\n'
            '  "T2" -> "F";\n'
            "}\n"
        )

    def test_quotes_and_backslashes_in_ids_are_escaped(self):
        # Planner ids are any non-empty strings; each must stay one DOT string.
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node_line = re.compile(rf"  {quoted} \[label={quoted}\];")
        edge_line = re.compile(rf"  {quoted} -> {quoted};")

        def unescape(text):
            return re.sub(r"\\(.)", r"\1", text)

        ids = ['say "hi"', "end\\", 'a\\"b']
        graph = build_graph(make_plan(ids, [(ids[0], ids[1])]))
        lines = export_dot(graph).splitlines()
        assert lines[0] == "digraph taskgraph {" and lines[-1] == "}"
        nodes = [node_line.fullmatch(line) for line in lines[1:-1] if " -> " not in line]
        edges = [edge_line.fullmatch(line) for line in lines[1:-1] if " -> " in line]
        assert all(nodes) and all(edges)
        assert {unescape(m[1]) for m in nodes} == set(graph.nodes)
        # A label is the escaped id, then "\\n" and the kind.
        assert {unescape(m[2].rsplit("\\n", 1)[0]) for m in nodes} == set(graph.nodes)
        assert {(unescape(m[1]), unescape(m[2])) for m in edges} == set(graph.edges)
