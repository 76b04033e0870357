"""Every role's response contract, pinned through its public role function.

Each row scripts one response for every attempt of one template and checks
the (schema, status, error) of the first provider_call that template makes.
A response of the wrong shape is a parse_error; one the role refuses on its
meaning is rejected. The rows cover each check and the order in which a
role's checks run, so a changed message or status shows here even where no
golden trace holds it.
"""

import pytest

from helpers import assignments_response, json_doc, make_plan
from rulegraph.agents import MockProvider, NodeSession, ProviderFailure, RoleKind, plan
from rulegraph.engine import Run, RunConfig, handle_failure
from rulegraph.fusion import cluster_candidates, fuse_final, fuse_subtask
from rulegraph.graph import TaskNode, build_graph
from rulegraph.membership import MembershipLabel
from rulegraph.rules import CandidateResult, DomainRule, construct_rules, run_global_rule, run_rules

NODE = TaskNode("T1", "Which movie won?")
CATALOG = ("History", "Biology", "Law")
CANDIDATES = [
    CandidateResult(1, "History", MembershipLabel.H, "answer a"),
    CandidateResult(2, "Biology", MembershipLabel.M, "answer b"),
    CandidateResult(3, "Law", MembershipLabel.ML, "answer a"),
]


def _plan(session):
    plan("the task", session)


def _classify(session):
    one = make_plan(["T1"])
    node = build_graph(one).nodes["T1"]
    handle_failure(node, one.global_goal, RunConfig(provider=MockProvider({})), session)


def _analyze(session):
    construct_rules(NODE, CATALOG, 2, session=session)


def _execute(session):
    rule = DomainRule(1, "History", "it concerns history", MembershipLabel.H, "You are a historian.")
    run_rules((rule,), NODE.statement, [], session=session)


def _assess(session):
    run_global_rule("the goal", MembershipLabel.ML, "fused", session=session)


def _cluster(session):
    cluster_candidates(CANDIDATES, "model", session)


def _fuse_subtask(session):
    fuse_subtask(CANDIDATES[:2], NODE, mode="model", session=session)


def _fuse_final(session):
    fuse_final({"T1": "a", "T2": "b"}, "the task", session=session)


# template key -> (role function, role kind, attempts the function makes before the template's
# call, the schema its provider_call records name)
ROLE_FUNCTIONS = {
    "plan": (_plan, RoleKind.PA, 0, "plan"),
    "classify": (_classify, RoleKind.PA, 0, "failure_classification"),
    "analyze": (_analyze, RoleKind.DAA, 0, "ruleset"),
    "execute": (_execute, RoleKind.DEA, 0, "candidate"),
    "assess": (_assess, RoleKind.GEA, 0, "assessment"),
    "cluster": (_cluster, RoleKind.FEA, 0, "fusion"),
    "fuse_subtask": (_fuse_subtask, RoleKind.FEA, 1, "fusion"),  # one cluster call puts both answers together
    "fuse_final": (_fuse_final, RoleKind.FEA, 0, "fusion"),
}

SUBTASK = {"id": "a", "statement": "s"}
RULE = {"domain": "History", "antecedent": "a", "membership": "H", "expert_prompt": "p"}
NO_JSON = "no json here, just words"

PARSE, REJECTED = "parse_error", "rejected"

ROWS = {
    # plan
    "plan-ok": ("plan", {"goal": "g", "subtasks": [SUBTASK], "edges": []}, "ok", None),
    "plan-no-json": ("plan", NO_JSON, PARSE, "no JSON object found in response"),
    "plan-goal-missing": (
        "plan", {"subtasks": [SUBTASK], "edges": []}, PARSE, "missing required field 'goal'"
    ),
    "plan-goal-not-str": (
        "plan", {"goal": 1, "subtasks": [SUBTASK], "edges": []}, PARSE, "field 'goal' must be str"
    ),
    "plan-goal-empty": (
        "plan", {"goal": "", "subtasks": [SUBTASK], "edges": []}, PARSE, "field 'goal' must be non-empty"
    ),
    "plan-goal-before-subtasks": (
        "plan", {"goal": "", "subtasks": []}, PARSE, "field 'goal' must be non-empty"
    ),
    "plan-subtasks-missing": ("plan", {"goal": "g", "edges": []}, PARSE, "missing required field 'subtasks'"),
    "plan-subtasks-not-list": (
        "plan", {"goal": "g", "subtasks": SUBTASK, "edges": []}, PARSE, "field 'subtasks' must be list"
    ),
    "plan-subtasks-empty": (
        "plan", {"goal": "g", "subtasks": [], "edges": []}, PARSE, "field 'subtasks' must be non-empty"
    ),
    "plan-subtask-not-object": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK, "b"], "edges": []},
        PARSE,
        "each subtask must be an object",
    ),
    "plan-id-missing": (
        "plan",
        {"goal": "g", "subtasks": [{"statement": "s"}], "edges": []},
        PARSE,
        "missing required field 'id'",
    ),
    "plan-id-not-str": (
        "plan",
        {"goal": "g", "subtasks": [{"id": 1, "statement": "s"}], "edges": []},
        PARSE,
        "field 'id' must be str",
    ),
    "plan-id-empty": (
        "plan",
        {"goal": "g", "subtasks": [{"id": "", "statement": "s"}], "edges": []},
        PARSE,
        "field 'id' must be non-empty",
    ),
    "plan-id-before-statement": (
        "plan", {"goal": "g", "subtasks": [{}], "edges": []}, PARSE, "missing required field 'id'"
    ),
    "plan-statement-missing": (
        "plan",
        {"goal": "g", "subtasks": [{"id": "a"}], "edges": []},
        PARSE,
        "missing required field 'statement'",
    ),
    "plan-statement-not-str": (
        "plan",
        {"goal": "g", "subtasks": [{"id": "a", "statement": ["s"]}], "edges": []},
        PARSE,
        "field 'statement' must be str",
    ),
    "plan-statement-empty": (
        "plan",
        {"goal": "g", "subtasks": [{"id": "a", "statement": ""}], "edges": []},
        PARSE,
        "field 'statement' must be non-empty",
    ),
    "plan-subtasks-before-edges": (
        "plan", {"goal": "g", "subtasks": [SUBTASK, {"id": "b"}]}, PARSE, "missing required field 'statement'"
    ),
    "plan-edges-missing": (
        "plan", {"goal": "g", "subtasks": [SUBTASK]}, PARSE, "missing required field 'edges'"
    ),
    "plan-edges-not-list": (
        "plan", {"goal": "g", "subtasks": [SUBTASK], "edges": {"a": "a"}}, PARSE, "field 'edges' must be list"
    ),
    "plan-edge-not-list": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK], "edges": ["ab"]},
        PARSE,
        "each edge must be a [from, to] pair of strings",
    ),
    "plan-edge-not-pair": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK], "edges": [["a"]]},
        PARSE,
        "each edge must be a [from, to] pair of strings",
    ),
    "plan-edge-not-strings": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK], "edges": [["a", 1]]},
        PARSE,
        "each edge must be a [from, to] pair of strings",
    ),
    "plan-shape-before-graph": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK], "edges": [["a", "a"], ["a"]]},
        PARSE,
        "each edge must be a [from, to] pair of strings",
    ),
    "plan-cycle": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK], "edges": [["a", "a"]]},
        REJECTED,
        "dependency edges contain a cycle",
    ),
    "plan-duplicate-id": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK, SUBTASK], "edges": []},
        REJECTED,
        "subtask ids must be unique",
    ),
    "plan-reserved-id": (
        "plan",
        {"goal": "g", "subtasks": [{"id": "F", "statement": "s"}], "edges": []},
        REJECTED,
        "subtask id 'F' is reserved",
    ),
    "plan-dangling-edge": (
        "plan",
        {"goal": "g", "subtasks": [SUBTASK], "edges": [["a", "z"]]},
        REJECTED,
        "edge (a, z) references an unknown subtask",
    ),
    # classify
    "classify-irrelevant": ("classify", {"scenario": "irrelevant", "reason": "r"}, "ok", None),
    "classify-too-complex": ("classify", {"scenario": "too_complex"}, "ok", None),
    "classify-no-json": ("classify", NO_JSON, PARSE, "no JSON object found in response"),
    "classify-missing": ("classify", {"reason": "r"}, PARSE, "missing required field 'scenario'"),
    "classify-not-str": ("classify", {"scenario": ["irrelevant"]}, PARSE, "field 'scenario' must be str"),
    "classify-empty": ("classify", {"scenario": ""}, PARSE, "field 'scenario' must be non-empty"),
    "classify-unknown": (
        "classify", {"scenario": "maybe"}, PARSE, "scenario must be 'irrelevant' or 'too_complex'"
    ),
    # analyze, with k = 2 over CATALOG
    "analyze-ok": ("analyze", {"rules": [RULE, {**RULE, "domain": "Law"}]}, "ok", None),
    "analyze-no-json": ("analyze", NO_JSON, PARSE, "no JSON object found in response"),
    "analyze-rules-missing": ("analyze", {"rule": [RULE]}, PARSE, "missing required field 'rules'"),
    "analyze-rules-not-list": ("analyze", {"rules": RULE}, PARSE, "field 'rules' must be list"),
    "analyze-rules-empty": ("analyze", {"rules": []}, PARSE, "field 'rules' must be non-empty"),
    "analyze-rule-not-object": ("analyze", {"rules": [RULE, "Law"]}, PARSE, "each rule must be an object"),
    "analyze-domain-missing": ("analyze", {"rules": [{}]}, PARSE, "missing required field 'domain'"),
    "analyze-domain-not-str": (
        "analyze", {"rules": [{**RULE, "domain": 7}]}, PARSE, "field 'domain' must be str"
    ),
    "analyze-domain-empty": (
        "analyze", {"rules": [{**RULE, "domain": ""}]}, PARSE, "field 'domain' must be non-empty"
    ),
    "analyze-antecedent-missing": (
        "analyze", {"rules": [{"domain": "Law"}]}, PARSE, "missing required field 'antecedent'"
    ),
    "analyze-antecedent-not-str": (
        "analyze", {"rules": [{**RULE, "antecedent": None}]}, PARSE, "field 'antecedent' must be str"
    ),
    "analyze-antecedent-empty": (
        "analyze", {"rules": [{**RULE, "antecedent": ""}]}, PARSE, "field 'antecedent' must be non-empty"
    ),
    "analyze-membership-missing": (
        "analyze",
        {"rules": [{"domain": "Law", "antecedent": "a"}]},
        PARSE,
        "missing required field 'membership'",
    ),
    "analyze-membership-not-str": (
        "analyze", {"rules": [{**RULE, "membership": 5}]}, PARSE, "field 'membership' must be str"
    ),
    "analyze-membership-empty": (
        "analyze", {"rules": [{**RULE, "membership": ""}]}, PARSE, "field 'membership' must be non-empty"
    ),
    "analyze-membership-unknown": (
        "analyze",
        {"rules": [{**RULE, "membership": "super high"}]},
        PARSE,
        "unknown membership token: 'super high'",
    ),
    "analyze-prompt-missing": (
        "analyze",
        {"rules": [{"domain": "History", "antecedent": "a", "membership": "H"}]},
        PARSE,
        "missing required field 'expert_prompt'",
    ),
    "analyze-prompt-not-str": (
        "analyze", {"rules": [{**RULE, "expert_prompt": {}}]}, PARSE, "field 'expert_prompt' must be str"
    ),
    "analyze-prompt-empty": (
        "analyze",
        {"rules": [{**RULE, "expert_prompt": ""}]},
        PARSE,
        "field 'expert_prompt' must be non-empty",
    ),
    "analyze-shape-before-count": (
        "analyze",
        {"rules": [RULE, RULE, {**RULE, "membership": "HH"}]},
        PARSE,
        "unknown membership token: 'HH'",
    ),
    "analyze-count": ("analyze", {"rules": [RULE]}, REJECTED, "expected exactly 2 rules, got 1"),
    "analyze-count-before-distinct": (
        "analyze", {"rules": [RULE, RULE, RULE]}, REJECTED, "expected exactly 2 rules, got 3"
    ),
    "analyze-distinct": (
        "analyze",
        {"rules": [{**RULE, "domain": "Cooking"}] * 2},
        REJECTED,
        "rule domains must be pairwise distinct",
    ),
    "analyze-catalog": (
        "analyze",
        {"rules": [RULE, {**RULE, "domain": "Cooking"}]},
        REJECTED,
        "domains not in catalog: ['Cooking']",
    ),
    # execute
    "execute-ok": ("execute", {"answer": "a"}, "ok", None),
    "execute-no-json": ("execute", NO_JSON, PARSE, "no JSON object found in response"),
    "execute-missing": ("execute", {"answers": "a"}, PARSE, "missing required field 'answer'"),
    "execute-not-str": ("execute", {"answer": 42}, PARSE, "field 'answer' must be str"),
    "execute-empty": ("execute", {"answer": ""}, PARSE, "field 'answer' must be non-empty"),
    # assess, against threshold ML
    "assess-ok": ("assess", {"membership": "H"}, "ok", None),
    "assess-ok-at-threshold": ("assess", {"membership": "ML"}, "ok", None),
    "assess-ok-low-with-diff": ("assess", {"membership": "L", "diff_text": "d"}, "ok", None),
    "assess-no-json": ("assess", NO_JSON, PARSE, "no JSON object found in response"),
    "assess-membership-missing": ("assess", {"diff_text": "d"}, PARSE, "missing required field 'membership'"),
    "assess-membership-not-str": ("assess", {"membership": 1}, PARSE, "field 'membership' must be str"),
    "assess-membership-empty": ("assess", {"membership": ""}, PARSE, "field 'membership' must be non-empty"),
    "assess-membership-unknown": (
        "assess", {"membership": "super high"}, PARSE, "unknown membership token: 'super high'"
    ),
    "assess-membership-before-diff": (
        "assess", {"membership": "x", "diff_text": 5}, PARSE, "unknown membership token: 'x'"
    ),
    "assess-diff-not-str": (
        "assess", {"membership": "H", "diff_text": 5}, PARSE, "diff_text must be a string"
    ),
    "assess-diff-null": (
        "assess", {"membership": "H", "diff_text": None}, PARSE, "diff_text must be a string"
    ),
    "assess-shape-before-threshold": (
        "assess", {"membership": "L", "diff_text": 5}, PARSE, "diff_text must be a string"
    ),
    "assess-low-without-diff": (
        "assess", {"membership": "L"}, REJECTED, "membership L is below ML so diff_text must be non-empty"
    ),
    "assess-low-empty-diff": (
        "assess",
        {"membership": "LR", "diff_text": ""},
        REJECTED,
        "membership Lr is below ML so diff_text must be non-empty",
    ),
    # cluster, over three candidates
    "cluster-ok": ("cluster", {"assignments": ["k1", " k2", "k1"]}, "ok", None),
    "cluster-ok-beside-bad-answer": ("cluster", {"answer": 5, "assignments": ["k1", "k2", "k1"]}, "ok", None),
    "cluster-no-json": ("cluster", NO_JSON, PARSE, "no JSON object found in response"),
    "cluster-neither": ("cluster", {"other": 1}, PARSE, "fusion response needs 'answer' or 'assignments'"),
    "cluster-both-empty": (
        "cluster", {"answer": "", "assignments": []}, PARSE, "fusion response needs 'answer' or 'assignments'"
    ),
    "cluster-not-list": (
        "cluster", {"assignments": "k1"}, PARSE, "fusion response needs 'answer' or 'assignments'"
    ),
    "cluster-blank-key": (
        "cluster",
        {"assignments": ["k1", " ", "k1"]},
        PARSE,
        "fusion response needs 'answer' or 'assignments'",
    ),
    "cluster-non-string-key": (
        "cluster", {"assignments": [1, 2, 3]}, PARSE, "fusion response needs 'answer' or 'assignments'"
    ),
    "cluster-answer-only": ("cluster", {"answer": "x"}, REJECTED, "need exactly 3 cluster assignments"),
    "cluster-count": (
        "cluster", {"assignments": ["k1", "k2"]}, REJECTED, "need exactly 3 cluster assignments"
    ),
    "cluster-count-before-keys": (
        "cluster", {"answer": "x", "assignments": [" "]}, REJECTED, "need exactly 3 cluster assignments"
    ),
    "cluster-answer-and-bad-keys": (
        "cluster",
        {"answer": "x", "assignments": [1, 2, 3]},
        REJECTED,
        "each cluster assignment must be a non-blank string",
    ),
    "cluster-answer-and-blank-key": (
        "cluster",
        {"answer": "x", "assignments": ["k", "\t", "k"]},
        REJECTED,
        "each cluster assignment must be a non-blank string",
    ),
    # fuse_subtask
    "fuse-subtask-ok": ("fuse_subtask", {"answer": "merged"}, "ok", None),
    "fuse-subtask-no-json": ("fuse_subtask", NO_JSON, PARSE, "no JSON object found in response"),
    "fuse-subtask-neither": (
        "fuse_subtask", {"other": 1}, PARSE, "fusion response needs 'answer' or 'assignments'"
    ),
    "fuse-subtask-empty-answer": (
        "fuse_subtask", {"answer": ""}, PARSE, "fusion response needs 'answer' or 'assignments'"
    ),
    "fuse-subtask-assignments-only": (
        "fuse_subtask", {"assignments": ["k"]}, REJECTED, "fusion response must carry a non-empty 'answer'"
    ),
    "fuse-subtask-bad-answer": (
        "fuse_subtask",
        {"answer": 5, "assignments": ["k"]},
        REJECTED,
        "fusion response must carry a non-empty 'answer'",
    ),
    # fuse_final
    "fuse-final-ok": ("fuse_final", {"answer": "final", "assignments": [1]}, "ok", None),
    "fuse-final-no-json": ("fuse_final", NO_JSON, PARSE, "no JSON object found in response"),
    "fuse-final-neither": (
        "fuse_final",
        {"answer": None, "assignments": None},
        PARSE,
        "fusion response needs 'answer' or 'assignments'",
    ),
    "fuse-final-assignments-only": (
        "fuse_final", {"assignments": ["k"]}, REJECTED, "fusion response must carry a non-empty 'answer'"
    ),
    "fuse-final-empty-answer": (
        "fuse_final",
        {"answer": "", "assignments": ["k"]},
        REJECTED,
        "fusion response must carry a non-empty 'answer'",
    ),
}


@pytest.mark.parametrize("template_key, response, status, error", ROWS.values(), ids=ROWS.keys())
def test_first_call_records_the_contract(template_key, response, status, error):
    role_function, kind, before, schema = ROLE_FUNCTIONS[template_key]
    text = response if isinstance(response, str) else json_doc(response)
    script = {(kind.value, before + n): text for n in range(1, 7)}  # a replan after classify takes 4-6
    if before:
        script[(kind.value, 1)] = assignments_response(["k", "k"])
    session = NodeSession(Run("run-0", MockProvider(script)), "T1")
    try:
        role_function(session)
    except ProviderFailure:
        pass  # the role gave up after its re-asks; the records are what this test reads
    calls = [payload for kind_, payload in session.events if kind_ == "provider_call"]
    first = calls[before]
    assert (first["schema"], first["status"], first.get("error")) == (schema, status, error)


def test_every_role_is_covered_with_its_failures():
    """Each template has an ok row and a parse_error row; each with a semantic check has a rejected row."""
    statuses = {}
    for template_key, _, status, _ in ROWS.values():
        statuses.setdefault(template_key, set()).add(status)
    assert set(statuses) == set(ROLE_FUNCTIONS)
    without_semantic_check = {"classify", "execute"}
    for template_key, seen in statuses.items():
        expected = {"ok", PARSE} | (set() if template_key in without_semantic_check else {REJECTED})
        assert seen == expected, template_key
