"""IF-THEN rule machinery: per-subtask rule construction, execution and global gating.

Each subtask carries K domain rules plus one global rule. A domain rule's
IF-part states how strongly the subtask belongs to a domain (an ordinal
membership label judged by the domain analyst); its THEN-part binds a
domain expert that answers the subtask from that domain's perspective.
Every rule executes regardless of its membership; membership only weighs
into fusion. The global rule gates the fused result against the run's
global goal and, when the result falls below the threshold, describes the
deviation so the rule set can be regenerated with feedback.
"""

from __future__ import annotations

from typing import NamedTuple

from .agents import (
    NodeSession,
    ParseError,
    ProviderFailure,
    ResponseViolation,
    need_field,
    render_result_set,
)
from .graph import TaskNode
from .membership import MembershipLabel

# Default domain catalog; runs may supply their own via configuration.
DEFAULT_DOMAINS = (
    "Entertainment and Media",
    "History",
    "Biology",
    "Geography",
    "Science",
    "Literature",
    "Sports",
    "Politics",
    "Economics",
    "Technology",
    "Art",
    "Music",
    "Law",
    "Medicine",
    "Psychology",
    "Philosophy",
    "Mathematics",
    "Education",
    "Religion",
    "Linguistics",
)


class DomainRule(NamedTuple):
    index: int
    domain_name: str
    antecedent: str
    membership: MembershipLabel
    consequent_prompt: str


class CandidateResult(NamedTuple):
    rule_index: int
    domain_name: str
    membership: MembershipLabel
    answer_text: str


class GlobalAssessment(NamedTuple):
    membership: MembershipLabel
    diff_text: str
    passed: bool  # membership meets the threshold; equal passes


def construct_rules(
    subtask: TaskNode,
    catalog: tuple[str, ...],
    k: int,
    feedback: str | None = None,
    *,
    session: NodeSession,
) -> tuple[DomainRule, ...]:
    """One domain-analyst call producing K rules with distinct catalog domains, numbered from 1.

    When reviewer feedback from a failed goal check is present, the analyst
    request carries the subtask statement concatenated with the feedback.
    """
    feedback_block = ""
    if feedback:
        feedback_block = f"\nReviewer feedback from the previous attempt:\n{feedback}\n"

    catalog_set = set(catalog)

    def read(doc: dict) -> tuple[DomainRule, ...]:
        rules = []
        for i, entry in enumerate(need_field(doc, "rules", list), start=1):
            if not isinstance(entry, dict):
                raise ParseError("each rule must be an object")
            rules.append(
                DomainRule(
                    index=i,
                    domain_name=need_field(entry, "domain"),
                    antecedent=need_field(entry, "antecedent"),
                    membership=need_field(entry, "membership", MembershipLabel),
                    consequent_prompt=need_field(entry, "expert_prompt"),
                )
            )
        if len(rules) != k:
            raise ResponseViolation(f"expected exactly {k} rules, got {len(rules)}")
        domains = [rule.domain_name for rule in rules]
        if len(set(domains)) != len(domains):
            raise ResponseViolation("rule domains must be pairwise distinct")
        unknown = [d for d in domains if d not in catalog_set]
        if unknown:
            raise ResponseViolation(f"domains not in catalog: {unknown}")
        return tuple(rules)

    return session.call(
        "analyze",
        {
            "statement": subtask.statement,
            "k": k,
            "catalog": ", ".join(catalog),
            "feedback_block": feedback_block,
        },
        read,
    )


def run_rules(
    rules: tuple[DomainRule, ...],
    input_text: str,
    preds: list[str],
    *,
    session: NodeSession,
) -> list[CandidateResult]:
    """Execute every domain rule once; rule failures do not stop the others.

    The experts' first tries are issued at once (concurrently when the
    run has a pool) and take the next K attempt numbers in rule order;
    re-asks follow in rule order. Each rule's events stay together in rule
    order. Output is ordered by rule index and each candidate carries its
    rule's membership unchanged. Raises ProviderFailure only when no rule
    produced a candidate.
    """
    context = render_result_set(preds)
    outcomes = session.call_many(
        "execute",
        [
            {"statement": input_text, "context": context, "instructions": rule.consequent_prompt}
            for rule in rules
        ],
        _read_answer,
    )
    candidates: list[CandidateResult] = []
    for rule, (outcome, events) in zip(rules, outcomes):
        session.events.extend(events)
        if isinstance(outcome, Exception):
            session.emit(
                "warning",
                {
                    "node": session.node_id,
                    "reason": "rule_failed",
                    "detail": f"rule {rule.index} failed: {outcome}",
                    "rule_index": rule.index,
                },
            )
            continue
        candidates.append(
            CandidateResult(
                rule_index=rule.index,
                domain_name=rule.domain_name,
                membership=rule.membership,
                answer_text=outcome,
            )
        )
    if not candidates:
        raise ProviderFailure(f"all {len(rules)} rules failed for {session.node_id}")
    return candidates


def run_global_rule(
    goal: str,
    threshold: MembershipLabel,
    fused: str,
    *,
    session: NodeSession,
) -> GlobalAssessment:
    """Gate a fused result against the global goal.

    Returns the goal membership of the result and the verdict: the result
    passes when its membership is at least the threshold, and a failing one
    comes with a non-empty description of the deviation.
    """

    def read(doc: dict) -> GlobalAssessment:
        membership = need_field(doc, "membership", MembershipLabel)
        diff_text = doc.get("diff_text", "")
        if not isinstance(diff_text, str):
            raise ParseError("diff_text must be a string")
        passed = membership >= threshold
        if not passed and not diff_text:
            raise ResponseViolation(
                f"membership {membership.token} is below {threshold.token} "
                "so diff_text must be non-empty"
            )
        return GlobalAssessment(membership=membership, diff_text=diff_text, passed=passed)

    return session.call(
        "assess",
        {
            "goal": goal,
            "result": fused,
            "threshold": threshold.token,
        },
        read,
    )


def _read_answer(doc: dict) -> str:
    return need_field(doc, "answer")
