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

from dataclasses import dataclass

from .agents import (
    MalformedAnalysis,
    MalformedAssessment,
    MalformedResponse,
    NodeSession,
    ResponseViolation,
    render_result_set,
)
from .graph import TaskNode
from .membership import MembershipLabel, parse_label

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


class AllRulesFailed(Exception):
    """Every rule of a rule set failed to produce a candidate."""


@dataclass(frozen=True)
class DomainRule:
    index: int
    domain_name: str
    antecedent: str
    membership: MembershipLabel
    consequent_prompt: str


@dataclass(frozen=True)
class GlobalRule:
    goal: str
    threshold: MembershipLabel = MembershipLabel.ML


@dataclass(frozen=True)
class RuleSet:
    subtask_id: str
    rules: tuple[DomainRule, ...]
    global_rule: GlobalRule


@dataclass(frozen=True)
class CandidateResult:
    rule_index: int
    domain_name: str
    membership: MembershipLabel
    answer_text: str
    semantic_key: str = ""


@dataclass(frozen=True)
class GlobalAssessment:
    membership: MembershipLabel
    diff_text: str


def construct_rules(
    subtask: TaskNode,
    catalog: tuple[str, ...],
    k: int,
    feedback: str | None = None,
    *,
    global_rule: GlobalRule,
    session: NodeSession,
) -> RuleSet:
    """One domain-analyst call producing K rules with distinct catalog domains.

    When reviewer feedback from a failed goal check is present, the analyst
    request carries the subtask statement concatenated with the feedback.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not catalog:
        raise ValueError("domain catalog is empty")

    feedback_block = ""
    if feedback:
        feedback_block = f"\nReviewer feedback from the previous attempt:\n{feedback}\n"

    catalog_set = set(catalog)

    def check(doc: dict) -> None:
        rules = doc["rules"]
        if len(rules) != k:
            raise ResponseViolation(f"expected exactly {k} rules, got {len(rules)}")
        domains = [entry["domain"] for entry in rules]
        if len(set(domains)) != len(domains):
            raise ResponseViolation("rule domains must be pairwise distinct")
        unknown = [d for d in domains if d not in catalog_set]
        if unknown:
            raise ResponseViolation(f"domains not in catalog: {unknown}")

    doc = session.call(
        "analyze",
        {
            "statement": subtask.statement,
            "k": k,
            "catalog": ", ".join(catalog),
            "feedback_block": feedback_block,
        },
        "ruleset",
        failure=MalformedAnalysis,
        extra_check=check,
    )
    rules = tuple(
        DomainRule(
            index=i,
            domain_name=entry["domain"],
            antecedent=entry["antecedent"],
            membership=parse_label(entry["membership"]),
            consequent_prompt=entry["expert_prompt"],
        )
        for i, entry in enumerate(doc["rules"], start=1)
    )
    return RuleSet(subtask_id=subtask.id, rules=rules, global_rule=global_rule)


def run_rules(
    ruleset: RuleSet,
    input_text: str,
    preds: list[object],
    *,
    session: NodeSession,
) -> list[CandidateResult]:
    """Execute every domain rule once; rule failures do not stop the others.

    The experts' first tries are issued at once (concurrently when the
    session has a pool) and take the next K attempt numbers in rule order;
    re-asks follow in rule order. Each rule's events stay together in rule
    order. Output is ordered by rule index and each candidate carries its
    rule's membership unchanged. Raises AllRulesFailed only when no rule
    produced a candidate.
    """
    context = render_result_set(preds)
    rules = sorted(ruleset.rules, key=lambda r: r.index)
    outcomes = session.call_many(
        "execute",
        [
            {"statement": input_text, "context": context, "instructions": rule.consequent_prompt}
            for rule in rules
        ],
        "candidate",
        failure=MalformedResponse,
    )
    candidates: list[CandidateResult] = []
    for rule, (outcome, events) in zip(rules, outcomes):
        session.events.extend(events)
        if isinstance(outcome, Exception):
            session.emit(
                "warning",
                {
                    "node": ruleset.subtask_id,
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
                answer_text=outcome["answer"],
            )
        )
    if not candidates:
        raise AllRulesFailed(f"all {len(ruleset.rules)} rules failed for {ruleset.subtask_id}")
    return candidates


def run_global_rule(
    global_rule: GlobalRule,
    fused: object,
    *,
    session: NodeSession,
) -> GlobalAssessment:
    """Gate a fused result against the global goal.

    Returns the goal membership of the result and, whenever that membership
    is below the rule's threshold, a non-empty description of the deviation.
    """
    result_text = getattr(fused, "answer_text", fused)
    if not result_text:
        raise ValueError("fused result must be non-empty")

    def check(doc: dict) -> None:
        membership = parse_label(doc["membership"])
        if membership < global_rule.threshold and not doc.get("diff_text"):
            raise ResponseViolation(
                f"membership {membership.token} is below {global_rule.threshold.token} "
                "so diff_text must be non-empty"
            )

    doc = session.call(
        "assess",
        {
            "goal": global_rule.goal,
            "result": result_text,
            "threshold": global_rule.threshold.token,
        },
        "assessment",
        failure=MalformedAssessment,
        extra_check=check,
    )
    return GlobalAssessment(
        membership=parse_label(doc["membership"]),
        diff_text=doc.get("diff_text", "") or "",
    )
