"""Semantic conflict resolution among rule candidates and the two fusion steps.

Candidates are partitioned into semantic clusters (by a fusion-expert call
or by lexical normalization), then conflicts resolve in layers: most votes
first, highest membership among the tied, lowest rule index as the final
deterministic tie-break. Subtask fusion synthesizes one answer from the
winning cluster; final fusion combines all terminal subtask results into
the answer to the original task.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .agents import NodeSession, ParseError, ProviderFailure, ResponseViolation
from .graph import TaskNode
from .membership import MembershipLabel
from .rules import CandidateResult

# string.punctuation, spelled out so that importing this module does not import string
_PUNCT_TABLE = str.maketrans("", "", "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


class SemanticCluster:
    """A cluster key and its members, with the figures that rank it, computed once when built.

    votes is the member count, max_membership the highest member label and
    min_rule_index the lowest member rule index, whatever the members' order.
    """

    __slots__ = ("key", "members", "votes", "max_membership", "min_rule_index")

    def __init__(self, key: str, members: tuple[CandidateResult, ...]) -> None:
        self.key, self.members, self.votes = key, members, len(members)
        top, low = members[0].membership, members[0].rule_index
        for member in members:
            if member.membership._value_ > top._value_:
                top = member.membership
            if member.rule_index < low:
                low = member.rule_index
        self.max_membership: MembershipLabel = top
        self.min_rule_index: int = low


class FinalResult(NamedTuple):
    answer_text: str
    contributing_nodes: tuple[str, ...]


def lexical_key(text: str) -> str:
    """Lower-cased, punctuation-stripped, whitespace-collapsed cluster key."""
    return " ".join(text.translate(_PUNCT_TABLE).casefold().split())


def cluster_candidates(
    candidates: list[CandidateResult],
    mode: str,
    session: NodeSession | None = None,
) -> list[SemanticCluster]:
    """Partition candidates into semantic clusters.

    model mode asks the fusion expert, through session, for one cluster key
    per candidate and falls back to lexical keys (with a trace warning) if
    that call fails; lexical mode is provider-free. Every candidate lands in
    exactly one cluster, and members keep the candidates' order, which
    rules.run_rules gives in rule order.
    """
    keys: list[str] | None = None
    if mode == "model":
        try:
            keys = _model_keys(candidates, session)
        except ProviderFailure as exc:
            session.emit(
                "warning",
                {"reason": "cluster_fallback_lexical", "detail": str(exc)},
            )
    if keys is None:
        keys = [lexical_key(c.answer_text) for c in candidates]

    grouped: dict[str, list[CandidateResult]] = {}
    for candidate, key in zip(candidates, keys):
        grouped.setdefault(key, []).append(candidate)
    return [SemanticCluster(key, tuple(members)) for key, members in sorted(grouped.items())]


def _model_keys(candidates: list[CandidateResult], session: NodeSession) -> list[str]:
    listing = "\n".join(f"{i}. {c.answer_text}" for i, c in enumerate(candidates, 1))

    def read(doc: dict) -> list[str]:
        _check_fusion_shape(doc)
        assignments = doc.get("assignments")
        if not isinstance(assignments, list) or len(assignments) != len(candidates):
            raise ResponseViolation(f"need exactly {len(candidates)} cluster assignments")
        if not all(isinstance(key, str) and key.strip() for key in assignments):
            raise ResponseViolation("each cluster assignment must be a non-blank string")
        return [key.strip() for key in assignments]

    return session.call("cluster", {"candidates": listing}, read)


def _rank_key(cluster: SemanticCluster) -> tuple:
    # Layer order: votes, then membership, then lowest rule index; cluster
    # key last so resolution is total even for malformed duplicate indices.
    return (-cluster.votes, -cluster.max_membership._value_, cluster.min_rule_index, cluster.key)


def resolve_conflict(clusters: list[SemanticCluster]) -> tuple[SemanticCluster, str]:
    """Rank the clusters once: the winner, and the layer that beat the runner-up.

    Layers: most votes, then highest membership, then lowest rule index; a
    lone cluster wins by votes.
    """
    first, *rest = sorted(clusters, key=_rank_key)
    if not rest or first.votes != rest[0].votes:
        return first, "votes"
    if first.max_membership is not rest[0].max_membership:
        return first, "membership"
    return first, "index"


def fuse_subtask(
    candidates: list[CandidateResult],
    subtask: TaskNode,
    *,
    mode: str = "lexical",
    session: NodeSession,
    attempt: int = 1,
) -> str:
    """Cluster candidates, resolve the conflict and synthesize the subtask answer.

    The synthesis call is made only when the winning cluster holds answers
    that differ lexically, which only model clustering can produce (a
    lexical cluster's members share its key, so lexical mode skips the
    check); otherwise the cluster's strongest member is the answer, verbatim.
    """
    clusters = cluster_candidates(candidates, mode, session)
    winner, layer = resolve_conflict(clusters)
    best = min(winner.members, key=lambda c: (-c.membership._value_, c.rule_index))

    if mode == "lexical" or len({lexical_key(m.answer_text) for m in winner.members}) == 1:
        answer = best.answer_text
    else:
        listing = "\n".join(f"- {m.answer_text}" for m in winner.members)
        answer = session.call(
            "fuse_subtask",
            {"statement": subtask.statement, "candidates": listing},
            _read_answer,
        )

    session.emit(
        "fusion",
        {
            "node": subtask.id,
            "attempt": attempt,
            "clusters": [
                {
                    "key": c.key,
                    "votes": c.votes,
                    "max_membership": c.max_membership.token,
                    "member_indices": [m.rule_index for m in c.members],
                }
                for c in clusters
            ],
            "winner_key": winner.key,
            "layer": layer,
            "answer_text": answer,
        },
    )
    return answer


def fuse_final(
    answers: Mapping[str, str], original_task: str, *, session: NodeSession
) -> FinalResult:
    """One final-variant fusion call combining the answers of the fusion node's predecessors.

    answers maps node id to answer text, in node-id order; its keys are the
    contributing nodes.
    """
    listing = "\n".join(f"- {text}" for text in answers.values())
    answer = session.call("fuse_final", {"task": original_task, "results": listing}, _read_answer)
    return FinalResult(answer_text=answer, contributing_nodes=tuple(answers))


def _check_fusion_shape(doc: dict) -> None:
    """Both fusion readers' shape check: a non-empty answer, or a non-empty list of non-blank keys."""
    answer, assignments = doc.get("answer"), doc.get("assignments")
    if not (isinstance(answer, str) and answer) and not (
        isinstance(assignments, list)
        and assignments
        and all(isinstance(key, str) and key.strip() for key in assignments)
    ):
        raise ParseError("fusion response needs 'answer' or 'assignments'")


def _read_answer(doc: dict) -> str:
    _check_fusion_shape(doc)
    if not isinstance(doc.get("answer"), str) or not doc["answer"]:
        raise ResponseViolation("fusion response must carry a non-empty 'answer'")
    return doc["answer"]
