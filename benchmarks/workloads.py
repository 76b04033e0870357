"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of its seed. It returns the inputs
rulegraph reads (a config, a mock script and either a task text or a
dataset) as JSON-ready values, together with what it scripted: the final
answer or score of every task and the repairs the engine must make. The
benchmark checks every run against that record.

Scripts are keyed exactly by (run, node, role, attempt). The generator
replays the engine's per-node attempt ledger to pick the attempt numbers:
per subtask attempt one analyst call (plus one per malformed answer), K
expert calls and one reviewer call; per failed node one classification
and, when it is too complex, one replan.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

K_RULES, MAX_REPROCESS, MAX_DEPTH, MAX_CHAIN = 3, 3, 2, 3
THRESHOLD = "ML"
PASS_LABELS = ("H", "SH", "M", "ML")
FAIL_LABELS = ("Lr", "L")
DOMAINS = (
    "History",
    "Biology",
    "Geography",
    "Science",
    "Literature",
    "Economics",
    "Technology",
    "Art",
    "Music",
    "Law",
    "Medicine",
    "Mathematics",
)
ROOT_RUN = "run-0"  # run id of a deterministic execute_task call

_WORDS = (
    "amber basalt cedar delta ember fjord garnet harbor indigo juniper kelp "
    "lagoon mesa nectar onyx prairie quartz reef sierra tundra umber valley "
    "willow xenon yarrow zephyr orbit lantern meadow canyon glacier comet"
).split()
_VERBS = ("Summarize", "Compare", "Estimate", "Outline", "Explain", "Assess", "List", "Trace")


@dataclass
class TaskExpectation:
    """What the generator scripted for one task."""

    run_id: str
    n_subtasks: int
    answer: str
    provider_calls: int
    removed: int = 0
    spliced: int = 0
    correct: int | None = None  # batch samples: questions the answer covers
    score: float | None = None


@dataclass
class Workload:
    name: str
    seed: int
    latency_s: float  # simulated provider latency per call; 0 for CPU-bound workloads
    config: dict
    script: dict
    task: str | None = None
    samples: list[dict] | None = None
    expected: list[TaskExpectation] = field(default_factory=list)

    def files(self) -> dict[str, str]:
        """File name -> canonical text of every input file."""
        out = {
            "config.json": _dumps(self.config),
            "script.json": _dumps(self.script),
        }
        if self.task is not None:
            out["task.txt"] = self.task
        if self.samples is not None:
            out["dataset.jsonl"] = "".join(_dumps(s) for s in self.samples)
        return out


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def _doc(payload: dict) -> str:
    """A model-style response: prose around one fenced JSON document."""
    return "Here is the result.\n```json\n" + json.dumps(payload) + "\n```\n"


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _statement(rng: random.Random) -> str:
    return f"{rng.choice(_VERBS)} the {_phrase(rng, 2)} of the {_phrase(rng, 2)}."


class _Script:
    """Mock script under construction, with the engine's attempt ledger per run."""

    def __init__(self) -> None:
        self.entries: list[dict] = []
        self._ledger: Counter = Counter()

    def add(self, run: str, node: str, role: str, response: str) -> None:
        self._ledger[(run, node, role)] += 1
        attempt = self._ledger[(run, node, role)]
        self.entries.append(
            {"run": run, "node": node, "role": role, "attempt": attempt, "response": response}
        )

    def plan(self, run, node, goal, subtasks, edges) -> None:
        self.add(
            run,
            node,
            "PA",
            _doc(
                {
                    "goal": goal,
                    "subtasks": [{"id": sid, "statement": st} for sid, st in subtasks],
                    "edges": [list(e) for e in edges],
                }
            ),
        )

    def subtask(
        self,
        rng: random.Random,
        run: str,
        node: str,
        pass_attempt: int | None,
        malformed: Iterator[bool] | None = None,
    ) -> None:
        """Script every call of one subtask node's reprocessing loop.

        pass_attempt is the attempt whose review passes, or None when all
        MAX_REPROCESS attempts fail. Each analyst call takes the next
        malformed flag; a malformed answer forces one re-ask.
        """
        last = pass_attempt or MAX_REPROCESS
        for attempt in range(1, last + 1):
            domains = rng.sample(DOMAINS, K_RULES)
            if malformed is not None and next(malformed):
                self.add(run, node, "DAA", _malformed_ruleset(rng, domains))
            self.add(run, node, "DAA", _ruleset(rng, domains))
            for answer in _candidates(rng, node):
                self.add(run, node, "DEA", _doc({"answer": answer}))
            if attempt == pass_attempt:
                self.add(run, node, "GEA", _doc({"membership": rng.choice(PASS_LABELS)}))
            else:
                self.add(
                    run,
                    node,
                    "GEA",
                    _doc(
                        {
                            "membership": rng.choice(FAIL_LABELS),
                            "diff_text": f"the result misses the {_phrase(rng, 2)}",
                        }
                    ),
                )

    def failure(self, rng: random.Random, run: str, node: str, too_complex: bool) -> list[str]:
        """Script the repair of a failed node; returns the spliced chain ids."""
        scenario = "too_complex" if too_complex else "irrelevant"
        self.add(run, node, "PA", _doc({"scenario": scenario, "reason": _phrase(rng, 3)}))
        if not too_complex:
            return []
        chain = [(f"{node}-c{i}", _statement(rng)) for i in range(1, MAX_CHAIN + 1)]
        edges = list(zip([c for c, _ in chain], [c for c, _ in chain[1:]]))
        self.plan(run, node, f"a staged version of {node}", chain, edges)
        return [c for c, _ in chain]

    def final(self, run: str, answer: str) -> None:
        self.add(run, "F", "FEA", _doc({"answer": answer}))


def _ruleset(rng: random.Random, domains: list[str]) -> str:
    return _doc(
        {
            "rules": [
                {
                    "domain": d,
                    "antecedent": f"the subtask concerns {d.lower()}",
                    "membership": rng.choice(PASS_LABELS + FAIL_LABELS),
                    "expert_prompt": f"You are an expert in {d}. Answer precisely.",
                }
                for d in domains
            ]
        }
    )


def _malformed_ruleset(rng: random.Random, domains: list[str]) -> str:
    """Either prose with no document (parse_error) or too few rules (rejected)."""
    if rng.random() < 0.5:
        return "I would rather discuss the " + _phrase(rng, 3) + " first."
    return _ruleset(rng, domains[:-1])


def _candidates(rng: random.Random, node: str) -> list[str]:
    """K expert answers: all agree, two agree, or all differ (lexically)."""
    base = f"{node}: the {_phrase(rng, 3)}"
    pattern = rng.randrange(3)
    if pattern == 0:
        return [base, base.upper() + ".", base]
    if pattern == 1:
        return [base, f"{node}: the {_phrase(rng, 3)}", base + "!"]
    return [f"{node}: the {_phrase(rng, 3)}" for _ in range(K_RULES)]


def _config(concurrency: int) -> dict:
    return {
        "provider": {"type": "mock", "script": "script.json"},
        "k_rules": K_RULES,
        "max_reprocess": MAX_REPROCESS,
        "max_depth": MAX_DEPTH,
        "max_chain": MAX_CHAIN,
        "threshold": THRESHOLD,
        "cluster_mode": "lexical",
        "concurrency": concurrency,
        "deterministic": True,
        "domains": list(DOMAINS),
    }


def _layered_edges(rng: random.Random, layers: list[list[str]]) -> list[tuple[str, str]]:
    """Two predecessors per node from the layer before, so waves follow layers."""
    edges = []
    for prev, layer in zip(layers, layers[1:]):
        for node in layer:
            edges += [(pred, node) for pred in sorted(rng.sample(prev, 2))]
    return edges


def _shuffled(rng: random.Random, counts: dict, total: int, rest) -> list:
    """total values: counts[v] copies of each v, the rest `rest`, shuffled."""
    values = [v for v, n in counts.items() for _ in range(n)]
    values += [rest] * (total - len(values))
    rng.shuffle(values)
    return values


def _layered_task(name, seed, n_layers, width, fail, second, third, concurrency, latency_s):
    """One task over a layered DAG; seed picks the texts, rules, labels and answers.

    The shape is the same for every seed: the edges, which nodes fail all
    attempts (half of them are then spliced, half removed) and which pass
    on attempt 2 or 3 (fail, second and third give the counts). Which nodes
    fail, and where, moved a task's cost by about 10% from seed to seed,
    more than the timing bounds absorb.
    """
    shape = random.Random(f"{name}/shape")
    layers = [[f"L{l:02d}n{w}" for w in range(width)] for l in range(n_layers)]
    edges = _layered_edges(shape, layers)
    fates = _shuffled(shape, {None: fail, 2: second, 3: third}, n_layers * width, 1)
    too_complex = iter(_shuffled(shape, {True: fail // 2}, fail, False))
    rng = random.Random(f"{name}/{seed}")
    ids = [nid for layer in layers for nid in layer]
    subtasks = [(nid, _statement(rng)) for nid in ids]
    script = _Script()
    goal = f"a complete account of the {_phrase(rng, 2)}"
    script.plan(ROOT_RUN, "T", goal, subtasks, edges)
    removed = spliced = 0
    for nid, fate in zip(ids, fates):
        script.subtask(rng, ROOT_RUN, nid, fate)
        if fate is None:
            if next(too_complex):
                spliced += 1
                for cid in script.failure(rng, ROOT_RUN, nid, too_complex=True):
                    script.subtask(rng, ROOT_RUN, cid, 1)
            else:
                removed += 1
                script.failure(rng, ROOT_RUN, nid, too_complex=False)
    answer = f"Final account {seed}: {_phrase(rng, 8)}."
    script.final(ROOT_RUN, answer)
    return Workload(
        name=name,
        seed=seed,
        latency_s=latency_s,
        config=_config(concurrency),
        script={"entries": script.entries},
        task=f"Write {goal} ({name}, seed {seed}).",
        expected=[
            TaskExpectation(ROOT_RUN, len(ids), answer, len(script.entries), removed, spliced)
        ],
    )


def repair_mix(seed: int, n_layers: int = 15, width: int = 10) -> Workload:
    """A layered DAG where 20% of nodes fail every attempt and 20% pass late."""
    n = n_layers * width
    return _layered_task(
        "repair-mix", seed, n_layers, width, n // 5, n // 10, n // 10, 1, 0.0
    )


def dag_latency(seed: int, latency_s: float = 0.005) -> Workload:
    """A 4 x 6 layered DAG with uneven attempt counts, two repairs and provider latency."""
    return _layered_task("dag-latency", seed, 4, 6, 2, 5, 5, 2, latency_s)


def batch_mixed(seed: int, n_samples: int = 1000) -> Workload:
    """A dataset of small tasks with malformed analyst answers and late passes.

    Shares are exact, not drawn per item, so every seed gives the same mix
    and the median task is a 3-subtask one: 20% of tasks have 2 subtasks,
    40% 3, 20% 4 and 20% 5; 20% of nodes pass on attempt 2; 10% of analyst
    calls are malformed.
    """
    rng = random.Random(f"batch-mixed/{seed}")
    fifth = n_samples // 5
    sizes = _shuffled(rng, {2: fifth, 4: fifth, 5: fifth}, n_samples, 3)
    n_nodes = sum(sizes)
    node_attempts = iter(_shuffled(rng, {2: n_nodes // 5}, n_nodes, 1))
    n_analyses = n_nodes + n_nodes // 5
    malformed = iter(_shuffled(rng, {True: n_analyses // 10}, n_analyses, False))
    script = _Script()
    samples, expected = [], []
    for i, n in enumerate(sizes, start=1):
        sid = f"b{i:04d}"
        first_entry = len(script.entries)
        ids = [f"s{j}" for j in range(1, n + 1)]
        edges = [(a, b) for x, a in enumerate(ids) for b in ids[x + 1 :] if rng.random() < 0.3]
        subtasks = [(nid, _statement(rng)) for nid in ids]
        script.plan(sid, "T", "answer every question", subtasks, edges)
        for nid in ids:
            script.subtask(rng, sid, nid, next(node_attempts), malformed)
        codes = rng.sample([f"{w}{d}" for w in _WORDS for d in range(10, 100)], rng.randint(2, 4))
        covered = [c for c in codes if rng.random() < 0.75]
        answer = "Story: " + ", ".join(covered or ["nothing"]) + "."
        script.final(sid, answer)
        samples.append(
            {
                "id": sid,
                "task": f"Write a story that names the code words of {_phrase(rng, 2)}.",
                "questions": [f"What is code word {q}?" for q in range(1, len(codes) + 1)],
                "targets": [[c] for c in codes],
            }
        )
        expected.append(
            TaskExpectation(
                sid,
                n,
                answer,
                len(script.entries) - first_entry,
                correct=len(covered),
                score=len(covered) / len(codes),
            )
        )
    return Workload(
        name="batch-mixed",
        seed=seed,
        latency_s=0.0,
        config=_config(1),
        script={"entries": script.entries},
        samples=samples,
        expected=expected,
    )


GENERATORS = {
    "repair-mix": repair_mix,
    "dag-latency": dag_latency,
    "batch-mixed": batch_mixed,
}
