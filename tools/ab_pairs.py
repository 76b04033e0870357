"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed N] [--cpu K]

Each pair runs `python3 benchmarks/run.py --trace 0` once in each checkout,
parent first in even pairs and change first in odd ones, and reads the JSON
object on the last stdout line of each run. For every end-to-end metric that
CHANGE's BENCHMARK.json declares, it prints the parent's median and
quartiles, the change's median, the pairs the change won, and whether the
gain rule holds: the change wins at least 9 pairs in 10, and its median is
better than the parent's by more than the parent's interquartile range.
--cpu K pins both sides to CPU K with taskset. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(checkout: str, args: argparse.Namespace) -> dict[str, float]:
    """One benchmark run in checkout: metric name -> value, from its last stdout line."""
    command = [
        sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.cpu is not None:
        command = ["taskset", "-c", str(args.cpu), *command]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{checkout}: no JSON result (exit {done.returncode})\n{done.stderr[-2000:]}")
    if not report["correct"]:
        sys.exit(f"{checkout}: the benchmark's checks failed\n{done.stdout[-2000:]}")
    return {name: metric["value"] for name, metric in report["metrics"].items()}


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: parent median [quartiles] -> change median, pairs won, gain rule."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if not all(name in run for run in parent + change):
            continue
        before, after = [run[name] for run in parent], [run[name] for run in change]
        q1, median, q3 = quartiles(before)
        after_median = statistics.median(after)
        won = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        gain = (median - after_median) if lower else (after_median - median)
        holds = won * 10 >= 9 * len(before) and gain > q3 - q1
        change_pct = 100 * (after_median - median) / median if median else 0.0
        lines.append(
            f"{name:24} {median:.6g} [{q1:.6g}, {q3:.6g}] -> {after_median:.6g} "
            f"({change_pct:+.2f}%), won {won}/{len(before)}, gain rule {'holds' if holds else 'fails'}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
            print(f"pair {pair + 1} {side} {json.dumps(runs[side][-1], sort_keys=True)}", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs"
          + (f", pinned to CPU {args.cpu}" if args.cpu is not None else ""))
    for line in summarize(metrics, runs["parent"], runs["change"]):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
