"""The three benchmark workloads still produce the trace bytes frozen in benchmarks/expected.json."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(REPO, "benchmarks")


def test_default_seed_trace_hashes_match_expected():
    result = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, "run.py"), "--print-hashes"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    with open(os.path.join(BENCHMARKS, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)["trace_sha256"]
    assert json.loads(result.stdout) == expected
