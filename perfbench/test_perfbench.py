"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench`` (the
tier-1 command collects ``tests/`` only).  The counter tests run every
workload's traced mode twice, so they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

HERE = Path(__file__).resolve().parent

#: Work counters of the traced run that must repeat exactly for a fixed seed.
COUNTERS = (
    "quadrature.nodes",
    "quadrature.s_calls",
    "quadrature.unit_calls",
    "quadrature.gamma_calls",
    "quadrature.lpi_calls",
    "lambertw.calls",
    "asymptotics.calls",
    "moments.orders",
    "moments.bytes_read",
    "moments.bytes_written",
    "logdomain.values",
    "criteria.verdicts.satisfied",
    "criteria.verdicts.violated",
    "criteria.verdicts.inconclusive",
)


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _traced(workload: str, seed: int) -> dict:
    done = _run(HERE.parent, workload, seed, 1)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["cli-pipeline", "corpus-check", "point-eval"])
def test_work_counters_repeat_exactly(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_requests_and_failures_repeat_for_a_seed():
    first, second = (
        json.loads(_run(HERE.parent, "corpus-check", 3, 0).stdout.splitlines()[-1])
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert first["failed"] > 0  # the recorded defects are counted, not filtered
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_typical_latency_is_the_median_of_the_input():
    ledger = harness.Ledger()
    for key, latency in [("a", 1.0), ("b", 10.0), ("a", 3.0), ("a", 2.0), ("b", 20.0)]:
        ledger.record(key, latency, latency / 2)
    assert ledger.typical_latencies() == [1.0, 7.5, 1.0, 1.0, 7.5]


def test_clock_scales_by_the_probe():
    clock = harness.Clock()
    factor = clock.factor()
    assert 0.2 < factor < 20.0
    _, seconds = clock.call(sum, range(1000))
    assert seconds > 0.0


def test_the_seed_changes_the_inputs():
    first, second = _traced("point-eval", 7), _traced("point-eval", 8)
    assert first["metrics"]["quadrature.nodes"] != second["metrics"]["quadrature.nodes"]


def test_tail_has_ten_samples_beyond_it():
    p50, tail, percentile = harness.timing_stats([float(x) for x in range(100)])
    assert (p50, tail, percentile) == (49.5, 89.0, 90.0)
    assert harness.timing_stats([3.0, 1.0, 2.0]) == (2.0, 3.0, 100.0)


def test_stratified_draws_one_per_stratum():
    draws = harness.stratified(harness.rng(1, "test"), 200, 5000, 8)
    edges = [200 * 25 ** (i / 8) for i in range(9)]
    assert all(lo < x < hi for x, lo, hi in zip(draws, edges, edges[1:]))


def test_fails_without_the_package_sources():
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        done = _run(bare, "point-eval", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(harness.WORK.iterdir()):
            harness.WORK.rmdir()
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
