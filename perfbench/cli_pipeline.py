"""cli-pipeline: ``momentdet gen`` then ``momentdet check --criteria all``.

Why: this is the paper's real job, end to end with interpreter start-up
included; quadrature does about two thirds of the work, and interpreter start-up
and the CLI's own code most of the rest.  Identical-factor families reuse
each S(p) through ``log_power_integral``'s cache and distinct-factor
families cannot, so a change that loses that reuse shows.

A run has six slots: the flagship ``product[(1,1),(1,1)]`` and
``product[(1,r1),(1,r2)]`` with r drawn from [0.5, 1], each at n_max
1000, 2000 and 5000; of the two slots of a size, one writes JSON and the
other CSV.  Every round runs the six slots once, in a fresh seeded order.
A run is a fixed number of rounds, one per ``ROUND_SECONDS`` asked for
and at least ``MIN_ROUNDS``, so every run holds the same mix and the same
number of samples.  The
median and the tail score each request at its slot's median; with 24
requests both (the tail is the p58) fall on n_max 2000 slots, and the
n_max 5000 slots show in throughput only.  A set-up (a ``--help``
start-up and a warm-up request at n_max 200) precedes every round, and
``setup_s`` is the median of them.  Children run one at a time, with the
package on PYTHONPATH=src.  Their times are scaled to reference seconds
by the reference child (``reference.py``) run between them: in-process
probing followed their slow-downs only in part, as interpreter start-up
and file work slow down less than the probe's work (README.md).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import harness
import tracer as tracing

NAME = "cli-pipeline"
SIZES = (1000, 2000, 5000)
FLAGSHIP = "product[(1,1),(1,1)]"
_FORMATS = ("json", "csv")
#: Seconds asked for per round: a round takes 10-15 s on a 2-core host.
ROUND_SECONDS = 10
#: A run makes at least four rounds, four samples of each slot: the fewest
#: that put the tail (at least ten requests beyond it) above the median.
#: So a run takes 35-55 s even when fewer seconds are asked for.
MIN_ROUNDS = 4
_CLI = [sys.executable, "-m", "momentdet.cli"]
_LAUNCHER = [sys.executable, str(Path(__file__).with_name("launcher.py"))]
_REFERENCE = [sys.executable, str(Path(__file__).with_name("reference.py"))]
#: About the reference child's wall time on this host (0.25-0.28 s
#: measured): a run's times are scaled so that its reference runs take
#: this long.
REFERENCE_S = 0.25


@dataclass(frozen=True)
class Request:
    family: str
    factors: tuple[tuple[float, float], ...]
    n_max: int
    fmt: str


def plan(seed: int, seconds: int) -> list[tuple[int, Request]]:
    """The run's requests as (slot, request): every round repeats the same six slots."""
    r = harness.rng(seed, NAME)
    slots = []
    for k, n in enumerate(SIZES):
        # Formats alternate, so each size has one JSON and one CSV slot and
        # the largest child's memory does not depend on the seed.
        flagship_fmt, other_fmt = _FORMATS[k % 2], _FORMATS[(k + 1) % 2]
        slots.append(Request(FLAGSHIP, ((1.0, 1.0), (1.0, 1.0)), n, flagship_fmt))
        r1, r2 = round(r.uniform(0.5, 1.0), 3), round(r.uniform(0.5, 1.0), 3)
        family = f"product[(1,{r1:g}),(1,{r2:g})]"
        slots.append(Request(family, ((1.0, r1), (1.0, r2)), n, other_fmt))
    requests = []
    for _ in range(max(MIN_ROUNDS, round(seconds / ROUND_SECONDS))):
        requests.extend((i, slots[i]) for i in r.sample(range(len(slots)), len(slots)))
    return requests


@dataclass
class Result:
    """What one request left behind: exit codes, stderr tails, check's report."""

    gen_code: int
    check_code: int | None
    stderr: str
    report: str
    walls: tuple[float, ...]  # one per child process
    rss_mb: float  # the larger peak resident memory of the two children


def _child(command: list[str], env: dict[str, str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run a child to its end; returns (its result, wall seconds, its peak
    resident memory in MB).  The memory is the child's own, so the
    reference child does not count in the CLI's."""
    with tempfile.TemporaryFile(dir=harness.WORK) as out, \
            tempfile.TemporaryFile(dir=harness.WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=harness.ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(
            command, proc.returncode, out.read().decode(), err.read().decode()
        )
    return done, wall, usage.ru_maxrss / 1024.0


def serve(req: Request, out: Path, command: list[str], envs) -> tuple[float, Result]:
    """One request: gen writes ``out``, then check reads it; returns (latency, result).

    ``envs`` holds the environments of the gen and the check child.
    """
    gen, gen_wall, gen_rss = _child(
        command + ["gen", "--family", req.family, "--nmax", str(req.n_max),
                   "--format", req.fmt, "--out", str(out)],
        envs[0],
    )
    if gen.returncode != 0:
        result = Result(gen.returncode, None, gen.stderr[-400:], "", (gen_wall,), gen_rss)
        return gen_wall, result
    chk, check_wall, check_rss = _child(
        command + ["check", "--in", str(out), "--criteria", "all"], envs[1]
    )
    result = Result(0, chk.returncode, chk.stderr[-400:], chk.stdout, (gen_wall, check_wall),
                    max(gen_rss, check_rss))
    return gen_wall + check_wall, result


def _setup_once(work: Path, env: dict[str, str]) -> float:
    """A start-up probe, then a small warm-up request; returns the wall time."""
    start = time.perf_counter()
    harness.probe_startup(1)
    _, warm = serve(Request(FLAGSHIP, (), 200, "json"), work / "warm-up.json", _CLI, (env, env))
    if warm.gen_code or warm.check_code:
        raise RuntimeError(f"CLI warm-up failed: {warm.stderr}")
    return time.perf_counter() - start


class ReferenceClock:
    """Scales CLI walls to reference seconds with the reference child.

    The child (``reference.py``) runs before the first request and after
    every request and set-up, and a run's walls are scaled by
    ``REFERENCE_S`` over the median wall time of all its reference runs.
    """

    def __init__(self, env: dict[str, str]) -> None:
        self._env = env
        self._walls = []
        self.step()

    def step(self) -> None:
        """Run the reference child once more."""
        done, wall, _ = _child(_REFERENCE, self._env)
        if done.returncode != 0:
            raise RuntimeError(f"the reference child failed: {done.stderr}")
        self._walls.append(wall)

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self._walls)


def run(seed: int, seconds: int, trace: bool):
    env = harness.child_env()
    requests = plan(seed, seconds)
    with harness.WorkDir(NAME) as work:
        if trace:  # one round: the traced run replays it untraced and traced
            return _run_traced(seed, requests[: 2 * len(SIZES)], work, env)
        outputs, setups, latencies = [], [], []
        clock = ReferenceClock(env)
        for i, (slot, req) in enumerate(requests):
            if i % (2 * len(SIZES)) == 0:  # a set-up before each round
                setups.append(_setup_once(work, env))
                clock.step()
            out = work / f"request-{i}.{req.fmt}"
            latency, result = serve(req, out, _CLI, (env, env))
            clock.step()
            latencies.append(latency)
            outputs.append((out, result))
        rss = max(result.rss_mb for _, result in outputs)
        ledger = harness.Ledger()
        for (slot, _), latency in zip(requests, latencies):
            ledger.record(slot, latency, latency * clock.factor)
        check_all(requests, outputs, ledger)
        setups = [wall * clock.factor for wall in setups]
        return ledger, harness.end_to_end(ledger, setups, rss)


def _run_traced(seed: int, requests: list[tuple[int, Request]], work: Path, env: dict[str, str]):
    startups = harness.probe_startup()
    untraced = []
    for i, (_, req) in enumerate(requests):
        untraced.append(serve(req, work / f"untraced-{i}.{req.fmt}", _CLI, (env, env))[0])

    spans_dir = harness.TRACES / f"{NAME}-seed{seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    ledger = harness.Ledger()
    outputs, summaries, cli_self = [], [], 0.0
    for i, (slot, req) in enumerate(requests):
        spans = (spans_dir / f"request-{i}-gen.json", spans_dir / f"request-{i}-check.json")
        for path in spans:
            path.unlink(missing_ok=True)
        envs = [dict(env, PERFBENCH_SPANS=str(path), PERFBENCH_REQUEST=str(i)) for path in spans]
        out = work / f"request-{i}.{req.fmt}"
        latency, result = serve(req, out, _LAUNCHER, envs)
        ledger.record(slot, latency, latency)
        outputs.append((out, result))
        for path, wall in zip(spans, result.walls):
            if path.exists():  # a child that died before its tracer could dump has no spans
                summary = json.loads(path.read_text())["summary"]
                summaries.append(summary)
                cli_self += wall - summary.get("top_level_s", 0.0)
    check_all(requests, outputs, ledger)

    metrics = tracing.layer_metrics(
        tracing.merge(summaries),
        startups,
        cli_self,
        ledger.max_abs_log_err,
        sum(ledger.latencies) / sum(untraced),
    )
    return ledger, metrics


def _read_logmags(text: str, fmt: str) -> tuple[str, int, list[tuple[int, str]]]:
    """(label, n_max, [(sign, logmag text)]) of a gen output, parsed without momentdet."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["label"], doc["n_max"], [(m["sign"], m["logmag"]) for m in doc["moments"]]
    header = dict(
        line.lstrip("#").strip().split(": ", 1)
        for line in text.splitlines()
        if line.startswith("#")
    )
    rows = [line.split(",") for line in text.splitlines()[len(header) + 1 :]]
    return header["label"], int(header["n_max"]), [(int(s), v) for _, s, v in rows]


def check_one(req: Request, out: Path, result: Result, ledger: harness.Ledger):
    """The reason the request failed, or None."""
    import oracle  # mpmath is loaded only once the timed work is over

    if result.gen_code != 0 or result.check_code != 0:
        codes = f"gen={result.gen_code} check={result.check_code}"
        return f"exit codes {codes}: {result.stderr.strip()}"
    label, n_max, rows = _read_logmags(out.read_text(), req.fmt)
    if (label, n_max, len(rows)) != (req.family, req.n_max, req.n_max + 1):
        return "gen wrote the wrong label, n_max or number of moments"
    render = repr if req.fmt == "json" else (lambda x: f"{x:.17g}")
    if any(sign != 1 or render(float(v)) != v for sign, v in rows):
        return "a stored moment does not round-trip bit-exactly"
    r = harness.rng(req.n_max, req.family)
    for order in (n_max, r.randrange(1, n_max), r.randrange(1, n_max)):
        ref = oracle.log_moment("two-factor", req.factors, order)
        got = float(rows[order][1])
        if ledger.log_gap(got, ref) > oracle.TOL:
            return f"log m_{order} = {got!r} misses the mpmath reference {ref!r}"
    statuses = {v["criterion"]: v["status"] for v in json.loads(result.report)["verdicts"]}
    wrong = oracle.contradictions("two-factor", statuses)
    if wrong:
        return f"verdicts contradict the truth table: {', '.join(wrong)}"
    return None


def check_all(requests, outputs, ledger: harness.Ledger) -> None:
    for i, ((_, req), (out, result)) in enumerate(zip(requests, outputs)):
        reason = check_one(req, out, result, ledger)
        if reason is not None:
            ledger.fail(i, f"{req.family} n_max={req.n_max}: {reason}")
