"""Shared pieces of the workloads: paths, fresh imports, seeded sampling,
the host-speed clock, latency statistics, request bookkeeping and the
provenance stamp."""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Working files of one run (CLI outputs, span files); removed when it ends.
WORK = ROOT / ".perfbench_work"
#: Span dumps of traced runs, kept for inspection.
TRACES = ROOT / ".perfbench_out"

#: The tolerance every call runs at: the package default (no call passes rel_tol).
REL_TOL = 1e-9


def child_env() -> dict[str, str]:
    """Environment of CLI children: the package comes from ``src`` via
    PYTHONPATH, uninstalled, as the tier-1 tests load it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MOMENTDET_REL_TOL", None)
    env.pop("MOMENTDET_NMAX_CAP", None)
    return env


def fresh_import():
    """Import momentdet afresh, so module state (the S(p) cache) is new.

    numpy and click stay loaded, so every repeat of a set-up pays the same.
    """
    for name in [n for n in sys.modules if n == "momentdet" or n.startswith("momentdet.")]:
        del sys.modules[name]
    return importlib.import_module("momentdet")


def rng(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{seed}:{purpose}")


def stratified(
    r: random.Random, lo: float, hi: float, k: int, log: bool = True, width: float = 0.5
) -> list[float]:
    """k draws, one from the central ``width`` of each of k equal strata of
    [lo, hi] (equal in log scale when ``log``), in stratum order.

    One draw per stratum keeps the size mix, and so the cost of a pass,
    nearly the same from seed to seed.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(k):
        x = a + (b - a) * (i + 0.5 + r.uniform(-width, width) / 2) / k
        out.append(math.exp(x) if log else x)
    return out


#: The probe's best time on an unloaded core of the reference host (2-core
#: x86-64 VM, Python 3.11.7, numpy 2.4.6): one reference second is the
#: work that takes one second there.
PROBE_S = 1.9e-4
_PROBE_X = numpy.linspace(1.0, 50.0, 4000)
_PROBE_DOC = json.dumps({"m": [{"n": i, "v": repr(math.log(i + 2.5))} for i in range(150)]})


def probe() -> float:
    """A fixed piece of the benchmark's own work in the package's mix:
    numpy vector arithmetic, a Python loop over parsed JSON, JSON text out."""
    y = numpy.cumsum(numpy.log(_PROBE_X) ** 2)
    doc = json.loads(_PROBE_DOC)
    total = 0.0
    for row in doc["m"]:
        total += float(row["v"]) * row["n"]
    return float(y[-1]) + total + len(json.dumps(doc))


class Clock:
    """Times work in reference seconds: the wall time divided by the host's
    speed factor at that moment, the probe's best of a few repeats over
    ``PROBE_S``.

    The cores of this shared host slow down by up to 1.8 times, in phases
    from a fraction of a second to minutes long, and process CPU time
    slows down with the wall time (README.md), so raw latencies follow the
    neighbours' load.  The probe is timed next to the work it scales:
    before a request when ``REPROBE_S`` has passed since the last probe.
    """

    REPROBE_S = 0.02

    def __init__(self) -> None:
        self._factor = 1.0
        self._probed = -math.inf

    @staticmethod
    def factor() -> float:
        """The host's current slow-down: the probe's best of three over ``PROBE_S``."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            probe()
            best = min(best, time.perf_counter() - start)
        return best / PROBE_S

    def start(self) -> float:
        """Probe when the last probe is stale; return the start time."""
        if time.perf_counter() - self._probed > self.REPROBE_S:
            self._factor = self.factor()
            self._probed = time.perf_counter()
        return time.perf_counter()

    def stop(self, start: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) since ``start``."""
        wall = time.perf_counter() - start
        return wall, wall / self._factor

    def call(self, fn, *args):
        """``fn(*args)`` and its time in reference seconds."""
        start = self.start()
        result = fn(*args)
        return result, self.stop(start)[1]


def timing_stats(latencies: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the latency at the
    highest percentile that has at least ten samples beyond it, or the
    maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), ordered[-1], 100.0
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gap(got: float, ref: float) -> float:
    """|got − ref| relative to max(1, |ref|): the scale of the oracle checks."""
    return abs(got - ref) / max(1.0, abs(ref))


@dataclass
class Ledger:
    """Per-request outcomes of one run.

    A request fails when it raises, exits non-zero or returns a result that
    a check rejects.  A failure is *known* when it is one of the recorded
    defects of the parent commit (README.md); any other failure makes the
    run's outputs incorrect.  Requests are kept in flat arrays, so the
    bookkeeping adds only 24 bytes a request to the peak memory.
    """

    inputs: dict[object, int] = field(default_factory=dict)
    input_ids: array = field(default_factory=lambda: array("q"))
    latencies: array = field(default_factory=lambda: array("d"))  # wall seconds
    scaled: array = field(default_factory=lambda: array("d"))  # reference seconds
    failures: dict[int, str] = field(default_factory=dict)
    known: dict[int, str] = field(default_factory=dict)
    max_abs_log_err: float = 0.0

    def record(self, key: object, latency: float, scaled: float) -> None:
        """Log one request's input and its measured and scaled latency."""
        self.input_ids.append(self.inputs.setdefault(key, len(self.inputs)))
        self.latencies.append(latency)
        self.scaled.append(scaled)

    def requests_of(self, key: object) -> list[int]:
        """The ids of the requests made with input ``key``."""
        target = self.inputs[key]
        return [i for i, input_id in enumerate(self.input_ids) if input_id == target]

    def typical_latencies(self) -> list[float]:
        """Each request's scaled latency taken as the median over the run's
        requests with the same input: what the input costs, without the
        one-off stalls the host puts into a few of its repeats."""
        groups: list[list[float]] = [[] for _ in self.inputs]
        for input_id, scaled in zip(self.input_ids, self.scaled):
            groups[input_id].append(scaled)
        medians = [statistics.median(group) for group in groups]
        return [medians[input_id] for input_id in self.input_ids]

    def fail(self, request: int, reason: str, known: str | None = None) -> None:
        if request in self.failures:
            return
        self.failures[request] = reason
        if known is not None:
            self.known[request] = known

    def log_gap(self, got: float, ref: float) -> float:
        """Record the gap of a quadrature-derived log value; return its scaled size."""
        self.max_abs_log_err = max(self.max_abs_log_err, abs(got - ref))
        return gap(got, ref)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> bool:
        return all(r in self.known for r in self.failures)


def end_to_end(ledger: Ledger, setups: list[float], rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics.  Times are in reference seconds (``Clock``).
    Throughput counts every request's own latency; the median and the tail
    score each request at its input's median (``typical_latencies``), as
    the host's one-off stalls decide the top few of tens of thousands of
    requests.  ``setup_s`` is the median of the run's set-ups."""
    p50, tail, _ = timing_stats(ledger.typical_latencies())
    return {
        "throughput_rps": (ledger.attempted / sum(ledger.scaled), "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "success_ratio": (1.0 - len(ledger.failures) / ledger.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def provenance(seed: int, workload: str, seconds: int, trace: bool) -> dict[str, object]:
    from importlib.metadata import version

    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = done.stdout.strip() or sha
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rel_tol": REL_TOL,
        "momentdet": importlib.import_module("momentdet").__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": version("click"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


class WorkDir:
    """The run's working directory, emptied on entry and removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = WORK / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def probe_startup(count: int = 3) -> list[float]:
    """Wall times of ``momentdet --help``: a CLI process that does nothing."""
    walls = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "momentdet.cli", "--help"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            check=True,
        )
        walls.append(time.perf_counter() - start)
    return walls

