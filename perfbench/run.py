"""momentdet benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 10 --trace 0

Workloads: ``cli-pipeline``, ``corpus-check`` and ``point-eval`` (see their
modules and README.md).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it replays a fixed request list untraced and
then traced, and reports the per-layer metrics.  Every run checks the
results against mpmath references and the known truth table.  Earlier
stdout lines give the provenance and each metric by name and unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {
    "cli-pipeline": "cli_pipeline",
    "corpus-check": "corpus_check",
    "point-eval": "point_eval",
}


def _runner(workload: str):
    module = importlib.import_module(WORKLOADS[workload])
    if hasattr(module, "run"):
        return module.run
    import inprocess

    return functools.partial(inprocess.run, module)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momentdet" / "__init__.py").is_file():
        print(f"perfbench: no momentdet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    ledger, metrics = _runner(args.workload)(args.seed, args.seconds, bool(args.trace))
    stamp = harness.provenance(args.seed, args.workload, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if not args.trace:
        # The wall-clock figures, which follow the host's load, beside the
        # reference-second metrics.
        _, raw_tail, percentile = harness.timing_stats(ledger.latencies)
        raw_throughput = ledger.attempted / sum(ledger.latencies)
        print(
            f"times are in reference seconds (wall time over the host-speed factor); "
            f"latency_tail_s is the p{percentile:.6g} over {ledger.attempted} requests; "
            f"setup_s is the median of the run's set-ups"
        )
        print(
            f"in wall-clock seconds: throughput {raw_throughput!r} 1/s, "
            f"p{percentile:.6g} latency {raw_tail!r} s"
        )
    failed = len(ledger.failures)
    known = collections.Counter(ledger.known.values())
    print(
        f"fail_ratio = {failed / ledger.attempted!r} ({failed} of {ledger.attempted} requests; "
        f"known defects: {dict(known) or 'none'})"
    )
    for i, reason in sorted(ledger.failures.items()):
        if i not in ledger.known:
            print(f"unexpected failure, request {i}: {reason}")
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
