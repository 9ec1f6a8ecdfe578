"""Closed-loop runner for the workloads that call momentdet in-process.

A workload module provides:

* ``setup(md, seed, timed)``: build the inputs through the package and
  warm up, making every package call through ``timed(fn, *args)``;
  returns the workload state.  An untraced run makes ``SETUP_REPEATS``
  set-ups, each on a fresh import, and ``setup_s`` is the median of their
  times (the import and the timed calls, in reference seconds).  Set-ups
  must be deterministic: any one of them can serve any request.
* ``schedule(state, seed)``: an endless iterator of ``(key, args)``
  requests; ``key`` names the input, so equal keys must give equal results.
* ``request(md, state, args)``: one timed request.
* ``check(state, key, outcome, ledger)``: judge the first outcome of a key
  against the oracle; returns ``None`` or ``(reason, known defect or None)``.
* ``TRACE_REQUESTS``: the fixed length of the traced request list.
* ``PASS`` and ``REQUESTS_PER_SECOND``: an untraced run makes a whole
  number of passes of ``PASS`` requests, about ``REQUESTS_PER_SECOND``
  for each second asked for, so that a seed always gives the same
  requests, failures included, however fast the host runs.

One client sends the next request when the last one has finished, and
starts no threads.  Latencies are timed with ``harness.Clock``.  Results
are compared with the oracle only after the timed requests: among them, a
result is only compared for equality with the first result of the same
input.
"""

from __future__ import annotations

import itertools

import harness
import tracer as tracing


def _outcome(md, workload, state, args, clock: harness.Clock):
    """Run one request; return (latency, scaled latency, outcome) with the
    outcome in a comparable form (reprs, so that NaN equals NaN)."""
    start = clock.start()
    try:
        result = workload.request(md, state, args)
    except Exception as exc:  # every exception is a result to record
        return (*clock.stop(start), ("raised", type(exc).__name__, str(exc)))
    return (*clock.stop(start), ("ok", repr(result), result))


def _serve(md, workload, state, requests, ledger: harness.Ledger, first: dict,
           clock: harness.Clock, tracer=None):
    """Send the requests one after another, numbering them on from the
    ledger's count; ``first`` maps each input to its first outcome."""
    for key, args in requests:
        i = ledger.attempted
        if tracer is not None:
            tracer.request = i
        latency, scaled, outcome = _outcome(md, workload, state, args, clock)
        ledger.record(key, latency, scaled)
        if key not in first:
            first[key] = outcome
        elif outcome[:2] != first[key][:2]:
            ledger.fail(i, f"{key}: result differs from the first request with the same input")


def _judge(workload, state, first: dict, ledger: harness.Ledger) -> None:
    for key, outcome in first.items():
        verdict = workload.check(state, key, outcome, ledger)
        if verdict is not None:
            reason, known = verdict
            for i in ledger.requests_of(key):
                ledger.fail(i, f"{key}: {reason}", known)


def _setup(workload, seed: int, clock: harness.Clock):
    """A fresh import and one set-up; returns (module, state, reference seconds)."""
    total = 0.0

    def timed(fn, *args):
        nonlocal total
        result, seconds = clock.call(fn, *args)
        total += seconds
        return result

    md = timed(harness.fresh_import)
    state = workload.setup(md, seed, timed)
    return md, state, total


def run(workload, seed: int, seconds: int, trace: bool):
    """Run a workload; returns (ledger, metrics as {name: (value, unit)}).

    The run makes ``SETUP_REPEATS`` set-ups, each followed by an equal
    share of the requests, so that the host's slow phases hit the set-ups
    no more than the requests.  Requests continue one schedule across the
    shares, each served by the latest set-up (all set-ups are identical).
    """
    if trace:
        return _run_traced(workload, seed)
    clock = harness.Clock()
    share = workload.PASS * max(
        1, round(seconds * workload.REQUESTS_PER_SECOND / workload.PASS / workload.SETUP_REPEATS)
    )
    setups, first, schedule = [], {}, None
    ledger = harness.Ledger()
    for _ in range(workload.SETUP_REPEATS):
        md, state, setup_s = _setup(workload, seed, clock)
        setups.append(setup_s)
        if schedule is None:
            schedule = workload.schedule(state, seed)
        requests = itertools.islice(schedule, share)
        _serve(md, workload, state, requests, ledger, first, clock)
    rss = harness.peak_rss_mb()
    _judge(workload, state, first, ledger)
    return ledger, harness.end_to_end(ledger, setups, rss)


def _run_traced(workload, seed: int):
    tracer, clock = tracing.Tracer(), harness.Clock()
    md = harness.fresh_import()
    tracer.install()
    state = workload.setup(md, seed, lambda fn, *args: fn(*args))
    tracer.uninstall()
    requests = list(itertools.islice(workload.schedule(state, seed), workload.TRACE_REQUESTS))

    # Untraced passes before and after the traced one, so that neither
    # side of the overhead ratio gets all of the warming up.
    untraced = harness.Ledger()
    _serve(md, workload, state, requests, untraced, {}, clock)
    ledger, first = harness.Ledger(), {}
    tracer.install()
    try:
        _serve(md, workload, state, requests, ledger, first, clock, tracer)
    finally:
        tracer.uninstall()
    _serve(md, workload, state, requests, untraced, {}, clock)
    _judge(workload, state, first, ledger)

    # No CLI process runs in this workload, so the CLI layer's self time is 0.
    metrics = tracing.layer_metrics(
        tracer.summary(),
        harness.probe_startup(),
        0.0,
        ledger.max_abs_log_err,
        2 * sum(ledger.scaled) / sum(untraced.scaled),
    )
    harness.TRACES.mkdir(exist_ok=True)
    tracer.dump(harness.TRACES / f"{workload.NAME}-seed{seed}.json")
    return ledger, metrics
