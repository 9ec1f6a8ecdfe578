"""In-memory span tracing around the public functions of momentdet's layers.

A ``Tracer`` rebinds every name under which a calling module looks up a
layer's public function (``momentdet.moments.log_power_integral``,
``momentdet.quadrature.lambert_w0``, the names ``momentdet.cli`` imports,
the package namespace, ...) to a wrapper that records one span per call:
name, start, end, parent span and request id.  Spans stay in memory until
the run ends.  ``SignedLogValue.from_log`` runs once per stored moment, so
it is counted rather than spanned.

``summary()`` reduces the spans to additive totals, so that summaries of
several processes (the traced CLI children) can be merged with ``merge``
before ``layer_metrics`` derives the per-layer metrics from them.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "momentdet"
#: Public functions wrapped per layer (module name under the package).
LAYERS = {
    "quadrature": (
        "integrate_logweighted",
        "integrate_unit_log_power",
        "gamma_derivative",
        "log_power_integral",
    ),
    "lambertw": ("lambert_w0", "lambert_w_bounds", "w_ratio_power", "w_frac_diff"),
    "asymptotics": (
        "saddle_point",
        "laplace_estimate_exact",
        "laplace_estimate_leading",
        "asymptotic_kn",
        "verify_laplace_conditions",
    ),
    "moments": (
        "generate_from_label",
        "generate_moments",
        "lognormal_moments",
        "parse_family",
        "from_json",
        "from_csv",
        "to_json",
        "to_csv",
        "moment_ratios",
        "carleman_terms",
    ),
    "criteria": (
        "analyze",
        "check_carleman",
        "check_growth_rate",
        "check_hardy",
        "check_q_divergence",
    ),
}

_GENERATION = (
    "moments.generate_from_label",
    "moments.generate_moments",
    "moments.lognormal_moments",
)


def _count_quadrature(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["quadrature.nodes"] += result.nodes_used
    tracer.note_error(result.est_rel_error)


def _count_gamma(tracer: "Tracer", args: tuple, result) -> None:
    tracer.note_error(result.est_rel_error)


def _count_orders(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["moments.orders"] += len(result.log_moments)


def _count_read(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["moments.bytes_read"] += len(args[0].encode())


def _count_written(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["moments.bytes_written"] += len(result.encode())


def _count_verdict(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["criteria.verdicts." + result.status.split("-")[0]] += 1


#: Result hooks: exact work counters taken at the layer boundary.
_HOOKS = {
    "quadrature.integrate_logweighted": _count_quadrature,
    "quadrature.integrate_unit_log_power": _count_quadrature,
    "quadrature.gamma_derivative": _count_gamma,
    "moments.generate_moments": _count_orders,
    "moments.lognormal_moments": _count_orders,
    "moments.from_json": _count_read,
    "moments.from_csv": _count_read,
    "moments.to_json": _count_written,
    "moments.to_csv": _count_written,
    "criteria.check_carleman": _count_verdict,
    "criteria.check_growth_rate": _count_verdict,
    "criteria.check_hardy": _count_verdict,
    "criteria.check_q_divergence": _count_verdict,
}


class Tracer:
    """Records spans for calls into the layers of one imported package."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.worst_est_rel_error = 0.0
        self.request: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def note_error(self, est: float) -> None:
        if est > self.worst_est_rel_error:
            self.worst_est_rel_error = est

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Rebind every module-level name bound to a wrapped function."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, original))

        cls = sys.modules[f"{PACKAGE}.logdomain"].SignedLogValue
        original_from_log = cls.__dict__["from_log"]
        from_log, counts = original_from_log.__func__, self.counts

        def counted_from_log(klass, logmag, sign=1):
            counts["logdomain.values"] += 1
            return from_log(klass, logmag, sign)

        cls.from_log = classmethod(counted_from_log)
        self._undo.append((cls, "from_log", original_from_log))

    def uninstall(self) -> None:
        """Restore every name that ``install`` rebound."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """Additive totals: self time per layer, inclusive time and calls per
        span name, top-level span time, log_power_integral misses, counters."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        total: Counter = Counter(self.counts)
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            total["self." + name.split(".")[0]] += duration - covered[i]
            total["incl." + name] += duration
            total["calls." + name] += 1
            if name in _GENERATION:
                total["self.generation"] += duration - covered[i]
            if parent < 0:
                total["top_level_s"] += duration
            elif (
                name == "quadrature.integrate_logweighted"
                and spans[parent][0] == "quadrature.log_power_integral"
            ):
                total["lpi_misses"] += 1
        out = dict(total)
        out["max.worst_est_rel_error"] = self.worst_est_rel_error
        return out

    def dump(self, path: Path) -> None:
        """Write the summary and every span to ``path`` as one JSON document."""
        path.write_text(json.dumps({"summary": self.summary(), "spans": self.spans}))


def merge(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Sum summaries key by key; ``max.`` keys take the maximum."""
    merged: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            if key.startswith("max."):
                merged[key] = max(merged.get(key, 0.0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_metrics(
    s: dict[str, float],
    startups: list[float],
    cli_self_s: float,
    max_abs_log_err: float,
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit), from a merged summary and
    the figures measured outside the spans: the ``--help`` start-up walls,
    the CLI processes' time outside library spans, the worst oracle gap
    and traced over untraced wall time."""

    def get(key: str) -> float:
        return float(s.get(key, 0.0))

    def incl(*names: str) -> float:
        return sum(get("incl." + n) for n in names)

    def calls(*names: str) -> int:
        return int(sum(get("calls." + n) for n in names))

    s_calls = calls("quadrature.integrate_logweighted")
    unit_calls = calls("quadrature.integrate_unit_log_power")
    lpi_calls = calls("quadrature.log_power_integral")
    nodes = int(get("quadrature.nodes"))
    evals = s_calls + unit_calls
    return {
        "cli.startup_s": (statistics.median(startups), "s"),
        "cli.self_s": (cli_self_s, "s"),
        "quadrature.self_s": (get("self.quadrature"), "s"),
        "quadrature.s_calls": (s_calls, "count"),
        "quadrature.unit_calls": (unit_calls, "count"),
        "quadrature.gamma_calls": (calls("quadrature.gamma_derivative"), "count"),
        "quadrature.nodes": (nodes, "count"),
        "quadrature.nodes_per_eval": (nodes / evals if evals else 0.0, "count"),
        "quadrature.lpi_calls": (lpi_calls, "count"),
        "quadrature.lpi_hit_ratio": (
            1.0 - get("lpi_misses") / lpi_calls if lpi_calls else 0.0,
            "ratio",
        ),
        "quadrature.max_abs_log_err": (max_abs_log_err, "nats"),
        "quadrature.worst_est_rel_error": (get("max.worst_est_rel_error"), "ratio"),
        "lambertw.calls": (calls(*("lambertw." + n for n in LAYERS["lambertw"])), "count"),
        "lambertw.self_s": (get("self.lambertw"), "s"),
        "asymptotics.calls": (
            calls(*("asymptotics." + n for n in LAYERS["asymptotics"])),
            "count",
        ),
        "asymptotics.self_s": (get("self.asymptotics"), "s"),
        "moments.generate_self_s": (get("self.generation"), "s"),
        "moments.orders": (int(get("moments.orders")), "count"),
        "moments.parse_s": (incl("moments.from_json", "moments.from_csv"), "s"),
        "moments.serialise_s": (incl("moments.to_json", "moments.to_csv"), "s"),
        "moments.bytes_read": (int(get("moments.bytes_read")), "bytes"),
        "moments.bytes_written": (int(get("moments.bytes_written")), "bytes"),
        "criteria.analyze_s": (incl("criteria.analyze"), "s"),
        "criteria.carleman_s": (incl("criteria.check_carleman"), "s"),
        "criteria.growth_s": (incl("criteria.check_growth_rate"), "s"),
        "criteria.hardy_s": (incl("criteria.check_hardy"), "s"),
        "criteria.verdicts.satisfied": (int(get("criteria.verdicts.satisfied")), "count"),
        "criteria.verdicts.violated": (int(get("criteria.verdicts.violated")), "count"),
        "criteria.verdicts.inconclusive": (int(get("criteria.verdicts.inconclusive")), "count"),
        "logdomain.values": (int(get("logdomain.values")), "count"),
        "tracing.overhead_ratio": (overhead_ratio, "ratio"),
    }
