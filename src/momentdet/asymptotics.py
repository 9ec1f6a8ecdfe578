"""Saddle-point machinery for Q(x, t) = t·ln ln(1+x) − x.

The log-power integral S(t) = ∫₀^∞ ln(1+x)^t e^{−x} dx concentrates around
the stationary point of Q, which solves (1+x)ln(1+x) = t, i.e.
x_t = e^{W(t)} − 1.  Substituting gives the closed forms

    Q(x_t, t)   = t·ln W(t) − e^{W(t)} + 1
    Q″ₓₓ(x_t,t) = −(1 + W(t)) / t

and the Laplace estimates

    exact:   √(2πt / (W+1)) · e^{Q(x_t,t)}
    leading: √(2πt / W)     · e^{Q(x_t,t)}  =  e·√(2πt)·W^{t−1/2}·e^{−t/W}

which differ only in whether the curvature denominator keeps the +1.
Both are returned in the log domain; Q(x_t, t) reaches the thousands for
large t.  ``e^{W(t)}`` is evaluated as ``t / W(t)`` so the two estimates
share every large term bitwise and their ratio identity √((W+1)/W) holds
to round-off even when the log-magnitudes are huge.

``verify_laplace_conditions`` probes the three hypotheses of the
saddle-point lemma numerically:

1. the curvature ratio Q″(x,t)/Q″(x_t,t) stays near 1 uniformly on the
   window |x − x_t| ≤ μ(t)·√(t/(1+W)) with μ(t) = e^{W(t)/4}
   (reported as a sup deviation — evidence, not proof);
2. Q(·,t) is concave on (0, 4x_t] (curvature negative on a log grid);
3. x_t·√|Q″(x_t,t)| = x_t·√((1+W)/t) grows without bound
   (reported as its value at this t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _float_arg
from .lambertw import _require_positive_t, lambert_w0
from .logdomain import SignedLogValue

__all__ = [
    "ConditionCheck",
    "SaddleReport",
    "asymptotic_kn",
    "laplace_estimate_exact",
    "laplace_estimate_leading",
    "saddle_point",
    "verify_laplace_conditions",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SaddleReport:
    """Saddle location and local shape of Q(·, t).

    ``residual`` is the defect of the defining identity,
    ``t − (1+x_t)·ln(1+x_t)``; it is the accuracy actually delivered at
    the saddle, regardless of how W was computed.
    """

    t: float
    x_t: float
    q_peak: float
    q_curv: float
    mu: float
    residual: float


@dataclass(frozen=True)
class ConditionCheck:
    """Numeric evidence for the three saddle-point hypotheses at one t.

    ``grid_clipped`` records whether the curvature window had to be
    truncated at the left domain boundary x > 0.
    """

    cond2_ok: bool
    cond3_value: float
    cond1_sup_dev: float
    grid_clipped: bool = False


def _saddle(t: float) -> tuple[float, float]:
    """(W(t), Q(x_t, t)) at the saddle x_t = e^{W(t)} − 1.

    e^{W} is taken as t/w: exact in the w·e^w = t sense, and shared
    bitwise by ``saddle_point`` and both Laplace estimates.
    """
    w = lambert_w0(t).w
    return w, t * math.log(w) - t / w + 1.0


def saddle_point(t: float) -> SaddleReport:
    """Locate the maximum of Q(·, t) and report its local expansion."""
    t = _require_positive_t(t, "saddle_point")
    w, q_peak = _saddle(t)
    x_t = math.expm1(w)
    q_curv = -(1.0 + w) / t
    mu = math.exp(w / 4.0)
    residual = t - (1.0 + x_t) * math.log1p(x_t)
    return SaddleReport(t=t, x_t=x_t, q_peak=q_peak, q_curv=q_curv, mu=mu, residual=residual)


def _laplace(name: str, t: float, log_denominator) -> SignedLogValue:
    """√(2πt / D) · e^{Q(x_t,t)} with log D = log_denominator(W(t)), for
    the public function ``name``.

    From t ≈ 3e307 on, Q(x_t, t) overflows a float; that raises DomainError.
    """
    t = _require_positive_t(t, name)
    w, q_peak = _saddle(t)
    log = 0.5 * (_LOG_2PI + math.log(t)) - 0.5 * log_denominator(w) + q_peak
    if not math.isfinite(log):
        raise DomainError(f"{name} at t = {t!r}: the log of the estimate overflows a float")
    return SignedLogValue.from_log(log)


def laplace_estimate_exact(t: float) -> SignedLogValue:
    """Saddle estimate of S(t) with the exact curvature denominator W+1."""
    return _laplace("laplace_estimate_exact", t, math.log1p)


def laplace_estimate_leading(t: float) -> SignedLogValue:
    """Leading-order saddle estimate of S(t): e·√(2πt)·W^{t−1/2}·e^{−t/W}."""
    return _laplace("laplace_estimate_leading", t, math.log)


def asymptotic_kn(n: int, r: float = 1.0) -> SignedLogValue:
    """Leading-order estimate of K_n(r) = S(n·r); exactly 1 when r = 0."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"asymptotic_kn requires an integer n >= 1, got {n!r}")
    r = _float_arg(r, "asymptotic_kn", "r")
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"asymptotic_kn requires r in [0, 1], got {r!r}")
    if r == 0.0:
        return SignedLogValue.one()
    return _laplace("asymptotic_kn", _float_arg(n, "asymptotic_kn", "n") * r, math.log)


def _q_curvature(x: np.ndarray, t: float) -> np.ndarray:
    """Q″ₓₓ(x, t) = −t·(1 + ln(1+x)) / ((1+x)·ln(1+x))² for x > 0.

    t is divided by (1+x)·ln(1+x) before the second factor is applied, so
    nothing overflows where that product passes the float range (t ≳ 1e155).
    """
    l1p = np.log1p(x)
    ratio = t / (1.0 + x) / l1p
    return -ratio * (1.0 + l1p) / l1p / (1.0 + x)


def verify_laplace_conditions(t: float, grid_size: int = 41) -> ConditionCheck:
    """Probe the saddle-point hypotheses on finite grids at one t.

    Requires t > e (so the curvature window sits comfortably inside the
    positive axis) and grid_size >= 11.
    """
    t = _float_arg(t, "verify_laplace_conditions", "t")
    if not (math.isfinite(t) and t > math.e):
        raise DomainError(f"verify_laplace_conditions requires t > e, got {t!r}")
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 11:
        raise DomainError(f"grid_size must be an integer >= 11, got {grid_size!r}")

    report = saddle_point(t)
    w = math.log1p(report.x_t)  # = W(t), recovered from the saddle
    curv_peak = report.q_curv

    # Condition 2: concavity of Q(·, t) on (0, 4·x_t], log-spaced grid.
    grid2 = np.geomspace(report.x_t * 1e-6, 4.0 * report.x_t, grid_size)
    cond2_ok = bool(np.all(_q_curvature(grid2, t) < 0.0))

    # Condition 3: x_t·√|Q″(x_t,t)| — must diverge as t grows.
    cond3_value = report.x_t * math.sqrt((1.0 + w) / t)

    # Condition 1: curvature uniformity on |x − x_t| ≤ μ(t)·√(t/(1+W)).
    half_width = report.mu * math.sqrt(t / (1.0 + w))
    lo = report.x_t - half_width
    hi = report.x_t + half_width
    grid_clipped = lo <= 0.0
    if grid_clipped:
        lo = report.x_t * 1e-9
    grid1 = np.linspace(lo, hi, grid_size)
    dev = np.abs(_q_curvature(grid1, t) / curv_peak - 1.0)
    cond1_sup_dev = float(np.max(dev))

    return ConditionCheck(
        cond2_ok=cond2_ok,
        cond3_value=cond3_value,
        cond1_sup_dev=cond1_sup_dev,
        grid_clipped=grid_clipped,
    )
