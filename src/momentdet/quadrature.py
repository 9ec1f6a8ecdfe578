"""Log-domain tanh-sinh quadrature for the package's integral family.

Two integrals are evaluated, both entirely in the log domain because
their values span hundreds of orders of magnitude:

* ``S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx`` for real p ≥ 0
  (``integrate_logweighted``, and ``log_power_integral`` for whole arrays
  of p); S(100) is already ~4.5·10⁴¹ and p up to a few thousand must work.
* ``∫₀¹ (ln t)^n · e^{−t} dt`` for integer n ≥ 0
  (``integrate_unit_log_power``), rewritten via t = e^{−u} as
  ``(−1)^n ∫₀^∞ u^n · e^{−u − e^{−u}} du`` so the integrand is positive
  and the sign is exact.

Combining the two yields the derivatives of the gamma function at 1::

    Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n)

Method.  Each log-integrand is concave with a single peak (at
expm1(W(p)) for S, found by Newton on the stationarity equation for the
unit integral).  The axis is split into [0, peak] and [peak, cutoff]
panels, the cutoff lying where the log-integrand has dropped 60 nats
below the peak (contributions below e^{−60} of the peak mass are
invisible at the supported tolerances).  Concavity makes the cutoff
cheap: the tangent at any point right of the peak meets the target
level at or beyond the point where the integrand itself does, so a few
tangent (Newton) steps, aimed slightly past the drop so that rounding
cannot land short, never cut into the kept mass.

One tanh-sinh (double exponential) driver integrates all panels of all
requested integrals together, one row per panel, in blocks of at most
_BLOCK nodes.  Nodes and weights depend only on the refinement level,
so they are tabulated once per level.  The levels are nested: level L+1
halves the step, evaluates only its new odd nodes and adds them to half
of level L's sum.  A row stops when two successive levels agree to half
the requested relative tolerance (each panel's share), or to the float
rounding of its log-integrand where that is coarser; that last change is
its error estimate, and a row unconverged at the last level raises
QuadratureError.  Sums are taken relative to e^{peak log}, so no node
value over- or underflows and only log-magnitudes are returned.

Error estimates are floored at eps·max(1, |log value|), the resolution
of a log-magnitude held in a float, so levels that agree bit for bit do
not claim an error of zero.  Where that rounding of the log-integrand
near its peak reaches the 60-nat window itself (p ≳ 1e17 for S), no
cutoff can be placed and DomainError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError
from .logdomain import SignedLogValue, sum_signed

__all__ = [
    "DEFAULT_REL_TOL",
    "QuadratureResult",
    "gamma_derivative",
    "integrate_logweighted",
    "integrate_unit_log_power",
    "log_power_integral",
    "validate_rel_tol",
]

#: Default relative tolerance for all integrators.
DEFAULT_REL_TOL = 1e-9

#: Truncate the axis where the log-integrand is this far below its peak.
_CUTOFF_DROP = 60.0
#: The cutoff aims this much further down, relative to 1 + |peak log|,
#: so that rounding in the tangent steps cannot leave it short of the drop.
_CUTOFF_SLACK = 1e-12
#: Tangent steps taken towards the cutoff.
_CUTOFF_STEPS = 3

#: The axis is split at the peak, but never closer to 0 than this: a
#: [0, peak] panel on the subnormal float lattice breaks down (nodes
#: collapse, widths underflow), while one this narrow holds only ~1e-280
#: of the mass.
_PEAK_SPLIT_FLOOR = 1e-280

#: tanh-sinh parameter range: nodes at t = k·h for |t| ≤ _TMAX.
_TMAX = 4.0
_MIN_LEVEL = 3
_MAX_LEVEL = 12

#: Most nodes (rows × nodes of one level) evaluated in one array pass.
_BLOCK = 8192

_EPS = float(np.finfo(float).eps)
_LOG_HALF_PI = math.log(math.pi / 2.0)
_LN2 = math.log(2.0)

#: logf(x, p) or its x-derivative, on arrays broadcast against each other.
_LogIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureResult:
    """An integral value with its error estimate and node count."""

    value: SignedLogValue
    est_rel_error: float
    nodes_used: int

    def __post_init__(self) -> None:
        if math.isnan(self.est_rel_error) or self.est_rel_error < 0.0:
            raise ValueError(f"est_rel_error must be >= 0, got {self.est_rel_error!r}")
        if self.nodes_used <= 0:
            raise ValueError(f"nodes_used must be positive, got {self.nodes_used!r}")


def validate_rel_tol(rel_tol: float) -> float:
    """Check rel_tol against the supported open range (1e-14, 1e-2)."""
    rel_tol = float(rel_tol)
    if not (1e-14 < rel_tol < 1e-2):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-2), got {rel_tol!r}")
    return rel_tol


def _floor_error(est, logmag):
    """An error estimate no smaller than the float resolution of ``logmag``."""
    return np.maximum(est, _EPS * np.maximum(1.0, np.abs(logmag)))


# -- the tanh-sinh driver -----------------------------------------------------


@cache
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets on (0, 2) and log weights of the nodes new at ``level``.

    The first level holds every k·h with |k·h| ≤ _TMAX, h = 2^{−level};
    each later level holds only the odd k, since its even k are the nodes
    of the levels before.  A node sits at a + half·v on a panel [a, b] of
    half-width ``half``, with v = 1 + tanh((π/2)·sinh t) computed without
    cancellation, so nodes near a keep their full relative precision.
    Nodes where v rounds to 2 are left out: they land on b, and their
    weight is negligible.  The arrays are read-only: threads share them.
    """
    h = 2.0 ** (-level)
    m = int(_TMAX / h)
    k = np.arange(-m, m + 1) if level == _MIN_LEVEL else np.arange(1 - m, m, 2)
    t = k * h
    trans = np.pi / 2.0 * np.sinh(t)
    v = 2.0 / (1.0 + np.exp(-2.0 * trans))
    # log of the rule weight h·(π/2)·cosh(t) / cosh²((π/2)·sinh t) on (−1, 1)
    logw = math.log(h) + _LOG_HALF_PI + np.log(np.cosh(t)) - 2.0 * np.log(np.cosh(trans))
    kept = v < 2.0
    v, logw = v[kept], logw[kept]
    v.flags.writeable = False
    logw.flags.writeable = False
    return v, logw


def _level_sums(
    logf: _LogIntegrand,
    level: int,
    a: np.ndarray,
    b: np.ndarray,
    p: np.ndarray,
    shift: np.ndarray,
) -> np.ndarray:
    """Σ w·exp(logf(x) − shift) over the nodes new at ``level``, per row,
    with the weights w of the rule on (−1, 1)."""
    v, logw = _level_nodes(level)
    half = (b - a) / 2.0
    out = np.empty(a.size)
    step = max(1, _BLOCK // v.size)
    for s in range(0, a.size, step):
        rows = slice(s, s + step)
        x = a[rows, None] + half[rows, None] * v
        out[rows] = np.exp(logf(x, p[rows, None]) - shift[rows, None] + logw).sum(axis=1)
    return out


def _tanh_sinh(
    logf: _LogIntegrand,
    a: np.ndarray,
    b: np.ndarray,
    p: np.ndarray,
    shift: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nested tanh-sinh rule for ∫_{a_i}^{b_i} exp(logf(x, p_i)) dx, one row per panel.

    ``shift`` is the peak of logf on each panel, so that no exp(logf −
    shift) at a node overflows and the sums do not vanish.  Returns
    (integral·e^{−shift}, estimated relative error, nodes used) per row;
    a row that stops at level L has used the 8·2^L + 1 nodes of that
    level.  A row stops once two successive levels agree to ``tol``;
    QuadratureError (with the partial estimate) is raised for the first
    row still unconverged at _MAX_LEVEL.
    """
    # Levels cannot agree more closely than the float rounding of the
    # log-integrand near its peak, so a row's tolerance is at least that.
    row_tol = np.maximum(tol, _EPS * np.abs(shift))
    total = _level_sums(logf, _MIN_LEVEL, a, b, p, shift)
    err = np.zeros(a.size)
    nodes = np.zeros(a.size, dtype=int)
    active = np.arange(a.size)
    for level in range(_MIN_LEVEL + 1, _MAX_LEVEL + 1):
        prev = total[active]
        cur = prev / 2.0 + _level_sums(logf, level, a[active], b[active], p[active], shift[active])
        change = np.abs(prev - cur) / cur
        total[active] = cur
        err[active] = change
        nodes[active] = 8 * 2**level + 1
        active = active[~(change <= row_tol[active])]
        if not active.size:
            return total * ((b - a) / 2.0), err, nodes
    i = active[0]
    raise QuadratureError(
        f"panel [{a[i]:.6g}, {b[i]:.6g}] did not converge to rel_tol={row_tol[i]:.1e} "
        f"within {_MAX_LEVEL} refinement levels",
        partial=SignedLogValue.from_log(
            float(np.log(total[i] * (b[i] - a[i]) / 2.0) + shift[i])
        ),
    )


def _cutoff(
    logf: _LogIntegrand,
    slope: _LogIntegrand,
    p: np.ndarray,
    peak: np.ndarray,
    peak_log: np.ndarray,
    reach: np.ndarray,
) -> np.ndarray:
    """Rightmost abscissa kept: at or past where logf has dropped _CUTOFF_DROP below peak.

    Starts from peak + reach (any point right of the peak) and takes
    tangent steps towards the aim.  logf is concave, so each tangent lies
    above logf: the first step lands at or past the aim and every later
    step approaches it from the right without crossing it.
    """
    aim = peak_log - _CUTOFF_DROP - _CUTOFF_SLACK * (1.0 + np.abs(peak_log))
    x = peak + reach
    for _ in range(_CUTOFF_STEPS):
        x = x + (aim - logf(x, p)) / slope(x, p)
    return x


def _integrate(
    logf: _LogIntegrand,
    slope: _LogIntegrand,
    p: np.ndarray,
    peak: np.ndarray,
    peak_log: np.ndarray,
    reach: np.ndarray,
    rel_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log ∫₀^∞ exp(logf(x, p_i)) dx for each p_i, with floored error estimates
    and node counts; ``peak + reach`` must lie right of each peak.

    Raises DomainError where the float rounding of the log-integrand near
    its peak, eps·|peak log|, reaches the cutoff drop: the kept window then
    collapses at float resolution and no cutoff can be placed.
    """
    collapsed = np.flatnonzero(~(_EPS * np.abs(peak_log) < _CUTOFF_DROP))
    if collapsed.size:
        i = collapsed[0]
        raise DomainError(
            f"the integrand for p = {p[i]:.17g} peaks at log {peak_log[i]:.6g}, whose "
            f"float rounding exceeds the {_CUTOFF_DROP:g}-nat cutoff window"
        )
    cut = _cutoff(logf, slope, p, peak, peak_log, reach)
    split = np.maximum(peak, _PEAK_SPLIT_FLOOR)
    n = p.size
    scaled, errs, nodes = _tanh_sinh(
        logf,
        np.concatenate([np.zeros(n), split]),
        np.concatenate([split, cut]),
        np.tile(p, 2),
        np.tile(peak_log, 2),
        rel_tol / 2.0,
    )
    value = scaled[:n] + scaled[n:]
    abs_err = errs[:n] * scaled[:n] + errs[n:] * scaled[n:]
    total = np.log(value) + peak_log
    return total, _floor_error(abs_err / value, total), nodes[:n] + nodes[n:]


# -- S(p) -----------------------------------------------------------------------


def _s_logf(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * np.log(np.log1p(x)) - x


def _s_slope(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p / ((1.0 + x) * np.log1p(x)) - 1.0


def _lambert_w(p: np.ndarray) -> np.ndarray:
    """W(p) for an array of p ≥ 0.

    Newton on e^z + z = ln p for z = ln W.  That function is convex and
    increasing, and the start ln ln(1+p) lies at or right of the root
    (W(p) ≤ ln(1+p)), so the iterates fall monotonically onto it; four
    steps bring z within 1e-12 of it for every p, far closer than a
    panel split needs.  (``lambertw.lambert_w0`` solves the same equation
    for one scalar, by Halley steps from w = ln(1+p) until they stop
    moving, to full precision.)
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(p)
        z = np.log(np.log1p(p))
        for _ in range(4):
            ez = np.exp(z)
            z = z - (ez + z - log_p) / (ez + 1.0)
        return np.where(p > 0.0, np.exp(z), 0.0)


def _s_shape(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak abscissa, peak log and cutoff reach of S's integrand, per p ≥ 0.

    The reach is 1 plus the distance at which the curvature −(1+W)/p at
    the peak alone would bring the drop, which puts the first tangent
    point just left of the cutoff.
    """
    w = _lambert_w(p)
    peak = np.expm1(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        peak_log = np.where(p > 0.0, _s_logf(peak, p), 0.0)
    return peak, peak_log, 1.0 + np.sqrt(2.0 * _CUTOFF_DROP * p / (1.0 + w))


def _log_s(p: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log S(p), estimated relative error, nodes used) for an array of p ≥ 0."""
    return _integrate(_s_logf, _s_slope, p, *_s_shape(p), rel_tol)


def integrate_logweighted(p: float, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx in the log domain.

    Supports real p ≥ 0 up to at least a few thousand; the result value
    is always positive.
    """
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise DomainError(f"integrate_logweighted requires finite p >= 0, got {p!r}")
    rel_tol = validate_rel_tol(rel_tol)
    log, est, nodes = _log_s(np.array([p]), rel_tol)
    return QuadratureResult(
        value=SignedLogValue.from_log(float(log[0])),
        est_rel_error=float(est[0]),
        nodes_used=int(nodes[0]),
    )


def log_power_integral(p, rel_tol: float = DEFAULT_REL_TOL):
    """log S(p): a float for a scalar p, an array of the same shape for an
    array of p (evaluated together in one batch); the workhorse for moment
    generation."""
    ps = np.asarray(p, dtype=float)
    bad = ~(np.isfinite(ps) & (ps >= 0.0))
    if bad.any():
        raise DomainError(
            f"log_power_integral requires finite p >= 0, got {float(ps[bad].flat[0])!r}"
        )
    rel_tol = validate_rel_tol(rel_tol)
    logs = _log_s(ps.ravel(), rel_tol)[0].reshape(ps.shape)
    return float(logs) if ps.ndim == 0 else logs


# -- the unit integral and Γ⁽ⁿ⁾(1) ------------------------------------------------


def _unit_logf(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    return n * np.log(u) - u - np.exp(-u)


def _unit_slope(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    return n / u - 1.0 + np.exp(-u)


def _unit_peak(n: int) -> float:
    """Stationary point of n·ln u − u − e^{−u} for n ≥ 1.

    Newton on the slope n/u − 1 + e^{−u}, which is convex and decreasing,
    from u = n, where the slope is still positive: the iterates rise
    monotonically onto the root.
    """
    u = float(n)
    for _ in range(50):
        e = math.exp(-u)
        step = (n / u - 1.0 + e) / (n / (u * u) + e)
        u += step
        if step <= 1e-15 * u:
            break
    return u


def _unit_shape(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak abscissa, peak log and cutoff reach (as for S) of the unit
    integral's magnitude integrand, as one-row arrays."""
    if n == 0:
        peak, peak_log, curvature = 0.0, -1.0, 1.0
    else:
        peak = _unit_peak(n)
        peak_log = n * math.log(peak) - peak - math.exp(-peak)
        curvature = n / (peak * peak) + math.exp(-peak)
    reach = math.sqrt(2.0 * _CUTOFF_DROP / curvature)
    return np.array([peak]), np.array([peak_log]), np.array([reach])


def integrate_unit_log_power(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate ∫₀¹ (ln t)^n · e^{−t} dt for integer n ≥ 0.

    Computed as (−1)^n · ∫₀^∞ u^n · e^{−u − e^{−u}} du, so the returned
    sign is exactly (−1)^n and the magnitude integrand is positive.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"integrate_unit_log_power requires an integer n >= 0, got {n!r}")
    rel_tol = validate_rel_tol(rel_tol)

    log, est, nodes = _integrate(
        _unit_logf, _unit_slope, np.array([float(n)]), *_unit_shape(n), rel_tol
    )
    return QuadratureResult(
        value=SignedLogValue.from_log(float(log[0]), sign=-1 if n % 2 else 1),
        est_rel_error=float(est[0]),
        nodes_used=int(nodes[0]),
    )


def gamma_derivative(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n).

    The two pieces have opposite signs for odd n but never cancel
    catastrophically: the unit part dominates (its magnitude stays within
    [e^{−1}·n!, n!] while e^{−1}·S(n) is smaller from n = 3 on).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"gamma_derivative requires an integer n >= 0, got {n!r}")
    rel_tol = validate_rel_tol(rel_tol)

    unit = integrate_unit_log_power(n, rel_tol=rel_tol)
    tail = integrate_logweighted(float(n), rel_tol=rel_tol)
    tail_scaled = tail.value * SignedLogValue.from_log(-1.0)
    value = sum_signed((unit.value, tail_scaled))

    if value.is_zero():
        est = math.inf
    else:
        # both estimates are floored above 0, so their logs are finite
        abs_err = np.logaddexp(
            math.log(unit.est_rel_error) + unit.value.logmag,
            math.log(tail.est_rel_error) + tail_scaled.logmag,
        )
        est = float(_floor_error(math.exp(abs_err - value.logmag), value.logmag))
    return QuadratureResult(
        value=value, est_rel_error=est, nodes_used=unit.nodes_used + tail.nodes_used
    )
