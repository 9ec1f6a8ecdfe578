"""Log-domain tanh-sinh quadrature for the package's integral family.

Two integrals are evaluated, both entirely in the log domain because
their values span hundreds of orders of magnitude:

* ``S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx`` for real p ≥ 0
  (``integrate_logweighted``; ``log_power_integral`` for arrays of p).
  S(100) is already ~4.5·10⁴¹, and p up to a few thousand must work.
* ``∫₀¹ (ln t)^n · e^{−t} dt`` for integer n ≥ 0
  (``integrate_unit_log_power``), rewritten via t = e^{−u} as
  ``(−1)^n ∫₀^∞ u^n · e^{−u − e^{−u}} du`` so the integrand is positive
  and the sign is exact.

Their sum gives the derivatives of the gamma function at 1
(``gamma_derivative``): Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n).
Each has one code path (``_log_s``, ``_log_unit``, ``_log_gamma``) that
takes its orders as a numpy float64 scalar or a 1-d array and returns
results of the same shape.  The public one-point functions pass a scalar
and batches an array: a numpy scalar gives the bits a one-element array
would, at a fraction of its per-operation cost.  Only the node sums of
``_tanh_sinh`` are always arrays, of one row per panel.

Method.  Each log-integrand is concave with a single peak, placed for all
orders at once: at expm1(W(p)) for S (W by ``lambertw._halley``), and by
Newton steps where the convex, decreasing slope vanishes for the unit
integral.  The axis is split into [0, peak] and [peak, cutoff] panels,
the cutoff lying where the log-integrand has dropped 60 nats below the
peak (mass below e^{−60} of the peak's is invisible at the supported
tolerances).  By concavity, a tangent right of the peak meets that level
at or beyond the integrand itself, so a few tangent steps, aimed slightly
past the drop against rounding, never cut into the kept mass.

One tanh-sinh (double exponential) driver integrates all panels of all
requested integrals together, one row per panel, in blocks of at most
_BLOCK nodes, with node and weight tables cached per level.  The levels
are nested: level L+1 halves the step, evaluates only its new odd nodes
and adds them to half of level L's sum.  A row stops when two successive
levels agree to half the requested relative tolerance (each panel's
share), or to the float rounding of its log-integrand where that is
coarser; that last change is its error estimate, and a row unconverged
at the last level raises QuadratureError.  Sums are taken relative to
e^{peak log}, so no node value over- or underflows.

The driver refines in array passes over the rows still refining, each
pass deciding its rows' stops the same way.  Nearly every panel stops at
level 4 or 5, so the first pass spans levels 3 to 5 where rel_tol ≤ 1e-8
and 3 to 4 above it, and each later pass one level.  Each level's sum is
a column slice of its pass, so the results are those of one pass per
level, bit for bit.  A row's node count is that of the level it stopped
at, 8·2^L + 1, even where its pass evaluated a deeper level for it.

Error estimates are floored at eps·(4 + |log value|), the rounding of a
log-magnitude summed and held in a float, so levels that agree bit for
bit do not claim an error of zero.  Where that rounding of the log-integrand
near its peak reaches the 60-nat window itself (p ≳ 1e17 for S), no
cutoff can be placed and DomainError is raised, as it is wherever a
floored estimate exceeds rel_tol (for S at 1e-9 from p ≈ 2e6 on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, _float_arg
from .lambertw import _halley
from .logdomain import SignedLogValue

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

#: The driver's first array pass evaluates levels _MIN_LEVEL.._SWEEP_LEVEL
#: where a panel's tolerance is at most _SWEEP_TOL (rel_tol ≤ 1e-8 on a
#: two-panel integral), and stops one level short of that above it.
_SWEEP_LEVEL = 5
_SWEEP_TOL = 5e-9

#: Most nodes (rows × nodes of the levels evaluated together) in one array pass.
_BLOCK = 32768

_EPS = float(np.finfo(float).eps)

#: The rounding of a computed log-integral beyond eps·|log|, in eps: at most
#: 2 against 30-digit mpmath references (S(p) for p from 0.01 to 5000, the
#: unit integral and Γ⁽ⁿ⁾(1) for n ≤ 200, at rel_tol 1e-9 and 1e-12), doubled.
_LOG_ROUNDING = 4.0
_LOG_HALF_PI = math.log(math.pi / 2.0)

#: Orders, abscissae or per-order results: a numpy float64 scalar for one
#: point, a float64 array for a batch.
_Floats = np.float64 | np.ndarray

#: logf(x, p) or its x-derivative, on scalars or arrays broadcast together.
_LogIntegrand = Callable[[_Floats, _Floats], _Floats]


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
    rel_tol = _float_arg(rel_tol, "validate_rel_tol", "rel_tol")
    if not (1e-14 < rel_tol < 1e-2):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-2), got {rel_tol!r}")
    return rel_tol


def _checked(name: str, p, rel_tol: float, integer: bool = False) -> tuple[_Floats, float]:
    """``p`` as a float64 (a numpy scalar for a scalar, else an array), and
    ``rel_tol``, checked for the public function ``name``; ``integer`` asks
    for one int order."""
    if integer and (not isinstance(p, int) or isinstance(p, bool) or p < 0):
        raise DomainError(f"{name} requires an integer n >= 0, got {p!r}")
    try:
        # [()] turns a 0-d array into a numpy scalar and leaves others as they are
        ps = np.asarray(p, dtype=float)[()]
    except OverflowError as exc:
        raise DomainError(f"{name} requires finite p >= 0: {exc}") from exc
    ok = (ps >= 0.0) & (ps < np.inf)
    if not ok.all():
        raise DomainError(f"{name} requires finite p >= 0, got {float(np.extract(~ok, ps)[0])!r}")
    return ps, validate_rel_tol(rel_tol)


def _scalar_result(sign: int, log, est, nodes) -> QuadratureResult:
    """The QuadratureResult of one order's (log, est, nodes) scalars."""
    return QuadratureResult(
        value=SignedLogValue.from_log(float(log), sign=sign),
        est_rel_error=float(est),
        nodes_used=int(nodes),
    )


def _floor_error(est, logmag):
    """An error estimate no smaller than the float rounding of ``logmag``:
    _LOG_ROUNDING eps for the node sum and its log, plus eps·|logmag|, the
    resolution of the log itself."""
    return np.maximum(est, _EPS * (_LOG_ROUNDING + np.abs(logmag)))


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


@cache
def _span_nodes(first: int, last: int) -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
    """The ``_level_nodes`` tables of levels first..last, concatenated, and
    each level's slice of them.  Read-only, like the tables."""
    tables = [_level_nodes(level) for level in range(first, last + 1)]
    v, logw = tables[0] if first == last else map(np.concatenate, zip(*tables))
    v.flags.writeable = logw.flags.writeable = False
    ends = np.cumsum([0] + [len(tv) for tv, _ in tables]).tolist()
    return v, logw, tuple(map(slice, ends[:-1], ends[1:]))


def _level_sums(
    logf: _LogIntegrand,
    first: int,
    last: int,
    a: np.ndarray,
    half: np.ndarray,
    p: np.ndarray,
    shift: np.ndarray,
) -> np.ndarray:
    """Σ w·exp(logf(x) − shift) over the nodes new at each level first..last,
    one row per level and one column per panel, with the weights w of the
    rule on (−1, 1).

    All the levels' nodes are evaluated in one array pass; each level's sum
    is that pass's column slice, which sums to the bits of the level alone.
    """
    v, logw, levels = _span_nodes(first, last)
    out = np.empty((len(levels), a.size))
    step = max(1, _BLOCK // v.size)
    for s in range(0, a.size, step):
        rows = slice(s, s + step)
        x = a[rows, None] + half[rows, None] * v
        terms = np.exp(logf(x, p[rows, None]) - shift[rows, None] + logw)
        for i, level in enumerate(levels):
            terms[:, level].sum(axis=1, out=out[i, rows])
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
    (integral·e^{−shift}, estimated relative error, nodes used) per row.
    A row stops at the first level L > _MIN_LEVEL whose total agrees with
    level L − 1's to ``tol``, and has then used the 8·2^L + 1 nodes of
    level L, whatever else was evaluated for it.  QuadratureError (with
    the partial estimate) names the lowest p among the rows still
    unconverged at _MAX_LEVEL.

    Each pass evaluates the rows still refining over a span of levels and
    stops each at its first level within tolerance.  The first pass spans
    levels _MIN_LEVEL.._SWEEP_LEVEL where ``tol`` ≤ _SWEEP_TOL (nearly every
    panel then stops at level 5) and one level less above it (where most
    stop at level 4), never past _MAX_LEVEL; each later pass spans one level.
    """
    half = (b - a) / 2.0
    # Levels cannot agree more closely than the float rounding of the
    # log-integrand near its peak, so a row's tolerance is at least that.
    row_tol = np.maximum(tol, _EPS * np.abs(shift))
    total, err, nodes = np.empty(a.size), np.empty(a.size), np.empty(a.size, dtype=int)
    # the rows still refining, and their total at the level before the pass's first
    rows, prev = np.arange(a.size), np.empty((0, a.size))
    first = _MIN_LEVEL
    last = min(_SWEEP_LEVEL if tol <= _SWEEP_TOL else _SWEEP_LEVEL - 1, _MAX_LEVEL)
    while rows.size and last <= _MAX_LEVEL:
        sums = _level_sums(logf, first, last, a[rows], half[rows], p[rows], shift[rows])
        totals = np.concatenate((prev, sums))
        for i in range(1, len(totals)):
            totals[i] += totals[i - 1] / 2.0
        # change[i] is how far level last + 1 − len(change) + i moved each row's total
        change = np.abs(totals[:-1] - totals[1:]) / totals[1:]
        rtol = row_tol[rows]
        stop = change <= rtol
        # a row stops at its first level within tolerance: walk back from the deepest
        cur, cur_err, cur_nodes = totals[-1], change[-1], 8 * 2**last + 1
        for i in range(len(change) - 2, -1, -1):
            cur = np.where(stop[i], totals[i + 1], cur)
            cur_err = np.where(stop[i], change[i], cur_err)
            cur_nodes = np.where(stop[i], 8 * 2 ** (last + 1 - len(change) + i) + 1, cur_nodes)
        total[rows], err[rows], nodes[rows] = cur, cur_err, cur_nodes
        keep = ~(cur_err <= rtol)
        rows, prev = rows[keep], cur[keep][None]
        first = last = last + 1
    if not rows.size:
        return total * half, err, nodes
    i = rows[np.argmin(p[rows])]
    raise QuadratureError(
        f"the integral for p = {p[i]:.17g} did not converge on panel [{a[i]:.6g}, {b[i]:.6g}] "
        f"to rel_tol={row_tol[i]:.1e} within {_MAX_LEVEL} refinement levels",
        partial=SignedLogValue.from_log(float(np.log(total[i] * (b[i] - a[i]) / 2.0) + shift[i])),
    )


def _cutoff(
    logf: _LogIntegrand,
    slope: _LogIntegrand,
    p: _Floats,
    peak: _Floats,
    peak_log: _Floats,
    reach: _Floats,
) -> _Floats:
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
    p: _Floats,
    peak: _Floats,
    peak_log: _Floats,
    reach: _Floats,
    rel_tol: float,
) -> tuple[_Floats, _Floats, _Floats]:
    """log ∫₀^∞ exp(logf(x, p_i)) dx for each p_i, with floored error estimates
    and node counts; ``peak + reach`` must lie right of each peak.

    Raises DomainError where the float rounding of the log-integrand near
    its peak, eps·|peak log|, reaches the cutoff drop: the kept window then
    collapses at float resolution and no cutoff can be placed.  Raises it
    too where a floored estimate exceeds ``rel_tol``.  Both name the lowest
    such p.
    """
    held = _EPS * np.abs(peak_log) < _CUTOFF_DROP
    if not held.all():
        p, peak_log, held = np.atleast_1d(p, peak_log, held)
        i = np.argmin(np.where(held, np.inf, p))
        raise DomainError(
            f"the integrand for p = {p[i]:.17g} peaks at log {peak_log[i]:.6g}, whose "
            f"float rounding exceeds the {_CUTOFF_DROP:g}-nat cutoff window"
        )
    cut = _cutoff(logf, slope, p, peak, peak_log, reach)
    split = np.maximum(peak, _PEAK_SPLIT_FLOOR)
    # _tanh_sinh's rows: every [0, split] panel, then every [split, cut] one
    panels = [[np.zeros(p.shape), split], [split, cut], [p, p], [peak_log, peak_log]]
    a, b, row_p, shift = np.array(panels).reshape(4, -1)
    # each column as (left panels, right panels), scalars for a scalar p
    scaled, errs, nodes = (
        col.reshape(2, *p.shape) for col in _tanh_sinh(logf, a, b, row_p, shift, rel_tol / 2.0)
    )
    value = scaled[0] + scaled[1]
    abs_err = errs[0] * scaled[0] + errs[1] * scaled[1]
    total = np.log(value) + peak_log
    est = _floor_error(abs_err / value, total)
    within = est <= rel_tol
    if not within.all():
        p, est, total, within = np.atleast_1d(p, est, total, within)
        i = np.argmin(np.where(within, np.inf, p))
        raise DomainError(
            f"the integral for p = {p[i]:.17g} has a floored error estimate {est[i]:.2g} "
            f"above rel_tol={rel_tol:.1e} (its log, {total[i]:.6g}, is too coarse in a float)"
        )
    return total, est, nodes[0] + nodes[1]


# -- S(p) -----------------------------------------------------------------------


def _s_logf(x: _Floats, p: _Floats) -> _Floats:
    return p * np.log(np.log1p(x)) - x


def _s_slope(x: _Floats, p: _Floats) -> _Floats:
    return p / ((1.0 + x) * np.log1p(x)) - 1.0


def _s_shape(p: _Floats) -> tuple[_Floats, _Floats, _Floats]:
    """Peak abscissa, peak log and cutoff reach of S's integrand, per p ≥ 0.

    The peak is expm1(W(p)), with W(p) from ``lambertw._halley``.  The
    reach is 1 plus the distance at which the curvature −(1+W)/p at the
    peak alone would bring the drop, which puts the first tangent point
    just left of the cutoff.
    """
    # W(0) is 0/0 in the Halley steps, so p = 0 takes w = 0 from np.where;
    # near the float maximum p·ln W and the reach overflow to inf, which
    # _integrate reports as a peak too coarse to resolve
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.where(p > 0.0, _halley(p, np), 0.0)[()]
        peak = np.expm1(w)
        peak_log = np.where(p > 0.0, _s_logf(peak, p), 0.0)[()]
        return peak, peak_log, 1.0 + np.sqrt(2.0 * _CUTOFF_DROP * p / (1.0 + w))


def _log_s(p: _Floats, rel_tol: float) -> tuple[_Floats, _Floats, _Floats]:
    """(log S(p), estimated relative error, nodes used) for p ≥ 0, a scalar
    or an array."""
    return _integrate(_s_logf, _s_slope, p, *_s_shape(p), rel_tol)


def integrate_logweighted(p: float, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx in the log domain.

    Supports real p ≥ 0 up to at least a few thousand; the result value
    is always positive.
    """
    p = _float_arg(p, "integrate_logweighted", "p")  # refuses arrays, as float() does
    ps, rel_tol = _checked("integrate_logweighted", p, rel_tol)
    return _scalar_result(1, *_log_s(ps, rel_tol))


def log_power_integral(p, rel_tol: float = DEFAULT_REL_TOL):
    """log S(p): a float for a scalar p, an array of the same shape for an
    array of p (evaluated together in one batch); the workhorse for moment
    generation."""
    ps, rel_tol = _checked("log_power_integral", p, rel_tol)
    if ps.ndim == 0:
        return float(_log_s(ps, rel_tol)[0])
    return _log_s(ps.ravel(), rel_tol)[0].reshape(ps.shape)


# -- the unit integral and Γ⁽ⁿ⁾(1) ------------------------------------------------


def _unit_logf(u: _Floats, n: _Floats) -> _Floats:
    return n * np.log(u) - u - np.exp(-u)


def _unit_slope(u: _Floats, n: _Floats) -> _Floats:
    return n / u - 1.0 + np.exp(-u)


def _unit_shape(n: _Floats) -> tuple[_Floats, _Floats, _Floats]:
    """Peak abscissa, peak log and cutoff reach (as for S) of the unit
    integral's magnitude integrand, per integer order n ≥ 0.

    The peak of n·ln u − u − e^{−u} is where the slope n/u − 1 + e^{−u}
    vanishes.  The slope is convex and decreasing, and positive at the
    start u = max(n, 1) for n ≥ 1, so Newton steps rise monotonically onto
    the root; a row stops moving once its step is at most 1e-15·u (one step
    from n = 35 on).  For n = 0 the integrand peaks at u = 0 with log −1.
    """
    u = np.maximum(n, 1.0)
    moving = n > 0.0
    while moving.any():
        e = np.exp(-u)
        step = (n / u - 1.0 + e) / (n / (u * u) + e)
        # adding step·0 leaves a stopped row's u as it is, bit for bit
        u = u + step * moving
        moving = moving & (step > 1e-15 * u)
    zero = n == 0.0
    peak_log = np.where(zero, -1.0, _unit_logf(u, n))[()]
    curvature = np.where(zero, 1.0, n / (u * u) + np.exp(-u))[()]
    return np.where(zero, 0.0, u)[()], peak_log, np.sqrt(2.0 * _CUTOFF_DROP / curvature)


def _log_unit(n: _Floats, rel_tol: float) -> tuple[_Floats, _Floats, _Floats]:
    """(log |∫₀¹ (ln t)^n e^{−t} dt|, estimated relative error, nodes used)
    for integer n ≥ 0, a scalar or an array; the integral's sign is (−1)^n."""
    return _integrate(_unit_logf, _unit_slope, n, *_unit_shape(n), rel_tol)


def _log_gamma(n: _Floats, rel_tol: float):
    """(sign, log |Γ⁽ⁿ⁾(1)|, estimated relative error, nodes used) for
    integer n ≥ 0, a scalar or an array, and the ``_log_unit`` columns it
    was built from.

    (−1)^n·|unit| + e^{−1}·S(n) is summed relative to the larger magnitude;
    an exact cancellation would give sign 0 and an infinite estimate.
    """
    unit_log, unit_est, unit_nodes = unit = _log_unit(n, rel_tol)
    s_log, s_est, s_nodes = _log_s(n, rel_tol)
    tail_log = s_log - 1.0
    shift = np.maximum(unit_log, tail_log)
    acc = (-1.0) ** n * np.exp(unit_log - shift) + np.exp(tail_log - shift)
    with np.errstate(divide="ignore"):
        log = shift + np.log(np.abs(acc))
    # both estimates are floored above 0, so their logs are finite
    abs_err = np.logaddexp(np.log(unit_est) + unit_log, np.log(s_est) + tail_log)
    est = _floor_error(np.exp(abs_err - log), log)
    return (np.sign(acc), log, est, unit_nodes + s_nodes), unit


def integrate_unit_log_power(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate ∫₀¹ (ln t)^n · e^{−t} dt for integer n ≥ 0.

    Computed as (−1)^n · ∫₀^∞ u^n · e^{−u − e^{−u}} du, so the returned
    sign is exactly (−1)^n and the magnitude integrand is positive.
    """
    ns, rel_tol = _checked("integrate_unit_log_power", n, rel_tol, integer=True)
    return _scalar_result(-1 if n % 2 else 1, *_log_unit(ns, rel_tol))


def gamma_derivative(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n) by ``_log_gamma``
    on one order; the estimate adds both pieces' absolute errors.

    The two pieces have opposite signs for odd n but never cancel
    catastrophically: the unit part dominates (its magnitude stays within
    [e^{−1}·n!, n!] while e^{−1}·S(n) is smaller from n = 3 on).
    """
    ns, rel_tol = _checked("gamma_derivative", n, rel_tol, integer=True)
    (sign, *gamma), _ = _log_gamma(ns, rel_tol)
    return _scalar_result(int(sign), *gamma)
