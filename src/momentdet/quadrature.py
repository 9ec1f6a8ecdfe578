"""Log-domain evaluation of the package's integral family.

Two integrals are evaluated, both entirely in the log domain because
their values span hundreds of orders of magnitude:

* ``S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx`` for real p ≥ 0
  (``integrate_logweighted``; ``log_power_integral`` for arrays of p),
  by tanh-sinh quadrature.  S(100) is already ~4.5·10⁴¹, and p up to a
  few thousand must work.
* ``∫₀¹ (ln t)^n · e^{−t} dt`` for integer n ≥ 0
  (``integrate_unit_log_power``), from its series: term by term,
  ∫₀¹ t^k (ln t)^n dt = (−1)^n n!/(k+1)^{n+1}, so the integral is
  (−1)^n·n!·σₙ with σₙ = Σₖ (−1)^k/(k!·(k+1)^{n+1}).  That alternating
  sum lies in [1 − e^{−1}, 1] and 20 terms give it to rounding.  ln n!
  comes from a cached table of compensated running sums of ln k, built
  per power-of-two size up to 8193 entries, or from Stirling's series in
  40-digit decimals above the table.

Their sum gives the derivatives of the gamma function at 1
(``gamma_derivative``): Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n).
Each has one code path (``_log_s``, ``_log_unit``, ``_log_gamma``) that
takes its orders as a numpy float64 scalar or a 1-d array and returns
results of the same shape.  The public one-point functions pass a scalar
and batches an array: a numpy scalar gives the bits a one-element array
would, at a fraction of its per-operation cost.  Only the node sums of
``_tanh_sinh`` are always arrays, of one row per panel.

A one-point call is bound by numpy's cost per dispatched call, not by its
arithmetic, so the code path keeps one rule.  On values that may be 0-d
it uses scalar operators and unary ufuncs (the builtin ``abs``, not
``np.abs``), at about 0.08 and 0.2 µs a call on a 2-core x86-64 host,
and a binary ufunc (0.7 µs), ``np.errstate`` (1.1 µs) or ``np.where``
(1.6 µs on a 0-d value) only where no cheaper form gives the same bits.
It branches on ``ndim`` only for a reduction over every element
(``_all``, ``_whole``), never for elementwise arithmetic, so a scalar and
an array share every numeric expression.

Method for S.  The log-integrand is concave with a single peak, placed
for all orders at once at expm1(W(p)) (W by ``lambertw._halley``).  The
axis is split into [0, peak] and [peak, cutoff] panels, the cutoff lying
where the log-integrand has dropped 60 nats below the peak (mass below
e^{−60} of the peak's is invisible at the supported tolerances).  By
concavity, a tangent right of the peak meets that level at or beyond
the integrand itself, so a few tangent steps, aimed slightly past the
drop against rounding, never cut into the kept mass.

One tanh-sinh (double exponential) driver integrates all panels of all
requested orders together, one row per panel, in blocks of at most
_BLOCK nodes, with node and weight tables cached per span of levels one
pass evaluates.  The levels are nested: level L+1 halves the step,
evaluates only its new odd nodes and adds them to half of level L's sum.
A row stops when two successive levels agree to half the requested
relative tolerance (each panel's share), or to the float rounding of its
log-integrand where that is coarser; that last change is its error
estimate, and a row unconverged at the last level raises
QuadratureError.  Sums are taken relative to e^{peak log}, so no node
value over- or underflows.

The driver refines in array passes, each deciding its rows' stops the
same way.  Nearly every panel stops at level 4 or 5, so the first pass
spans levels 3 to 5 where rel_tol ≤ 1e-8 and 3 to 4 above it.  It works
on the caller's arrays, and where every row stops in it its columns are
the result, so a one-point call pays for its two panels and no row
bookkeeping.  At the default rel_tol every call tried stops there: S(p)
for p in [0.5, 4000], Γ⁽ⁿ⁾(1) for n ≤ 200, and a generation batch at
n_max 2000.  Only rows that continue are gathered, one level per later
pass, and their columns scattered into the first pass's.  Each level's
sum is a column slice of its pass, so the results are those of one pass
per level, bit for bit.  A row's node count is that of the level it
stopped at, 8·2^L + 1, even where its pass evaluated a deeper level for
it.

Error estimates are floored at eps·(4 + |log value|), the rounding of a
log-magnitude summed and held in a float, so levels that agree bit for
bit do not claim an error of zero; the unit integral's series, exact to
rounding, reports that floor alone.  Where the rounding of S's
log-integrand near its peak reaches the 60-nat window itself
(p ≳ 1e17), no cutoff can be placed and DomainError is raised, as it is
wherever a floored estimate exceeds rel_tol (for S at 1e-9 from
p ≈ 2e6 on, for the unit integral at 1e-9 from n ≈ 3.8e5 on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, _float_arg, _int_arg
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

#: A log-integrand logf(x, p), on scalars or arrays broadcast together.
_LogIntegrand = Callable[[_Floats, _Floats], _Floats]


@dataclass(frozen=True)
class QuadratureResult:
    """An integral value with its error estimate and node count.

    ``nodes_used`` counts the quadrature nodes summed; the unit integral,
    summed from its series, reports the series' 20 terms, and Γ⁽ⁿ⁾(1)
    those 20 plus the nodes of S(n).
    """

    value: SignedLogValue
    est_rel_error: float
    nodes_used: int

    def __post_init__(self) -> None:
        if not self.est_rel_error >= 0.0:  # false for NaN too
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
    if integer:
        p = _int_arg(p, 0, f"{name} requires an integer n >= 0")
    ps = _float_arg(p, name, "n" if integer else "p", array=True)
    ok = (ps >= 0.0) & (ps < np.inf)
    if not _all(ok):
        raise DomainError(f"{name} requires finite p >= 0, got {float(np.extract(~ok, ps)[0])!r}")
    return ps, validate_rel_tol(rel_tol)


def _all(x) -> bool:
    """Whether every element of ``x`` is true: ``bool`` for a 0-d value, and
    np.count_nonzero, cheaper than np.logical_and.reduce or ndarray.all, for
    an array."""
    return bool(x) if x.ndim == 0 else np.count_nonzero(x) == x.size


def _whole(ufunc: np.ufunc, x):
    """``ufunc`` reduced over every element of ``x``: ``x`` itself for a 0-d
    value, whose reduction would be a numpy call that changes nothing, and
    ``ufunc.reduce``, without ndarray's Python wrappers, for an array."""
    return x if x.ndim == 0 else ufunc.reduce(x, axis=None)


def _scalar_result(sign: int, log, est, nodes) -> QuadratureResult:
    """The QuadratureResult of one order's (log, est, nodes) scalars, built
    from an int sign, float log and estimate and int node count: the types
    whose invariant checks the constructors make without converting."""
    return QuadratureResult(SignedLogValue(sign, float(log)), float(est), int(nodes))


def _floor_error(est, logmag):
    """An error estimate no smaller than the float rounding of ``logmag``:
    _LOG_ROUNDING eps for the node sum and its log, plus eps·|logmag|, the
    resolution of the log itself."""
    return np.maximum(est, _EPS * (_LOG_ROUNDING + abs(logmag)))


def _floor_within(p: _Floats, est: _Floats, total: _Floats, rel_tol: float) -> _Floats:
    """``_floor_error(est, total)`` for the log-integrals ``total`` of orders
    ``p``; raises DomainError, naming the lowest such p, where it exceeds
    ``rel_tol``."""
    est = _floor_error(est, total)
    if not _all(est <= rel_tol):
        p, est, total = np.atleast_1d(p, est, total)
        i = np.argmin(np.where(est <= rel_tol, np.inf, p))
        raise DomainError(
            f"the integral for p = {p[i]:.17g} has a floored error estimate {est[i]:.2g} "
            f"above rel_tol={rel_tol:.1e} (its log, {total[i]:.6g}, is too coarse in a float)"
        )
    return est


# -- the tanh-sinh driver -----------------------------------------------------


@cache
def _span_nodes(first: int, last: int) -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
    """Node offsets on (0, 2) and log weights of the nodes new at levels
    first..last, concatenated, and each level's slice of them.

    The first level holds every k·h with |k·h| ≤ _TMAX, h = 2^{−level};
    each later level holds only the odd k, since its even k are the nodes
    of the levels before.  A node sits at a + half·v on a panel [a, b] of
    half-width ``half``, with v = 1 + tanh((π/2)·sinh t) computed without
    cancellation, so nodes near a keep their full relative precision.
    Nodes where v rounds to 2 are left out: they land on b, and their
    weight is negligible.  The arrays are read-only: threads share them.
    """
    vs, logws = [], []
    for level in range(first, last + 1):
        h = 2.0 ** (-level)
        m = int(_TMAX / h)
        k = np.arange(-m, m + 1) if level == _MIN_LEVEL else np.arange(1 - m, m, 2)
        t = k * h
        trans = np.pi / 2.0 * np.sinh(t)
        v = 2.0 / (1.0 + np.exp(-2.0 * trans))
        # log of the rule weight h·(π/2)·cosh(t) / cosh²((π/2)·sinh t) on (−1, 1)
        logw = math.log(h) + _LOG_HALF_PI + np.log(np.cosh(t)) - 2.0 * np.log(np.cosh(trans))
        kept = v < 2.0
        vs.append(v[kept])
        logws.append(logw[kept])
    v, logw = np.concatenate(vs), np.concatenate(logws)
    v.flags.writeable = logw.flags.writeable = False
    ends = np.cumsum([0, *map(len, vs)]).tolist()
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
        # np.add.reduce is ndarray.sum, the same sums, without its Python
        # wrapper; each level's row of the block is an integer index, cheaper
        # than a (level, rows) view per level
        block = out[:, rows]
        for i, level in enumerate(levels):
            np.add.reduce(terms[:, level], axis=1, out=block[i])
    return out


def _stops(totals: np.ndarray, last: int, rtol: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each panel's total, change and node count at its first level within
    ``rtol``, or at level ``last`` where none is.

    ``totals`` has one column per panel and one row per level up to
    ``last``: the first row is each panel's total at its level, every
    later one the sum of the nodes new at the next level, which is turned
    into that level's total in place.  A level's change is how far it
    moved the total, relative to the new total.  The returned total and
    change are the last rows of ``totals`` and of the changes, overwritten
    in place with each panel's values at its stopping level.
    """
    for i in range(1, len(totals)):
        totals[i] += totals[i - 1] / 2.0
    # change[i] is how far level last + 1 − len(change) + i moved each panel's total
    change = abs(totals[:-1] - totals[1:]) / totals[1:]
    stop = change <= rtol
    # a panel stops at its first level within tolerance: walk back from the
    # deepest, copying a level's total and change over the deepest's where
    # it stopped; np.where spreads the deepest node count over the panels,
    # or np.full where a single level leaves no choice
    cur, cur_err, deepest = totals[-1], change[-1], 8 * 2**last + 1
    cur_nodes = deepest if len(change) > 1 else np.full(rtol.size, deepest)
    for i in range(len(change) - 2, -1, -1):
        np.copyto(cur, totals[i + 1], where=stop[i])
        np.copyto(cur_err, change[i], where=stop[i])
        cur_nodes = np.where(stop[i], 8 * 2 ** (last + 1 - len(change) + i) + 1, cur_nodes)
    return cur, cur_err, cur_nodes


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

    The first pass runs on the caller's arrays, every row over levels
    _MIN_LEVEL.._SWEEP_LEVEL where ``tol`` ≤ _SWEEP_TOL (nearly every panel
    then stops at level 5) and one level less above it (where most stop
    at level 4), never past _MAX_LEVEL.  Where every row stops in it, its
    columns are the result.  Otherwise the rows still refining are
    gathered into later passes of one level each, and each pass scatters
    its rows' columns into the first pass's.  Every pass stops its rows
    by ``_stops``.
    """
    half = (b - a) / 2.0
    # Levels cannot agree more closely than the float rounding of the
    # log-integrand near its peak, so a row's tolerance is at least that.
    row_tol = np.maximum(tol, _EPS * abs(shift))
    last = min(_SWEEP_LEVEL if tol <= _SWEEP_TOL else _SWEEP_LEVEL - 1, _MAX_LEVEL)
    sums = _level_sums(logf, _MIN_LEVEL, last, a, half, p, shift)
    total, err, nodes = _stops(sums, last, row_tol)
    stopped = err <= row_tol
    if _all(stopped):
        return total * half, err, nodes
    rows = (~stopped).nonzero()[0]
    while rows.size and last < _MAX_LEVEL:
        last += 1
        sums = _level_sums(logf, last, last, a[rows], half[rows], p[rows], shift[rows])
        rtol = row_tol[rows]
        cur, cur_err, cur_nodes = _stops(np.concatenate((total[rows][None], sums)), last, rtol)
        total[rows], err[rows], nodes[rows] = cur, cur_err, cur_nodes
        rows = rows[~(cur_err <= rtol)]
    if not rows.size:
        return total * half, err, nodes
    i = rows[np.argmin(p[rows])]
    raise QuadratureError(
        f"the integral for p = {p[i]:.17g} did not converge on panel [{a[i]:.6g}, {b[i]:.6g}] "
        f"to rel_tol={row_tol[i]:.1e} within {_MAX_LEVEL} refinement levels",
        partial=SignedLogValue.from_log(float(np.log(total[i] * (b[i] - a[i]) / 2.0) + shift[i])),
    )


# -- S(p) -----------------------------------------------------------------------


def _s_logf(x: _Floats, p: _Floats) -> _Floats:
    return p * np.log(np.log1p(x)) - x


def _s_shape(p: _Floats) -> tuple[_Floats, _Floats, _Floats]:
    """Peak abscissa, peak log and cutoff of S's integrand, per p ≥ 0.

    The peak is expm1(W(p)), with W(p) from ``lambertw._halley``.  The
    cutoff is the rightmost abscissa kept, at or past where the
    log-integrand has dropped _CUTOFF_DROP below the peak.  Tangent steps
    aim there from peak + reach, where the reach is 1 plus the distance at
    which the curvature −(1+W)/p at the peak alone would bring the drop,
    just left of the cutoff.  The log-integrand is concave, so each
    tangent lies above it: the first step lands at or past the aim and
    every later step approaches it from the right without crossing it.
    """
    # near the float maximum p·ln W and the reach overflow to inf, which
    # _log_s reports as a peak too coarse to resolve
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # W(0) = 0 would be 0/0 in the Halley steps: at p = 0 they solve W(1)
        # instead and the product with (p != 0) makes it +0.0; for p > 0
        # (W(p) > 0) neither the sum nor the product moves a bit
        w = _halley(p + (p == 0.0), np) * (p != 0.0)
        peak = np.expm1(w)
        # the log-integrand at the peak, p·ln ln(1+peak) − peak, but 0 at p = 0,
        # where ln ln 1 is −inf: adding (p == 0) makes it ln 1, and + 0.0
        # turns the −0.0 of p = −0.0 into +0.0; for p > 0 neither moves a bit
        peak_log = p * np.log(np.log1p(peak) + (p == 0.0)) - peak + 0.0
        aim = peak_log - _CUTOFF_DROP - _CUTOFF_SLACK * (1.0 + abs(peak_log))
        cut = peak + (1.0 + np.sqrt(2.0 * _CUTOFF_DROP * p / (1.0 + w)))
        for _ in range(_CUTOFF_STEPS):
            # the log-integrand p·ln ln(1+x) − x and its slope p/((1+x)·ln(1+x)) − 1
            l1p = np.log1p(cut)
            cut = cut + (aim - (p * np.log(l1p) - cut)) / (p / ((1.0 + cut) * l1p) - 1.0)
        return peak, peak_log, cut


def _log_s(p: _Floats, rel_tol: float) -> tuple[_Floats, _Floats, _Floats]:
    """(log S(p), floored estimated relative error, nodes used) for p ≥ 0,
    a scalar or an array.

    Raises DomainError where the float rounding of the log-integrand near
    its peak, eps·|peak log|, reaches the cutoff drop: the kept window then
    collapses at float resolution and no cutoff can be placed.  Raises it
    too where a floored estimate exceeds ``rel_tol``.  Both name the lowest
    such p.
    """
    peak, peak_log, cut = _s_shape(p)
    held = _EPS * abs(peak_log) < _CUTOFF_DROP
    if not _all(held):
        p, peak_log, held = np.atleast_1d(p, peak_log, held)
        i = np.argmin(np.where(held, np.inf, p))
        raise DomainError(
            f"the integrand for p = {p[i]:.17g} peaks at log {peak_log[i]:.6g}, whose "
            f"float rounding exceeds the {_CUTOFF_DROP:g}-nat cutoff window"
        )
    split = np.maximum(peak, _PEAK_SPLIT_FLOOR)
    # _tanh_sinh's rows: every [0, split] panel, then every [split, cut] one
    panels = [np.zeros(p.shape), split, split, cut, p, p, peak_log, peak_log]
    a, b, row_p, shift = np.array(panels).reshape(4, -1)
    # each column as (left panels, right panels), scalars for a scalar p
    scaled, errs, nodes = (
        col.reshape(2, *p.shape) for col in _tanh_sinh(_s_logf, a, b, row_p, shift, rel_tol / 2.0)
    )
    value = scaled[0] + scaled[1]
    abs_err = errs[0] * scaled[0] + errs[1] * scaled[1]
    total = np.log(value) + peak_log
    return total, _floor_within(p, abs_err / value, total, rel_tol), nodes[0] + nodes[1]


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


#: Terms of the unit integral's series summed: the first one left out,
#: 1/(20!·21^{n+1}), is below 2e-20 for every order n ≥ 0.
_UNIT_TERMS = 20
#: (−1)^k/k! and k + 1 for k = 0.._UNIT_TERMS − 1.
_UNIT_COEFS = np.array([(-1) ** k / math.factorial(k) for k in range(_UNIT_TERMS)])
_UNIT_BASES = np.arange(1.0, _UNIT_TERMS + 1.0)

#: ln k! comes from the table for k up to this, from Stirling's series above.
_LOG_FACTORIAL_MAX = 8192


@cache
def _log_factorial_table(size: int) -> np.ndarray:
    """ln k! for k = 0..size − 1, size ≥ 1; read-only.

    Entry k is the compensated (Neumaier) running sum of math.log(j) for
    j = 1..k, rounded once, so it depends on k alone, not on the size.
    """
    logs, total, comp = [0.0], 0.0, 0.0
    for x in map(math.log, range(1, size)):
        t = total + x
        total, comp = t, comp + ((total - t) + x if total >= x else (x - t) + total)
        logs.append(total + comp)
    table = np.array(logs)
    table.flags.writeable = False
    return table


def _stirling_log_factorial(n: int) -> float:
    """ln n! by Stirling's series to the n^{−5} term, in 40-digit decimals
    rounded once to a float; for n > _LOG_FACTORIAL_MAX the first term
    left out is below 1e-30."""
    from decimal import Context, Decimal, localcontext  # here alone: it costs ~2 ms

    with localcontext(Context(prec=40)):
        x = Decimal(n)
        # ½·ln 2π to 45 digits, then the series in 1/n
        series = Decimal("0.918938533204672741780329736405617639861397474")
        series += 1 / (12 * x) - 1 / (360 * x**3) + 1 / (1260 * x**5)
        return float((x + Decimal("0.5")) * x.ln() - x + series)


def _log_factorial(n: _Floats) -> _Floats:
    """ln n! for integer orders n ≥ 0, a float64 scalar or array."""
    small = n <= _LOG_FACTORIAL_MAX
    # the largest order in the table's range (n·small is n there and 0
    # elsewhere), held by the least power-of-two table, capped at the range
    top = int(_whole(np.maximum, n * small))
    table = _log_factorial_table(min(1 << top.bit_length(), _LOG_FACTORIAL_MAX + 1))
    if _all(small):
        return table[n.astype(np.intp)]
    logs = [table[int(m)] if m <= _LOG_FACTORIAL_MAX else _stirling_log_factorial(int(m))
            for m in np.ravel(n).tolist()]
    return np.reshape(logs, n.shape)[()]


def _log_unit(n: _Floats, rel_tol: float) -> tuple[_Floats, _Floats, _Floats]:
    """(log |∫₀¹ (ln t)^n e^{−t} dt|, estimated relative error, terms summed)
    for integer n ≥ 0, a scalar or an array; the integral's sign is (−1)^n.

    The magnitude is n!·σₙ, σₙ = Σₖ (−1)^k/(k!·(k+1)^{n+1}), summed over
    its first _UNIT_TERMS terms by one expression for a scalar and an
    array alike, so both give the same bits.  Exact to rounding, it
    reports the floored estimate alone, and raises DomainError where that
    exceeds ``rel_tol``.
    """
    # −(n + 1) on the orders, then one column per order against the terms
    sigma = np.add.reduce(_UNIT_COEFS * _UNIT_BASES ** (-(n + 1.0))[..., None], axis=-1)
    log = _log_factorial(n) + np.log(sigma)
    return log, _floor_within(n, 0.0, log, rel_tol), np.full(n.shape, _UNIT_TERMS)


def _log_gamma(n: _Floats, rel_tol: float):
    """(sign, log |Γ⁽ⁿ⁾(1)|, estimated relative error, nodes used) for
    integer n ≥ 0, a scalar or an array, and the ``_log_unit`` columns it
    was built from.

    (−1)^n·|unit| + e^{−1}·S(n) is summed relative to the larger magnitude.
    The two never cancel: |unit| = n!·σₙ ≥ (1 − e^{−1})·n! while e^{−1}·S(n)
    ≤ e^{−1}·n! (ln(1+x) ≤ x), so the smaller term is at most e^{−0.54}
    of the larger, |acc| ≥ 0.4 and its log needs no guard against log 0.
    """
    unit_log, unit_est, unit_nodes = unit = _log_unit(n, rel_tol)
    s_log, s_est, s_nodes = _log_s(n, rel_tol)
    tail_log = s_log - 1.0
    shift = np.maximum(unit_log, tail_log)
    acc = (-1.0) ** n * np.exp(unit_log - shift) + np.exp(tail_log - shift)
    log = shift + np.log(abs(acc))
    # both estimates are floored above 0, so their logs are finite
    abs_err = np.logaddexp(np.log(unit_est) + unit_log, np.log(s_est) + tail_log)
    est = _floor_error(np.exp(abs_err - log), log)
    return (np.sign(acc), log, est, unit_nodes + s_nodes), unit


def integrate_unit_log_power(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate ∫₀¹ (ln t)^n · e^{−t} dt for integer n ≥ 0.

    Computed as (−1)^n·n!·σₙ by ``_log_unit``, so the returned sign is
    exactly (−1)^n.
    """
    ns, rel_tol = _checked("integrate_unit_log_power", n, rel_tol, integer=True)
    return _scalar_result(-1 if n % 2 else 1, *_log_unit(ns, rel_tol))


def gamma_derivative(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n) by ``_log_gamma``
    on one order; the estimate adds both pieces' absolute errors.

    The two pieces have opposite signs for odd n but never cancel
    catastrophically: the unit part dominates (its magnitude stays within
    [(1 − e^{−1})·n!, n!] while e^{−1}·S(n) ≤ e^{−1}·n!, see ``_log_gamma``).
    """
    ns, rel_tol = _checked("gamma_derivative", n, rel_tol, integer=True)
    (sign, *gamma), _ = _log_gamma(ns, rel_tol)
    return _scalar_result(int(sign), *gamma)
