"""Log-domain evaluation of the package's integral family.

Two integrals are evaluated, both entirely in the log domain because
their values span hundreds of orders of magnitude:

* ``S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx`` for real p ≥ 0
  (``integrate_logweighted``; ``log_power_integral`` for arrays of p),
  by the paper's saddle-point series from p = 61 on and from a literal
  table below; tanh-sinh quadrature serves the CLI ``asym`` alone.
  S(100) is already ~4.5·10⁴¹, and p up to a few thousand must work.
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
(``_all``, ``_whole``) and to route S's orders (``_log_s``: comparisons
for a scalar, one mask per piece for a batch), never for elementwise
arithmetic, so a scalar and an array share every numeric expression.

Method for S.  ``_log_s`` takes orders p ≥ 61 from Laplace's method
carried to eight correction terms (``_log_s_series``) and the orders
below from a literal table (``_log_s_table`` from 1, ``_log_s_below_one``
below it), both exact to float rounding.  With W = W(p), the substitution
x = e^W − 1 + e^W·s turns S(p) into W^p·e^{−(e^W − 1)}·e^W·∫ exp(p·φ(s)) ds,
φ(s) = ln(1 + ln(1+s)/W) − s/W, whose peak is at s = 0, so ln S(p) =
p·ln W − (e^W − 1) + ½·ln(2πp/(1+W)) + Σₘ dₘ·p⁻ᵐ, each dₘ a rational
function of 1/W (``_SERIES``).  Below 61 eight terms no longer reach
float rounding, and the table ``_S_TABLE`` holds, per octave
[2^(j−1), 2^j], a polynomial in p of what the saddle terms (``_saddle``,
shared with the series) leave over, and on [0, 1] one of ln S(p)/p, so
that ln S(0) is exactly 0.  No path of ``_log_s`` runs the quadrature.

The quadrature (``_log_s_quadrature``) is what the CLI ``asym`` uses, at
every t, so that its integral column stays independent of the saddle
estimates it is compared with.  Its log-integrand is concave with a
single peak, placed for all orders at once at expm1(W(p)) (W by
``lambertw._halley``).  The axis is split into [0, peak] and [peak,
cutoff] panels, the cutoff lying where the log-integrand has dropped 60
nats below the peak (mass below e^{−60} of the peak's is invisible at
the supported tolerances).  By concavity, a tangent right of the peak
meets that level at or beyond the integrand itself, so a few tangent
steps, aimed slightly past the drop against rounding, never cut into the
kept mass.

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
bookkeeping.  At the default rel_tol every call tried stops there, with S
by quadrature: S(p) for p in [0.5, 4000], Γ⁽ⁿ⁾(1) for n ≤ 200, and a
generation batch at n_max 2000.  Only rows that continue are gathered,
one level per later pass, and their columns scattered into the first
pass's.  Each level's sum is a column slice of its pass, so the results
are those of one pass per level, bit for bit.  A row's node count is
that of the level it stopped at, 8·2^L + 1, even where its pass
evaluated a deeper level for it.

Error estimates are floored at eps·(4 + |log value|), the rounding of a
log-magnitude summed and held in a float, so levels that agree bit for
bit do not claim an error of zero; the unit integral's series and S's
table and saddle-point series, exact to rounding, report that floor
alone.  Where the rounding of S's log-integrand near its peak reaches the
60-nat window itself (p ≳ 1e17), no cutoff can be placed and DomainError
is raised, by the series and the quadrature alike, as it is wherever a
floored estimate exceeds rel_tol (for S at 1e-9 from p ≈ 2e6 on, for the
unit integral at 1e-9 from n ≈ 3.8e5 on).
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

    ``nodes_used`` counts the quadrature nodes summed; a series or table
    reports its terms instead: the unit integral its 20, S(p) from p = 61
    on its 8 correction terms and below that the 24 coefficients of its
    table row.  Γ⁽ⁿ⁾(1) reports the unit integral's 20 plus those of S(n).
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


def _checked(
    name: str, p, rel_tol: float, arg: str = "p", integer: bool = False
) -> tuple[_Floats, float]:
    """``p`` as a float64 (a numpy scalar for a scalar, else an array), and
    ``rel_tol``, checked for the public function or command ``name``, whose
    errors call ``p`` ``arg``; ``integer`` asks for one int order."""
    if integer:
        p = _int_arg(p, 0, f"{name} requires an integer {arg} >= 0")
    ps = _float_arg(p, name, arg, array=True)
    ok = (ps >= 0.0) & (ps < np.inf)
    if not _all(ok):
        bad = float(np.extract(~ok, ps)[0])
        raise DomainError(f"{name} requires finite {arg} >= 0, got {bad!r}")
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
    """Peak abscissa, peak log and cutoff of S's integrand, per p ≥ 0 whose
    cutoff window ``_saddle`` has checked.

    The peak is expm1(W(p)), with W(p) from ``lambertw._halley``.  The
    cutoff is the rightmost abscissa kept, at or past where the
    log-integrand has dropped _CUTOFF_DROP below the peak.  Tangent steps
    aim there from peak + reach, where the reach is 1 plus the distance at
    which the curvature −(1+W)/p at the peak alone would bring the drop,
    just left of the cutoff.  The log-integrand is concave, so each
    tangent lies above it: the first step lands at or past the aim and
    every later step approaches it from the right without crossing it.
    Nothing here warns for such p: the first p that would, about 4.3e32
    (where a tangent step meets a zero slope), lies far past the window.
    """
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


def _check_window(p: _Floats, peak_log: _Floats) -> None:
    """DomainError, naming the lowest such p, where the float rounding of
    the log-integrand near its peak, eps·|peak log|, reaches the cutoff
    drop: the kept window then collapses at float resolution and no cutoff
    can be placed."""
    held = _EPS * abs(peak_log) < _CUTOFF_DROP
    if not _all(held):
        p, peak_log, held = np.atleast_1d(p, peak_log, held)
        i = np.argmin(np.where(held, np.inf, p))
        raise DomainError(
            f"the integrand for p = {p[i]:.17g} peaks at log {peak_log[i]:.6g}, whose "
            f"float rounding exceeds the {_CUTOFF_DROP:g}-nat cutoff window"
        )


def _log_s_quadrature(p: _Floats, rel_tol: float) -> tuple[_Floats, _Floats, _Floats]:
    """(log S(p), floored estimated relative error, nodes used) for p ≥ 0,
    a scalar or an array, by tanh-sinh quadrature: the CLI ``asym``'s S(p),
    independent of the saddle-point terms it is compared with.

    Raises DomainError, naming the lowest such p, first where ``_saddle``
    finds the cutoff window collapsed, and then where a floored estimate
    exceeds ``rel_tol``.  The window check takes p below 1 at 1, where the
    window holds, and its p·ln W, in np.longdouble, cannot overflow, so no
    p warns, there or in ``_s_shape`` beyond the window.
    """
    _saddle(np.maximum(p, 1.0))
    peak, peak_log, cut = _s_shape(p)
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


_TWO_PI = 2.0 * math.pi


def _saddle(p: _Floats) -> tuple[_Floats, _Floats]:
    """W(p) and the saddle terms of ln S(p), p·ln W − (e^W − 1) +
    ½·ln(2πp/(1+W)), for p ≥ 1, a scalar or an array; the terms in
    np.longdouble.

    p·ln W − (e^W − 1) is the log-integrand at the peak, which
    ``_check_window`` checks before the last term is taken (2πp overflows
    near the float maximum).  The terms are evaluated at W from
    ``lambertw._halley``, whose rounding they feel only to second order
    (their derivative in W, p/W − e^W, is 0 at W(p)), and in np.longdouble,
    for the caller to round to a float once with its correction: in
    float64 the series missed the floor eps·(4 + |log|) at 14 of 400
    log-spaced p in [61, 1e6], by up to 1.33 times, and in np.longdouble
    its worst error was 0.48 of it (README, Performance).
    """
    w = _halley(p, np)
    wide = w.astype(np.longdouble)
    peak_log = p * np.log(wide) - np.expm1(wide)
    _check_window(p, peak_log)
    return w, peak_log + 0.5 * np.log(_TWO_PI * p / (1.0 + wide))


#: Orders from this on take the saddle-point series: the least integer p
#: from which its first term left out, d₉(v)·p⁻⁹, stays within a quarter
#: of the floor eps·(4 + |log S(p)|) (``tests/test_series.py``).
_SERIES_FROM = 61.0

#: ln S(p) = p·ln W − (e^W − 1) + ½·ln(2πp/(1+W)) + Σₘ dₘ(v)·p⁻ᵐ, with
#: W = W(p) and v = 1/W: Laplace's method on ∫ exp(p·φ(s)) ds, φ(s) =
#: ln(1 + v·ln(1+s)) − v·s, in the log form of its expansion (F. W. J.
#: Olver, Asymptotics and Special Functions, 1974, ch. 3).  One row
#: "Cₘ: Nₘ" per m, with dₘ·p⁻ᵐ = Nₘ(v)·yᵐ/Cₘ, y = 1/(v·(1+v)³·p), and
#: Nₘ's integer coefficients from v⁰ up; text, which compiles in a small
#: fraction of the time a tuple of these 165 ints takes.  The first
#: _SERIES_TERMS rows are summed and the next one, doubled, is the
#: truncation estimate.  ``tests/test_series.py`` re-derives the table in
#: exact rationals.
_SERIES = (
    "24: 2 9 16 6 2",
    "48: 0 -2 -12 -29 -40 -36",
    "5760: -16 -164 -616 -834 952 5217 8688 10192 10032 -1344 -576 -144 -16",
    "11520: 0 144 1732 9380 29900 61142 80689 62917 19160 -13160 -51408 -91200",
    "2903040: 2304 36576 154336 -424648 -7088088 -35546336 -107599000 -224143056"
    " -335782838 -363597703 -280264992 -163569056 -96614272 -1357920 121472640 6918912"
    " 3144960 1048320 241920 34560 2304",
    "5806080: 0 -57600 -1024992 -7931456 -33935960 -77834624 -22129968 516016912"
    " 2116211320 4994629810 8301796285 10255333723 9479892884 6512943556 3811831840"
    " 2895682464 1354311936 -1271773440",
    "1393459200: -829440 -17927424 -75398400 979421280 14702509760 95976165712"
    " 393007055392 1098463324560 2081959474560 2257534962436 -503325715176 -7902367190574"
    " -18790372093820 -28472870346375 -31491157692288 -25841077020608 -15271932477440"
    " -7744378864000 -7016356224000 -4705524209664 1902085355520 -96447283200 -45008732160"
    " -16878274560 -4964198400 -1103155200 -174182400 -17418240 -829440",
    "2786918400: 0 40642560 959231232 9430373376 46483611552 67095196960 -657765723568"
    " -5591597137872 -24305692592480 -72591992088016 -160172596601476 -264515046667220"
    " -314202992051050 -219685183352818 48221317857097 401124310562753 672295813589264"
    " 729072132780144 555377864264448 268859822378240 86848937201664 113411430406656"
    " 109388379709440 -32247014768640",
    "367873228800: 309657600 8500654080 34203193344 -1062970618368 -18081314661888"
    " -143887850794304 -706001060654208 -2180775799386624 -3171995137533024"
    " 6891664677743120 60943555934342464 221060643182558872 551532593819894200"
    " 1044395224235690528 1544179768322266264 1772829300506118100 1502022663190403078"
    " 757802490311360373 -149034567373286144 -827371495714460224 -1047423002698594688"
    " -806760937454736832 -312785605474488320 9673087182108672 -94918447369543680"
    " -174023845273681920 40015944157593600 1451310981120000 687463096320000"
    " 274985238528000 91661746176000 24998658048000 5434490880000 905748480000"
    " 108689817600 8360755200 309657600",
)
_SERIES_TERMS = 8
#: Orders whose series terms are evaluated together, which bounds the temporaries.
_SERIES_CHUNK = 512


@cache
def _series_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The _SERIES table as Nₘ/Cₘ, one row per m padded with zeros to the
    highest degree; the powers of v from 0 to that degree; and the powers
    of y, m = 1, 2, ....  Read-only."""
    rows = [(float(big), np.array(num.split(), dtype=float))
            for big, num in (row.split(":") for row in _SERIES)]
    coefs = np.zeros((len(rows), max(len(num) for _, num in rows)))
    for row, (big, num) in zip(coefs, rows):
        row[: len(num)] = num / big
    arrays = coefs, np.arange(float(coefs.shape[1])), np.arange(1.0, len(rows) + 1.0)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _log_s_series(p: _Floats) -> tuple[_Floats, _Floats, int]:
    """(log S(p), estimated relative error, terms summed) by the saddle-point
    series, for p ≥ _SERIES_FROM, a scalar or an array; the estimate is not
    floored.

    The terms dₘ(v)·p⁻ᵐ are evaluated _SERIES_CHUNK orders at a time, each
    polynomial in v by np.einsum over its powers, which calls no BLAS: a
    first ``@`` on a 5,000-order batch added 2.1 MB to the process.
    """
    coefs, powers, m = _series_arrays()
    w, saddle = _saddle(p)
    v = 1.0 / w
    # one row of terms per order: a 1-d row for a scalar, whose one chunk is itself
    v, y = v[..., None], (w / ((1.0 + v) ** 3 * p))[..., None]
    terms = np.concatenate([
        np.einsum("...k,mk->...m", v[s : s + _SERIES_CHUNK] ** powers, coefs)
        * y[s : s + _SERIES_CHUNK] ** m
        for s in range(0, len(v), _SERIES_CHUNK)
    ])
    series = np.add.reduce(terms[..., :_SERIES_TERMS], axis=-1)
    return (saddle + series).astype(float), 2.0 * abs(terms[..., _SERIES_TERMS]), _SERIES_TERMS


#: Below _SERIES_FROM, ln S(p) comes from this table: one row per interval,
#: [0, 1] and the octaves [2^(j−1), 2^j] for j = 1..6.  Row 0 holds
#: g(p) = ln S(p)/p, and row j what the saddle terms of ``_saddle`` leave
#: over, R(p) = ln S(p) − [p·ln W − (e^W − 1) + ½·ln(2πp/(1+W))], each as
#: the coefficients of x⁰, x¹, ... in the interval's x ∈ [−1, 1].  Each row
#: interpolates its function at 24 Chebyshev points, from 40-digit mpmath
#: values (L. N. Trefethen, Approximation Theory and Approximation
#: Practice, SIAM 2013, ch. 8): ln S(p) is analytic for Re p > −1, so the
#: interpolants converge geometrically, and the next Chebyshev coefficient
#: is below 4e-20 on every row.  |g| < 0.9 and |R| < 0.12, so the float
#: rounding of a row's sum is negligible beside eps·(4 + |log S|).
#: ``tools/s_table.py`` prints this text, and CI compares the two.
_S_TABLE = (
    # [0, 1]
    "-0.6689210328446965 0.1807847326909101 -0.035682925783551096 0.008699472710667084"
    " -0.002313954477822647 0.0006451365546173295 -0.00018526578138801277 5.430628953064239e-05"
    " -1.616274522694372e-05 4.867641022424427e-06 -1.4799711151604888e-06 4.5351644403639184e-07"
    " -1.398907378174067e-07 4.3394068732846255e-08 -1.3530126998579705e-08 4.235401370886415e-09"
    " -1.3247678908496378e-09 4.1759225210410273e-10 -1.3831441964202338e-10 4.38725234151992e-11"
    " -9.77742990224661e-12 3.104241591093697e-12 -2.576933785627147e-12 8.255285144306698e-13",
    # [1, 2]
    "0.09175946456700748 -0.019668873558020585 0.0053434712194169115 -0.0016073342093839782"
    " 0.0005055040267078484 -0.00016169249848114084 5.195215202575829e-05 -1.6683799709658113e-05"
    " 5.346616237572345e-06 -1.7096540806091825e-06 5.45729294485118e-07 -1.7399801533717594e-07"
    " 5.5443605058741205e-08 -1.7665261057689254e-08 5.6317820951682e-09 -1.7959086643016979e-09"
    " 5.703550287894798e-10 -1.821795878593064e-10 6.116093329140445e-11 -1.95836498275252e-11"
    " 4.346969454490495e-12 -1.391732197007104e-12 1.181528326604204e-12 -3.803679349836098e-13",
    # [2, 4]
    "0.058381511376446364 -0.01298271854125791 0.0034279274895580836 -0.0009834974138825919"
    " 0.00029725688153841293 -9.295230838294255e-05 2.970498726767076e-05 -9.619846532009054e-06"
    " 3.1391452486025534e-06 -1.0283963704657611e-06 3.374561674643459e-07"
    " -1.1076057281732167e-07 3.6334766325022694e-08 -1.1909010236897843e-08"
    " 3.900646685885162e-09 -1.27576862937329e-09 4.145114082593062e-10 -1.3532202675726844e-10"
    " 4.6588015666676905e-11 -1.518753458701053e-11 3.32830878686629e-12 -1.0843336423395746e-12"
    " 9.704705797355898e-13 -3.15993720634484e-13",
    # [4, 8]
    "0.03623058668272581 -0.008580306078579637 0.002316407086099449 -0.0006612629403904407"
    " 0.0001954332370676818 -5.9231462578798754e-05 1.8306524644594032e-05 -5.747236405658803e-06"
    " 1.8272254433301933e-06 -5.868468506579779e-07 1.9000071664431084e-07 -6.190542828527047e-08"
    " 2.0267986014759545e-08 -6.660467450378129e-09 2.195736804463963e-09 -7.2496233792836e-10"
    " 2.381288451155815e-10 -7.87997919339439e-11 2.7716900575568455e-11 -9.17803563501051e-12"
    " 1.9600728874819117e-12 -6.495520720864038e-13 6.263309724169086e-13 -2.071951810619351e-13",
    # [8, 16]
    "0.021815131750290803 -0.0054689395913938 0.0015311753841431013 -0.0004474067109059155"
    " 0.00013392590588548968 -4.0747442239052414e-05 1.2549504237326141e-05 -3.90281268336314e-06"
    " 1.2236364532653566e-06 -3.863244963952243e-07 1.2271565716408936e-07"
    " -3.9191664245705666e-08 1.257692262396e-08 -4.053598716613858e-09 1.312117629654593e-09"
    " -4.2603267803553995e-10 1.3790394674188857e-10 -4.503780125874156e-11"
    " 1.5642583784670927e-11 -5.135704548841785e-12 1.0944970851449263e-12 -3.595293144038579e-13"
    " 3.449225998956489e-13 -1.1408079927239525e-13",
    # [16, 32]
    "0.01279779737129325 -0.0033502173258212753 0.0009670796343082623 -0.0002894927776788876"
    " 8.837482265593998e-05 -2.731967876389165e-05 8.521018570782675e-06 -2.675727413760489e-06"
    " 8.447489541973703e-07 -2.6788012767038414e-07 8.52685034907533e-08 -2.7230462722294724e-08"
    " 8.721012777416801e-09 -2.8003200780839516e-09 9.016245459982403e-10 -2.908149899997813e-10"
    " 9.34597731745009e-11 -3.0257956890314427e-11 1.036390559272503e-11 -3.3681990794693013e-12"
    " 7.308939739990842e-13 -2.375096069047958e-13 2.164845089700033e-13 -7.082722481709162e-14",
    # [32, 64]
    "0.007357276734638215 -0.001988511666981257 0.0005869988413141987 -0.0001789609688487278"
    " 5.550199809507902e-05 -1.739912522123653e-05 5.495222385527239e-06 -1.745187335729816e-06"
    " 5.566215848441531e-07 -1.7814486799199542e-07 5.717697827748925e-08 -1.8395450545644448e-08"
    " 5.930444522860425e-09 -1.9153641503757153e-09 6.19821784821087e-10 -2.0078769214700617e-10"
    " 6.476060017435715e-11 -2.1029135620405023e-11 7.219196181132546e-12 -2.3497232342952285e-12"
    " 5.112834691974948e-13 -1.664105423955551e-13 1.510460249908868e-13 -4.935775192273101e-14",
)
_TABLE_TERMS = 24


@cache
def _table_arrays() -> tuple[np.ndarray, np.ndarray]:
    """_S_TABLE as one row of coefficients per interval, and the powers of x
    from 0 to _TABLE_TERMS − 1.  Read-only."""
    coefs = np.array([row.split() for row in _S_TABLE], dtype=float)
    arrays = coefs, np.arange(float(_TABLE_TERMS))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _table_fit(row, x: _Floats) -> _Floats:
    """_S_TABLE's polynomial of row ``row`` (an int, or one per x) at ``x``,
    a scalar or an array."""
    coefs, powers = _table_arrays()
    return np.einsum("...k,...k->...", x[..., None] ** powers, coefs[row])


def _log_s_below_one(p: _Floats) -> tuple[_Floats, float, int]:
    """(log S(p), 0.0, terms summed) for 0 ≤ p < 1, a scalar or an array:
    p·g(p) from _S_TABLE's first row, exactly 0 at p = ±0 (+ 0.0 turns the
    −0.0 of 0.0·g(0), g(0) < 0, into +0.0)."""
    return p * _table_fit(0, 2.0 * p - 1.0) + 0.0, 0.0, _TABLE_TERMS


def _log_s_table(p: _Floats) -> tuple[_Floats, float, int]:
    """(log S(p), 0.0, terms summed) for 1 ≤ p < _SERIES_FROM, a scalar or an
    array: the saddle terms plus R(p) from _S_TABLE, rounded to a float once.

    p = m·2^j with m in [0.5, 1) (np.frexp) lies on the octave
    [2^(j−1), 2^j) of row j, at x = 4m − 3, exactly.
    """
    m, row = np.frexp(p)
    return (_saddle(p)[1] + _table_fit(row, 4.0 * m - 3.0)).astype(float), 0.0, _TABLE_TERMS


def _log_s(p: _Floats, rel_tol: float) -> tuple[_Floats, _Floats, _Floats]:
    """(log S(p), floored estimated relative error, terms summed) for p ≥ 0,
    a scalar or an array: by ``_log_s_series`` from p = _SERIES_FROM on, by
    ``_log_s_table`` from 1 and by ``_log_s_below_one`` below.  The series
    reports its _SERIES_TERMS terms as nodes and the table its _TABLE_TERMS;
    the table, exact to rounding, reports the floored estimate alone.

    Raises DomainError, naming the lowest such p of the whole batch, where
    the series' window check fails, and after every piece where a floored
    estimate exceeds ``rel_tol``.
    """
    if p.ndim == 0:
        piece = (_log_s_series if p >= _SERIES_FROM
                 else _log_s_table if p >= 1.0 else _log_s_below_one)
        total, est, nodes = piece(p)
        return total, _floor_within(p, est, total, rel_tol), nodes
    total, est = np.empty(p.shape), np.empty(p.shape)
    nodes = np.empty(p.shape, dtype=int)
    series, below_one = p >= _SERIES_FROM, p < 1.0
    table = ~(series | below_one)
    for rows, piece in ((series, _log_s_series), (table, _log_s_table),
                        (below_one, _log_s_below_one)):
        if rows.any():
            total[rows], est[rows], nodes[rows] = piece(p[rows])
    return total, _floor_within(p, est, total, rel_tol), nodes


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
    ns, rel_tol = _checked("integrate_unit_log_power", n, rel_tol, "n", integer=True)
    return _scalar_result(-1 if n % 2 else 1, *_log_unit(ns, rel_tol))


def gamma_derivative(n: int, rel_tol: float = DEFAULT_REL_TOL) -> QuadratureResult:
    """Evaluate Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n) by ``_log_gamma``
    on one order; the estimate adds both pieces' absolute errors.

    The two pieces have opposite signs for odd n but never cancel
    catastrophically: the unit part dominates (its magnitude stays within
    [(1 − e^{−1})·n!, n!] while e^{−1}·S(n) ≤ e^{−1}·n!, see ``_log_gamma``).
    """
    ns, rel_tol = _checked("gamma_derivative", n, rel_tol, "n", integer=True)
    (sign, *gamma), _ = _log_gamma(ns, rel_tol)
    return _scalar_result(int(sign), *gamma)
