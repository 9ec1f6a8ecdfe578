"""Principal-branch Lambert W for non-negative arguments.

``W(t)`` is the unique ``w >= 0`` with ``w * exp(w) = t`` for ``t >= 0``.
It locates the peak of the log-power integrands used throughout this
package (at ``x = exp(W(p)) - 1``) and drives the saddle-point estimates,
so it must stay accurate for every positive float ``t``, subnormals and
``t`` near the float maximum included.

The solver is Halley's iteration (Corless et al., "On the Lambert W
function", Adv. Comput. Math. 5, 1996) in ``z = ln w`` on

    f = w + ln(w / t),

which is zero at ``w = W(t)``, with ``df/dz = 1 + w`` and
``d²f/dz² = w``.  One formulation serves every ``t > 0``:

* it never exponentiates ``w``, so it cannot overflow for huge ``t``;
* ``ln(w / t)`` rather than ``ln w - ln t`` avoids cancellation for tiny
  ``t``, where ``w / t -> 1``;
* the update ``w -> w * exp(-step)`` keeps full relative precision of
  ``w`` even where ``|ln w|`` is large; it is formed as
  ``w + w * expm1(-step)``, because ``exp`` of a step near the float
  epsilon rounds to a neighbour of 1 and would lose the last correction.

It takes four fixed steps from ``log1p(t) >= W(t)``, with no stopping
test; they reach W to 4.5e-16 for every ``t`` from 5e-324 to 1.7e308,
and give each element of an array the bits it would get alone.  The
residual ``|w e^w - t|`` is evaluated as ``t * |expm1(w + ln(w / t))|``,
exact in the ulp sense for any ``t``.

Useful sandwich for ``t > e``::

    ln t - ln ln t  <=  W(t)  <=  ln t - ln(ln t - ln ln t)

Both endpoints tighten as ``t`` grows; they make cheap a-priori brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, _float_arg

__all__ = [
    "TOL_W",
    "WValue",
    "lambert_w0",
    "lambert_w_bounds",
    "w_frac_diff",
    "w_ratio_power",
]

#: Relative residual tolerance: |w e^w - t| <= TOL_W * max(t, 1).
TOL_W = 1e-12

#: Halley steps ``_halley`` takes; four reach the root from every start.
_STEPS = 4


@dataclass(frozen=True)
class WValue:
    """A solved Lambert W point: argument, value, and achieved residual."""

    t: float
    w: float
    residual: float


def _require_positive_t(t: float, op: str) -> float:
    t = _float_arg(t, op, "t")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"{op} requires finite t > 0, got {t!r}")
    return t


def _halley(t, xp):
    """W(t) for t > 0: a Python float with ``xp`` = ``math`` (lambert_w0),
    float64 scalars or arrays with ``xp`` = ``np`` (the quadrature's peaks)."""
    w = xp.log1p(t)
    for _ in range(_STEPS):
        f = w + xp.log(w / t)
        w1 = 1.0 + w
        step = f / (w1 - f * w / (2.0 * w1))
        w = w + w * xp.expm1(-step)  # w·e^{−step}
    return w


def _solve(t: float) -> tuple[float, float, float]:
    """(t, W(t), residual) for a float t > 0 that the caller has checked;
    ConvergenceError where the residual exceeds ``TOL_W * max(t, 1)``.
    Callers that need only W take it from here."""
    w = _halley(t, math)
    residual = t * abs(math.expm1(w + math.log(w / t)))
    if not residual <= TOL_W * max(t, 1.0):
        raise ConvergenceError(
            f"lambert_w0({t!r}) residual {residual:.3e} exceeds "
            f"{TOL_W:.0e} * max(t, 1) after {_STEPS} Halley steps"
        )
    return t, w, residual


def lambert_w0(t: float) -> WValue:
    """Evaluate the principal branch W(t) for t >= 0.

    Raises DomainError for negative or non-finite t, and ConvergenceError
    if the residual tolerance ``TOL_W * max(t, 1)`` is not met.
    """
    t = _float_arg(t, "lambert_w0", "t")
    if math.isnan(t) or math.isinf(t) or t < 0.0:
        raise DomainError(f"lambert_w0 requires finite t >= 0, got {t!r}")
    return WValue(0.0, 0.0, 0.0) if t == 0.0 else WValue(*_solve(t))


def lambert_w_bounds(t: float) -> tuple[float, float]:
    """A-priori sandwich (lower, upper) for W(t); requires finite t > e."""
    t = _float_arg(t, "lambert_w_bounds", "t")
    if not math.e < t < math.inf:
        raise DomainError(f"lambert_w_bounds requires finite t > e, got {t!r}")
    lt = math.log(t)
    llt = math.log(lt)
    lower = lt - llt
    upper = lt - math.log(lt - llt)
    return lower, upper


def _w_unit_increment(t: float) -> tuple[float, float, float]:
    """Solve for d = W(t+1) − W(t) without subtractive cancellation.

    Taking ``ln w + w = ln t`` at t and t+1 and subtracting gives the
    exact scalar equation ``d + log1p(d/w0) = log1p(1/t) = L``, whose
    terms are all well-scaled even when d underflows the spacing of w
    itself.  The float difference of the two solver outputs seeds a
    Newton polish of that equation.  Below t = 1, where 1/t and d/w0 may
    overflow, d ≥ W(2) − W(1) needs no polish and L = log1p(t) − ln t.
    Returns (w0, d, L).
    """
    w0 = _solve(t)[1]
    w1 = _solve(t + 1.0)[1]
    d = w1 - w0
    if t < 1.0:
        return w0, d, math.log1p(t) - math.log(t)
    ell = math.log1p(1.0 / t)
    for _ in range(3):
        f = d + math.log1p(d / w0) - ell
        d -= f / (1.0 + 1.0 / (w0 + d))
    return w0, d, ell


def w_ratio_power(t: float) -> float:
    """Evaluate (W(t+1)/W(t))**t; lies in [1, exp(1/(W(t)+1))] for t > 0.

    The exponent ``t·ln(W(t+1)/W(t))`` is evaluated as ``t·(L − d)`` with
    L = log1p(1/t) and d = W(t+1) − W(t) from the increment equation;
    forming it from two separate logarithms would lose the bound's
    O(1/t)-thin margin to cancellation for large ``t``.
    """
    t = _require_positive_t(t, "w_ratio_power")
    w0, d, ell = _w_unit_increment(t)
    return math.exp(t * (ell - d))


def w_frac_diff(t: float) -> float:
    """Evaluate (t+1)/W(t+1) - t/W(t); lies in [0, 1/W(t+1)] for t > 0.

    ``t/W(t) = exp(W(t))`` is the peak abscissa shifted by one, so this
    difference equals ``(t/W(t))·expm1(d)`` with d = W(t+1) − W(t),
    which stays fully precise when the two fractions grow huge.
    """
    t = _require_positive_t(t, "w_frac_diff")
    w0, d, _ = _w_unit_increment(t)
    return (t / w0) * math.expm1(d)
