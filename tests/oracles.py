"""Independent numeric oracles used by the tests.

These deliberately avoid every code path of the package under test:

* ``bisect_w`` solves w·e^w = t by plain bisection (no Halley, no log
  transform) — slow but correct to the last bit.
* ``simpson_s`` evaluates S(p) = ∫₀^∞ ln(1+x)^p e^{−x} dx by composite
  Simpson on the substitution x = u² (the substituted integrand
  2u·ln(1+u²)^p·e^{−u²} is smooth at 0 for the half-integer p used in
  tests), truncated at x = 80 where the integrand is ~e^{−60} of the
  peak for the p ranges exercised.
* ``simpson_unit`` evaluates |∫₀¹ (ln t)^n e^{−t} dt| via the
  substitution t = e^{−u} as ∫₀^∞ u^n e^{−u−e^{−u}} du, same rule.

Both Simpson oracles work in ordinary floating point, so they are only
used where the values fit comfortably in double range (p ≤ ~250).

``reference_s_shape`` is of another kind: the plain form of the package's
``quadrature._s_shape``, one numpy call per quantity, whose bits the
package's leaner form must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

#: Euler–Mascheroni constant (literal, not computed by the package).
EULER = 0.5772156649015328606

#: Omega constant W(1) (literal).
OMEGA = 0.5671432904097838730


def bisect_w(t: float, iterations: int = 200) -> float:
    """Principal-branch Lambert W by bisection on w·e^w − t."""
    if t < 0.0:
        raise ValueError("bisect_w requires t >= 0")
    if t == 0.0:
        return 0.0
    lo = 0.0
    hi = 1.0
    while hi * math.exp(hi) < t:
        hi *= 2.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if mid * math.exp(mid) < t:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _simpson(values: np.ndarray, h: float) -> float:
    weights = np.ones_like(values)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * values) * h / 3.0)


def simpson_s(p: float, n_panels: int = 2**16, x_max: float = 80.0) -> float:
    """Brute-force S(p) on a fine fixed grid (independent of the package)."""
    u = np.linspace(0.0, math.sqrt(x_max), 2 * n_panels + 1)
    x = u * u
    with np.errstate(divide="ignore"):
        log_l1p = np.log(np.log1p(x))
    vals = np.zeros_like(u)
    if p == 0.0:
        vals = 2.0 * u * np.exp(-x)
    else:
        body = p * log_l1p - x + np.log(2.0 * u, out=np.full_like(u, -np.inf), where=u > 0)
        good = np.isfinite(body)
        vals[good] = np.exp(body[good])
    return _simpson(vals, u[1] - u[0])


def simpson_unit(n: int, n_panels: int = 2**17, u_max: float = 200.0) -> float:
    """Brute-force |∫₀¹ (ln t)^n e^{−t} dt| on a fine fixed grid."""
    u = np.linspace(0.0, u_max, 2 * n_panels + 1)
    body = -u - np.exp(-u)
    if n > 0:
        with np.errstate(divide="ignore"):
            body = body + n * np.log(u, out=np.full_like(u, -np.inf), where=u > 0)
    vals = np.zeros_like(u)
    good = np.isfinite(body)
    vals[good] = np.exp(body[good])
    return _simpson(vals, u[1] - u[0])


def reference_s_shape(p):
    """Peak abscissa, peak log and cutoff of S's integrand, as
    ``quadrature._s_shape`` gives them, for a float64 scalar or array p ≥ 0.

    W is set to 0 at p = 0 by np.where, and each tangent step evaluates the
    log-integrand p·ln ln(1+x) − x and its slope p/((1+x)·ln(1+x)) − 1
    separately, each with its own ln(1+x).
    """
    from momentdet.lambertw import _halley
    from momentdet.quadrature import _CUTOFF_DROP, _CUTOFF_SLACK, _CUTOFF_STEPS

    def logf(x):
        return p * np.log(np.log1p(x)) - x

    def slope(x):
        return p / ((1.0 + x) * np.log1p(x)) - 1.0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.where(p > 0.0, _halley(p, np), 0.0)[()]
        peak = np.expm1(w)
        peak_log = np.where(p > 0.0, logf(peak), 0.0)[()]
        aim = peak_log - _CUTOFF_DROP - _CUTOFF_SLACK * (1.0 + np.abs(peak_log))
        cut = peak + (1.0 + np.sqrt(2.0 * _CUTOFF_DROP * p / (1.0 + w)))
        for _ in range(_CUTOFF_STEPS):
            cut = cut + (aim - logf(cut)) / slope(cut)
        return peak, peak_log, cut
