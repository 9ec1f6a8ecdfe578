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

``reference_log_unit`` and ``reference_log_gamma`` are of another kind:
the plain forms of the package's unit integral, ln n! and σₙ summed for
every order, and of Γ⁽ⁿ⁾(1) composed from it and S(n), on 1-d arrays of
orders, whose bits the package's leaner forms (a table read) must
reproduce.  So are the ``reference_check_*`` checkers
and ``reference_analyze``: the arithmetic of ``criteria`` with each
checker building its own n, ln n, ln q and centred tails, whose verdicts and
diagnostics the package's shared table must reproduce.  And so is
``reference_parse_family``: the family grammar read by a cursor that
matches one factor at a time, whose specs and exception types the
package's single match must reproduce.
"""

from __future__ import annotations

import math
import re
from functools import cache

import numpy as np

#: Euler–Mascheroni constant (literal, not computed by the package).
EULER = 0.5772156649015328606

#: Omega constant W(1) (literal).
OMEGA = 0.5671432904097838730

#: Float epsilon, and the rounding of a log-integral beyond eps·|log|, in eps.
_EPS = float(np.finfo(float).eps)
_LOG_ROUNDING = 4.0


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


def reference_floor(log):
    """The error estimate of a log exact to float rounding: eps·(4 + |log|)."""
    return _EPS * (_LOG_ROUNDING + np.abs(log))


def s_terms(p: float) -> int:
    """The terms S(p) reports as ``nodes_used``: the saddle-point series' 8
    from p = 61 on, a table row's 24 below."""
    return 8 if p >= 61.0 else 24


@cache
def reference_log_factorial(top: int) -> np.ndarray:
    """ln k! for k = 0..top: the compensated (Neumaier) running sum of
    math.log(j) for j = 1..k, rounded once per entry."""
    logs, total, comp = [0.0], 0.0, 0.0
    for x in map(math.log, range(1, top + 1)):
        t = total + x
        total, comp = t, comp + ((total - t) + x if total >= x else (x - t) + total)
        logs.append(total + comp)
    return np.array(logs)


def reference_sigma(n):
    """σₙ = Σₖ (−1)^k/(k!·(k+1)^{n+1}) over its first 20 terms, for a 1-d
    float64 array of integer n."""
    coefs = np.array([(-1) ** k / math.factorial(k) for k in range(20)])
    bases = np.arange(1.0, 21.0)
    return (coefs * bases ** -(n[:, None] + 1.0)).sum(axis=1)


def reference_log_unit(n):
    """log |∫₀¹ (ln t)^n e^{−t} dt| for a 1-d float64 array of integer n in
    0..8192, as ``quadrature._log_unit`` gives it: ln n! plus ln σₙ, both
    summed here for every order."""
    return reference_log_factorial(8192)[n.astype(int)] + np.log(reference_sigma(n))


def reference_log_gamma(n):
    """(sign, log |Γ⁽ⁿ⁾(1)|, log |unit|, log S(n)) for a 1-d float64 array
    of integer n in 0..8192, as ``quadrature._log_gamma`` gives them, with
    S(n) from the package's ``quadrature._log_s`` (its values are tested
    against mpmath on their own): (−1)^n·|unit| + e^{−1}·S(n) as the sign
    (−1)^n and the log ln|unit| + log1p((−1)^n·e^{−1}·S(n)/|unit|)."""
    from momentdet.quadrature import _log_s

    unit_log = reference_log_unit(n)
    s_log = _log_s(n)
    sign = (-1.0) ** n
    log = unit_log + np.log1p(sign * np.exp(s_log - 1.0 - unit_log))
    return sign, log, unit_log, s_log


def reference_gamma_error(log, unit_log, s_log):
    """The estimated relative error of Γ⁽ⁿ⁾(1) from the logs
    ``reference_log_gamma`` gives: the absolute errors of its two floored
    pieces added, relative to |Γ⁽ⁿ⁾(1)|, and floored."""
    tail_log = s_log - 1.0
    abs_err = np.logaddexp(np.log(reference_floor(unit_log)) + unit_log,
                           np.log(reference_floor(s_log)) + tail_log)
    return np.maximum(np.exp(abs_err - log), reference_floor(log))


def _reference_fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """The closed-form centred slope; where the sum of y overflows, the
    slope of y scaled by a power of two (its largest term into [0.5, 1)),
    scaled back."""
    xc = x - np.add.reduce(x) / x.size
    with np.errstate(over="ignore"):
        total = np.add.reduce(y)
    if math.isfinite(total):
        return float(xc @ (y - total / y.size) / (xc @ xc))
    k = math.frexp(float(np.max(np.abs(y))))[1]
    y = np.ldexp(y, -k)
    with np.errstate(over="ignore"):
        return float(np.ldexp(xc @ (y - np.add.reduce(y) / y.size) / (xc @ xc), k))


def _reference_tail_fit(ns, y, tail_start):
    """ln n and y over n >= tail_start, the slope of y against ln n, and
    whether y rose across the tail."""
    tail = ns >= tail_start
    ln_n, y_tail = np.log(ns[tail]), y[tail]
    return ln_n, y_tail, _reference_fit_slope(ln_n, y_tail), bool(y_tail[-1] > y_tail[0])


def _reference_classify_series(ns, log_terms, tail_start):
    from momentdet import criteria as c

    ln_n, log_tail, slope, _ = _reference_tail_fit(ns, log_terms, tail_start)
    p_fit = -slope
    local_p = -np.diff(log_tail) / np.diff(ln_n)
    drift = _reference_fit_slope(ln_n[1:], local_p)
    with np.errstate(over="ignore", under="ignore"):
        partial_sum = float(np.sum(np.exp(log_terms)))
    b_ok = ln_n > 0.0
    lnln = np.log(ln_n[b_ok])
    log_b = log_tail[b_ok] + ln_n[b_ok] + lnln
    b_slope = _reference_fit_slope(lnln, log_b)
    b_last = c._exp_or_inf(float(log_b[-1]))
    if p_fit < 1.0 - c.BORDERLINE_BAND:
        status, refined = c.SATISFIED, 0.0
    elif p_fit > 1.0 + c.BORDERLINE_BAND and drift >= -c.DRIFT_TOL:
        status, refined = c.VIOLATED, 0.0
    else:
        refined = 1.0
        if b_slope >= -(1.0 - c.B_CRITICAL_BAND):
            status = c.SATISFIED
        elif b_slope <= -(1.0 + c.B_CRITICAL_BAND):
            status = c.VIOLATED
        else:
            status = c.INCONCLUSIVE
    diagnostics = {
        "exponent": p_fit,
        "exponent_drift": drift,
        "partial_sum": partial_sum,
        "b_slope": b_slope,
        "b_last": b_last,
        "tail_start": float(tail_start),
        "refined": refined,
    }
    return status, diagnostics


def reference_check_carleman(seq):
    from momentdet import criteria as c
    from momentdet.errors import SequenceError

    n_max = seq.n_max
    tail_start = max(2, n_max // 2)
    if n_max < max(tail_start + 8, 16):
        raise SequenceError(f"check_carleman needs n_max >= 16, got {n_max}")
    ns = np.arange(1, n_max + 1, dtype=float)
    log_terms = -seq.log_moments[1:] / (2.0 * np.arange(1, n_max + 1))
    status, diagnostics = _reference_classify_series(ns, log_terms, tail_start)
    return c.Verdict(criterion="carleman", status=status, diagnostics=diagnostics, n_used=n_max)


def _reference_log_q(q, ns):
    """ln q(n) for an array of integers ``ns`` >= 1, from np.log of ``ns``
    itself: 0, ln ln n or α·ln n; DomainError names the least n where α·ln n
    overflows."""
    from momentdet.errors import DomainError

    ln_n = np.log(ns)
    if q.kind == "constant-one":
        return np.zeros_like(ns)
    if q.kind == "log":
        with np.errstate(divide="ignore"):  # ln ln 1 = −inf
            return np.log(ln_n)
    with np.errstate(over="ignore"):
        out = q.alpha * ln_n
    if not np.all(np.isfinite(out)):
        bad = ns[~np.isfinite(out)].min()
        raise DomainError(f"ln q({bad:g}) = {q.alpha:g}*ln({bad:g}) overflows a float")
    return out


def reference_check_growth_rate(seq, q=None):
    from momentdet import criteria as c
    from momentdet.errors import DomainError, SequenceError

    if q is None:
        q = c.QFunction.one()
    n_max = seq.n_max
    if n_max < 8:
        raise SequenceError(f"check_growth_rate needs >= 8 ratio terms, got {n_max}")
    ns = np.arange(1, n_max, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        log_g = np.diff(seq.log_moments)[1:] - 2.0 * np.log(ns + 1.0) - 2.0 * _reference_log_q(q, ns + 1.0)
    if not np.all(np.isfinite(log_g)):
        bad = ns[~np.isfinite(log_g)].min()
        raise DomainError(f"ln g_n with q = {q.label()} overflows a float at n = {bad:g}")
    tail_start = max(1, (n_max - 1) // 2)
    ln_n, log_g_tail, power_slope, rising = _reference_tail_fit(ns, log_g, tail_start)
    loglog_slope = _reference_fit_slope(np.log(ln_n), log_g_tail)
    sup_log_g = float(np.max(log_g))
    if power_slope >= c.GROWTH_POWER_SLOPE and rising:
        status = c.VIOLATED
    elif loglog_slope <= c.GROWTH_ALPHA_BOUNDED:
        status = c.SATISFIED
    elif loglog_slope >= c.GROWTH_ALPHA_DIVERGENT:
        status = c.VIOLATED
    else:
        status = c.INCONCLUSIVE
    diagnostics = {
        "power_slope": power_slope,
        "loglog_slope": loglog_slope,
        "sup_g": c._exp_or_inf(sup_log_g),
        "sup_log_g": sup_log_g,
        "g_last": c._exp_or_inf(float(log_g[-1])),
        "tail_start": float(tail_start),
    }
    criterion = "growth_rate" if q.kind == "constant-one" else "growth_rate_q"
    if q.kind == "power" and q.alpha is not None:
        diagnostics["q_alpha"] = float(q.alpha)
    return c.Verdict(criterion=criterion, status=status, diagnostics=diagnostics, n_used=n_max)


def reference_check_q_divergence(q, n_max=400):
    from momentdet import criteria as c
    from momentdet.moments import _check_n_max

    n_max = _check_n_max(n_max, 100, "check_q_divergence requires integer n_max >= 100")
    n_start = 2 if q.kind == "log" else 1  # q(1) = ln 1 = 0
    ns = np.arange(n_start, n_max + 1, dtype=float)
    log_terms = -np.log(ns) - _reference_log_q(q, ns)
    status, diagnostics = _reference_classify_series(ns, log_terms, max(2, n_max // 2))
    return c.Verdict(
        criterion="q_divergence", status=status, diagnostics=diagnostics, n_used=ns.size
    )


def reference_check_hardy(seq):
    from momentdet import criteria as c
    from momentdet.errors import DomainError, SequenceError

    if seq.support != "stieltjes":
        raise DomainError(
            "check_hardy is unsupported on hamburger-symmetric sequences; "
            "the moment bound m_n <= (2n)!·c0^n is stated for positive variables"
        )
    n_max = seq.n_max
    if n_max < 16:
        raise SequenceError(f"check_hardy needs n_max >= 16, got {n_max}")
    ns = np.arange(1, n_max + 1, dtype=float)
    log_m = seq.log_moments[1:]
    log_fact = np.array([math.lgamma(2.0 * n + 1.0) for n in range(1, n_max + 1)])
    b = (log_m - log_fact) / ns
    tail_start = max(2, n_max // 2)
    _, _, slope, rising = _reference_tail_fit(ns, b, tail_start)
    sup_b = float(np.max(b))
    bound_ok = slope <= c.HARDY_SLOPE_TOL and not np.any(log_m > log_fact + ns * sup_b + 1e-9)
    if slope > c.HARDY_SLOPE_TOL and rising:
        status = c.VIOLATED
    elif bound_ok:
        status = c.SATISFIED
    else:
        status = c.INCONCLUSIVE
    diagnostics = {
        "slope": slope,
        "c0": c._exp_or_inf(sup_b),
        "sup_b": sup_b,
        "b_last": float(b[-1]),
        "tail_start": float(tail_start),
        "bound_ok": float(bound_ok),
    }
    return c.Verdict(criterion="hardy", status=status, diagnostics=diagnostics, n_used=n_max)


def reference_analyze(seq):
    """``analyze``'s report from the reference checkers."""
    from momentdet import criteria as c

    verdicts = [
        reference_check_carleman(seq),
        reference_check_growth_rate(seq, c.QFunction.one()),
        reference_check_growth_rate(seq, c.QFunction.log()),
    ]
    if seq.support == "stieltjes":
        verdicts.append(reference_check_hardy(seq))
    report = {
        "label": seq.label,
        "support": seq.support,
        "n_max": seq.n_max,
        "verdicts": [v.to_dict() for v in verdicts],
    }
    if c._is_two_factor_log_family(seq):
        logs = seq.log_moments.tolist()
        root_trend = []
        ratio_trend = []
        for n in c._trend_samples(seq.n_max):
            root = c._exp_or_inf(logs[n] / (2.0 * n)) * math.e / (n * math.log(n + 1.0))
            root_trend.append([n, root])
            if n < seq.n_max:
                lg_ratio = logs[n + 1] - logs[n]
                ratio = c._exp_or_inf(
                    lg_ratio - 2.0 * math.log(n + 1.0) - 2.0 * math.log(math.log(n + 1.0))
                )
                ratio_trend.append([n, ratio])
        report["trends"] = {
            "carleman_root_trend": root_trend,
            "growth_ratio_trend": ratio_trend,
        }
    return report


_FAMILY_HEADS = {"product": "none", "symroot": "symmetric-root", "symprod": "symmetric-product"}
_FAMILY_RE = re.compile(rf"^({'|'.join(_FAMILY_HEADS)})\[(.*)\]$")
_PAIR_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def reference_parse_family(text: str):
    """Parse a family description string.

    Grammar: ``exp`` | ``exp2`` | ``product[(δ,r),...]`` |
    ``symroot[(δ,r),...]`` | ``symprod[(δ,r),...]``.
    (``lognormal`` is a closed-form stock sequence, not a product family;
    see generate_from_label.)
    """
    from momentdet.errors import FamilyParseError
    from momentdet.moments import FamilySpec

    text = text.strip()
    if text == "exp":
        return FamilySpec(factors=((1.0, 0.0),), symmetrization="none", label="exp")
    if text == "exp2":
        return FamilySpec(factors=((2.0, 0.0),), symmetrization="none", label="exp2")
    m = _FAMILY_RE.match(text)
    if m is None:
        raise FamilyParseError(
            f"unrecognized family {text!r}; expected exp, exp2, lognormal, "
            "product[(delta,r),...], symroot[...], or symprod[...]"
        )
    head, body = m.groups()
    pairs = []
    pos = 0
    while pos < len(body):
        pm = _PAIR_RE.match(body, pos)
        if pm is None:
            raise FamilyParseError(f"malformed factor list in {text!r} at position {pos}")
        try:
            pairs.append((float(pm.group(1)), float(pm.group(2))))
        except ValueError as exc:
            raise FamilyParseError(f"non-numeric factor in {text!r}: {exc}") from exc
        pos = pm.end()
        if pos < len(body):
            if body[pos] != ",":
                raise FamilyParseError(f"expected ',' between factors in {text!r} at {pos}")
            pos += 1
            if pos == len(body):
                raise FamilyParseError(f"trailing ',' in factor list of {text!r}")
    if not pairs:
        raise FamilyParseError(f"family {text!r} has an empty factor list")
    return FamilySpec(factors=tuple(pairs), symmetrization=_FAMILY_HEADS[head], label=text)
