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
package's leaner form must reproduce.  So are ``reference_tanh_sinh``
(the tanh-sinh rule one level per array pass, gathering its active rows
at every level), ``reference_log_s``, ``reference_log_unit`` and
``reference_log_gamma`` (the integrals composed from those two, on 1-d
arrays of orders), and the ``reference_check_*`` checkers and
``reference_analyze``: the arithmetic of ``criteria`` with each checker
building its own n, ln n and centred tails, whose verdicts and
diagnostics the package's shared table must reproduce.
"""

from __future__ import annotations

import math

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


def reference_tanh_sinh(logf, a, b, p, shift, tol):
    """``quadrature._tanh_sinh`` one level per array pass over ``_span_nodes``,
    gathering the active rows at every level, with its QuadratureError."""
    from momentdet import quadrature
    from momentdet.errors import QuadratureError
    from momentdet.logdomain import SignedLogValue

    row_tol = np.maximum(tol, _EPS * np.abs(shift))
    err, nodes = np.zeros(a.size), np.zeros(a.size, dtype=int)
    active = np.arange(a.size)
    for level in range(quadrature._MIN_LEVEL, quadrature._MAX_LEVEL + 1):
        v, logw, _ = quadrature._span_nodes(level, level)
        ra, rb = a[active], b[active]
        x = ra[:, None] + ((rb - ra) / 2.0)[:, None] * v
        sums = np.exp(logf(x, p[active, None]) - shift[active, None] + logw).sum(axis=1)
        if level == quadrature._MIN_LEVEL:
            total = sums
            continue
        prev = total[active]
        total[active] = cur = prev / 2.0 + sums
        err[active] = change = np.abs(prev - cur) / cur
        nodes[active] = 8 * 2**level + 1
        active = active[~(change <= row_tol[active])]
        if not active.size:
            return total * ((b - a) / 2.0), err, nodes
    i = active[np.argmin(p[active])]
    raise QuadratureError(
        f"the integral for p = {p[i]:.17g} did not converge on panel [{a[i]:.6g}, {b[i]:.6g}] "
        f"to rel_tol={row_tol[i]:.1e} within {quadrature._MAX_LEVEL} refinement levels",
        partial=SignedLogValue.from_log(float(np.log(total[i] * (b[i] - a[i]) / 2.0) + shift[i])),
    )


def _reference_floor(est, log):
    """An error estimate floored at the float rounding of its log."""
    return np.maximum(est, _EPS * (_LOG_ROUNDING + np.abs(log)))


def reference_log_s(p, rel_tol):
    """(log S(p), floored error estimate, nodes) for a 1-d float64 array of
    p ≥ 0, as ``quadrature._log_s_quadrature`` gives them: the peak and
    cutoff of ``reference_s_shape``, the panels [0, peak] and [peak,
    cutoff] (the split no closer to 0 than 1e-280), each at half the
    tolerance, summed by ``reference_tanh_sinh`` relative to the peak's
    log-integrand."""
    from momentdet.quadrature import _PEAK_SPLIT_FLOOR

    peak, peak_log, cut = reference_s_shape(p)
    split = np.maximum(peak, _PEAK_SPLIT_FLOOR)
    k = p.size
    scaled, errs, nodes = reference_tanh_sinh(
        lambda x, q: q * np.log(np.log1p(x)) - x,
        np.concatenate([np.zeros(k), split]),
        np.concatenate([split, cut]),
        np.concatenate([p, p]),
        np.concatenate([peak_log, peak_log]),
        rel_tol / 2.0,
    )
    value = scaled[:k] + scaled[k:]
    abs_err = errs[:k] * scaled[:k] + errs[k:] * scaled[k:]
    total = np.log(value) + peak_log
    return total, _reference_floor(abs_err / value, total), nodes[:k] + nodes[k:]


def reference_log_unit(n, rel_tol):
    """(log |∫₀¹ (ln t)^n e^{−t} dt|, floored error estimate, terms) for a
    1-d float64 array of integer n in 0..8192, as ``quadrature._log_unit``
    gives them: ln n! from the package's table (its entries are tested on
    their own) plus ln σₙ, σₙ the sum of the 20 terms (−1)^k/(k!·(k+1)^{n+1})."""
    from momentdet.quadrature import _log_factorial_table

    coefs = np.array([(-1) ** k / math.factorial(k) for k in range(20)])
    bases = np.arange(1.0, 21.0)
    sigma = (coefs * bases ** -(n[:, None] + 1.0)).sum(axis=1)
    log = _log_factorial_table(8193)[n.astype(int)] + np.log(sigma)
    return log, _reference_floor(0.0, log), np.full(n.size, 20)


def reference_log_gamma(n, rel_tol):
    """(sign, log |Γ⁽ⁿ⁾(1)|, floored error estimate, nodes) for a 1-d float64
    array of integer n in 0..8192, as ``quadrature._log_gamma`` gives them
    with S(n) by quadrature at every order: (−1)^n·|unit| + e^{−1}·S(n)
    summed relative to the larger magnitude, the two pieces' absolute
    errors added."""
    unit_log, unit_est, unit_nodes = reference_log_unit(n, rel_tol)
    s_log, s_est, s_nodes = reference_log_s(n, rel_tol)
    tail_log = s_log - 1.0
    shift = np.maximum(unit_log, tail_log)
    acc = (-1.0) ** n * np.exp(unit_log - shift) + np.exp(tail_log - shift)
    log = shift + np.log(np.abs(acc))
    abs_err = np.logaddexp(np.log(unit_est) + unit_log, np.log(s_est) + tail_log)
    est = _reference_floor(np.exp(abs_err - log), log)
    return np.sign(acc), log, est, unit_nodes + s_nodes


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


def reference_check_carleman(seq, n_min=None):
    from momentdet import criteria as c
    from momentdet.errors import SequenceError, _int_arg

    n_max = seq.n_max
    if n_min is None:
        tail_start = max(2, n_max // 2)
    else:
        tail_start = _int_arg(n_min, 1, "check_carleman requires a positive integer n_min")
    if n_max < max(tail_start + 8, 16):
        raise SequenceError(
            f"check_carleman needs n_max >= max(n_min + 8, 16); got n_max = {n_max}, "
            f"tail start {tail_start}"
        )
    ns = np.arange(1, n_max + 1, dtype=float)
    log_terms = -seq.log_moments[1:] / (2.0 * np.arange(1, n_max + 1))
    status, diagnostics = _reference_classify_series(ns, log_terms, tail_start)
    return c.Verdict(criterion="carleman", status=status, diagnostics=diagnostics, n_used=n_max)


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
        log_g = np.diff(seq.log_moments)[1:] - 2.0 * np.log(ns + 1.0) - 2.0 * q.log_at(ns + 1.0)
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
    n_start = 1 if q.log_at(1) > -math.inf else 2
    ns = np.arange(n_start, n_max + 1, dtype=float)
    log_terms = -np.log(ns) - q.log_at(ns)
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
