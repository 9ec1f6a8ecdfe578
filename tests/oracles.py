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
reproduce.  So are the ``*_ingredients`` functions: what each checker and
``analyze`` read and report, each building its own n, ln n, ln ln n, ln q,
ln (2n)! and tail windows, with no decision.  They give the (x, y) of
every fit, each diagnostic but ``refined``, the trend columns and every
exception, whose bits the checkers reading the shared table must give.
The verdicts, ``status`` and ``refined``, are judged elsewhere: against
each condition's truth (``tests/test_truth.py``), the paper's implications
and the metamorphic relations, and by pinned statuses.  And so is
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


# -- what each checker reads and reports ---------------------------------------


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


def _tail(ns, y, tail_start):
    """The fit of y over n >= tail_start against ln n: (ln n, y) there."""
    return np.log(ns[ns >= tail_start]), y[ns >= tail_start]


def _series_ingredients(criterion, ns, log_terms, tail_start):
    """The fits of ln term_n against ln n over the tail, of its local
    exponents −Δ ln term/Δ ln n against ln n, and of ln b_n,
    b_n = term_n·n·ln n, against ln ln n; and the diagnostics they give."""
    from momentdet.criteria import _exp_or_inf

    ln_n, log_tail = _tail(ns, log_terms, tail_start)
    log_b = log_tail + ln_n + np.log(ln_n)
    fits = [(ln_n, log_tail), (ln_n[1:], -np.diff(log_tail) / np.diff(ln_n)), (np.log(ln_n), log_b)]
    slope, drift, b_slope = (_reference_fit_slope(x, y) for x, y in fits)
    with np.errstate(over="ignore", under="ignore"):
        partial_sum = float(np.sum(np.exp(log_terms)))
    diagnostics = dict(exponent=-slope, exponent_drift=drift, partial_sum=partial_sum, b_slope=b_slope,
                       b_last=_exp_or_inf(float(log_b[-1])), tail_start=float(tail_start))
    return {"criterion": criterion, "diagnostics": diagnostics, "n_used": ns.size}, fits


def carleman_ingredients(seq):
    """``check_carleman``'s: a_n = m_n^{−1/(2n)} for n = 1..n_max, tail from n_max // 2."""
    from momentdet.errors import SequenceError

    if seq.n_max < 16:
        raise SequenceError(f"check_carleman needs n_max >= 16, got {seq.n_max}")
    ns = np.arange(1.0, seq.n_max + 1.0)
    return _series_ingredients("carleman", ns, -seq.log_moments[1:] / (2.0 * ns), seq.n_max // 2)


def _reference_log_q(q, ns):
    """ln q(n) for an array of integers ``ns`` >= 1, from np.log of ``ns``
    itself: 0, ln ln n or α·ln n; DomainError names the least n where α·ln n
    overflows."""
    from momentdet.errors import DomainError

    with np.errstate(divide="ignore", over="ignore"):  # ln ln 1 = −inf
        if q.kind != "power":
            return np.log(np.log(ns)) if q.kind == "log" else np.zeros_like(ns)
        out = q.alpha * np.log(ns)
    if not np.all(np.isfinite(out)):
        bad = ns[~np.isfinite(out)].min()
        raise DomainError(f"ln q({bad:g}) = {q.alpha:g}*ln({bad:g}) overflows a float")
    return out


def q_divergence_ingredients(q, n_max=400):
    """``check_q_divergence``'s: 1/(n·q(n)) from n = 1 (2 for q = ln n, where
    q(1) = 0) to n_max, tail from n_max // 2."""
    from momentdet.moments import _check_n_max

    n_max = _check_n_max(n_max, 100, "check_q_divergence requires integer n_max >= 100")
    ns = np.arange(2.0 if q.kind == "log" else 1.0, n_max + 1.0)
    return _series_ingredients("q_divergence", ns, -np.log(ns) - _reference_log_q(q, ns), n_max // 2)


def growth_rate_ingredients(seq, q=None):
    """``check_growth_rate``'s: ln g_n for ratio index n = 1..n_max − 1,
    fitted from (n_max − 1) // 2 on against ln n and against ln ln n."""
    from momentdet import criteria as c
    from momentdet.errors import DomainError, SequenceError

    q = c.QFunction.one() if q is None else q
    if seq.n_max < 8:
        raise SequenceError(f"check_growth_rate needs >= 8 ratio terms, got {seq.n_max}")
    ns = np.arange(1.0, seq.n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        log_q = _reference_log_q(q, ns + 1.0)
        log_g = np.diff(seq.log_moments)[1:] - 2.0 * np.log(ns + 1.0) - 2.0 * log_q
    if not np.all(np.isfinite(log_g)):
        bad = ns[~np.isfinite(log_g)].min()
        raise DomainError(f"ln g_n with q = {q.label()} overflows a float at n = {bad:g}")
    tail_start = (seq.n_max - 1) // 2
    ln_n, log_g_tail = _tail(ns, log_g, tail_start)
    fits = [(ln_n, log_g_tail), (np.log(ln_n), log_g_tail)]
    power_slope, loglog_slope = (_reference_fit_slope(x, y) for x, y in fits)
    sup_log_g = float(np.max(log_g))
    diagnostics = dict(power_slope=power_slope, loglog_slope=loglog_slope,
                       sup_g=c._exp_or_inf(sup_log_g), sup_log_g=sup_log_g,
                       g_last=c._exp_or_inf(float(log_g[-1])), tail_start=float(tail_start))
    if q.kind == "power":
        diagnostics["q_alpha"] = q.alpha
    criterion = "growth_rate" if q.kind == "constant-one" else "growth_rate_q"
    return {"criterion": criterion, "diagnostics": diagnostics, "n_used": seq.n_max}, fits


def hardy_ingredients(seq):
    """``check_hardy``'s: b_n = (ln m_n − ln (2n)!)/n, fitted from n_max // 2
    on against ln n.  ``bound_ok`` is a diagnostic with a documented
    definition: a flat tail, slope <= HARDY_SLOPE_TOL, and m_n <= (2n)!·c0^n
    re-verified at every stored order."""
    from momentdet import criteria as c
    from momentdet.errors import DomainError, SequenceError

    if seq.support != "stieltjes":
        raise DomainError("check_hardy is unsupported on hamburger-symmetric sequences; the moment "
                          "bound m_n <= (2n)!·c0^n is stated for positive variables")
    if seq.n_max < 16:
        raise SequenceError(f"check_hardy needs n_max >= 16, got {seq.n_max}")
    ns = np.arange(1.0, seq.n_max + 1.0)
    log_m = seq.log_moments[1:]
    log_fact = np.array([math.lgamma(2.0 * n + 1.0) for n in ns.tolist()])
    b = (log_m - log_fact) / ns
    fits = [_tail(ns, b, seq.n_max // 2)]
    slope, sup_b = _reference_fit_slope(*fits[0]), float(np.max(b))
    bound_ok = slope <= c.HARDY_SLOPE_TOL and not np.any(log_m > log_fact + ns * sup_b + 1e-9)
    diagnostics = dict(slope=slope, c0=c._exp_or_inf(sup_b), sup_b=sup_b, b_last=float(b[-1]),
                       tail_start=float(seq.n_max // 2), bound_ok=float(bound_ok))
    return {"criterion": "hardy", "diagnostics": diagnostics, "n_used": seq.n_max}, fits


def analyze_ingredients(seq):
    """``analyze``'s: the fits and verdicts of Carleman, growth with q ≡ 1
    and q = ln n, and Hardy on positive support, under the sequence's
    header; and for a two-factor family of unit δ, or its symmetric root,
    the trend columns m_n^{1/(2n)}·e/(n·ln(n+1)) and
    (m_{n+1}/m_n)/((n+1)²·ln²(n+1)) in scalar math at ``analyze``'s samples."""
    from momentdet import criteria as c

    parts = [carleman_ingredients(seq), growth_rate_ingredients(seq, c.QFunction.one()),
             growth_rate_ingredients(seq, c.QFunction.log())]
    if seq.support == "stieltjes":
        parts.append(hardy_ingredients(seq))
    report = {"label": seq.label, "support": seq.support, "n_max": seq.n_max,
              "verdicts": [verdict for verdict, _ in parts]}
    if c._is_two_factor_log_family(seq):
        logs, ns = seq.log_moments.tolist(), c._trend_samples(seq.n_max)
        root = [[n, c._exp_or_inf(logs[n] / (2.0 * n)) * math.e / (n * math.log(n + 1.0))] for n in ns]
        ratio = [(n, logs[n + 1] - logs[n] - 2.0 * math.log(n + 1.0)) for n in ns if n < seq.n_max]
        ratio = [[n, c._exp_or_inf(log - 2.0 * math.log(math.log(n + 1.0)))] for n, log in ratio]
        report["trends"] = {"carleman_root_trend": root, "growth_ratio_trend": ratio}
    return report, [fit for _, fits in parts for fit in fits]


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
