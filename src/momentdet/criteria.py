"""Evidence-graded checkers for moment-determinacy conditions.

Each checker inspects finitely many terms of a quantity whose *limit*
behavior decides the mathematical condition (divergence of a series,
boundedness of a ratio).  Divergence is undecidable from finite data, so
every verdict is three-valued — ``satisfied-evidence``,
``violated-evidence`` or ``inconclusive`` — and ships quantitative
diagnostics (fitted exponents, partial sums, sup constants) so a reader
can judge the margin.

Checkers:

* ``check_carleman`` — divergence of Σ a_n with a_n = m_n^{−1/(2n)}
  (even-moment variant on symmetric support).
* ``check_growth_rate`` — boundedness of
  g_n = (m_{n+1}/m_n) / ((n+1)²·q(n+1)²) for a rate modulation q.
* ``check_q_divergence`` — divergence of Σ 1/(n·q(n)).
* ``check_hardy`` — existence of c₀ with m_n ≤ (2n)!·c₀ⁿ
  (positive-support sequences only).

Series classification is two-scale.  A least-squares fit of the tail of
ln a_n against ln n estimates the decay exponent p (Σ n^{−p} diverges for
p ≤ 1).  A clear p < 1 is satisfied; a clear p > 1 is violated, but only
when the local exponents are not drifting back down toward 1 —
logarithmic corrections make the apparent p overshoot (a_n ~ 1/(n ln n)
measures p ≈ 1.2 at n ≈ 200 even though its series diverges).
Otherwise the borderline is refined on the critical scale itself:
b_n = a_n·n·ln n is fitted against ln ln n, and the series is classified
by whether that slope lies above or below −1.  For a_n = 1/(n·(ln n)^c)
the slope is 1 − c, so −1 is c = 2, whose series converges; Bertrand's
watershed is c = 1, slope 0.  So a refined series with 1 < c ≤ 1.75
reads satisfied-evidence though it converges (ROADMAP item 1, Defect B,
moves the watershed).

The growth-rate checker analogously separates power-law growth of g_n
(violation) from at-most-logarithmic drift (bounded evidence) by fitting
ln g_n against both ln n and ln ln n.

Every checker reads one table, the rows n, ln n, ln ln n and ln (2n)!
for n = 1..N, of which it takes the first n_max columns.  The table is
built once for each size N, 8192 or the least power of two at or above
n_max where that is more, cached and read-only, and each entry depends
on n alone.  Every tail runs from n_max // 2 to n_max (the growth rate's
from ratio index (n_max − 1) // 2), so from n = 3 on, and ln ln n is finite
over every tail.  Every fit is ``_slope``, the closed-form least-squares
slope on centred data, xc·(y − ȳ)/(xc·xc) with xc = x − x̄.

Verdicts describe the *given truncation*, not the limit: sequences whose
log corrections settle slowly can honestly classify differently at short
lengths.  The double-log-weighted product family, for instance, reads as
violated-evidence below n_max ≈ 100 (its local exponents are still
rising there) and locks in satisfied-evidence from n_max ≈ 100 on;
supply a few hundred moments when the family is expected to sit near the
critical scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DomainError, SequenceError, _float_arg, _kind_arg
from .moments import MomentSequence, _check_n_max, _log_carleman_terms

__all__ = [
    "INCONCLUSIVE",
    "QFunction",
    "SATISFIED",
    "VIOLATED",
    "Verdict",
    "analyze",
    "check_carleman",
    "check_growth_rate",
    "check_hardy",
    "check_q_divergence",
]

SATISFIED = "satisfied-evidence"
VIOLATED = "violated-evidence"
INCONCLUSIVE = "inconclusive"

#: Half-width of the borderline band around the critical exponent p = 1.
BORDERLINE_BAND = 0.05
#: Local exponents drifting down faster than this (per ln n) defer a
#: p > 1 verdict to the critical-scale refinement.
DRIFT_TOL = 0.01
#: Half-width of the refinement's band around slope −1 of b_n = a_n·n·ln n
#: against ln ln n.  That slope is 1 − c for a_n = 1/(n·(ln n)^c), so −1
#: is c = 2, not Bertrand's watershed c = 1 (slope 0): ROADMAP item 1,
#: Defect B.
B_CRITICAL_BAND = 0.25
#: Growth-rate: a fitted power slope of ln g vs ln n at or above this,
#: with a rising tail, is power-law growth.
GROWTH_POWER_SLOPE = 0.15
#: Growth-rate: bands for the ln ln n-scale exponent of g.
GROWTH_ALPHA_BOUNDED = 1.0
GROWTH_ALPHA_DIVERGENT = 2.0
#: Hardy: fitted slope of b_n vs ln n above this (with rising tail) is
#: unbounded growth of the required constant.
HARDY_SLOPE_TOL = 0.05


@dataclass(frozen=True)
class Verdict:
    """One checker's result: criterion name, status, diagnostics, sample size."""

    criterion: str
    status: str
    diagnostics: dict[str, float] = field(compare=False)
    n_used: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "criterion": self.criterion,
            "status": self.status,
            "diagnostics": dict(self.diagnostics),
            "n_used": self.n_used,
        }


@dataclass(frozen=True)
class QFunction:
    """A positive rate-modulation q(n): constant-one (q ≡ 1), log (q = ln n)
    or power (q = n^α).  The checkers read ln q(n) through ``_log_of`` on
    the shared table's columns, α·ln n for the power kind, so it stays
    finite where n^α itself under- or overflows."""

    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant-one", "log", "power"):
            raise DomainError(f"unknown QFunction kind {self.kind!r}")
        if self.kind == "power":
            alpha = math.nan if self.alpha is None else _float_arg(self.alpha, "QFunction", "alpha")
            if not math.isfinite(alpha):
                raise DomainError("power QFunction requires a finite alpha")
            object.__setattr__(self, "alpha", alpha)

    @classmethod
    def one(cls) -> "QFunction":
        return cls(kind="constant-one")

    @classmethod
    def log(cls) -> "QFunction":
        return cls(kind="log")

    @classmethod
    def power(cls, alpha: float) -> "QFunction":
        return cls(kind="power", alpha=_float_arg(alpha, "QFunction.power", "alpha"))

    def _log_of(self, ns, ln_n, lnln):
        """ln q(n) for integers ``ns`` >= 1, unchecked, from their ln n and
        ln ln n; DomainError names the least n where α·ln n overflows."""
        if self.kind != "power":
            return lnln if self.kind == "log" else np.zeros_like(ln_n)
        with np.errstate(over="ignore"):
            out = self.alpha * ln_n
        if not np.isfinite(out).all():
            bad = ns[~np.isfinite(out)].min()
            raise DomainError(f"ln q({bad:g}) = {self.alpha:g}*ln({bad:g}) overflows a float")
        return out

    def label(self) -> str:
        if self.kind == "power":
            return f"power({self.alpha:g})"
        return self.kind


# -- the shared table and the fit ---------------------------------------------


def _exp_or_inf(x: float) -> float:
    """exp(x) for a diagnostic, reported as inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


#: The fewest columns a table is built with: one table serves every n_max
#: up to it.
_TABLE_MIN = 8192


@cache
def _columns(size: int) -> np.ndarray:
    """Rows n, ln n, ln ln n and ln (2n)! (as ``math.lgamma(2n + 1)``) for
    n = 1..size, column n − 1 holding n's (ln ln 1 = −inf); read-only."""
    n = np.arange(1.0, size + 1.0)
    ln_n = np.log(n)
    with np.errstate(divide="ignore"):  # ln ln 1 = −inf
        table = np.array([n, ln_n, np.log(ln_n), list(map(math.lgamma, (2 * n + 1).tolist()))])
    table.flags.writeable = False
    return table


def _table(n_max: int) -> np.ndarray:
    """The first n_max columns of the table of _TABLE_MIN columns, or of the
    least power of two at or above n_max where that is more."""
    return _columns(max(_TABLE_MIN, 1 << (n_max - 1).bit_length()))[:, :n_max]


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, in closed form on centred data:
    xc·(y − ȳ)/(xc·xc) with xc = x − x̄.  A mean is np.add.reduce(v) /
    v.size, the bits of v.mean() without its Python wrapper.  Where the
    terms of y are finite but their sum overflows, y·2⁻ᵏ is fitted instead,
    its largest term scaled into [0.5, 1), and the slope scaled back."""
    xc = x - np.add.reduce(x) / x.size
    with np.errstate(over="ignore"):
        y_mean = np.add.reduce(y) / y.size
    if math.isfinite(y_mean):
        return float(xc @ (y - y_mean) / (xc @ xc))
    k = math.frexp(np.maximum.reduce(np.abs(y)))[1]  # 0 where y holds an inf or a NaN
    y = np.ldexp(y, -k)
    with np.errstate(over="ignore"):
        return float(np.ldexp(xc @ (y - np.add.reduce(y) / y.size) / (xc @ xc), k))


def _classify_series(t: np.ndarray, log_terms: np.ndarray) -> tuple[str, dict[str, float]]:
    """Two-scale divergence classification of Σ term_n from ln term_n.

    ``t`` is the shared table's first n_max columns and ``log_terms`` ends
    at n = n_max; the tail starts at n_max // 2, which the callers' n_max
    floors put at 8 or more, so ln ln n is finite over it.
    """
    tail_start = t.shape[1] // 2
    _, ln_n, lnln, _ = t[:, tail_start - 1 :]
    log_tail = log_terms[-ln_n.size :]
    p_fit = -_slope(ln_n, log_tail)

    # local exponents −Δ ln term / Δ ln n and their drift across the tail
    local_p = (log_tail[1:] - log_tail[:-1]) / (ln_n[:-1] - ln_n[1:])
    drift = _slope(ln_n[1:], local_p)

    with np.errstate(over="ignore", under="ignore"):  # an overflowing sum reads inf
        partial_sum = float(np.add.reduce(np.exp(log_terms)))

    # critical-scale refinement data: b_n = term_n · n · ln n over the tail
    log_b = log_tail + ln_n + lnln
    b_slope = _slope(lnln, log_b)
    b_last = _exp_or_inf(float(log_b[-1]))

    if p_fit < 1.0 - BORDERLINE_BAND:
        status, refined = SATISFIED, 0.0
    elif p_fit > 1.0 + BORDERLINE_BAND and drift >= -DRIFT_TOL:
        status, refined = VIOLATED, 0.0
    else:
        refined = 1.0
        if b_slope >= -(1.0 - B_CRITICAL_BAND):
            status = SATISFIED
        elif b_slope <= -(1.0 + B_CRITICAL_BAND):
            status = VIOLATED
        else:
            status = INCONCLUSIVE

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


# -- checkers -----------------------------------------------------------------


def check_carleman(seq: MomentSequence) -> Verdict:
    """Divergence evidence for the series of a_n = m_n^{−1/(2n)}
    (m_{2n}^{−1/(2n)} on symmetric support); requires n_max >= 16.

    The tail fit runs over [n_max // 2, n_max].
    """
    n_max = _kind_arg(seq, MomentSequence, "check_carleman").n_max
    if n_max < 16:
        raise SequenceError(f"check_carleman needs n_max >= 16, got {n_max}")
    status, diagnostics = _classify_series(_table(n_max), _log_carleman_terms(seq))
    return Verdict(
        criterion="carleman", status=status, diagnostics=diagnostics, n_used=n_max
    )


def check_growth_rate(seq: MomentSequence, q: QFunction | None = None) -> Verdict:
    """Boundedness evidence for g_n = (m_{n+1}/m_n)/((n+1)²·q(n+1)²)
    (even-order moment ratios on symmetric support).

    A clear power-law rise of g is a violation; otherwise the tail is
    classified on the ln ln n scale: at-most-logarithmic drift counts as
    bounded evidence with constant C = sup g, faster growth as violation.
    """
    q = _kind_arg(QFunction.one() if q is None else q, QFunction, "check_growth_rate")
    n_max = _kind_arg(seq, MomentSequence, "check_growth_rate").n_max
    if n_max < 8:
        raise SequenceError(f"check_growth_rate needs >= 8 ratio terms, got {n_max}")
    # ln g_n for ratio index n = 1..n_max−1 (n = 0 has no ln n scale): ln(n+1) and
    # ln q(n+1) are the table's columns from n + 1 = 2 on
    n, ln_n, lnln, _ = _table(n_max)
    logs = seq.log_moments
    with np.errstate(over="ignore", invalid="ignore"):
        log_q = q._log_of(n[1:], ln_n[1:], lnln[1:])
        log_g = (logs[2:] - logs[1:-1]) - 2.0 * ln_n[1:] - 2.0 * log_q
    bad = np.argmin(np.isfinite(log_g))  # the first non-finite entry, if any
    if not math.isfinite(log_g[bad]):
        raise DomainError(f"ln g_n with q = {q.label()} overflows a float at n = {n[bad]:g}")
    tail_start = (n_max - 1) // 2
    # the fits' x is ln n at ratio index n = tail_start..n_max−1
    log_g_tail = log_g[tail_start - 1 :]
    power_slope = _slope(ln_n[tail_start - 1 : -1], log_g_tail)
    loglog_slope = _slope(lnln[tail_start - 1 : -1], log_g_tail)
    sup_log_g = float(np.maximum.reduce(log_g))
    sup_g = _exp_or_inf(sup_log_g)

    if power_slope >= GROWTH_POWER_SLOPE and log_g_tail[-1] > log_g_tail[0]:
        status = VIOLATED
    elif loglog_slope <= GROWTH_ALPHA_BOUNDED:
        status = SATISFIED
    elif loglog_slope >= GROWTH_ALPHA_DIVERGENT:
        status = VIOLATED
    else:
        status = INCONCLUSIVE

    diagnostics = {
        "power_slope": power_slope,
        "loglog_slope": loglog_slope,
        "sup_g": sup_g,
        "sup_log_g": sup_log_g,
        "g_last": _exp_or_inf(float(log_g[-1])),
        "tail_start": float(tail_start),
    }
    criterion = "growth_rate" if q.kind == "constant-one" else "growth_rate_q"
    if q.kind == "power":
        diagnostics["q_alpha"] = float(q.alpha)
    return Verdict(
        criterion=criterion, status=status, diagnostics=diagnostics, n_used=n_max
    )


def check_q_divergence(q: QFunction, n_max: int = 400) -> Verdict:
    """Divergence evidence for Σ 1/(n·q(n)); requires n_max >= 100.

    The terms come from ln q(n) (α·ln n for the power kind), so they stay
    finite where n^α under- or overflows.  n = 1 is skipped where
    q(1) = 0 (the log kind).
    """
    q = _kind_arg(q, QFunction, "check_q_divergence")
    n_max = _check_n_max(n_max, 100, "check_q_divergence requires integer n_max >= 100")
    t = _table(n_max)
    n, ln_n, lnln, _ = t[:, 1:] if q.kind == "log" else t  # skip n = 1, where ln q(1) = −inf
    log_terms = -ln_n - q._log_of(n, ln_n, lnln)
    status, diagnostics = _classify_series(t, log_terms)
    return Verdict(
        criterion="q_divergence", status=status, diagnostics=diagnostics, n_used=log_terms.size
    )


def check_hardy(seq: MomentSequence) -> Verdict:
    """Evidence for a constant c₀ with m_n ≤ (2n)!·c₀ⁿ (positive support only).

    b_n = (ln m_n − ln(2n)!)/n is fitted against ln n over the tail: a
    clearly positive slope with a rising tail means no constant can work;
    otherwise c₀ = exp(sup b_n) is reported and the bound re-verified
    exactly at every stored order.
    """
    if _kind_arg(seq, MomentSequence, "check_hardy").support != "stieltjes":
        raise DomainError(
            "check_hardy is unsupported on hamburger-symmetric sequences; "
            "the moment bound m_n <= (2n)!·c0^n is stated for positive variables"
        )
    n_max = seq.n_max
    if n_max < 16:
        raise SequenceError(f"check_hardy needs n_max >= 16, got {n_max}")
    n, ln_n, _, log_fact = _table(n_max)
    log_m = seq.log_moments[1:]
    b = (log_m - log_fact) / n
    tail_start = n_max // 2
    b_tail = b[tail_start - 1 :]
    slope = _slope(ln_n[tail_start - 1 :], b_tail)
    sup_b = float(np.maximum.reduce(b))
    c0 = _exp_or_inf(sup_b)
    # a flat tail, and exact re-verification of m_n <= (2n)!·c0^n at every stored order
    bound_ok = slope <= HARDY_SLOPE_TOL and not (log_m > log_fact + n * sup_b + 1e-9).any()

    if slope > HARDY_SLOPE_TOL and b_tail[-1] > b_tail[0]:
        status = VIOLATED
    elif bound_ok:
        status = SATISFIED
    else:
        status = INCONCLUSIVE

    diagnostics = {
        "slope": slope,
        "c0": c0,
        "sup_b": sup_b,
        "b_last": float(b[-1]),
        "tail_start": float(tail_start),
        "bound_ok": float(bound_ok),
    }
    return Verdict(criterion="hardy", status=status, diagnostics=diagnostics, n_used=n_max)


# -- aggregate ----------------------------------------------------------------


def _is_two_factor_log_family(seq: MomentSequence) -> bool:
    """Whether the stored entry n is m_n of an X(r₁, r₂) family: a product,
    or its symmetric root; a symmetric product stores m_{2n} there."""
    fam = seq.family
    return (
        fam is not None
        and fam.symmetrization in ("none", "symmetric-root")
        and len(fam.factors) == 2
        and all(d == 1.0 for d, _ in fam.factors)
        and all(r > 0.0 for _, r in fam.factors)
    )


def _trend_samples(n_hi: int) -> list[int]:
    raw = np.geomspace(4, max(5, n_hi), 9)
    return sorted({min(n_hi, max(2, int(round(v)))) for v in raw})


def _report(seq: MomentSequence, verdicts: list[Verdict]) -> dict[str, object]:
    """The report header shared by ``analyze`` and the CLI's ``check``."""
    return {
        "label": seq.label,
        "support": seq.support,
        "n_max": seq.n_max,
        "verdicts": [v.to_dict() for v in verdicts],
    }


def analyze(seq: MomentSequence) -> dict[str, object]:
    """Run all applicable checkers on a sequence; JSON-ready report.

    Always checks Carleman and the growth rate with q ≡ 1 and q = ln n;
    adds Hardy on positive support.  For two-factor families with unit
    delta (the X(r₁, r₂) construction, or its symmetric root, whose entry
    n is the same m_n), appends the asymptotic trend
    columns m_n^{1/(2n)}·e/(n·ln(n+1)) and
    (m_{n+1}/m_n)/((n+1)²·ln²(n+1)), which approach 1 and a constant
    respectively when both r = 1.
    """
    _kind_arg(seq, MomentSequence, "analyze")
    verdicts = [
        check_carleman(seq),
        check_growth_rate(seq, QFunction.one()),
        check_growth_rate(seq, QFunction.log()),
    ]
    if seq.support == "stieltjes":
        verdicts.append(check_hardy(seq))

    report = _report(seq, verdicts)
    if _is_two_factor_log_family(seq):
        # nine samples: scalar math keeps the reported values bit-stable
        logs = seq.log_moments.tolist()
        root_trend = []
        ratio_trend = []
        for n in _trend_samples(seq.n_max):
            root = _exp_or_inf(logs[n] / (2.0 * n)) * math.e / (n * math.log(n + 1.0))
            root_trend.append([n, root])
            if n < seq.n_max:
                lg_ratio = logs[n + 1] - logs[n]
                ratio = _exp_or_inf(
                    lg_ratio - 2.0 * math.log(n + 1.0) - 2.0 * math.log(math.log(n + 1.0))
                )
                ratio_trend.append([n, ratio])
        report["trends"] = {
            "carleman_root_trend": root_trend,
            "growth_ratio_trend": ratio_trend,
        }
    return report
