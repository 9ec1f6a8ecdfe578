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
by whether b_n decays slower or faster than the convergence/divergence
watershed 1/ln n.

The growth-rate checker analogously separates power-law growth of g_n
(violation) from at-most-logarithmic drift (bounded evidence) by fitting
ln g_n against both ln n and ln ln n.

All tail fits use the last half of the available indices by default.
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

import numpy as np

from .errors import DomainError, SequenceError
from .moments import MomentSequence, _log_carleman_terms

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
#: Refinement bands for the critical-scale exponent of b_n = a_n·n·ln n
#: (fitted against ln ln n; the watershed rate 1/ln n has exponent −1).
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
    """A positive rate-modulation q(n): constant-one, log, power or table."""

    kind: str
    alpha: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant-one", "log", "power", "table"):
            raise DomainError(f"unknown QFunction kind {self.kind!r}")
        if self.kind == "power":
            if self.alpha is None or not math.isfinite(self.alpha):
                raise DomainError("power QFunction requires a finite alpha")
        if self.kind == "table":
            if not self.values:
                raise DomainError("table QFunction requires a non-empty values tuple")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            if any(not (v > 0.0 and math.isfinite(v)) for v in self.values):
                raise DomainError("table QFunction values must be positive and finite")

    @classmethod
    def one(cls) -> "QFunction":
        return cls(kind="constant-one")

    @classmethod
    def log(cls) -> "QFunction":
        return cls(kind="log")

    @classmethod
    def power(cls, alpha: float) -> "QFunction":
        return cls(kind="power", alpha=float(alpha))

    @classmethod
    def table(cls, values) -> "QFunction":
        return cls(kind="table", values=tuple(values))

    def __call__(self, n: int) -> float:
        """q(n) for integer n ≥ 1.  Note q(1) = 0 for the log kind.

        Raises DomainError where n^α over- or underflows a float (the
        power kind with large |α|); ``log_at`` gives ln q(n) there.
        """
        if n < 1:
            raise DomainError(f"QFunction is defined for n >= 1, got {n}")
        if self.kind == "constant-one":
            return 1.0
        if self.kind == "log":
            return math.log(n)
        if self.kind == "power":
            try:
                q = float(n) ** self.alpha
            except OverflowError:
                q = math.inf
            if not 0.0 < q < math.inf:
                raise DomainError(
                    f"q({n}) = {n}^{self.alpha:g} is not a positive finite float; "
                    "use log_at for ln q(n)"
                )
            return q
        assert self.values is not None
        if n > len(self.values):
            raise DomainError(
                f"table QFunction has {len(self.values)} values; q({n}) is out of range"
            )
        return self.values[n - 1]

    def log_at(self, n):
        """ln q(n) for an integer n >= 1, or elementwise for an array of them.

        Formed in the log domain for the power kind (α·ln n), where n^α
        itself under- or overflows for large |α|; raises DomainError, naming
        the first such n, where α·ln n overflows too (|α| near 1e308).  The
        log kind gives −inf at n = 1, where q(1) = 0.
        """
        ns = np.asarray(n, dtype=float)
        if np.any(ns < 1):
            raise DomainError(f"QFunction is defined for n >= 1, got {ns.min():g}")
        if self.kind == "constant-one":
            out = np.zeros_like(ns)
        elif self.kind == "log":
            with np.errstate(divide="ignore"):
                out = np.log(np.log(ns))
        elif self.kind == "power":
            with np.errstate(over="ignore"):
                out = self.alpha * np.log(ns)
            if not np.all(np.isfinite(out)):
                bad = ns[~np.isfinite(out)].min()
                raise DomainError(f"ln q({bad:g}) = {self.alpha:g}*ln({bad:g}) overflows a float")
        else:
            assert self.values is not None
            if np.any(ns > len(self.values)):
                raise DomainError(
                    f"table QFunction has {len(self.values)} values; "
                    f"q({ns.max():g}) is out of range"
                )
            out = np.log(np.take(self.values, ns.astype(np.intp) - 1))
        return float(out) if out.ndim == 0 else out

    def label(self) -> str:
        if self.kind == "power":
            return f"power({self.alpha:g})"
        if self.kind == "table":
            return f"table[{len(self.values or ())}]"
        return self.kind


# -- tail fitting -------------------------------------------------------------


def _exp_or_inf(x: float) -> float:
    """exp(x) for a diagnostic, reported as inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x."""
    design = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(sol[0])


def _classify_series(
    ns: np.ndarray, log_terms: np.ndarray, tail_start: int
) -> tuple[str, dict[str, float]]:
    """Two-scale divergence classification of Σ term_n from ln term_n.

    ``ns`` must be increasing integers (as floats) with at least 8 of them
    at or beyond ``tail_start``.
    """
    tail = ns >= tail_start
    if int(np.count_nonzero(tail)) < 8:
        raise SequenceError(
            f"too few terms: need >= 8 tail points at n >= {tail_start}, "
            f"have {int(np.count_nonzero(tail))}"
        )
    ln_n = np.log(ns)
    p_fit = -_fit_slope(ln_n[tail], log_terms[tail])

    # local exponents and their drift across the tail
    d_log = np.diff(log_terms[tail])
    d_ln = np.diff(ln_n[tail])
    local_p = -d_log / d_ln
    drift = _fit_slope(ln_n[tail][1:], local_p)

    with np.errstate(over="ignore", under="ignore"):  # an overflowing sum reads inf
        partial_sum = float(np.sum(np.exp(log_terms)))

    # critical-scale refinement data: b_n = term_n · n · ln n (needs n ≥ 2)
    b_ok = ns >= 2.0
    log_b = log_terms[b_ok] + ln_n[b_ok] + np.log(ln_n[b_ok])
    b_tail = ns[b_ok] >= tail_start
    lnln = np.log(ln_n[b_ok][b_tail])
    b_slope = _fit_slope(lnln, log_b[b_tail])
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


def _default_tail_start(n_hi: int, n_min: int | None) -> int:
    if n_min is None:
        return max(2, n_hi // 2)
    if not isinstance(n_min, int) or isinstance(n_min, bool) or n_min < 1:
        raise DomainError(f"n_min must be a positive integer, got {n_min!r}")
    return n_min


# -- checkers -----------------------------------------------------------------


def check_carleman(seq: MomentSequence, n_min: int | None = None) -> Verdict:
    """Divergence evidence for the series of a_n = m_n^{−1/(2n)}
    (m_{2n}^{−1/(2n)} on symmetric support).

    The tail fit runs over [n_min, n_max]; n_min defaults to n_max // 2
    and must leave at least 8 points (and n_max >= 16).
    """
    n_max = seq.n_max
    tail_start = _default_tail_start(n_max, n_min)
    if n_max < max(tail_start + 8, 16):
        raise SequenceError(
            f"check_carleman needs n_max >= max(n_min + 8, 16); got n_max = {n_max}, "
            f"tail start {tail_start}"
        )
    ns = np.arange(1, n_max + 1, dtype=float)
    status, diagnostics = _classify_series(ns, _log_carleman_terms(seq), tail_start)
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
    if q is None:
        q = QFunction.one()
    n_max = seq.n_max
    if n_max < 8:
        raise SequenceError(f"check_growth_rate needs >= 8 ratio terms, got {n_max}")
    # g_n for ratio index n = 1..n_max−1 (n = 0 has no ln n scale)
    ns = np.arange(1, n_max, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        log_g = np.diff(seq.log_moments)[1:] - 2.0 * np.log(ns + 1.0) - 2.0 * q.log_at(ns + 1.0)
    if not np.all(np.isfinite(log_g)):
        bad = ns[~np.isfinite(log_g)].min()
        raise DomainError(f"ln g_n with q = {q.label()} overflows a float at n = {bad:g}")
    tail_start = max(1, (n_max - 1) // 2)
    tail = ns >= tail_start
    if int(np.count_nonzero(tail)) < 4:
        raise SequenceError("check_growth_rate: tail window too small")
    ln_n = np.log(ns)
    power_slope = _fit_slope(ln_n[tail], log_g[tail])
    rising = log_g[tail][-1] > log_g[tail][0]
    loglog_slope = _fit_slope(np.log(ln_n[tail]), log_g[tail])
    sup_log_g = float(np.max(log_g))
    sup_g = _exp_or_inf(sup_log_g)

    if power_slope >= GROWTH_POWER_SLOPE and rising:
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
    if q.kind == "power" and q.alpha is not None:
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
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 100:
        raise DomainError(f"check_q_divergence requires integer n_max >= 100, got {n_max!r}")
    n_start = 1 if q(1) > 0.0 else 2
    ns = np.arange(n_start, n_max + 1, dtype=float)
    log_terms = -np.log(ns) - q.log_at(ns)
    status, diagnostics = _classify_series(ns, log_terms, max(2, n_max // 2))
    return Verdict(
        criterion="q_divergence", status=status, diagnostics=diagnostics, n_used=ns.size
    )


def check_hardy(seq: MomentSequence) -> Verdict:
    """Evidence for a constant c₀ with m_n ≤ (2n)!·c₀ⁿ (positive support only).

    b_n = (ln m_n − ln(2n)!)/n is fitted against ln n over the tail: a
    clearly positive slope with a rising tail means no constant can work;
    otherwise c₀ = exp(sup b_n) is reported and the bound re-verified
    exactly at every stored order.
    """
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
    log_fact = np.array(list(map(math.lgamma, (2.0 * ns + 1.0).tolist())))  # ln (2n)!
    b = (log_m - log_fact) / ns
    tail_start = max(2, n_max // 2)
    tail = ns >= tail_start
    slope = _fit_slope(np.log(ns[tail]), b[tail])
    rising = b[tail][-1] > b[tail][0]
    sup_b = float(np.max(b))
    c0 = _exp_or_inf(sup_b)

    if slope > HARDY_SLOPE_TOL and rising:
        status = VIOLATED
        bound_ok = 0.0
    elif slope <= HARDY_SLOPE_TOL:
        status = SATISFIED
        # exact re-verification of m_n <= (2n)!·c0^n at every stored order
        bound_ok = 1.0
        if np.any(log_m > log_fact + ns * sup_b + 1e-9):
            bound_ok = 0.0
            status = INCONCLUSIVE
    else:
        status = INCONCLUSIVE
        bound_ok = 0.0

    diagnostics = {
        "slope": slope,
        "c0": c0,
        "sup_b": sup_b,
        "b_last": float(b[-1]),
        "tail_start": float(tail_start),
        "bound_ok": bound_ok,
    }
    return Verdict(criterion="hardy", status=status, diagnostics=diagnostics, n_used=n_max)


# -- aggregate ----------------------------------------------------------------


def _is_two_factor_log_family(seq: MomentSequence) -> bool:
    fam = seq.family
    return (
        fam is not None
        and len(fam.factors) == 2
        and all(d == 1.0 for d, _ in fam.factors)
        and all(r > 0.0 for _, r in fam.factors)
    )


def _trend_samples(n_hi: int, count: int = 9) -> list[int]:
    raw = np.geomspace(4, max(5, n_hi), count)
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
    delta (the X(r₁, r₂) construction), appends the asymptotic trend
    columns m_n^{1/(2n)}·e/(n·ln(n+1)) and
    (m_{n+1}/m_n)/((n+1)²·ln²(n+1)), which approach 1 and a constant
    respectively when both r = 1.
    """
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
