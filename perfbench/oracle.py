"""Independent references for the benchmark's correctness checks.

Every reference is computed with mpmath (a benchmark-only dependency) by a
route that shares no code with momentdet:

* S(p) and the unit integral ∫₀^∞ uⁿ e^{−u−e^{−u}} du by mpmath's adaptive
  quadrature, split at the integrand's peak;
* Γ⁽ⁿ⁾(1) from the recursion Γ⁽ᵐ⁺¹⁾ = Σₖ C(m,k) Γ⁽ᵐ⁻ᵏ⁾ ψ⁽ᵏ⁾ with
  ψ(1) = −γ and ψ⁽ᵏ⁾(1) = (−1)ᵏ⁺¹ k! ζ(k+1), which needs no quadrature;
* W(t) by ``mpmath.lambertw`` and the saddle estimates from their closed
  forms.

A value passes when ``harness.gap`` to its reference is at most ``TOL``.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

#: Working precision of the references, in decimal digits.
DPS = 30
#: Pass threshold, relative to max(1, |reference|): the package's default rel_tol.
TOL = 1e-9


def _peaked_log_integral(logf, peak) -> float:
    """log ∫₀^∞ exp(logf(x)) dx for a single-peaked integrand."""
    top = logf(peak)
    points = [mp.mpf(0), peak / 4, peak / 2, peak, 2 * peak + 10, 4 * peak + 40, mp.inf]
    value = mp.quad(lambda x: mp.exp(logf(x) - top) if x > 0 else mp.mpf(0), points)
    return float(top + mp.log(value))


@lru_cache(maxsize=None)
def log_s(p: float) -> float:
    """log S(p), S(p) = ∫₀^∞ ln(1+x)^p e^{−x} dx."""
    if p == 0.0:
        return 0.0
    with mp.workdps(DPS):
        q = mp.mpf(p)
        peak = mp.expm1(mp.lambertw(q).real)
        return _peaked_log_integral(lambda x: q * mp.log(mp.log1p(x)) - x, peak)


@lru_cache(maxsize=None)
def unit_log_power(n: int) -> tuple[int, float]:
    """(sign, log|·|) of ∫₀¹ (ln t)ⁿ e^{−t} dt = (−1)ⁿ ∫₀^∞ uⁿ e^{−u−e^{−u}} du."""
    with mp.workdps(DPS):
        if n == 0:
            return 1, float(mp.log(1 - mp.exp(-1)))
        peak = mp.findroot(lambda u: n / u - 1 + mp.exp(-u), n + 0.5)
        log_mag = _peaked_log_integral(lambda u: n * mp.log(u) - u - mp.exp(-u), peak)
    return (-1 if n % 2 else 1), log_mag


@lru_cache(maxsize=None)
def _gamma_derivatives(n_max: int) -> tuple[tuple[int, float], ...]:
    with mp.workdps(2 * DPS):
        psi = [-mp.euler] + [
            (-1) ** (k + 1) * mp.factorial(k) * mp.zeta(k + 1)
            for k in range(1, n_max + 1)
        ]
        g = [mp.mpf(1)]
        for m in range(n_max):
            g.append(mp.fsum(mp.binomial(m, k) * g[m - k] * psi[k] for k in range(m + 1)))
        return tuple((int(mp.sign(v)), float(mp.log(abs(v)))) for v in g)


def gamma_derivative(n: int) -> tuple[int, float]:
    """(sign, log|·|) of Γ⁽ⁿ⁾(1)."""
    return _gamma_derivatives(max(200, n))[n]


@lru_cache(maxsize=None)
def lambert_w(t: float) -> float:
    with mp.workdps(DPS):
        return float(mp.lambertw(mp.mpf(t)).real)


@lru_cache(maxsize=None)
def laplace_estimates(t: float) -> tuple[float, float]:
    """log of the exact-curvature and leading-order saddle estimates of S(t)."""
    with mp.workdps(DPS):
        q = mp.mpf(t)
        w = mp.lambertw(q).real
        half_log_2pi_t = mp.log(2 * mp.pi * q) / 2
        q_peak = q * mp.log(w) - q / w + 1
        exact = half_log_2pi_t - mp.log1p(w) / 2 + q_peak
        leading = half_log_2pi_t - mp.log(w) / 2 + q_peak
        return float(exact), float(leading)


@lru_cache(maxsize=None)
def lambert_bounds(t: float) -> tuple[float, float]:
    """The sandwich ln t − ln ln t ≤ W(t) ≤ ln t − ln(ln t − ln ln t), t > e."""
    with mp.workdps(DPS):
        lt = mp.log(mp.mpf(t))
        llt = mp.log(lt)
        return float(lt - llt), float(lt - mp.log(lt - llt))


def log_moment(kind: str, factors: tuple[tuple[float, float], ...], order: int) -> float:
    """log m_order of a stock family or of a product of (δ, r) factors."""
    if kind == "lognormal":
        return order * order / 2.0
    with mp.workdps(DPS):
        return sum(
            float(mp.loggamma(delta * order + 1)) + log_s(order * r) for delta, r in factors
        )


# -- truth table ----------------------------------------------------------------

SATISFIED = "satisfied-evidence"
VIOLATED = "violated-evidence"

#: Known verdicts per family class.  ``growth_power`` is check_growth_rate
#: with q(n) = n^α, α > 0; the table makes no claim for it on the
#: two-factor families.  ``inconclusive`` never contradicts the table.
_ALL = ("carleman", "growth_rate", "growth_rate_q", "hardy", "growth_power")
TRUTH = {
    "exp": dict.fromkeys(_ALL, SATISFIED),
    "exp2": dict.fromkeys(_ALL, SATISFIED),
    "lognormal": dict.fromkeys(_ALL, VIOLATED),
    "two-factor": {
        "carleman": SATISFIED,
        "growth_rate_q": SATISFIED,
        "growth_rate": VIOLATED,
        "hardy": VIOLATED,
    },
}


def contradictions(family_class: str, verdicts: dict[str, str]) -> list[str]:
    """Criteria whose decisive verdict is the opposite of the known truth."""
    truth = TRUTH[family_class]
    return [
        criterion
        for criterion, status in verdicts.items()
        if criterion in truth and status in (SATISFIED, VIOLATED) and status != truth[criterion]
    ]
