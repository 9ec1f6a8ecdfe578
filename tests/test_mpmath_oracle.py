"""S(p), W(t) and Γ⁽ⁿ⁾(1) against mpmath references.

mpmath is an optional test dependency (the ``test`` extra); without it
this module is skipped.  The references share no code with the package:

* S(p): mpmath's own adaptive quadrature at 30 digits, split at the
  integrand's peak expm1(W(p)) from ``mpmath.lambertw``, checked through
  the scalar and the batched path;
* W(t): ``mpmath.lambertw`` over the whole positive float range;
* Γ⁽ⁿ⁾(1): the recursion Γ⁽ᵐ⁺¹⁾(1) = Σₖ C(m,k) Γ⁽ᵐ⁻ᵏ⁾(1) ψ⁽ᵏ⁾(1) with
  ψ(1) = −γ and ψ⁽ᵏ⁾(1) = (−1)ᵏ⁺¹ k! ζ(k+1), which needs no quadrature;
* the unit integral ∫₀¹ (ln t)ⁿ e⁻ᵗ dt: Γ⁽ⁿ⁾(1) − e⁻¹·S(n) for n ≤ 200,
  and for every order (−1)ⁿ·n!·σₙ at 50 digits, with mpmath's loggamma
  and σₙ = Σₖ (−1)ᵏ/(k!·(k+1)ⁿ⁺¹) summed to 50 terms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from momentdet import (
    DomainError,
    gamma_derivative,
    integrate_logweighted,
    integrate_unit_log_power,
    lambert_w0,
    log_power_integral,
)
from momentdet.lambertw import _halley

mp = pytest.importorskip("mpmath")

EPS = 2.220446049250313e-16

P_VALUES = [
    0.5, 0.9, 1.0, 1.5, 2.41, 3.3, 7.0, 12.0, 37.3, 100.0, 269.9, 777.7, 1000.0, 2500.0, 4000.0
]


@lru_cache(maxsize=None)
def mp_s(p: float):
    """S(p) at 30 digits, an mpf."""
    with mp.workdps(30):
        q = mp.mpf(p)
        peak = mp.expm1(mp.lambertw(q).real)

        def f(x):
            return mp.exp(q * mp.log(mp.log1p(x)) - x) if x > 0 else mp.mpf(0)

        points = [0, peak / 4, peak / 2, peak, 2 * peak + 10, 4 * peak + 40, mp.inf]
        return mp.quad(f, points)


def mp_log_s_exact(p: float):
    """log S(p) at 30 digits, an mpf."""
    with mp.workdps(30):
        return mp.log(mp_s(p))


def mp_log_s(p: float) -> float:
    return float(mp_log_s_exact(p))


@pytest.mark.parametrize("p", P_VALUES)
def test_scalar_error_within_its_estimate(p):
    # the reference is itself rounded to a float: allow its half ulp
    res = integrate_logweighted(p)
    ref = mp_log_s(p)
    assert abs(res.value.logmag - ref) <= res.est_rel_error + EPS * max(1.0, abs(ref))


def test_batched_path_matches_reference():
    got = log_power_integral(np.array(P_VALUES))
    for p, lg in zip(P_VALUES, got):
        ref = mp_log_s(p)
        assert abs(lg - ref) <= 1e-12 * max(1.0, abs(ref)), p


# 5e-324 (the smallest subnormal) to 1.7e308 (just below the float maximum)
W_GRID = np.geomspace(5e-324, 1.7e308, 1201).tolist()


def test_lambert_w_matches_reference_over_float_range():
    # the scalar path on Python floats, the array path as the quadrature uses it
    batch = _halley(np.array(W_GRID), np)
    with mp.workdps(40):
        for t, w_array in zip(W_GRID, batch):
            ref = mp.lambertw(mp.mpf(t)).real
            for w in (lambert_w0(t).w, w_array):
                assert abs((mp.mpf(float(w)) - ref) / ref) <= 4.5e-16, t


GAMMA_N_MAX = 200


@lru_cache(maxsize=None)
def mp_gamma_values() -> tuple:
    """Γ⁽ⁿ⁾(1) for n = 0..GAMMA_N_MAX at 60 digits, by the ψ recursion."""
    with mp.workdps(60):
        psi = [-mp.euler] + [
            (-1) ** (k + 1) * mp.factorial(k) * mp.zeta(k + 1) for k in range(1, GAMMA_N_MAX + 1)
        ]
        g = [mp.mpf(1)]
        for m in range(GAMMA_N_MAX):
            g.append(mp.fsum(mp.binomial(m, k) * g[m - k] * psi[k] for k in range(m + 1)))
        return tuple(g)


def mp_gamma_derivatives() -> tuple[tuple[int, float], ...]:
    """(sign, log|·|) of Γ⁽ⁿ⁾(1) for n = 0..GAMMA_N_MAX, by the ψ recursion."""
    with mp.workdps(60):
        return tuple((int(mp.sign(v)), float(mp.log(abs(v)))) for v in mp_gamma_values())


def test_gamma_derivative_error_within_its_estimate():
    for n, (sign, ref) in enumerate(mp_gamma_derivatives()):
        res = gamma_derivative(n)
        assert res.value.sign == sign, n
        assert abs(res.value.logmag - ref) <= res.est_rel_error + EPS * max(1.0, abs(ref)), n


# -- every estimate against its true error, and the refusals past the accuracy --

#: Orders of S refused at the package's accuracy of 1e-9: the floored estimate
#: eps·(4 + |log S(p)|) exceeds it from p ≈ 1.88e6 on (log S(2e6) ≈ 4.8e6).
FLOORED = [2e6, 1e7]

#: Orders of the unit integral, checked against Γ⁽ⁿ⁾(1) − e⁻¹·S(n).
UNIT_ORDERS = [0, 1, 2, 3, 5, 10, 30, 60, 100, 150, 200]


def true_error(logmag: float, reference) -> float:
    """|logmag − reference| at 30 digits: the error in the log, which is
    the relative error of the value, with no rounding of the reference."""
    with mp.workdps(30):
        return float(abs(mp.mpf(logmag) - reference))


@pytest.mark.parametrize("p", P_VALUES)
def test_s_estimate_covers_true_error(p):
    res = integrate_logweighted(p)
    assert true_error(res.value.logmag, mp_log_s_exact(p)) <= res.est_rel_error


@pytest.mark.parametrize("p", FLOORED)
def test_s_past_the_accuracy_is_refused(p):
    with pytest.raises(DomainError, match=f"p = {p:.17g} has a floored error estimate"):
        integrate_logweighted(p)


def test_gamma_estimate_covers_true_error():
    for n, value in enumerate(mp_gamma_values()):
        res = gamma_derivative(n)
        assert res.value.sign == int(mp.sign(value)), n
        with mp.workdps(30):
            ref = mp.log(abs(value))
        assert true_error(res.value.logmag, ref) <= res.est_rel_error, n


@pytest.mark.parametrize("n", UNIT_ORDERS)
def test_unit_estimate_covers_true_error(n):
    with mp.workdps(30):
        unit = mp_gamma_values()[n] - mp_s(float(n)) / mp.e
        ref = mp.log(abs(unit))
    res = integrate_unit_log_power(n)
    assert res.value.sign == int(mp.sign(unit)) == (-1) ** n
    assert true_error(res.value.logmag, ref) <= res.est_rel_error


@lru_cache(maxsize=None)
def mp_log_unit_series(n: int):
    """log |∫₀¹ (ln t)ⁿ e⁻ᵗ dt| = ln n! + ln σₙ at 50 digits, an mpf; the
    first term left out, k = 50, is below 1e-66 of σₙ."""
    with mp.workdps(50):
        sigma = mp.fsum((-1) ** k / (mp.factorial(k) * mp.mpf(k + 1) ** (n + 1)) for k in range(50))
        return mp.loggamma(n + 1) + mp.log(sigma)


def assert_unit_estimate_covers_series(n: int) -> bool:
    """The unit integral's estimate covers its true error, or, where the
    floored estimate eps·(4 + |log|) exceeds the accuracy 1e-9, DomainError
    says so; whether it was refused."""
    ref = mp_log_unit_series(n)
    if EPS * (4.0 + abs(float(ref))) > 1e-9:
        with pytest.raises(DomainError, match=f"n = {n} has a floored error estimate"):
            integrate_unit_log_power(n)
        return True
    res = integrate_unit_log_power(n)
    assert res.value.sign == (-1) ** n, n
    assert true_error(res.value.logmag, ref) <= res.est_rel_error, n
    return False


def test_unit_series_estimate_covers_true_error():
    for n in [*range(401), 1000, 5000]:
        assert not assert_unit_estimate_covers_series(n)


#: Orders from 401 to 1e9, log-spaced, and both sides of the ln k! table's end.
LARGE_UNIT_ORDERS = sorted({*np.geomspace(401, 1e9, 40).round().astype(int).tolist(), 8192, 8193})


@pytest.mark.parametrize("n", LARGE_UNIT_ORDERS)
def test_large_unit_orders_estimate_covers_true_error(n):
    # refused from n ≈ 3.8e5 on, and only there
    assert assert_unit_estimate_covers_series(n) == (n > 3.8e5)


def test_mixed_batch_within_scalar_estimates():
    # unsorted, with repeats; a floored order raises for the whole batch, naming the lowest
    batch = P_VALUES[::-1] + P_VALUES[::4]
    with pytest.raises(DomainError, match=f"p = {FLOORED[0]:.17g} "):
        log_power_integral(np.array(FLOORED[::-1] + batch))
    got = log_power_integral(np.array(batch))
    for p, lg in zip(batch, got):
        est = integrate_logweighted(p).est_rel_error
        assert true_error(float(lg), mp_log_s_exact(p)) <= est, p


# -- S's floor where np.longdouble is float64 (ROADMAP item 16) -------------

#: Orders at which S, with its saddle terms in float64, misses the floor
#: eps·(4 + |log S|) (by 1.16 to 1.50 times), on the table and on the series.
NARROW_MISSES = [20.8, 40.0, 51.1, 5417.8, 123000.0]


def test_s_estimate_covers_true_error_where_the_wide_type_is_float64(monkeypatch):
    # a platform whose np.longdouble is float64, emulated: the saddle terms in
    # float64, and the floor that the type decides at import, eps·(4 + 2·|log|)
    from momentdet import quadrature

    wide = log_power_integral(np.array(P_VALUES + NARROW_MISSES))
    monkeypatch.setattr(quadrature, "_WIDE", np.float64)
    monkeypatch.setattr(quadrature, "_S_LOG_SCALE", 2.0)
    narrow = log_power_integral(np.array(P_VALUES + NARROW_MISSES))
    for p, log in zip(P_VALUES + NARROW_MISSES, narrow.tolist()):
        res = integrate_logweighted(p)
        assert res.value.logmag == log
        assert res.est_rel_error == EPS * (4.0 + 2.0 * abs(log))
        assert true_error(log, mp_log_s_exact(p)) <= res.est_rel_error, p
    if np.finfo(np.longdouble).eps < EPS:  # the emulation moved what it emulates
        assert np.count_nonzero(narrow != wide) >= len(NARROW_MISSES)
    # the doubled floor reaches the accuracy at about half the order
    with pytest.raises(DomainError, match="p = 1000000 has a floored error estimate"):
        integrate_logweighted(1e6)
    assert integrate_logweighted(9e5).est_rel_error <= 1e-9
