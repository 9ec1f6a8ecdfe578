"""S(p) from its saddle-point series: the coefficient table re-derived in
exact rationals, the threshold the series starts at, and its values
against mpmath and against the package's own quadrature.

The table ``quadrature._SERIES`` holds, per m, dₘ(v) = Nₘ(v)/(Cₘ·(v·(1+v)³)ᵐ):
the coefficients of ln ∫ exp(p·φ(s)) ds ~ ln √(2π/(p·φ''(0))) + Σₘ dₘ·p⁻ᵐ
for φ(s) = ln(1 + v·ln(1+s)) − v·s.  ``laplace_log_coefficients`` derives
them by Laplace's method in ``fractions.Fraction``, with no code of the
package's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import momentdet.quadrature as quadrature
from momentdet import (
    DEFAULT_REL_TOL,
    DomainError,
    integrate_logweighted,
    lambert_w0,
    log_power_integral,
)
from momentdet.cli import main

from .conftest import CliRunner

try:
    import mpmath as mp
except ImportError:  # an optional test dependency (the ``test`` extra)
    mp = None

needs_mpmath = pytest.mark.skipif(mp is None, reason="mpmath is not installed")

EPS = 2.220446049250313e-16

#: The mpmath tests' tolerances, as in ``test_mpmath_oracle.py``.
REL_TOLS = [1e-4, 1e-6, 1e-9, 1e-12]


def table() -> list[tuple[int, list[int]]]:
    """``quadrature._SERIES`` as (Cₘ, Nₘ's coefficients from v⁰ up), one row per m."""
    return [(int(big), list(map(int, num.split())))
            for big, num in (row.split(":") for row in quadrature._SERIES)]


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def laplace_log_coefficients(v: Fraction, count: int) -> list[Fraction]:
    """d₁..d_count at ``v``, exactly.

    With s = t/√p, p·φ(s) = −c·t²/2 + Σ_{k≥3} φₖ·tᵏ·ε^{k−2}, where ε = p^{−1/2}
    and c = −φ''(0) = v + v².  exp of the sum is expanded in ε, each power a
    polynomial in t; the Gaussian moments E t^{2j} = (2j−1)!!/c^j turn the
    coefficient of ε^{2m} into cₘ, and ln(1 + Σ cₘ·p⁻ᵐ) = Σ dₘ·p⁻ᵐ.
    """
    top = 2 * count + 2
    log1p = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, top + 1)]
    phi = [Fraction(0)] * (top + 1)
    power = [Fraction(1)] + [Fraction(0)] * top  # (v·ln(1+s))^j, in s
    for j in range(1, top + 1):
        power = [v * sum(power[i] * log1p[k - i] for i in range(k + 1)) for k in range(top + 1)]
        for k in range(top + 1):
            phi[k] += Fraction((-1) ** (j + 1), j) * power[k]
    phi[1] -= v
    assert phi[0] == phi[1] == 0 and -2 * phi[2] == v + v * v
    curvature = v + v * v
    # e[n]: the coefficient of ε^n, as {degree in t: coefficient}, by n·eₙ = Σₖ k·gₖ·e_{n−k}
    e = [{0: Fraction(1)}]
    for n in range(1, 2 * count + 1):
        acc: dict[int, Fraction] = {}
        for k in range(1, n + 1):
            for degree, coef in e[n - k].items():
                acc[degree + k + 2] = acc.get(degree + k + 2, 0) + k * phi[k + 2] * coef
        e.append({degree: coef / n for degree, coef in acc.items()})
    c = [Fraction(1)] + [
        sum(coef * double_factorial(deg - 1) / curvature ** (deg // 2)
            for deg, coef in e[2 * m].items())
        for m in range(1, count + 1)
    ]
    d = [Fraction(0)]
    for m in range(1, count + 1):
        d.append(c[m] - sum((k * d[k] * c[m - k] for k in range(1, m)), Fraction(0)) / m)
    return d[1:]


def test_table_is_the_laplace_coefficients():
    # Each Nₘ(v) = dₘ(v)·Cₘ·(v·(1+v)³)ᵐ is checked exactly at deg + 2 distinct
    # v, one more than fixes a polynomial of its degree; for even m, Nₘ(0) = 0
    # and Nₘ/v has the degree of dₘ's reduced numerator
    rows = table()
    assert len(rows) == quadrature._SERIES_TERMS + 1
    assert [len(num) - 1 for _, num in rows] == [4, 5, 12, 11, 20, 17, 28, 23, 36]
    assert all(num[0] == 0 for _, num in rows[1::2])
    for v in range(1, max(len(num) for _, num in rows) + 2):
        ds = laplace_log_coefficients(Fraction(v), len(rows))
        for m, (d, (big, num)) in enumerate(zip(ds, rows), 1):
            if v <= len(num) + 1:
                assert d * big * (v * (1 + v) ** 3) ** m == sum(c * v**k for k, c in enumerate(num))


def test_first_terms_are_the_published_ones():
    v = Fraction(3, 7)
    d1, d2 = laplace_log_coefficients(v, 2)
    assert d1 == (2 * v**4 + 6 * v**3 + 16 * v**2 + 9 * v + 2) / (24 * v * (1 + v) ** 3)
    assert d2 == -(36 * v**4 + 40 * v**3 + 29 * v**2 + 12 * v + 2) / (48 * v * (1 + v) ** 6)


def ninth_term(p: float) -> float:
    """|d₉(v)·p⁻⁹| at v = 1/W(p), from the table in exact rationals."""
    big, num = table()[-1]
    v = 1 / Fraction(lambert_w0(p).w)
    return float(abs(sum(c * v**k for k, c in enumerate(num)) / big) / (v * (1 + v) ** 3 * p) ** 9)


def test_threshold_is_where_the_ninth_term_stays_under_a_quarter_of_the_floor():
    grid = [*map(float, range(20, 200)), *np.geomspace(200.0, 1e6, 60).tolist()]
    logs = log_power_integral(np.array(grid))
    over = [i for i, (p, log) in enumerate(zip(grid, logs))
            if ninth_term(p) > 0.25 * EPS * (4.0 + abs(log))]
    assert grid[max(over) + 1] == quadrature._SERIES_FROM


# -- the series' values ---------------------------------------------------------

@lru_cache(maxsize=None)
def mp_log_s(p: float):
    """log S(p) at 25 digits, an mpf: mpmath's Gauss-Legendre quadrature,
    split at the peak expm1(W(p)) from ``mpmath.lambertw`` and at multiples
    of the width √(p/(1+W)) on both sides of it: on [61, 4000] it is within
    1e-22 of ``test_mpmath_oracle.py``'s 30-digit tanh-sinh reference, in a
    seventh of its time or less."""
    with mp.workdps(25):
        q = mp.mpf(p)
        w = mp.lambertw(q).real
        peak, width = mp.expm1(w), mp.sqrt(q / (1 + w))
        top = q * mp.log(w) - peak

        def f(x):
            return mp.exp(q * mp.log(mp.log1p(x)) - x - top) if x > 0 else mp.mpf(0)

        points = [peak + k * width for k in (-8, 0, 8, 16)]
        splits = [0, *(x for x in points if x > 0), mp.inf]
        return mp.log(mp.quad(f, splits, method="gauss-legendre")) + top


#: 100 log-spaced orders from the threshold to the top of the mpmath oracle's range.
SERIES_P = np.geomspace(quadrature._SERIES_FROM, 4000.0, 100).tolist()


@needs_mpmath
@pytest.mark.parametrize("rel_tol", REL_TOLS)
def test_series_estimate_covers_true_error(rel_tol):
    for p in SERIES_P:
        ref = mp_log_s(p)
        if EPS * (4.0 + abs(float(ref))) > rel_tol:
            with pytest.raises(DomainError, match="floored error estimate"):
                integrate_logweighted(p, rel_tol)
            continue
        res = integrate_logweighted(p, rel_tol)
        assert res.nodes_used == quadrature._SERIES_TERMS, p
        with mp.workdps(25):
            assert float(abs(mp.mpf(res.value.logmag) - ref)) <= res.est_rel_error, p


def test_series_agrees_with_quadrature_past_the_mpmath_range():
    ps = np.geomspace(4000.0, 1e6, 100)
    series, series_est, terms = quadrature._log_s(ps, DEFAULT_REL_TOL)
    quad, quad_est, _ = quadrature._log_s_quadrature(ps, DEFAULT_REL_TOL)
    assert (terms == quadrature._SERIES_TERMS).all()
    assert (abs(series - quad) <= series_est + quad_est).all()


# -- where the two paths meet ---------------------------------------------------


def test_scalar_and_batch_take_the_same_path_at_the_threshold():
    # below the threshold S(p) comes from the table, which reports its own term count
    below, at = np.nextafter(quadrature._SERIES_FROM, 0.0), quadrature._SERIES_FROM
    assert quadrature._TABLE_TERMS != quadrature._SERIES_TERMS
    assert integrate_logweighted(below).nodes_used == quadrature._TABLE_TERMS
    assert integrate_logweighted(at).nodes_used == quadrature._SERIES_TERMS
    logs, _, nodes = quadrature._log_s(np.array([at, below]), DEFAULT_REL_TOL)
    assert nodes[0] == quadrature._SERIES_TERMS and nodes[1] == quadrature._TABLE_TERMS
    assert abs(logs[0] - logs[1]) < 1e-12
    quad = quadrature._log_s_quadrature(np.array([at, below]), DEFAULT_REL_TOL)[0]
    assert (abs(logs - quad) < 1e-12).all()


@pytest.mark.filterwarnings("error")
def test_mixed_batch_names_the_lowest_p_beyond_float_resolution():
    with pytest.raises(DomainError, match="p = 1e\\+17 .*float rounding"):
        log_power_integral(np.array([1e308, 1.0, 1e17, 100.0]))


def test_mixed_batch_names_the_lowest_floored_p():
    # at rel_tol 1.1e-14 the floor eps·(4 + |log S(p)|) exceeds it from p ≈ 57 on, so
    # both orders fail; the lower, by quadrature, is named, as a quadrature of both would
    with pytest.raises(DomainError, match="p = 60 has a floored error estimate"):
        log_power_integral(np.array([100.0, 60.0]), 1.1e-14)


def test_asym_integral_column_is_the_quadrature():
    result = CliRunner().invoke(main, ["asym", "--t", "150", "--t", "4000", "--format", "csv"])
    assert result.exit_code == 0
    column = [float(line.split(",")[1]) for line in result.output.splitlines()[1:]]
    quad = quadrature._log_s_quadrature(np.array([150.0, 4000.0]), DEFAULT_REL_TOL)[0]
    assert column == (quad / math.log(10.0)).tolist()
