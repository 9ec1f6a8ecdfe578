"""S(p) from its saddle-point series: the coefficient table re-derived in
exact rationals, the threshold the series starts at, and its values, and
the CLI ``asym``'s, against mpmath.

The table ``quadrature._SERIES`` holds, per m, dₘ(v) = Nₘ(v)/(Cₘ·(v·(1+v)³)ᵐ):
the coefficients of ln ∫ exp(p·φ(s)) ds ~ ln √(2π/(p·φ''(0))) + Σₘ dₘ·p⁻ᵐ
for φ(s) = ln(1 + v·ln(1+s)) − v·s.  ``laplace_log_coefficients`` derives
them by Laplace's method in ``fractions.Fraction``, with no code of the
package's.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import momentdet.quadrature as quadrature
from momentdet import (
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
    assert len(rows) == quadrature._SERIES_TERMS == 8
    assert [len(num) - 1 for _, num in rows] == [4, 5, 12, 11, 20, 17, 28, 23]
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


@lru_cache(maxsize=None)
def ninth_numerator() -> list[Fraction]:
    """d₉(v)·(v·(1+v)³)⁹, a polynomial of degree 36 in v, as its Newton
    divided differences on v = 1..37, from ``laplace_log_coefficients`` in
    exact rationals; a 38th point checks the degree."""
    values = [laplace_log_coefficients(Fraction(v), 9)[-1] * (v * (1 + v) ** 3) ** 9
              for v in range(1, 39)]
    diffs = []
    for k in range(1, len(values) + 1):
        diffs.append(values[0])
        values = [(b - a) / k for a, b in zip(values, values[1:])]
    assert diffs[-1] == 0 != diffs[-2]
    return diffs[:-1]


def ninth_term(p: float) -> float:
    """|d₉(v)·p⁻⁹| at v = 1/W(p), in exact rationals: the first term the
    series leaves out."""
    v = 1 / Fraction(lambert_w0(p).w)
    numerator = Fraction(0)
    for k, diff in reversed(list(enumerate(ninth_numerator(), 1))):
        numerator = numerator * (v - k) + diff
    return float(abs(numerator) / (v * (1 + v) ** 3 * p) ** 9)


#: The highest order S(p) accepts: eps·(4 + |log S(p)|) exceeds 1e-9 from the next.
LAST_ORDER = 1_877_828.0


def test_the_last_order_is_the_last_accepted():
    assert integrate_logweighted(LAST_ORDER).nodes_used == quadrature._SERIES_TERMS
    with pytest.raises(DomainError, match="p = 1877829 has a floored error estimate"):
        integrate_logweighted(LAST_ORDER + 1.0)


def test_threshold_is_where_the_ninth_term_stays_under_a_quarter_of_the_floor():
    # from the threshold to the last order S(p) accepts, so the series, summed
    # whole, stays within its floor estimate wherever it runs
    grid = [*map(float, range(20, 200)), *np.geomspace(200.0, LAST_ORDER, 64).tolist()]
    logs = log_power_integral(np.array(grid))
    over = [i for i, (p, log) in enumerate(zip(grid, logs))
            if ninth_term(p) > 0.25 * EPS * (4.0 + abs(log))]
    assert grid[max(over) + 1] == quadrature._SERIES_FROM


# -- the series' values ---------------------------------------------------------

@lru_cache(maxsize=None)
def mp_log_s(p: float):
    """log S(p) at 25 digits, an mpf: mpmath's quadrature split at the peak
    expm1(W(p)) from ``mpmath.lambertw`` and at multiples of the width
    √(p/(1+W)) on both sides of it.  The first panel, from 0, is taken by
    tanh-sinh, which converges on the integrand's x^p at 0 and on its far
    tail before the peak, and the others by Gauss-Legendre: on [0.5, 4000]
    it is within 1e-22 of a 40-digit tanh-sinh reference split at fractions
    and multiples of the peak, and up to 1e6 within 1e-19 of one split at
    every two widths, in about 30 ms per p."""
    with mp.workdps(25):
        q = mp.mpf(p)
        w = mp.lambertw(q).real
        peak, width = mp.expm1(w), mp.sqrt(q / (1 + w))
        top = q * mp.log(w) - peak

        def f(x):
            return mp.exp(q * mp.log(mp.log1p(x)) - x - top) if x > 0 else mp.mpf(0)

        points = [peak + k * width for k in (-8, 0, 8, 16)]
        splits = [0, *(x for x in points if x > 0), mp.inf]
        head = mp.quad(f, splits[:2], method="tanh-sinh")
        return mp.log(head + mp.quad(f, splits[1:], method="gauss-legendre")) + top


#: 100 log-spaced orders from the threshold to the top of the mpmath oracle's range.
SERIES_P = np.geomspace(quadrature._SERIES_FROM, 4000.0, 100).tolist()


@needs_mpmath
def test_series_estimate_covers_true_error():
    for p in SERIES_P:
        ref = mp_log_s(p)
        res = integrate_logweighted(p)
        assert res.nodes_used == quadrature._SERIES_TERMS, p
        with mp.workdps(25):
            assert float(abs(mp.mpf(res.value.logmag) - ref)) <= res.est_rel_error, p


#: 40 log-spaced orders from the top of ``SERIES_P`` to a million.
MILLION_P = np.geomspace(4000.0, 1e6, 40).tolist()


@needs_mpmath
@pytest.mark.parametrize("p", MILLION_P, ids=lambda p: f"{p:.6g}")
def test_series_estimate_covers_true_error_up_to_a_million(p):
    # the estimate is the floor eps·(4 + |log S(p)|) from p = 61 on; the error
    # was a fifth of it at p = 4000 and 1/43 of it at 1e6
    res = integrate_logweighted(p)
    assert res.nodes_used == quadrature._SERIES_TERMS
    with mp.workdps(25):
        assert float(abs(mp.mpf(res.value.logmag) - mp_log_s(p))) <= res.est_rel_error


def test_series_batch_up_to_a_million_gives_the_scalar_bits():
    logs = quadrature._log_s(np.array(MILLION_P))
    for i, p in enumerate(MILLION_P):
        log = quadrature._log_s(np.float64(p))
        assert np.ndim(log) == 0 and log.tobytes() == logs[i].tobytes(), p
        res = integrate_logweighted(p)
        assert (res.est_rel_error, res.nodes_used) == (
            EPS * (4.0 + abs(logs[i])), quadrature._SERIES_TERMS), p


def test_series_batch_of_several_chunks_gives_the_scalar_bits():
    # each chunk of _SERIES_CHUNK orders is summed on its own: the orders on both
    # sides of every chunk boundary, and the last, partial chunk
    ps = np.arange(61.0, 61.0 + 3 * quadrature._SERIES_CHUNK + 100.0)
    logs = quadrature._log_s_series(ps)
    for i in (0, 511, 512, 1023, 1024, 1535, 1536, ps.size - 1):
        log = quadrature._log_s_series(ps[i])
        assert np.ndim(log) == 0 and log.tobytes() == logs[i].tobytes(), ps[i]


#: The rise of the peak RSS, in MB, that ``log_power_integral`` of every
#: integer order S(p) accepts may cause: 179 MB measured on x86-64 Linux
#: (numpy 2, Python 3.11) with each chunk of series terms summed as it is
#: made, plus a quarter.  Holding every chunk's terms until one sum took it
#: to 336 MB.
SERIES_BATCH_RSS_MB = 224


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux alone")
def test_series_batch_memory_is_bounded_by_the_chunk():
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from momentdet import log_power_integral
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        log_power_integral(np.arange(1.0, 1_877_829.0))
        print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.split()[-1]) <= SERIES_BATCH_RSS_MB


# -- where the two paths meet ---------------------------------------------------


@needs_mpmath
def test_scalar_and_batch_take_the_same_path_at_the_threshold():
    # below the threshold S(p) comes from the table, which reports its own term count
    below, at = np.nextafter(quadrature._SERIES_FROM, 0.0), quadrature._SERIES_FROM
    assert quadrature._TABLE_TERMS != quadrature._SERIES_TERMS
    assert integrate_logweighted(below).nodes_used == quadrature._TABLE_TERMS
    assert integrate_logweighted(at).nodes_used == quadrature._SERIES_TERMS
    # the batch sends each order to the scalar's piece: pinned by bits, which the two
    # pieces do not share at either order
    logs = quadrature._log_s(np.array([at, below]))
    for p, log, piece, other in ((at, logs[0], quadrature._log_s_series, quadrature._log_s_table),
                                 (below, logs[1], quadrature._log_s_table,
                                  quadrature._log_s_series)):
        assert log.tobytes() == quadrature._log_s(np.float64(p)).tobytes(), p
        assert log.tobytes() == piece(np.float64(p)).tobytes() != other(np.float64(p)).tobytes(), p
    assert abs(logs[0] - logs[1]) < 1e-12
    with mp.workdps(25):
        for p, log in zip((at, below), logs.tolist()):
            assert float(abs(mp.mpf(log) - mp_log_s(p))) <= EPS * (4.0 + abs(log)), p


@pytest.mark.filterwarnings("error")
def test_mixed_batch_names_the_lowest_p_beyond_float_resolution():
    with pytest.raises(DomainError, match="p = 1e\\+17 .*a float rounds by 60 nats"):
        log_power_integral(np.array([1e308, 1.0, 1e17, 100.0]))


def test_mixed_batch_names_the_lowest_floored_p():
    # the floor eps·(4 + |log S(p)|) exceeds the accuracy 1e-9 from p ≈ 1.88e6 on, so
    # both of those orders fail, and the lower is named
    with pytest.raises(DomainError, match="p = 2000000 has a floored error estimate"):
        log_power_integral(np.array([1e7, 60.0, 2e6, 100.0]))


#: Every t that ``tools/ab_outputs.py`` gives the CLI ``asym`` and that it accepts.
ASYM_T = [0.5, 1.0, 32.0, 60.5, 61.0, 64.0, 100.0, 150.0, 2000.0, 4000.0, 1e5]


@needs_mpmath
@pytest.mark.parametrize("t", ASYM_T)
def test_asym_integral_column_is_within_the_floor_of_mpmath(t):
    # the column is ln S(t)/ln 10 rounded to a float: ln S(t)'s floor
    # eps·(4 + |ln S(t)|), divided by ln 10, plus the division's half ulp
    result = CliRunner().invoke(main, ["asym", f"--t={t!r}", "--format", "csv"])
    assert result.exit_code == 0
    rows = result.output.splitlines()[1:]
    assert len(rows) == 1
    log10 = float(rows[0].split(",")[1])
    with mp.workdps(25):
        ref = mp_log_s(t)
        floor = EPS * (4.0 + abs(float(ref))) / math.log(10.0) + math.ulp(log10) / 2.0
        assert float(abs(mp.mpf(log10) - ref / mp.log(10))) <= floor
