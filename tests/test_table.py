"""S(p) below the saddle-point series' threshold from the literal table
``quadrature._S_TABLE``: its values against 30-digit mpmath, its error
estimates at every tolerance, scalar against batch bits, the signed zero
at p = 0, and no quadrature on any path of ``_log_s``.

The reference takes S(p) by mpmath's tanh-sinh quadrature on [0, peak] and
[peak, peak + 120], the peak at expm1(W(p)) from ``mpmath.lambertw``; past
that the integrand is below e^{−70} of its peak for every p ≤ 64.  It
shares no code with the package or with ``tools/s_table.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import momentdet.quadrature as quadrature
from momentdet import (
    DEFAULT_REL_TOL,
    DomainError,
    gamma_derivative,
    generate_moments,
    integrate_logweighted,
    log_power_integral,
    parse_family,
)

try:
    import mpmath as mp
except ImportError:  # an optional test dependency (the ``test`` extra)
    mp = None

needs_mpmath = pytest.mark.skipif(mp is None, reason="mpmath is not installed")

EPS = 2.220446049250313e-16

#: The mpmath tests' tolerances, as in ``test_mpmath_oracle.py``.
REL_TOLS = [1e-4, 1e-6, 1e-9, 1e-12]

#: The table's octave edges, each with the float just below it, and the
#: float just below the series' threshold.
EDGES = [2.0**j for j in range(6)]
EDGE_P = [0.0, *EDGES, *np.nextafter(EDGES, 0.0).tolist(), np.nextafter(61.0, 0.0)]

#: Orders over the table's whole range [0, 61): log-spaced from 1e-9,
#: uniform from 0, and the edges.
TABLE_P = sorted({
    *np.geomspace(1e-9, 60.9, 60).tolist(),
    *np.linspace(0.0, 60.9, 50).tolist(),
    *EDGE_P,
})


@lru_cache(maxsize=None)
def mp_log_s(p: float):
    """log S(p) at 30 digits, an mpf; exactly 0 at p = 0."""
    if p == 0.0:
        return mp.mpf(0)
    with mp.workdps(30):
        q = mp.mpf(p)
        w = mp.lambertw(q).real
        peak = mp.expm1(w)
        top = q * mp.log(w) - peak

        def f(x):
            return mp.exp(q * mp.log(mp.log1p(x)) - x - top) if x > 0 else mp.mpf(0)

        return mp.log(mp.quad(f, [0, peak, peak + 120])) + top


def true_error(log: float, p: float) -> float:
    with mp.workdps(30):
        return float(abs(mp.mpf(log) - mp_log_s(p)))


def test_the_orders_cover_every_row():
    assert len(TABLE_P) >= 100 and max(TABLE_P) < quadrature._SERIES_FROM
    coefs, powers = quadrature._table_arrays()
    assert coefs.shape == (7, quadrature._TABLE_TERMS) == (7, powers.size)
    rows = {0 if p < 1.0 else math.frexp(p)[1] for p in TABLE_P}
    assert rows == set(range(7))


@needs_mpmath
def test_every_value_is_within_the_float_floor():
    logs = log_power_integral(np.array(TABLE_P))
    for p, log in zip(TABLE_P, logs.tolist()):
        assert true_error(log, p) <= EPS * (4.0 + abs(log)), p


@needs_mpmath
@pytest.mark.parametrize("rel_tol", REL_TOLS)
def test_estimate_covers_true_error(rel_tol):
    for p in TABLE_P:
        ref = mp_log_s(p)
        if EPS * (4.0 + abs(float(ref))) > rel_tol:
            with pytest.raises(DomainError, match="floored error estimate"):
                integrate_logweighted(p, rel_tol)
            continue
        res = integrate_logweighted(p, rel_tol)
        assert res.nodes_used == quadrature._TABLE_TERMS, p
        assert true_error(res.value.logmag, p) <= res.est_rel_error, p


def test_floored_estimate_above_rel_tol_raises():
    # eps·(4 + |log S(60)|) is about 1.2e-14
    with pytest.raises(DomainError, match="p = 60 has a floored error estimate"):
        integrate_logweighted(60.0, 1.1e-14)


P_SETS = st.lists(
    st.one_of(
        st.sampled_from(EDGE_P + [-0.0, 5e-324, 1e-320]),
        st.floats(min_value=0.0, max_value=70.0),
    ),
    min_size=1,
    max_size=12,
)


@given(P_SETS)
def test_batch_equals_scalar_bits(ps):
    logs, ests, nodes = quadrature._log_s(np.array(ps), DEFAULT_REL_TOL)
    for i, p in enumerate(ps):
        log, est, terms = quadrature._log_s(np.float64(p), DEFAULT_REL_TOL)
        assert np.ndim(log) == 0 and log.tobytes() == logs[i].tobytes()
        assert est.tobytes() == ests[i].tobytes() and terms == nodes[i]
        assert integrate_logweighted(p).value.logmag == logs[i] == log_power_integral(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.0, -0.0])
def test_log_of_s_zero_is_positive_zero(p):
    for log in (
        quadrature._log_s(np.float64(p), DEFAULT_REL_TOL)[0],
        quadrature._log_s(np.array([p, 0.5, 30.0]), DEFAULT_REL_TOL)[0][0],
        log_power_integral(p),
        integrate_logweighted(p).value.logmag,
    ):
        assert log == 0.0 and math.copysign(1.0, log) == 1.0


@pytest.mark.filterwarnings("error")
def test_gamma_one_has_log_exactly_zero():
    res = gamma_derivative(0)
    assert (res.value.sign, res.value.logmag) == (1, 0.0)
    assert res.nodes_used == 20 + quadrature._TABLE_TERMS


def test_no_quadrature_on_any_path(monkeypatch):
    calls, real = [], quadrature._tanh_sinh

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, "_tanh_sinh", spy)
    ps = [0.0, 5e-324, 1e-9, 0.5, *EDGE_P, 30.0, 61.0, 150.0, 4000.0, 1e6]
    quadrature._log_s(np.array(ps), DEFAULT_REL_TOL)
    for p in ps:
        quadrature._log_s(np.float64(p), DEFAULT_REL_TOL)
    for n in range(0, 201, 7):
        gamma_derivative(n)
    generate_moments(parse_family("product[(1,0.63),(1,0.81)]"), 200)
    assert calls == []
    quadrature._log_s_quadrature(np.float64(30.0), DEFAULT_REL_TOL)  # the spy sees the driver
    assert len(calls) == 1
