"""S(p) against an mpmath reference, through the scalar and the batched path.

mpmath is an optional test dependency (the ``test`` extra); without it
this module is skipped.  The reference shares no code with the package:
mpmath's own adaptive quadrature at 30 digits, split at the integrand's
peak expm1(W(p)) from ``mpmath.lambertw``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from momentdet import integrate_logweighted, log_power_integral

mp = pytest.importorskip("mpmath")

EPS = 2.220446049250313e-16

P_VALUES = [
    0.5, 0.9, 1.0, 1.5, 2.41, 3.3, 7.0, 12.0, 37.3, 100.0, 269.9, 777.7, 1000.0, 2500.0, 4000.0
]


@lru_cache(maxsize=None)
def mp_log_s(p: float) -> float:
    with mp.workdps(30):
        q = mp.mpf(p)
        peak = mp.expm1(mp.lambertw(q).real)

        def f(x):
            return mp.exp(q * mp.log(mp.log1p(x)) - x) if x > 0 else mp.mpf(0)

        points = [0, peak / 4, peak / 2, peak, 2 * peak + 10, 4 * peak + 40, mp.inf]
        return float(mp.log(mp.quad(f, points)))


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
