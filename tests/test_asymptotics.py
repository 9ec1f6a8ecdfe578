"""Saddle-point analysis and Laplace estimates for the log-power integrals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentdet import (
    DomainError,
    SignedLogValue,
    asymptotic_kn,
    integrate_logweighted,
    lambert_w0,
    laplace_estimate_exact,
    laplace_estimate_leading,
    saddle_point,
    verify_laplace_conditions,
)

from .oracles import bisect_w

E = math.e


class TestSaddlePoint:
    def test_closed_forms_at_e(self):
        # At t = e the saddle solves (1+x)ln(1+x) = e, so x = e − 1 and W = 1.
        rep = saddle_point(E)
        assert rep.x_t == pytest.approx(E - 1.0, rel=1e-14)
        assert rep.q_peak == pytest.approx(1.0 - E, rel=1e-14)
        assert rep.q_curv == pytest.approx(-2.0 / E, rel=1e-14)
        assert rep.mu == pytest.approx(math.exp(0.25), rel=1e-14)
        assert abs(rep.residual) <= 1e-14

    def test_saddle_location_vs_oracle(self):
        w = bisect_w(100.0)
        rep = saddle_point(100.0)
        assert rep.x_t == pytest.approx(100.0 / w - 1.0, rel=1e-11)

    def test_defining_identity_residual(self):
        for t in np.geomspace(1.0, 1e9, 60):
            rep = saddle_point(float(t))
            assert abs(rep.residual) <= 1e-8 * float(t)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_t(self, t):
        with pytest.raises(DomainError):
            saddle_point(t)

    @given(st.floats(min_value=0.1, max_value=1e9))
    def test_report_invariants(self, t):
        rep = saddle_point(t)
        assert rep.t == t
        assert rep.x_t > 0.0
        assert rep.q_curv < 0.0
        assert rep.mu >= 1.0
        assert abs(rep.residual) <= 1e-8 * max(t, 1.0)
        # peak value of Q is t·ln ln(1+x_t) − x_t
        direct = t * math.log(math.log1p(rep.x_t)) - rep.x_t
        assert rep.q_peak == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestEstimates:
    def test_exact_closed_form_at_e(self):
        expected = 0.5 * math.log(2.0 * math.pi * E) - 0.5 * math.log(2.0) + (1.0 - E)
        assert laplace_estimate_exact(E).logmag == pytest.approx(expected, rel=1e-14)

    def test_leading_closed_form_at_e(self):
        expected = 0.5 * math.log(2.0 * math.pi * E) + (1.0 - E)
        assert laplace_estimate_leading(E).logmag == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("t", [0.5, 1.0, E, 5.0, 10.0, 50.0, 100.0, 500.0])
    def test_leading_to_exact_ratio_identity(self, t):
        # leading/exact = sqrt((W+1)/W) exactly (same W in both formulas)
        w = lambert_w0(t).w
        ratio = math.exp(laplace_estimate_leading(t).logmag - laplace_estimate_exact(t).logmag)
        expected = math.sqrt((w + 1.0) / w)
        assert abs(ratio - expected) <= 1e-12 * expected

    def test_exact_close_to_integral(self):
        s = integrate_logweighted(100.0).value.logmag
        dev = abs(math.exp(laplace_estimate_exact(100.0).logmag - s) - 1.0)
        assert dev <= 0.2

    def test_exact_deviation_decreases(self):
        devs = []
        for t in (1e2, 1e3, 1e4):
            s = integrate_logweighted(t).value.logmag
            devs.append(abs(math.exp(laplace_estimate_exact(t).logmag - s) - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_leading_closer_at_larger_t(self):
        devs = []
        for t in (100.0, 1000.0):
            s = integrate_logweighted(t).value.logmag
            devs.append(abs(math.exp(laplace_estimate_leading(t).logmag - s) - 1.0))
        assert devs[1] < devs[0]
        assert devs[1] <= 0.3


    @pytest.mark.parametrize("t", [3e307, 1e308])
    def test_overflowing_estimate_is_a_domain_error(self, t):
        # Q(x_t, t) passes the float range from t ≈ 3e307 on
        for estimate in (laplace_estimate_exact, laplace_estimate_leading):
            with pytest.raises(DomainError, match=f"^{estimate.__name__} at t = "):
                estimate(t)
        with pytest.raises(DomainError, match="^asymptotic_kn at t = "):
            asymptotic_kn(int(t))

    def test_estimate_just_below_the_overflow(self):
        for estimate in (laplace_estimate_exact, laplace_estimate_leading):
            assert math.isfinite(estimate(2.7e307).logmag)
        assert asymptotic_kn(27 * 10**306) == laplace_estimate_leading(2.7e307)


class TestAsymptoticKn:
    def test_r_zero_is_exact_one(self):
        assert asymptotic_kn(5, 0.0) == SignedLogValue.one()

    def test_reduces_to_leading_estimate(self):
        assert asymptotic_kn(1000, 0.5) == laplace_estimate_leading(500.0)

    def test_full_power_tracks_integral(self):
        ratio = math.exp(asymptotic_kn(100, 1.0).logmag - integrate_logweighted(100.0).value.logmag)
        assert 0.5 <= ratio <= 1.5

    @pytest.mark.parametrize("n,r", [(0, 1.0), (-3, 1.0), (5, -0.1), (5, 1.5)])
    def test_invalid_arguments(self, n, r):
        with pytest.raises(DomainError):
            asymptotic_kn(n, r)


class TestGrowthTrends:
    def test_root_and_ratio_approach_log(self):
        # K_n^{1/n}/ln(n+1) → 1 and (K_{n+1}/K_n)/ln(n+1) → 1, monotonically
        root_devs, ratio_devs = [], []
        for n in (100, 500, 2000):
            log_kn = integrate_logweighted(float(n)).value.logmag
            log_kn1 = integrate_logweighted(float(n + 1)).value.logmag
            root_devs.append(abs(math.exp(log_kn / n) / math.log(n + 1.0) - 1.0))
            ratio_devs.append(abs(math.exp(log_kn1 - log_kn) / math.log(n + 1.0) - 1.0))
        assert root_devs[0] > root_devs[1] > root_devs[2]
        assert ratio_devs[0] > ratio_devs[1] > ratio_devs[2]
        assert root_devs[2] < 0.4
        assert ratio_devs[2] < 0.25


class TestConditionChecks:
    @pytest.mark.filterwarnings("error")
    def test_concavity_holds(self):
        for t in (5.0, 100.0, 1e4, 1e155, 1e200, 1e300, 1e308):
            assert verify_laplace_conditions(t).cond2_ok
        # where ((1+x)·ln(1+x))² passes the float range, the window is flat
        for t in (1e155, 1e200, 1e300, 1e308):
            assert verify_laplace_conditions(t).cond1_sup_dev < 1e-6

    def test_window_width_anchor(self):
        # x_t·sqrt((1+W)/t) at t = 100; leading-order sqrt(t/W) agrees to ~15%
        chk = verify_laplace_conditions(100.0)
        assert chk.cond3_value == pytest.approx(5.976104936462188, rel=1e-9)
        w = lambert_w0(100.0).w
        assert chk.cond3_value / math.sqrt(100.0 / w) == pytest.approx(1.0, abs=0.15)

    def test_curvature_flatness_improves(self):
        sups = [verify_laplace_conditions(t).cond1_sup_dev for t in (1e2, 1e3, 1e4)]
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.5

    def test_grid_not_clipped_at_moderate_t(self):
        assert not verify_laplace_conditions(100.0).grid_clipped

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            verify_laplace_conditions(100.0, grid_size=10)

    @pytest.mark.parametrize("t", [E, 1.0, 0.5])
    def test_requires_t_above_e(self, t):
        with pytest.raises(DomainError):
            verify_laplace_conditions(t)
