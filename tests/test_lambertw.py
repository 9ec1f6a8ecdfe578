"""Principal-branch Lambert W solver and derived quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import momentdet.lambertw as lambertw_mod
from momentdet import (
    ConvergenceError,
    DomainError,
    TOL_W,
    WValue,
    lambert_w0,
    lambert_w_bounds,
    w_frac_diff,
    w_ratio_power,
)

from .oracles import OMEGA, bisect_w

E = math.e


class TestAnchors:
    def test_w_zero(self):
        res = lambert_w0(0.0)
        assert res.w == 0.0
        assert res.residual == 0.0

    def test_w_at_e(self):
        res = lambert_w0(E)
        assert abs(res.w - 1.0) <= 1e-12

    def test_omega_constant(self):
        assert lambert_w0(1.0).w == pytest.approx(OMEGA, abs=1e-14)

    def test_small_series_regime(self):
        # for tiny t, W(t) = t - t^2 + 1.5 t^3 - ...
        t = 1e-10
        assert lambert_w0(t).w == pytest.approx(t - t * t, rel=1e-9)


class TestOracleGrid:
    def test_matches_bisection_oracle(self):
        for t in np.geomspace(1e-6, 1e12, 200):
            got = lambert_w0(float(t)).w
            want = bisect_w(float(t))
            assert got == pytest.approx(want, rel=5e-12), f"t={t}"

    def test_residual_within_tolerance(self):
        for t in np.geomspace(1e-6, 1e12, 200):
            res = lambert_w0(float(t))
            assert res.residual <= TOL_W * max(float(t), 1.0)

    def test_defining_identity_moderate_range(self):
        for t in np.geomspace(0.01, 100.0, 50):
            w = lambert_w0(float(t)).w
            assert w * math.exp(w) == pytest.approx(float(t), rel=1e-12)


class TestWholeFloatRange:
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(5e-324)
    @example(1.7976931348623157e308)
    def test_residual_within_tolerance(self, t):
        res = lambert_w0(t)
        assert res.residual <= TOL_W * max(t, 1.0)


class TestBounds:
    def test_sandwich_above_e(self):
        for t in np.geomspace(E * 1.0001, 1e15, 120):
            lo, hi = lambert_w_bounds(float(t))
            w = lambert_w0(float(t)).w
            assert lo <= w * (1 + 1e-14)
            assert w <= hi * (1 + 1e-14)

    @pytest.mark.parametrize("t", [E, 1.0, 0.5, 2.7, math.inf])
    def test_requires_t_above_e(self, t):
        with pytest.raises(DomainError):
            lambert_w_bounds(t)


class TestDerivative:
    @pytest.mark.parametrize("t", [1e3, 1e6, 1e9, 1e12])
    def test_numerical_derivative(self, t):
        # dW/dt = W / (t (1 + W))
        h = t * 1e-6
        w_plus = lambert_w0(t + h).w
        w_minus = lambert_w0(t - h).w
        numeric = (w_plus - w_minus) / (2 * h)
        w = lambert_w0(t).w
        analytic = w / (t * (1 + w))
        assert numeric == pytest.approx(analytic, rel=1e-2)


class TestAsymptotics:
    def test_w_over_log_t_approaches_one(self):
        ratios = [abs(lambert_w0(t).w / math.log(t) - 1.0) for t in (1e3, 1e6, 1e9, 1e12)]
        assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
        assert ratios[-1] < 0.15


class TestRatioPower:
    def test_bounds_and_decreasing(self):
        # (W(t+1)/W(t))^t lies in [1, exp(1/(1+W(t)))] and decreases along
        # decades from 1e2; at 5e-324 (where 1/t overflows) and 1e-308 it is ~1
        values = []
        for t in (5e-324, 1e-308, 1e2, 1e4, 1e6, 1e8):
            r = w_ratio_power(t)
            w = lambert_w0(t).w
            assert 1.0 - 1e-12 <= r <= math.exp(1.0 / (1.0 + w)) * (1 + 1e-12)
            values.append(r)
        assert all(values[i] > values[i + 1] for i in range(2, len(values) - 1))

    def test_frac_diff_bounds(self):
        # (t+1)/W(t+1) - t/W(t) lies in [0, 1/W(t+1)] ... actually bounded by ~1/W
        for t in (5e-324, 1e-308, 1e2, 1e4, 1e6, 1e8):
            d = w_frac_diff(t)
            w1 = lambert_w0(t + 1.0).w
            assert -1e-12 <= d <= 1.0 / w1 * (1 + 1e-12)


class TestDomainErrors:
    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_bad_input(self, t):
        with pytest.raises(DomainError):
            lambert_w0(t)

    def test_unmet_residual_is_a_convergence_error(self, monkeypatch):
        # no Halley step leaves W at its log1p(t) start, far from W(100)
        monkeypatch.setattr(lambertw_mod, "_STEPS", 0)
        with pytest.raises(
            ConvergenceError,
            match=r"^lambert_w0\(100\.0\) residual .* exceeds .* after 0 Halley steps$",
        ):
            lambert_w0(100.0)


class TestRecord:
    def test_a_frozen_dataclass(self, assert_frozen_record):
        value = lambert_w0(3.5)
        assert_frozen_record(value, residual=1.0)
        assert_frozen_record(lambert_w0(0.0), t=1.0)
        assert repr(value) == f"WValue(t=3.5, w={value.w!r}, residual={value.residual!r})"
        assert WValue(residual=value.residual, w=value.w, t=3.5) == value
        # the record checks and converts nothing
        assert type(WValue(np.float64(1.0), 0.5, 0.0).t) is np.float64


class TestMonotonicity:
    @given(
        st.floats(min_value=1e-8, max_value=1e14),
        st.floats(min_value=1e-8, max_value=1e14),
    )
    def test_weakly_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert lambert_w0(lo).w <= lambert_w0(hi).w * (1 + 1e-13)

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_strictly_monotone_when_separated(self, t):
        assert lambert_w0(t * 1.01).w > lambert_w0(t).w
