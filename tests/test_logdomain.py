"""Signed log-domain arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentdet import SignedLogValue, sum_signed

NEG_INF = float("-inf")


def slv(x: float) -> SignedLogValue:
    return SignedLogValue.from_float(x)


# moderate magnitudes: arithmetic can be cross-checked against plain floats
moderate = st.builds(
    SignedLogValue.from_log,
    st.floats(min_value=-30.0, max_value=30.0),
    st.sampled_from([-1, 1]),
)
# huge magnitudes: far beyond float range, only log-domain laws checked
huge = st.builds(
    SignedLogValue.from_log,
    st.floats(min_value=-5000.0, max_value=5000.0),
    st.sampled_from([-1, 1]),
)


class TestConstruction:
    def test_zero_and_one(self):
        assert SignedLogValue.zero() == SignedLogValue(0, NEG_INF)
        assert SignedLogValue.one() == SignedLogValue(1, 0.0)
        assert SignedLogValue.zero().is_zero()
        assert not SignedLogValue.one().is_zero()

    def test_from_float(self):
        assert slv(0.0) == SignedLogValue.zero()
        assert slv(-3.0) == SignedLogValue(-1, math.log(3.0))
        assert slv(2.5).to_float() == pytest.approx(2.5, rel=1e-15)
        assert slv(-2.5).to_float() == pytest.approx(-2.5, rel=1e-15)

    def test_from_log_zero_normalization(self):
        assert SignedLogValue.from_log(NEG_INF) == SignedLogValue.zero()
        assert SignedLogValue.from_log(5.0, sign=0) == SignedLogValue.zero()

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_from_float_rejects_nonfinite(self, x):
        with pytest.raises(ValueError):
            SignedLogValue.from_float(x)

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            SignedLogValue(2, 0.0)
        with pytest.raises(ValueError):
            SignedLogValue(0, 0.0)
        with pytest.raises(ValueError):
            SignedLogValue(1, NEG_INF)
        with pytest.raises(ValueError):
            SignedLogValue(1, math.nan)
        with pytest.raises(ValueError):
            SignedLogValue(1, math.inf)

    @pytest.mark.parametrize("sign", [1.0, True, -1.0, "1"])
    def test_sign_must_be_an_integer(self, sign):
        with pytest.raises(ValueError, match=r"^sign must be -1, 0 or \+1, got "):
            SignedLogValue(sign, 2.0)

    def test_numpy_integer_sign_is_stored_as_int(self):
        value = SignedLogValue(np.int64(-1), 2.0)
        assert type(value.sign) is int and value == SignedLogValue(-1, 2.0)
        for result in (value < slv(1.0), value > slv(1.0), value <= slv(1.0), value >= slv(1.0)):
            assert type(result) is bool

    def test_overflow_to_float(self):
        assert SignedLogValue.from_log(1000.0).to_float() == math.inf
        assert SignedLogValue.from_log(1000.0, sign=-1).to_float() == -math.inf
        assert SignedLogValue.from_log(-1000.0).to_float() == 0.0


class TestArithmetic:
    @given(moderate, moderate)
    def test_add_matches_floats(self, a, b):
        fa, fb = a.to_float(), b.to_float()
        got = (a + b).to_float()
        # the float reference loses relative precision under cancellation,
        # so tolerate error proportional to the operand scale
        assert abs(got - (fa + fb)) <= 1e-12 * max(abs(fa), abs(fb)) + 1e-22

    @given(moderate, moderate)
    def test_mul_matches_floats(self, a, b):
        expected = a.to_float() * b.to_float()
        assert (a * b).to_float() == pytest.approx(expected, rel=1e-12)

    @given(moderate, moderate)
    def test_div_matches_floats(self, a, b):
        expected = a.to_float() / b.to_float()
        assert (a / b).to_float() == pytest.approx(expected, rel=1e-12)

    @given(huge, huge)
    def test_mul_logs_add(self, a, b):
        prod = a * b
        assert prod.sign == a.sign * b.sign
        assert prod.logmag == a.logmag + b.logmag

    @given(huge)
    def test_neg_abs(self, a):
        assert (-a).sign == -a.sign
        assert (-a).logmag == a.logmag
        assert abs(a).sign == 1
        assert abs(-a) == abs(a)

    @given(huge)
    def test_additive_inverse_cancels(self, a):
        assert (a + (-a)).is_zero()
        assert (a - a).is_zero()

    def test_zero_rules(self):
        z, x = SignedLogValue.zero(), slv(7.0)
        assert (z * x).is_zero()
        assert (z + x) == x
        assert (x - z) == x
        with pytest.raises(ZeroDivisionError):
            x / z
        assert (z / x).is_zero()

    def test_pow(self):
        assert (slv(-2.0) ** 3).to_float() == pytest.approx(-8.0, rel=1e-14)
        assert (slv(-2.0) ** 2).to_float() == pytest.approx(4.0, rel=1e-14)
        assert SignedLogValue.zero() ** 0 == SignedLogValue.one()
        assert (SignedLogValue.zero() ** 5).is_zero()
        with pytest.raises(ZeroDivisionError):
            SignedLogValue.zero() ** -1
        with pytest.raises(TypeError):
            slv(2.0) ** 1.5

    def test_huge_sum_dominant_term(self):
        big = SignedLogValue.from_log(4000.0)
        small = SignedLogValue.from_log(3000.0)
        total = big + small
        assert total.sign == 1
        assert total.logmag == pytest.approx(4000.0, abs=1e-12)
        diff = big - small
        assert diff.logmag == pytest.approx(4000.0, abs=1e-12)


class TestOrdering:
    def test_total_order_examples(self):
        assert slv(-5.0) < slv(-2.0) < SignedLogValue.zero() < slv(1.0) < slv(3.0)
        assert slv(3.0) >= slv(3.0)
        assert slv(-2.0) <= slv(-2.0)

    @given(moderate, moderate)
    def test_order_matches_floats(self, a, b):
        fa, fb = a.to_float(), b.to_float()
        if fa != fb:
            # float rounding can merge distinct log-domain values, but it
            # can never reverse a strict order
            assert (a < b) == (fa < fb)
        else:
            assert (a < b) or (b < a) or (a == b)

    @given(moderate, moderate)
    def test_greater_is_less_reversed(self, a, b):
        assert (a > b) == (b < a)
        assert (a >= b) == (b <= a)
        if a.to_float() != b.to_float():
            assert (a > b) == (a.to_float() > b.to_float())


class TestSumSigned:
    def test_empty_is_zero(self):
        assert sum_signed([]).is_zero()

    def test_exact_cancellation(self):
        a = SignedLogValue.from_log(123.456)
        assert sum_signed([a, -a]).is_zero()

    @given(st.lists(moderate, min_size=1, max_size=8))
    def test_matches_float_sum(self, values):
        floats = [v.to_float() for v in values]
        expected = math.fsum(floats)
        got = sum_signed(values).to_float()
        scale = max(abs(f) for f in floats)
        assert abs(got - expected) <= 1e-12 * scale + 1e-20

    def test_max_shift_avoids_overflow(self):
        values = [SignedLogValue.from_log(5000.0) for _ in range(10)]
        total = sum_signed(values)
        assert total.logmag == pytest.approx(5000.0 + math.log(10.0), rel=1e-15)
