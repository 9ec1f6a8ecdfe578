"""Signed log-domain scalars."""

from __future__ import annotations

import math

import numpy as np
import pytest

from momentdet import SignedLogValue

NEG_INF = float("-inf")


class TestConstruction:
    def test_zero_and_one(self):
        assert SignedLogValue.zero() == SignedLogValue(0, NEG_INF)
        assert SignedLogValue.one() == SignedLogValue(1, 0.0)

    def test_from_log_zero_normalization(self):
        assert SignedLogValue.from_log(NEG_INF) == SignedLogValue.zero()
        assert SignedLogValue.from_log(5.0, sign=0) == SignedLogValue.zero()

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
        assert value.to_float() == -math.exp(2.0)

    def test_overflow_to_float(self):
        assert SignedLogValue.from_log(1000.0).to_float() == math.inf
        assert SignedLogValue.from_log(1000.0, sign=-1).to_float() == -math.inf
        assert SignedLogValue.from_log(-1000.0).to_float() == 0.0
        assert SignedLogValue.zero().to_float() == 0.0
