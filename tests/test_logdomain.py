"""Signed log-domain scalars."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from momentdet import DomainError, SignedLogValue

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

    @pytest.mark.parametrize(
        "sign, logmag, error, message",
        [
            (2, 1.0, ValueError, "sign must be -1, 0 or +1, got 2"),
            (1.0, 1.0, ValueError, "sign must be -1, 0 or +1, got 1.0"),
            (True, 1.0, ValueError, "sign must be -1, 0 or +1, got True"),
            (None, 1.0, ValueError, "sign must be -1, 0 or +1, got None"),
            (1, math.nan, ValueError, "logmag must be finite or -inf, got nan"),
            (1, math.inf, ValueError, "logmag must be finite or -inf, got inf"),
            (1, "inf", ValueError, "logmag must be finite or -inf, got 'inf'"),
            (0, 1.0, ValueError, "zero must be (sign=0, logmag=-inf); got (0, 1.0)"),
            (1, NEG_INF, ValueError, "zero must be (sign=0, logmag=-inf); got (1, -inf)"),
            (np.int64(0), "-2.5", ValueError, "zero must be (sign=0, logmag=-inf); got (0, -2.5)"),
            (1, "abc", DomainError, "SignedLogValue requires logmag to be a number that fits a "
             "float: could not convert string to float: 'abc'"),
            (1, None, TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
        ],
    )
    def test_each_refusal_keeps_its_type_and_message(self, sign, logmag, error, message):
        # checked in the order sign, logmag, zero; a message names the value passed
        with pytest.raises(error) as info:
            SignedLogValue(sign, logmag)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "sign, logmag, stored",
        [
            (np.int64(-1), 2.5, (-1, 2.5)),
            (1, np.float64(2.5), (1, 2.5)),
            (np.int8(1), "2.5", (1, 2.5)),
            (np.uint8(0), "-inf", (0, NEG_INF)),
            (-1, np.float32(0.5), (-1, 0.5)),
        ],
    )
    def test_conversions_are_stored_converted(self, sign, logmag, stored):
        value = SignedLogValue(sign, logmag)
        assert (type(value.sign), type(value.logmag)) == (int, float)
        assert (value.sign, value.logmag) == stored and value == SignedLogValue(*stored)

    def test_a_frozen_dataclass(self, assert_frozen_record):
        assert_frozen_record(SignedLogValue(-1, 2.5), logmag=3.0)
        assert_frozen_record(SignedLogValue.zero(), sign=1, logmag=0.0)
        assert repr(SignedLogValue(-1, 2.5)) == "SignedLogValue(sign=-1, logmag=2.5)"
        assert SignedLogValue(logmag=0.0, sign=1) == SignedLogValue.one()
        assert hash(SignedLogValue(np.int64(1), np.float64(0.0))) == hash(SignedLogValue.one())
        with pytest.raises(ValueError, match=r"^sign must be -1, 0 or \+1, got 2$"):
            dataclasses.replace(SignedLogValue.one(), sign=2)

    def test_overflow_to_float(self):
        assert SignedLogValue.from_log(1000.0).to_float() == math.inf
        assert SignedLogValue.from_log(1000.0, sign=-1).to_float() == -math.inf
        assert SignedLogValue.from_log(-1000.0).to_float() == 0.0
        assert SignedLogValue.zero().to_float() == 0.0
