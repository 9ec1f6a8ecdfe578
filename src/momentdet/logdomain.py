"""Signed log-domain scalars.

The quantities this package manipulates span hundreds of orders of magnitude
(a factorial-squared moment at order 100 is ~10^315 even before the
log-integral factors), so numbers are carried as a sign in {-1, 0, +1}
together with the natural log of the absolute value.  Zero is represented
as ``sign == 0`` with ``logmag == -inf``.

Sums are evaluated with the max-shift trick: the largest log-magnitude is
factored out, the remaining terms are accumulated in the float domain with
``math.fsum`` (fixed, deterministic order), and the shift is added back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import _float_arg, _index

__all__ = ["SignedLogValue", "sum_signed"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as ``sign * exp(logmag)``.

    Invariants: ``sign`` is -1, 0 or +1; ``logmag`` is never NaN or +inf;
    ``sign == 0`` if and only if ``logmag == -inf``.
    """

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        sign = _index(self.sign)  # np.int64 and the like are stored as an int
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        object.__setattr__(self, "sign", sign)
        logmag = _float_arg(self.logmag, "SignedLogValue", "logmag")
        if math.isnan(logmag) or logmag == math.inf:
            raise ValueError(f"logmag must be finite or -inf, got {self.logmag!r}")
        object.__setattr__(self, "logmag", logmag)
        if (self.sign == 0) != (logmag == _NEG_INF):
            raise ValueError(
                f"zero must be (sign=0, logmag=-inf); got ({self.sign}, {self.logmag})"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SignedLogValue":
        return cls(0, _NEG_INF)

    @classmethod
    def one(cls) -> "SignedLogValue":
        return cls(1, 0.0)

    @classmethod
    def from_float(cls, x: float) -> "SignedLogValue":
        x = _float_arg(x, "SignedLogValue", "x")
        if not math.isfinite(x):
            raise ValueError(f"cannot represent non-finite float {x!r}")
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_log(cls, logmag: float, sign: int = 1) -> "SignedLogValue":
        """Build ``sign * exp(logmag)`` directly from a log-magnitude."""
        logmag = _float_arg(logmag, "SignedLogValue", "logmag")
        if logmag == _NEG_INF or sign == 0:
            return cls.zero()
        return cls(sign, logmag)

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        """Collapse to a float; overflows to +/-inf, underflows to 0."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.logmag)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def is_zero(self) -> bool:
        return self.sign == 0

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "SignedLogValue":
        return SignedLogValue(-self.sign, self.logmag)

    def __abs__(self) -> "SignedLogValue":
        return SignedLogValue(abs(self.sign), self.logmag)

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign, self.logmag + other.logmag)

    def __truediv__(self, other: "SignedLogValue") -> "SignedLogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by log-domain zero")
        if self.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign, self.logmag - other.logmag)

    def __pow__(self, k: int) -> "SignedLogValue":
        k = _index(k)
        if k is None:
            raise TypeError("exponent must be an int")
        if self.sign == 0:
            if k == 0:
                return SignedLogValue.one()
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return SignedLogValue.zero()
        sign = 1 if (self.sign > 0 or k % 2 == 0) else -1
        return SignedLogValue(sign, self.logmag * k)

    def __add__(self, other: "SignedLogValue") -> "SignedLogValue":
        return sum_signed((self, other))

    def __sub__(self, other: "SignedLogValue") -> "SignedLogValue":
        return sum_signed((self, -other))

    # -- ordering (numeric order on the represented reals) ------------------

    def _key(self) -> tuple[int, float]:
        """(sign, sign·logmag), zero as (0, 0.0): tuples in the numeric order
        of the represented reals (a larger negative magnitude is smaller)."""
        return (self.sign, self.sign * self.logmag) if self.sign else (0, 0.0)

    def __lt__(self, other: "SignedLogValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "SignedLogValue") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "SignedLogValue") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "SignedLogValue") -> bool:
        return self._key() >= other._key()


def sum_signed(values: Iterable[SignedLogValue] | Iterator[SignedLogValue]) -> SignedLogValue:
    """Sum signed log-domain values with a max-shift and ``math.fsum``.

    Deterministic for a given input order.  Catastrophic cancellation of the
    two largest terms is handled gracefully: the result degrades toward the
    float epsilon of the shifted sum, and an exact cancellation yields zero.
    """
    terms = [v for v in values if v.sign != 0]
    if not terms:
        return SignedLogValue.zero()
    shift = max(v.logmag for v in terms)
    acc = math.fsum(v.sign * math.exp(v.logmag - shift) for v in terms)
    if acc == 0.0:
        return SignedLogValue.zero()
    return SignedLogValue(1 if acc > 0 else -1, shift + math.log(abs(acc)))
