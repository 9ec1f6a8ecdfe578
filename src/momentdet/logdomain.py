"""Signed log-domain scalars.

The quantities this package manipulates span hundreds of orders of magnitude
(a factorial-squared moment at order 100 is ~10^315 even before the
log-integral factors), so numbers are carried as a sign in {-1, 0, +1}
together with the natural log of the absolute value.  Zero is represented
as ``sign == 0`` with ``logmag == -inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _float_arg, _index

__all__ = ["SignedLogValue"]

_NEG_INF = float("-inf")


@dataclass(frozen=True, init=False)
class SignedLogValue:
    """A real number stored as ``sign * exp(logmag)``.

    Invariants: ``sign`` is -1, 0 or +1; ``logmag`` is never NaN or +inf;
    ``sign == 0`` if and only if ``logmag == -inf``.  ``__init__`` checks
    them and stores each field once, into the instance dict, which the
    frozen ``__setattr__`` does not guard; a generated ``__init__`` would
    store every field through ``object.__setattr__`` and leave the checks
    to a ``__post_init__`` that reads them back.
    """

    sign: int
    logmag: float

    def __init__(self, sign: int, logmag: float) -> None:
        # An exact int sign and float logmag, as the package builds them, are
        # checked as they are; anything else (np.int64, np.float64, a numeric
        # string) is converted first and the converted value stored.
        s = sign if type(sign) is int else _index(sign)
        if s not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign!r}")
        log = logmag if type(logmag) is float else _float_arg(logmag, "SignedLogValue", "logmag")
        if not log < math.inf:  # false for NaN too
            raise ValueError(f"logmag must be finite or -inf, got {logmag!r}")
        if (s == 0) != (log == _NEG_INF):
            raise ValueError(f"zero must be (sign=0, logmag=-inf); got ({s}, {log})")
        fields = self.__dict__
        fields["sign"], fields["logmag"] = s, log

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SignedLogValue":
        return cls(0, _NEG_INF)

    @classmethod
    def one(cls) -> "SignedLogValue":
        return cls(1, 0.0)

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
