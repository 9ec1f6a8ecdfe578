"""Exception types shared across the package, and the argument rules.

Every public function checks its arguments by the same two rules, both
here.  An integer argument (``_int_arg``) is anything ``operator.index``
accepts, so a numpy integer counts wherever an int does, with the same
result; a bool and a float (even an integral one such as 2.0) are not
integers.  A real argument (``_float_arg``) is anything ``float()``
converts, or, where arrays are accepted, anything
``np.asarray(..., dtype=float)`` converts (``quadrature._floats``, which
``_checked`` passes in: this module imports no numpy, so that a command
that computes nothing never loads it).
A non-integer, an integer below its floor, a real that is not numeric
(such as ``"abc"``) and an int too large for a float raise DomainError
with a message opening "<function> requires"; other values outside a
function's domain raise DomainError too.  A value of the wrong kind,
such as None or a two-element array where a real scalar is expected, or
anything but a MomentSequence or QFunction where a checker expects one
(``_kind_arg``), raises TypeError.  ``MomentSequence.moment``
(SequenceError) and the ``SignedLogValue`` sign (ValueError) refuse
non-integers with their own types.
"""

from __future__ import annotations

import operator

__all__ = [
    "ConvergenceError",
    "DomainError",
    "FamilyParseError",
    "SequenceError",
]


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


def _index(value) -> int | None:
    """``value`` as an int if it is an integer (a numpy integer too) and not
    a bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _int_arg(value, lowest: int, requires: str) -> int:
    """``value`` as an int (see ``_index``) of at least ``lowest``, else
    DomainError; ``requires`` opens its message and names the function."""
    n = _index(value)
    if n is None or n < lowest:
        raise DomainError(f"{requires}, got {value!r}")
    return n


def _float_arg(value, name: str, arg: str, convert=float):
    """``convert(value)``, by default ``float(value)``; DomainError naming
    ``name`` where that overflows (a huge int) or ``value`` is not numeric,
    and TypeError passed through.  A function that accepts arrays passes
    its own converter, so that only the modules that compute import numpy."""
    try:
        return convert(value)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{name} requires {arg} to be a number that fits a float: {exc}") from exc


def _kind_arg(value, kind: type, name: str):
    """``value`` if it is a ``kind``, else TypeError naming the function ``name``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} requires a {kind.__name__}, got {type(value).__name__}")
    return value


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its cap."""


class SequenceError(ValueError):
    """A moment sequence is malformed or fails its structural invariants."""


class FamilyParseError(ValueError):
    """A family description string does not match the accepted grammar."""
