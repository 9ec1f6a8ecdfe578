"""Exact log-domain moment sequences for the constructed and stock families.

The central family is the product construction

    log m_n = Σᵢ [ log Γ(δᵢ·n + 1) + log S(n·rᵢ) ],       S(p) = ∫₀^∞ ln(1+x)^p e^{−x} dx

over factors (δᵢ, rᵢ) with δ ∈ [0, 2], r ∈ [0, 1].  The flagship instance
uses two factors (1, 1): m_n = (n!)²·K_n² with K_n = S(n).  Stock
calibration families are the plain exponential (m_n = n!, factors
{(1, 0)}), the squared exponential (m_n = (2n)!, factors {(2, 0)}), and a
lognormal-type sequence (m_n = e^{n²/2}).

Symmetrization modes for measures on the whole line (odd moments zero):

* ``symmetric-root`` (default symmetric construction): even moments equal
  the base Stieltjes family's m_n — the distribution of a random sign
  times the square root of the base variable.  Stored entry j holds
  m_{2j}.
* ``symmetric-product`` (documented alternative): the literal independent
  product of symmetrized factors, whose even moments are
  Σᵢ [log Γ(2jδᵢ + 1) + log S(2j·rᵢ)] — genuinely larger than the
  symmetric-root moments from the same factors.

A ``MomentSequence(support, log_moments, label=None)`` holds just those
three fields.  Its ``n_max`` (``log_moments.size - 1``) and ``family``
(its label parsed as a family description, or None) are derived, and two
sequences are equal when their support, label and exact log-moments are.
Construction validates the structural invariants of a genuine moment
sequence: m₀ = 1, positivity, and log-convexity
(m_n² ≤ m_{n−1}·m_{n+1}, by the Cauchy–Schwarz inequality), within a
small float slack.

Sequences serialize to JSON and CSV with log-magnitudes rendered through
``repr``/``%.17g`` so a save/load round-trip is bit-exact.  A file laid out
exactly as to_json or to_csv writes it (the canonical layout) loads by
slicing its text, with one ``float()`` per moment and no other object per
moment: JSON logmags must be printable text (``str.isprintable``, so no
control character, which JSON escapes), and the CSV index column is
compared with one cached text of indices.  Any other file (hand-edited,
re-indented, with extra keys, or with CSV comment and header lines moved)
loads through the general path: ``json.loads`` and a check of each entry,
or a reader of one CSV line at a time, which names the first bad entry;
CSV data rows must still come in index order.  Both paths give the same
sequence, or the same SequenceError, from the same text.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import quadrature  # looked up on use: reading a sequence never runs it
from .errors import (
    DomainError,
    FamilyParseError,
    SequenceError,
    _float_arg,
    _index,
    _int_arg,
)
from .logdomain import SignedLogValue

__all__ = [
    "FamilySpec",
    "MomentSequence",
    "carleman_terms",
    "from_csv",
    "from_json",
    "generate_from_label",
    "generate_moments",
    "lognormal_moments",
    "moment_ratios",
    "parse_family",
    "to_csv",
    "to_json",
]

#: The head of a family description and the symmetrization it names.
_FAMILY_HEADS = {"product": "none", "symroot": "symmetric-root", "symprod": "symmetric-product"}
_SYMMETRIZATIONS = tuple(_FAMILY_HEADS.values())
_SUPPORTS = ("stieltjes", "hamburger-symmetric")

#: Float slack for the structural validation gates (m₀ = 1, log-convexity).
_VALIDATION_SLACK = 1e-6


def _format_number(x: float) -> str:
    """``x`` as ``:g`` writes it where that reads back as ``x``, else the
    shortest text that does, so a label names its own factors."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _default_label(factors: tuple[tuple[float, float], ...], symmetrization: str) -> str:
    head = dict(zip(_SYMMETRIZATIONS, _FAMILY_HEADS))[symmetrization]
    body = ",".join(f"({_format_number(d)},{_format_number(r)})" for d, r in factors)
    return f"{head}[{body}]"


@dataclass(frozen=True)
class FamilySpec:
    """A product family: factors (δ, r), an optional symmetrization, a label."""

    factors: tuple[tuple[float, float], ...]
    symmetrization: str = "none"
    label: str = ""

    def __post_init__(self) -> None:
        factors = tuple(
            (_float_arg(d, "FamilySpec", "delta"), _float_arg(r, "FamilySpec", "r"))
            for d, r in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise DomainError("FamilySpec requires at least one (delta, r) factor")
        for d, r in factors:
            if not (0.0 <= d <= 2.0):
                raise DomainError(f"delta must lie in [0, 2], got {d!r}")
            if not (0.0 <= r <= 1.0):
                raise DomainError(f"r must lie in [0, 1], got {r!r}")
        if self.symmetrization not in _SYMMETRIZATIONS:
            raise DomainError(
                f"symmetrization must be one of {_SYMMETRIZATIONS}, got {self.symmetrization!r}"
            )
        if not self.label:
            object.__setattr__(
                self, "label", _default_label(factors, self.symmetrization)
            )


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """A validated moment sequence in the log domain:
    ``MomentSequence(support, log_moments, label=None)``.

    ``log_moments`` is a read-only 1-D float64 array of log-magnitudes:
    ``log_moments[j]`` is log m_j on Stieltjes support and log m_{2j} on
    hamburger-symmetric support (odd moments are implicitly zero there).
    Every stored moment is positive, so no signs are kept.  ``label`` is a
    string or None and preserves provenance (a family description, or free
    text such as ``lognormal``); ``""`` is stored as None, since neither
    file format tells the two apart.

    ``n_max`` (``log_moments.size - 1``) and ``family`` (the label parsed
    by parse_family, None where it names no family) are derived, so two
    sequences are equal when their support, label and exact log-moments
    are, and a sequence equals its own JSON and CSV round trips.
    """

    support: str
    log_moments: np.ndarray
    label: str | None = None

    def __post_init__(self) -> None:
        if self.support not in _SUPPORTS:
            raise SequenceError(f"support must be one of {_SUPPORTS}, got {self.support!r}")
        if self.label is not None and not isinstance(self.label, str):
            raise SequenceError(f"label must be a string or None, got {self.label!r}")
        object.__setattr__(self, "label", self.label or None)
        logs = np.array(self.log_moments, dtype=np.float64)  # a copy: the caller's stays writeable
        logs.flags.writeable = False
        object.__setattr__(self, "log_moments", logs)
        if logs.ndim != 1:
            raise SequenceError(f"log_moments must be 1-D, got shape {logs.shape}")
        if self.n_max < 2:
            raise SequenceError(f"a moment sequence needs n_max >= 2, got {self.n_max}")
        finite = np.isfinite(logs)
        if not finite.all():
            j = int(np.argmin(finite))
            raise SequenceError(f"stored moment at index {j} is not finite: log m = {logs[j]}")
        if abs(logs[0]) > _VALIDATION_SLACK:
            raise SequenceError(f"m_0 must equal 1, got log m_0 = {float(logs[0])!r}")
        # half gaps, so that logs near the float limits cannot overflow to
        # inf - inf; halving is exact, so no other decision changes
        half_gaps = logs[:-2] / 2.0 + logs[2:] / 2.0 - logs[1:-1]
        concave = half_gaps < -_VALIDATION_SLACK / 2.0
        if concave.any():
            j = int(np.argmax(concave)) + 1
            raise SequenceError(
                f"log-convexity violated at index {j} "
                f"(log m_{j-1} + log m_{j+1} - 2 log m_{j} = {2.0 * float(half_gaps[j - 1]):.3e})"
            )

    @property
    def n_max(self) -> int:
        """The highest stored index: ``log_moments.size - 1``."""
        return self.log_moments.size - 1

    @property
    def family(self) -> FamilySpec | None:
        """The product family the label names, or None (no label, free text
        such as ``lognormal``, or a description outside the family domain)."""
        try:
            return parse_family(self.label or "")  # "" names no family
        except (FamilyParseError, DomainError):
            return None

    def __eq__(self, other: object) -> bool:
        """Equal support and label, and exactly equal log-magnitudes."""
        if not isinstance(other, MomentSequence):
            return NotImplemented
        return (self.support, self.label) == (other.support, other.label) and np.array_equal(
            self.log_moments, other.log_moments
        )

    def moment(self, k: int) -> SignedLogValue:
        """The k-th raw moment m_k (odd orders are zero on symmetric support)."""
        order = _index(k)
        if order is None or order < 0:
            raise SequenceError(f"moment order must be an integer >= 0, got {k!r}")
        if self.support == "stieltjes":
            if order > self.n_max:
                raise SequenceError(f"moment order {order} exceeds n_max = {self.n_max}")
            return SignedLogValue.from_log(float(self.log_moments[order]))
        if order % 2 == 1:
            return SignedLogValue.zero()
        if order // 2 > self.n_max:
            raise SequenceError(f"moment order {order} exceeds stored range 2n_max = {2 * self.n_max}")
        return SignedLogValue.from_log(float(self.log_moments[order // 2]))


# -- generation --------------------------------------------------------------

#: The largest n_max: orders up to it are exact in a float64, and as many
#: orders as that fit a numpy index.
_N_MAX_LIMIT = min(2**53, int(np.iinfo(np.intp).max))


def _check_n_max(n_max, lowest: int, requires: str) -> int:
    """``n_max`` as an int (``errors._int_arg``) of at least ``lowest`` and
    at most _N_MAX_LIMIT, else DomainError; ``requires`` opens its message
    and names the function."""
    n_max = _int_arg(n_max, lowest, requires)
    if n_max > _N_MAX_LIMIT:
        # no repr: a huge int's decimal digits can run to thousands, or past int's str limit
        raise DomainError(
            f"{requires} and at most {_N_MAX_LIMIT} (float64 orders, a numpy index), "
            f"got an int of {n_max.bit_length()} bits"
        )
    return n_max


def _refusal(row: np.ndarray) -> DomainError | None:
    """The DomainError S(p) raises for the orders p > 0 of ``row``, if any."""
    try:
        quadrature.log_power_integral(row[row > 0.0])
    except DomainError as exc:
        return exc
    return None


def generate_moments(family: FamilySpec, n_max: int) -> MomentSequence:
    """Generate the moment sequence of a product family up to order n_max.

    Stieltjes mode stores m_0..m_{n_max}; the symmetrization modes store
    the even moments m_0, m_2, ..., m_{2·n_max}.  Every distinct S(p),
    p = n·r > 0, is evaluated once, all of them in one batch.
    """
    n_max = _check_n_max(n_max, 2, "generate_moments requires an integer n_max >= 2")
    step = 2.0 if family.symmetrization == "symmetric-product" else 1.0
    orders = step * np.arange(n_max + 1, dtype=float)
    support = "stieltjes" if family.symmetrization == "none" else "hamburger-symmetric"
    ps = np.outer(orders, [r for _, r in family.factors])
    log_s = np.zeros(ps.shape)  # p == 0 contributes log S(0) = log 1 = 0 exactly
    positive = ps > 0.0
    if positive.any():
        unique_ps, inverse = np.unique(ps[positive], return_inverse=True)
        try:
            log_s[positive] = quadrature.log_power_integral(unique_ps)[inverse]
        except DomainError:
            # name the lowest order whose own integrals fail (order 0 has none): S(p) is
            # refused from some p on and each row's p grow with the order, so the last
            # row tells whether any order fails, and bisection finds the lowest
            if _refusal(ps[-1]) is None:
                raise
            n = bisect.bisect_left(range(n_max + 1), True, lo=1, hi=n_max,
                                   key=lambda i: _refusal(ps[i]) is not None)
            exc = _refusal(ps[n])
            raise type(exc)(
                f"while generating moment of order {int(orders[n])} "
                f"for {family.label!r}: {exc}"
            ) from exc
    logs = np.zeros(orders.size)
    for j, (d, _) in enumerate(family.factors):
        logs = logs + list(map(math.lgamma, (d * orders + 1.0).tolist())) + log_s[:, j]
    return MomentSequence(support, logs, family.label)


def lognormal_moments(n_max: int) -> MomentSequence:
    """Stock lognormal-type calibration family: m_n = e^{n²/2} (closed form)."""
    n_max = _check_n_max(n_max, 2, "lognormal_moments requires an integer n_max >= 2")
    ns = np.arange(n_max + 1, dtype=float)
    return MomentSequence("stieltjes", ns * ns / 2.0, "lognormal")


# -- family description grammar ---------------------------------------------

#: The stock families named by a bare word, and their one factor.
_STOCK_FAMILIES = {"exp": ((1.0, 0.0),), "exp2": ((2.0, 0.0),)}
#: A number of a factor, padded by any whitespace but a line break.
_NUMBER = r"[^\S\n]*([^,()\s]+)[^\S\n]*"
_PAIR = rf"\({_NUMBER},{_NUMBER}\)"
_PAIR_RE = re.compile(_PAIR)
_FAMILY_RE = re.compile(rf"({'|'.join(_FAMILY_HEADS)})\[((?:{_PAIR},)*{_PAIR})\]")


def parse_family(text: str) -> FamilySpec:
    """Parse a family description string.

    Grammar: ``exp`` | ``exp2`` | ``product[(δ,r),...]`` |
    ``symroot[(δ,r),...]`` | ``symprod[(δ,r),...]``.
    (``lognormal`` is a closed-form stock sequence, not a product family;
    see generate_from_label.)  The description, stripped of outer
    whitespace, is matched whole: one or more factors ``(δ,r)`` separated
    by a bare comma, where whitespace other than a line break may pad each
    number inside its parentheses.  Anything else is unrecognized, and a
    number that ``float`` does not read is a non-numeric factor.
    """
    text = text.strip()
    if text in _STOCK_FAMILIES:
        return FamilySpec(factors=_STOCK_FAMILIES[text], symmetrization="none", label=text)
    m = _FAMILY_RE.fullmatch(text)
    if m is None:
        raise FamilyParseError(
            f"unrecognized family {text!r}; expected exp, exp2, lognormal, "
            "product[(delta,r),...], symroot[...], or symprod[...]"
        )
    try:
        pairs = [(float(d), float(r)) for d, r in _PAIR_RE.findall(m[2])]
    except ValueError as exc:
        raise FamilyParseError(f"non-numeric factor in {text!r}: {exc}") from exc
    return FamilySpec(factors=tuple(pairs), symmetrization=_FAMILY_HEADS[m[1]], label=text)


def generate_from_label(text: str, n_max: int) -> MomentSequence:
    """Generate a sequence from a family description string (CLI entry point)."""
    if text.strip() == "lognormal":
        return lognormal_moments(n_max)
    return generate_moments(parse_family(text), n_max)


# -- derived sequences --------------------------------------------------------


def moment_ratios(seq: MomentSequence) -> list[float]:
    """Log of consecutive stored-moment ratios.

    Stieltjes: ln(m_{n+1}/m_n) for n = 0..n_max−1; hamburger-symmetric:
    ln(m_{2n+2}/m_{2n}).
    """
    return np.diff(seq.log_moments).tolist()


def _log_carleman_terms(seq: MomentSequence) -> np.ndarray:
    """ln a_n = −ln m_n/(2n) (−ln m_{2n}/(2n) on symmetric support), n = 1..n_max."""
    return -seq.log_moments[1:] / (2.0 * np.arange(1, seq.n_max + 1))


def carleman_terms(seq: MomentSequence) -> list[float]:
    """The series terms a_n = m_n^{−1/(2n)} (even-moment variant on
    hamburger-symmetric support: a_n = m_{2n}^{−1/(2n)}), for n = 1..n_max.

    These are O(1) magnitudes, returned as ordinary floats.
    """
    return list(map(math.exp, _log_carleman_terms(seq).tolist()))


# -- serialization ------------------------------------------------------------

_JSON_OPEN = '    {\n      "sign": 1,\n      "logmag": "'
_JSON_CLOSE = '"\n    }'
_JSON_MOMENTS = '  "moments": [\n' + _JSON_OPEN
_JSON_SEPARATOR = _JSON_CLOSE + ",\n" + _JSON_OPEN
_JSON_END = _JSON_CLOSE + "\n  ]\n}\n"
_CSV_HEADER = "n,sign,logmag"
#: The CSV rows whose indices _index_text holds; a longer file builds the rest.
_INDEX_ROWS_MAX = 8192


def to_json(seq: MomentSequence) -> str:
    """Serialize to JSON; log-magnitudes are rendered via repr for bit-exactness.

    The text is exactly ``json.dumps(doc, indent=2)`` of the document; the
    moments are written directly because json's indenting encoder runs
    in pure Python and took most of a load-check-save round trip.
    """
    head = "".join(
        f"  {json.dumps(key)}: {json.dumps(value)},\n"
        for key, value in (("support", seq.support), ("n_max", seq.n_max), ("label", seq.label))
    )
    moments = _JSON_SEPARATOR.join(map(repr, seq.log_moments.tolist()))
    return "{\n" + head + _JSON_MOMENTS + moments + _JSON_END


def _check_sign(index: int, sign: int) -> None:
    if sign != 1:
        raise SequenceError(f"stored moment at index {index} must be positive, got sign {sign}")


def _rehydrate(support: object, n_max: object, label: object, logs: list[float]):
    if not isinstance(support, str) or support not in _SUPPORTS:
        raise SequenceError(f"bad support field {support!r}")
    n = _index(n_max)
    if n is None:
        raise SequenceError(f"bad n_max field {n_max!r}")
    if label is not None and not isinstance(label, str):
        raise SequenceError(f"bad label field {label!r}")
    if n != len(logs) - 1:
        raise SequenceError(f"n_max = {n} inconsistent with stored shape {(len(logs),)}")
    return MomentSequence(support, logs, label)


def _json_canonical(text: str) -> tuple[dict, list[float]] | None:
    """The head fields and log-magnitudes of a file whose moments are laid
    out as to_json writes them, read by slicing the text; None on any
    other layout.

    The moments must run from the first ``"moments"`` marker to the end of
    the text, each written exactly as to_json writes it, with every logmag
    printable (no control character, which JSON escapes; a ``"`` or ``\\``,
    the other two, float() refuses) and parsed by float(), and the head
    before the marker must parse as an object once the moments are
    replaced by ``[]``.  The text is then exactly the document json would
    decode: the head's fields, every sign the int 1, every logmag decoded
    verbatim, and ``"moments"`` the last key, so it wins over a duplicate
    in the head.
    """
    start = text.find(_JSON_MOMENTS)
    if start < 0 or not text.endswith(_JSON_END):
        return None
    # where the marker runs into the end, the one piece is empty and float refuses it
    pieces = text[start + len(_JSON_MOMENTS) : len(text) - len(_JSON_END)].split(_JSON_SEPARATOR)
    if not "".join(pieces).isprintable():
        return None
    try:
        head = json.loads(text[:start] + '  "moments": []\n}')
        return head, list(map(float, pieces))
    except ValueError:  # a JSONDecodeError, or a logmag that is not a float
        return None


def from_json(text: str) -> MomentSequence:
    """Load a sequence from its JSON form; bit-exact inverse of to_json.

    A file whose moments are laid out as to_json writes them (the
    canonical layout; see _json_canonical) is read by slicing its text.
    Any other file, such as a hand-edited one, goes through json.loads and
    a check of each entry, which names the first bad one; both give the
    same sequence from the same text.
    """
    canonical = _json_canonical(text)
    if canonical is not None:
        doc, logs = canonical
        return _rehydrate(doc.get("support"), doc.get("n_max"), doc.get("label"), logs)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceError(f"invalid JSON moment file: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("moments"), list):
        raise SequenceError("JSON moment file must be an object with a 'moments' array")
    logs = []
    for i, item in enumerate(doc["moments"]):
        try:
            raw = item["sign"]
            sign, logmag = int(raw), float(item["logmag"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise SequenceError(f"bad moment entry at index {i}: {exc}") from exc
        if isinstance(raw, bool):  # true == 1 in Python, so booleans are ruled out by type
            raise SequenceError(
                f"bad moment entry at index {i}: a sign must be a number, got {json.dumps(raw)}"
            )
        _check_sign(i, raw if isinstance(raw, float) else sign)  # int() truncates 1.5
        logs.append(logmag)
    return _rehydrate(doc.get("support"), doc.get("n_max"), doc.get("label"), logs)


def to_csv(seq: MomentSequence) -> str:
    """Serialize to CSV (n, sign, logmag at 17 significant digits); raises
    SequenceError for a label that from_csv could not read back."""
    lines = [f"# support: {seq.support}", f"# n_max: {seq.n_max}"]
    if seq.label:
        if seq.label.splitlines() != [seq.label] or seq.label.strip() != seq.label:
            raise SequenceError(
                f"to_csv cannot store label {seq.label!r}: it has a line break or outer whitespace"
            )
        lines.append(f"# label: {seq.label}")
    lines.append(_CSV_HEADER)
    lines += [f"{j},1,{x:.17g}" for j, x in enumerate(seq.log_moments.tolist())]
    return "\n".join(lines) + "\n"


@cache
def _index_text(rows: int) -> str:
    """"0\n1\n…\n{rows − 1}\n": the index column of that many CSV rows."""
    return "\n".join(map(str, range(rows))) + "\n"


def _is_index_column(indices: list[str]) -> bool:
    """Whether ``indices`` are "0", "1", "2", …, with no string made per
    index: up to _INDEX_ROWS_MAX of them are joined and compared with the
    cached _index_text of that many rows, any beyond with str(j)."""
    rows = _INDEX_ROWS_MAX
    head = "\n".join(indices[:rows]) + "\n"
    return _index_text(rows).startswith(head) and indices[rows:] == list(
        map(str, range(rows, len(indices)))
    )


def _csv_rows(lines: list[str]) -> list[float] | None:
    """Log-magnitudes of a file laid out as to_csv writes it (comments, the
    header, then rows n,1,logmag with n = 0, 1, …), or None when the layout
    differs or a row is malformed."""
    try:
        start = lines.index(_CSV_HEADER) + 1
    except ValueError:
        return None
    rows = lines[start:]
    # rows hold no newline, so a lone "\n" field is a row boundary: every
    # row has exactly two commas iff each fourth field is one
    fields = ",\n,".join(rows).split(",")
    if (
        len(fields) != 4 * len(rows) - 1
        or fields[3::4].count("\n") != len(rows) - 1
        or any(not line.startswith("#") for line in lines[: start - 1])
        or set(fields[1::4]) != {"1"}
        or not _is_index_column(fields[0::4])
    ):
        return None
    try:
        return list(map(float, fields[2::4]))
    except ValueError:
        return None


def _read_csv_lines(lines: list[str], meta: dict[str, object]) -> tuple[bool, list[float]]:
    """Read CSV lines one at a time, in any layout, naming the first bad line.

    Fills ``meta`` from the comments; returns whether the header was seen
    and the log-magnitudes of the rows.
    """
    logs: list[float] = []
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, colon, value = (part.strip() for part in line.lstrip("#").partition(":"))
            if colon and key == "n_max":
                try:
                    meta[key] = int(value)
                except ValueError as exc:
                    raise SequenceError(f"line {lineno}: bad n_max {value!r}") from exc
            elif colon and key in ("support", "label"):
                meta[key] = value
            continue
        if line == _CSV_HEADER:
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise SequenceError(f"line {lineno}: expected 'n,sign,logmag', got {raw!r}")
        try:
            j, sign, logmag = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise SequenceError(f"line {lineno}: {exc}") from exc
        if j != len(logs):
            raise SequenceError(f"line {lineno}: expected index {len(logs)}, got {j}")
        _check_sign(j, sign)
        logs.append(logmag)
    return saw_header, logs


def from_csv(text: str) -> MomentSequence:
    """Load a sequence from its CSV form; bit-exact inverse of to_csv.

    Rows laid out as to_csv writes them (the canonical layout; see
    _csv_rows) are checked in bulk.  Any other layout, such as a
    hand-edited file, is read one line at a time, which names the first
    bad line; both give the same sequence from the same text.
    """
    lines = text.splitlines()
    meta: dict[str, object] = {}
    logs = _csv_rows(lines)
    if logs is None:
        saw_header, logs = _read_csv_lines(lines, meta)
    else:
        saw_header, _ = _read_csv_lines(lines[: len(lines) - len(logs)], meta)
    if not saw_header or not logs:
        raise SequenceError("CSV moment file is missing its header or data rows")
    return _rehydrate(meta.get("support"), meta.get("n_max", len(logs) - 1), meta.get("label"), logs)
