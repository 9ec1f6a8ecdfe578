"""Log-domain evaluation of the package's integral family.

Two integrals are evaluated, both entirely in the log domain because
their values span hundreds of orders of magnitude:

* ``S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx`` for real p ≥ 0
  (``integrate_logweighted``; ``log_power_integral`` for arrays of p),
  by the paper's saddle-point series from p = 61 on and from a literal
  table below.  S(100) is already ~4.5·10⁴¹, and p up to a few thousand
  must work.
* ``∫₀¹ (ln t)^n · e^{−t} dt`` for integer n ≥ 0
  (``integrate_unit_log_power``), from its series: term by term,
  ∫₀¹ t^k (ln t)^n dt = (−1)^n n!/(k+1)^{n+1}, so the integral is
  (−1)^n·n!·σₙ with σₙ = Σₖ (−1)^k/(k!·(k+1)^{n+1}).  That alternating
  sum lies in [1 − e^{−1}, 1], 20 terms give it to rounding, and from
  n = 53 on it rounds to exactly 1.0.  So its log, ln n! + ln σₙ, is read
  from one cached table, built per power-of-two size up to 8193 entries:
  compensated running sums of ln k, with ln σₖ added to the first 53.
  Above the table it is ln n! from Stirling's series in 40-digit decimals.

Their sum gives the derivatives of the gamma function at 1
(``gamma_derivative``): Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n),
a sequence over integer n.  One order up to the unit table's top reads
three rows of its column in one cached table: the sign and log of
Γ⁽ⁿ⁾(1) and its error estimate, built per size by the one expression that
combines the pieces (``_log_gamma``), with their estimates added
(``_gamma_columns``), over every order below the size.  An order above
the table, and every batch, runs that expression on its own orders.
Each integral has one code path (``_log_s``, ``_log_unit``, ``_log_gamma``)
that takes its orders as a numpy float64 scalar or a 1-d array and returns
results of the same shape.  The public one-point functions pass a scalar
and batches an array, and a scalar gets the bits its order gets in a
batch, so a table entry holds the bits its order gets alone.

A one-point call is bound by the cost of each call it dispatches, not by
its arithmetic, so it pays only for work that depends on its order, and
its boundary once.  A Python int or float argument is checked with Python
comparisons (``_checked``; an integer order is the int ``_int_arg``
returns), which hand the private paths the numpy float64 scalar they take.
The accuracy check tests a 0-d log's floor on a Python float
(``_within_accuracy``), the public function takes its estimate once from
the log as a Python float, and the records check their fields in their own
``__init__``.  The call reads a table by an int index (``_log_unit``, and
``gamma_derivative`` itself, which checks only an order above its table),
where a batch gathers.  S's pieces take it as a Python float
(``_log_s``), so their float64 arithmetic runs on Python operators,
about 0.02 µs each against a numpy scalar's 0.08 on a 2-core x86-64 host,
and W calls numpy's log, log1p and expm1 on that float (``_FLOAT_UFUNCS``,
the third namespace of ``lambertw._halley``), about 0.15 µs each.  Such a
call runs the ufunc's array loop, so it gives an array's bits, which
``math`` does not: glibc's log, log1p and expm1 differ from numpy's
AVX-512 loops in the last bit on some arguments.  A float's octave comes
from ``math.frexp``, exact like ``np.frexp``.  Values that stay numpy
scalars (S's saddle terms in ``_WIDE``) use scalar operators and unary
ufuncs (the builtin ``abs``, not ``np.abs``), about 0.2 µs a call, and a
binary ufunc (0.7 µs), ``np.errstate`` (1.1 µs) or ``np.where`` (1.6 µs on
a 0-d value) only where no cheaper form gives the same bits.
The code branches on the kind of its orders only to index or route them,
to check one order on Python numbers and for a reduction over every
element (``_all``), never in elementwise arithmetic, so a scalar and an
array share every numeric expression.
Each is one that rounds alike on both: (1 + v)³ is u·u·u, as numpy's
scalar ``**`` rounds it differently from its array ``**`` for about one
v in twenty.

Method for S.  ``_log_s`` takes orders p ≥ 61 from Laplace's method
carried to eight correction terms (``_log_s_series``) and the orders
below from a literal table (``_log_s_table`` from 1, ``_log_s_below_one``
below it), both exact to float rounding.  With W = W(p), the substitution
x = e^W − 1 + e^W·s turns S(p) into W^p·e^{−(e^W − 1)}·e^W·∫ exp(p·φ(s)) ds,
φ(s) = ln(1 + ln(1+s)/W) − s/W, whose peak is at s = 0, so ln S(p) =
p·ln W − (e^W − 1) + ½·ln(2πp/(1+W)) + Σₘ dₘ·p⁻ᵐ, each dₘ a rational
function of 1/W (``_SERIES``).  Below 61 eight terms no longer reach
float rounding, and the table ``_S_TABLE`` holds, per octave
[2^(j−1), 2^j], a polynomial in p of what the saddle terms (``_saddle``,
shared with the series) leave over, and on [0, 1] one of ln S(p)/p, so
that ln S(0) is exactly 0.  Every S(p) of the package, the CLI ``asym``'s
included, comes from ``_log_s``.

The private paths return values only: ``_log_s``, its three pieces and
``_log_unit`` the log, ``_log_gamma`` the sign and log of Γ⁽ⁿ⁾(1) with
the logs of its two pieces.  The unit integral's series and S's table
and saddle-point series are exact to rounding, so a result's error
estimate is the floor eps·(4 + |log value|), the rounding of a
log-magnitude summed and held in a float, which depends on the log alone:
the public functions take it once per ``QuadratureResult``, and Γ⁽ⁿ⁾(1)
adds its two pieces' absolute errors.  S's floor is eps·(4 + 2·|log|)
where ``_WIDE``, the type of its saddle terms, is no wider than float64
(``_S_LOG_SCALE``).  Every result keeps one fixed
accuracy, 1e-9 relative (``_ACCURACY``): DomainError is raised wherever
that floor exceeds it, for S(p) from p ≈ 1.88e6 on and for the unit
integral (so for Γ⁽ⁿ⁾(1) too) from n ≈ 3.8e5 on, naming the lowest such
order (``_lowest_refused``).  Where the float rounding of S's log-integrand at
its peak reaches 60 nats (p ≳ 1e17), it is raised before any series term
is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, _float_arg, _int_arg
from .lambertw import _halley
from .logdomain import SignedLogValue

__all__ = [
    "QuadratureResult",
    "gamma_derivative",
    "integrate_logweighted",
    "integrate_unit_log_power",
    "log_power_integral",
]

#: The relative accuracy every result keeps: an order whose floored error
#: estimate exceeds it is refused (``_within_accuracy``).
_ACCURACY = 1e-9

#: S(p) is refused (``_saddle``) where the float rounding of its
#: log-integrand at the peak, eps·|peak log|, reaches this many nats, from
#: p ≈ 1e17 on: a float then no longer resolves the bulk of the integrand,
#: the 60 nats below its peak that hold all but e^{−60} of its mass.  The
#: check names that cause, where the floored estimate would name only its
#: symptom, and it comes before the saddle terms' 2πp, which overflows near
#: the float maximum, so no p warns.
_PEAK_ROUNDING = 60.0

_EPS = float(np.finfo(float).eps)

#: The rounding of a computed log-integral beyond eps·|log|, in eps: at most
#: 2 against 30-digit mpmath references (S(p) for p from 0.01 to 5000, the
#: unit integral and Γ⁽ⁿ⁾(1) for n ≤ 200), doubled.
_LOG_ROUNDING = 4.0

#: The type S's saddle terms are evaluated in (``_saddle``): 80-bit extended
#: on x86-64 Linux, float64 itself with MSVC on Windows and on macOS on
#: Apple silicon.  ``_S_LOG_SCALE`` is derived from it once, at import, so
#: an emulation of a float64-only platform sets both.
_WIDE = np.longdouble

#: eps per nat of |log S(p)| in S's floor eps·(4 + scale·|log|).  Where
#: _WIDE is wider than float64, S stays within 0.5 of the floor at scale 1.
#: Where it is not, the saddle terms' float64 rounding missed that floor at
#: 18 of 400 p in [1, 1e6], by up to 1.92 times, and reached at worst 0.96
#: of the floor at scale 2 there and on 1,000 more p up to 1.87e6 (against
#: 30-digit mpmath; README, Performance).
_S_LOG_SCALE = 1.0 if np.finfo(_WIDE).eps < _EPS else 2.0

#: Orders or per-order results: a numpy float64 scalar for one point, a
#: float64 array for a batch.  S's pieces also take one point as a Python
#: float (``_log_s``).
_Floats = np.float64 | np.ndarray


@dataclass(frozen=True, init=False)
class QuadratureResult:
    """An integral value with its error estimate and term count.

    Every value is exact to float rounding, so ``est_rel_error`` is the
    floor eps·(4 + |log|) of its log alone (``_floor_error``), which the
    public functions take once per result.  Γ⁽ⁿ⁾(1)'s adds the absolute
    errors of its two floored pieces (``_gamma_columns``), and up to
    n = 8192 it is read from Γ⁽ⁿ⁾(1)'s table with the sign and log, as
    its third row.
    ``nodes_used`` counts the terms its series or table summed: the unit
    integral its 20, S(p) from p = 61 on its 8 correction terms and below
    that the 24 coefficients of its table row.  Γ⁽ⁿ⁾(1) reports the unit
    integral's 20 plus those of S(n).

    ``__init__`` checks the estimate and the term count and stores each
    field once, as ``SignedLogValue``'s does.
    """

    value: SignedLogValue
    est_rel_error: float
    nodes_used: int

    def __init__(self, value: SignedLogValue, est_rel_error: float, nodes_used: int) -> None:
        if not est_rel_error >= 0.0:  # false for NaN too
            raise ValueError(f"est_rel_error must be >= 0, got {est_rel_error!r}")
        if nodes_used <= 0:
            raise ValueError(f"nodes_used must be positive, got {nodes_used!r}")
        fields = self.__dict__
        fields["value"], fields["est_rel_error"], fields["nodes_used"] = value, est_rel_error, nodes_used


def _checked(name: str, p, arg: str = "p") -> _Floats:
    """``p`` as a float64 (a numpy scalar for a scalar, else an array),
    checked for the public function ``name``, whose errors call ``p``
    ``arg``.  A Python int or float, one order, is tested with Python
    comparisons."""
    if type(p) is float or type(p) is int:
        x = _float_arg(p, name, arg)
        if not 0.0 <= x < math.inf:  # false for NaN too
            raise DomainError(f"{name} requires finite {arg} >= 0, got {x!r}")
        return np.float64(x)
    ps = _float_arg(p, name, arg, _floats)
    ok = (ps >= 0.0) & (ps < np.inf)
    if not _all(ok):
        bad = float(np.extract(~ok, ps)[0])
        raise DomainError(f"{name} requires finite {arg} >= 0, got {bad!r}")
    return ps


def _floats(value) -> _Floats:
    """``value`` as float64: a numpy scalar for a scalar, else an array."""
    # [()] turns a 0-d array into a numpy scalar and leaves others as they are
    return np.asarray(value, dtype=float)[()]


def _all(x) -> bool:
    """Whether every element of ``x`` is true: ``bool`` for a 0-d value, and
    np.count_nonzero, cheaper than np.logical_and.reduce or ndarray.all, for
    an array."""
    return bool(x) if x.ndim == 0 else np.count_nonzero(x) == x.size


def _floor_error(logmag, scale: float = 1.0):
    """The error estimate of a log-integral ``logmag`` exact to float
    rounding: _LOG_ROUNDING eps for the sum and its log, plus eps·|logmag|,
    the resolution of the log itself, ``scale`` times (_S_LOG_SCALE for S)."""
    return _EPS * (_LOG_ROUNDING + scale * abs(logmag))


def _lowest_refused(held, orders: _Floats):
    """The flat index of the lowest of ``orders`` where ``held`` is false,
    or None where it holds for all; the accepted path takes one ``_all``."""
    return None if _all(held) else int(np.argmin(np.where(held, np.inf, orders), axis=None))


def _within_accuracy(orders: _Floats, arg: str, logs: _Floats, scale: float = 1.0) -> _Floats:
    """``logs``, the log-integrals of ``orders``; raises DomainError, naming
    the lowest order (called ``arg``) whose floored estimate, at ``scale``,
    exceeds _ACCURACY.  One order's floor is tested on a Python float, and
    only a refused one goes on to the raise."""
    if logs.ndim == 0 and _floor_error(float(logs), scale) <= _ACCURACY:
        return logs
    est = _floor_error(logs, scale)
    if (i := _lowest_refused(est <= _ACCURACY, orders)) is not None:
        raise DomainError(f"the integral for {arg} = {np.ravel(orders)[i]:.17g} has a floored "
                          f"error estimate {np.ravel(est)[i]:.2g} above {_ACCURACY:g}, the "
                          f"accuracy every result keeps (its log, {np.ravel(logs)[i]:.6g}, is "
                          "too coarse in a float)")
    return logs


# -- S(p) -----------------------------------------------------------------------


_TWO_PI = 2.0 * math.pi

#: ``lambertw._halley``'s namespace for one order, a Python float: numpy's
#: own ufuncs, each returning a Python float.  A ufunc called on a float
#: runs its array loop, so W gets an array's bits, and the arithmetic
#: between the calls is IEEE float64 in Python as in numpy.  ``math`` would
#: not do: glibc's log, log1p and expm1 differ in the last bit from numpy's
#: AVX-512 loops on some arguments.
_FLOAT_UFUNCS = SimpleNamespace(log=lambda x: float(np.log(x)),
                                log1p=lambda x: float(np.log1p(x)),
                                expm1=lambda x: float(np.expm1(x)))


def _saddle(p: _Floats) -> tuple[_Floats, _Floats]:
    """W(p) and the saddle terms of ln S(p), p·ln W − (e^W − 1) +
    ½·ln(2πp/(1+W)), for p ≥ 1, a scalar or an array; the terms in _WIDE.

    p·ln W − (e^W − 1) is the log-integrand at the peak: DomainError, naming
    the lowest such p, where its float rounding eps·|peak log| reaches
    _PEAK_ROUNDING nats, checked before the last term is taken (2πp
    overflows near the float maximum).  The terms are evaluated at W from
    ``lambertw._halley``, whose rounding they feel only to second order
    (their derivative in W, p/W − e^W, is 0 at W(p)), and in _WIDE, for
    the caller to round to a float once with its correction: in 80-bit
    extended the series' worst error was 0.48 of the floor eps·(4 + |log|),
    and where _WIDE is float64 the floor is doubled (``_S_LOG_SCALE``).
    """
    w = _halley(p, np if isinstance(p, np.ndarray) else _FLOAT_UFUNCS)
    wide = _WIDE(w)
    peak_log = p * np.log(wide) - np.expm1(wide)
    if (i := _lowest_refused(_EPS * abs(peak_log) < _PEAK_ROUNDING, p)) is not None:
        raise DomainError(f"the integrand for p = {np.ravel(p)[i]:.17g} peaks at log "
                          f"{np.ravel(peak_log)[i]:.6g}, which a float rounds by "
                          f"{_PEAK_ROUNDING:g} nats or more")
    return w, peak_log + 0.5 * np.log(_TWO_PI * p / (1.0 + wide))


#: Orders from this on take the saddle-point series: the least integer p
#: from which its first term left out, d₉(v)·p⁻⁹, stays within a quarter
#: of the floor eps·(4 + |log S(p)|), as it does up to the refusal at
#: p ≈ 1.88e6 (``tests/test_series.py``).
_SERIES_FROM = 61.0

#: ln S(p) = p·ln W − (e^W − 1) + ½·ln(2πp/(1+W)) + Σₘ dₘ(v)·p⁻ᵐ, with
#: W = W(p) and v = 1/W: Laplace's method on ∫ exp(p·φ(s)) ds, φ(s) =
#: ln(1 + v·ln(1+s)) − v·s, in the log form of its expansion (F. W. J.
#: Olver, Asymptotics and Special Functions, 1974, ch. 3).  One row
#: "Cₘ: Nₘ" per m, with dₘ·p⁻ᵐ = Nₘ(v)·yᵐ/Cₘ, y = 1/(v·(1+v)³·p), and
#: Nₘ's integer coefficients from v⁰ up; text, which compiles in a small
#: fraction of the time a tuple of these 128 ints takes.  Every row is
#: summed: the next term stays within a quarter of the floor wherever the
#: series runs (``_SERIES_FROM``), so the estimate is the floor alone.
#: ``tests/test_series.py`` re-derives the table, and the next term, in
#: exact rationals.
_SERIES = (
    "24: 2 9 16 6 2",
    "48: 0 -2 -12 -29 -40 -36",
    "5760: -16 -164 -616 -834 952 5217 8688 10192 10032 -1344 -576 -144 -16",
    "11520: 0 144 1732 9380 29900 61142 80689 62917 19160 -13160 -51408 -91200",
    "2903040: 2304 36576 154336 -424648 -7088088 -35546336 -107599000 -224143056"
    " -335782838 -363597703 -280264992 -163569056 -96614272 -1357920 121472640 6918912"
    " 3144960 1048320 241920 34560 2304",
    "5806080: 0 -57600 -1024992 -7931456 -33935960 -77834624 -22129968 516016912"
    " 2116211320 4994629810 8301796285 10255333723 9479892884 6512943556 3811831840"
    " 2895682464 1354311936 -1271773440",
    "1393459200: -829440 -17927424 -75398400 979421280 14702509760 95976165712"
    " 393007055392 1098463324560 2081959474560 2257534962436 -503325715176 -7902367190574"
    " -18790372093820 -28472870346375 -31491157692288 -25841077020608 -15271932477440"
    " -7744378864000 -7016356224000 -4705524209664 1902085355520 -96447283200 -45008732160"
    " -16878274560 -4964198400 -1103155200 -174182400 -17418240 -829440",
    "2786918400: 0 40642560 959231232 9430373376 46483611552 67095196960 -657765723568"
    " -5591597137872 -24305692592480 -72591992088016 -160172596601476 -264515046667220"
    " -314202992051050 -219685183352818 48221317857097 401124310562753 672295813589264"
    " 729072132780144 555377864264448 268859822378240 86848937201664 113411430406656"
    " 109388379709440 -32247014768640",
)
_SERIES_TERMS = len(_SERIES)
#: Orders whose series terms are evaluated together, which bounds the temporaries.
_SERIES_CHUNK = 512


@cache
def _series_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The _SERIES table as Nₘ/Cₘ, one row per m padded with zeros to the
    highest degree; the powers of v from 0 to that degree; and the powers
    of y, m = 1, 2, ....  Read-only."""
    rows = [(float(big), np.array(num.split(), dtype=float))
            for big, num in (row.split(":") for row in _SERIES)]
    coefs = np.zeros((len(rows), max(len(num) for _, num in rows)))
    for row, (big, num) in zip(coefs, rows):
        row[: len(num)] = num / big
    arrays = coefs, np.arange(float(coefs.shape[1])), np.arange(1.0, len(rows) + 1.0)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _log_s_series(p: _Floats) -> _Floats:
    """log S(p) by the saddle-point series, for p ≥ _SERIES_FROM, a scalar
    or an array.

    The terms dₘ(v)·p⁻ᵐ are evaluated and summed _SERIES_CHUNK orders at
    a time, so no more than one chunk's terms are held, each polynomial in
    v by np.einsum over its powers, which calls no BLAS: a first ``@`` on a
    5,000-order batch added 2.1 MB to the process.
    """
    coefs, powers, m = _series_arrays()
    w, saddle = _saddle(p)
    v = 1.0 / w
    u = 1.0 + v
    # one row of terms per order: a 1-d row for a scalar, whose one chunk is itself
    v, y = np.asarray(v)[..., None], np.asarray(w / (u * u * u * p))[..., None]
    sums = [
        np.add.reduce(np.einsum("...k,mk->...m", v[s : s + _SERIES_CHUNK] ** powers, coefs)
                      * y[s : s + _SERIES_CHUNK] ** m, axis=-1)
        for s in range(0, len(v), _SERIES_CHUNK)
    ]
    # a scalar's one chunk sums to a 0-d value, which np.concatenate refuses
    return np.float64(saddle + (np.concatenate(sums) if len(sums) > 1 else sums[0]))


#: Below _SERIES_FROM, ln S(p) comes from this table: one row per interval,
#: [0, 1] and the octaves [2^(j−1), 2^j] for j = 1..6.  Row 0 holds
#: g(p) = ln S(p)/p, and row j what the saddle terms of ``_saddle`` leave
#: over, R(p) = ln S(p) − [p·ln W − (e^W − 1) + ½·ln(2πp/(1+W))], each as
#: the coefficients of x⁰, x¹, ... in the interval's x ∈ [−1, 1].  Each row
#: interpolates its function at 24 Chebyshev points, from 40-digit mpmath
#: values (L. N. Trefethen, Approximation Theory and Approximation
#: Practice, SIAM 2013, ch. 8): ln S(p) is analytic for Re p > −1, so the
#: interpolants converge geometrically, and the next Chebyshev coefficient
#: is below 4e-20 on every row.  |g| < 0.9 and |R| < 0.12, so the float
#: rounding of a row's sum is negligible beside eps·(4 + |log S|).
#: ``tools/s_table.py`` prints this text, and CI compares the two.
_S_TABLE = (
    # [0, 1]
    "-0.6689210328446965 0.1807847326909101 -0.035682925783551096 0.008699472710667084"
    " -0.002313954477822647 0.0006451365546173295 -0.00018526578138801277 5.430628953064239e-05"
    " -1.616274522694372e-05 4.867641022424427e-06 -1.4799711151604888e-06 4.5351644403639184e-07"
    " -1.398907378174067e-07 4.3394068732846255e-08 -1.3530126998579705e-08 4.235401370886415e-09"
    " -1.3247678908496378e-09 4.1759225210410273e-10 -1.3831441964202338e-10 4.38725234151992e-11"
    " -9.77742990224661e-12 3.104241591093697e-12 -2.576933785627147e-12 8.255285144306698e-13",
    # [1, 2]
    "0.09175946456700748 -0.019668873558020585 0.0053434712194169115 -0.0016073342093839782"
    " 0.0005055040267078484 -0.00016169249848114084 5.195215202575829e-05 -1.6683799709658113e-05"
    " 5.346616237572345e-06 -1.7096540806091825e-06 5.45729294485118e-07 -1.7399801533717594e-07"
    " 5.5443605058741205e-08 -1.7665261057689254e-08 5.6317820951682e-09 -1.7959086643016979e-09"
    " 5.703550287894798e-10 -1.821795878593064e-10 6.116093329140445e-11 -1.95836498275252e-11"
    " 4.346969454490495e-12 -1.391732197007104e-12 1.181528326604204e-12 -3.803679349836098e-13",
    # [2, 4]
    "0.058381511376446364 -0.01298271854125791 0.0034279274895580836 -0.0009834974138825919"
    " 0.00029725688153841293 -9.295230838294255e-05 2.970498726767076e-05 -9.619846532009054e-06"
    " 3.1391452486025534e-06 -1.0283963704657611e-06 3.374561674643459e-07"
    " -1.1076057281732167e-07 3.6334766325022694e-08 -1.1909010236897843e-08"
    " 3.900646685885162e-09 -1.27576862937329e-09 4.145114082593062e-10 -1.3532202675726844e-10"
    " 4.6588015666676905e-11 -1.518753458701053e-11 3.32830878686629e-12 -1.0843336423395746e-12"
    " 9.704705797355898e-13 -3.15993720634484e-13",
    # [4, 8]
    "0.03623058668272581 -0.008580306078579637 0.002316407086099449 -0.0006612629403904407"
    " 0.0001954332370676818 -5.9231462578798754e-05 1.8306524644594032e-05 -5.747236405658803e-06"
    " 1.8272254433301933e-06 -5.868468506579779e-07 1.9000071664431084e-07 -6.190542828527047e-08"
    " 2.0267986014759545e-08 -6.660467450378129e-09 2.195736804463963e-09 -7.2496233792836e-10"
    " 2.381288451155815e-10 -7.87997919339439e-11 2.7716900575568455e-11 -9.17803563501051e-12"
    " 1.9600728874819117e-12 -6.495520720864038e-13 6.263309724169086e-13 -2.071951810619351e-13",
    # [8, 16]
    "0.021815131750290803 -0.0054689395913938 0.0015311753841431013 -0.0004474067109059155"
    " 0.00013392590588548968 -4.0747442239052414e-05 1.2549504237326141e-05 -3.90281268336314e-06"
    " 1.2236364532653566e-06 -3.863244963952243e-07 1.2271565716408936e-07"
    " -3.9191664245705666e-08 1.257692262396e-08 -4.053598716613858e-09 1.312117629654593e-09"
    " -4.2603267803553995e-10 1.3790394674188857e-10 -4.503780125874156e-11"
    " 1.5642583784670927e-11 -5.135704548841785e-12 1.0944970851449263e-12 -3.595293144038579e-13"
    " 3.449225998956489e-13 -1.1408079927239525e-13",
    # [16, 32]
    "0.01279779737129325 -0.0033502173258212753 0.0009670796343082623 -0.0002894927776788876"
    " 8.837482265593998e-05 -2.731967876389165e-05 8.521018570782675e-06 -2.675727413760489e-06"
    " 8.447489541973703e-07 -2.6788012767038414e-07 8.52685034907533e-08 -2.7230462722294724e-08"
    " 8.721012777416801e-09 -2.8003200780839516e-09 9.016245459982403e-10 -2.908149899997813e-10"
    " 9.34597731745009e-11 -3.0257956890314427e-11 1.036390559272503e-11 -3.3681990794693013e-12"
    " 7.308939739990842e-13 -2.375096069047958e-13 2.164845089700033e-13 -7.082722481709162e-14",
    # [32, 64]
    "0.007357276734638215 -0.001988511666981257 0.0005869988413141987 -0.0001789609688487278"
    " 5.550199809507902e-05 -1.739912522123653e-05 5.495222385527239e-06 -1.745187335729816e-06"
    " 5.566215848441531e-07 -1.7814486799199542e-07 5.717697827748925e-08 -1.8395450545644448e-08"
    " 5.930444522860425e-09 -1.9153641503757153e-09 6.19821784821087e-10 -2.0078769214700617e-10"
    " 6.476060017435715e-11 -2.1029135620405023e-11 7.219196181132546e-12 -2.3497232342952285e-12"
    " 5.112834691974948e-13 -1.664105423955551e-13 1.510460249908868e-13 -4.935775192273101e-14",
)
_TABLE_TERMS = 24


@cache
def _table_arrays() -> tuple[np.ndarray, np.ndarray]:
    """_S_TABLE as one row of coefficients per interval, and the powers of x
    from 0 to _TABLE_TERMS − 1.  Read-only."""
    coefs = np.array([row.split() for row in _S_TABLE], dtype=float)
    arrays = coefs, np.arange(float(_TABLE_TERMS))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _table_fit(row, x: _Floats) -> _Floats:
    """_S_TABLE's polynomial of row ``row`` (an int, or one per x) at ``x``,
    a scalar or an array."""
    coefs, powers = _table_arrays()
    return np.einsum("...k,...k->...", np.power.outer(x, powers), coefs[row])


def _log_s_below_one(p: _Floats) -> _Floats:
    """log S(p) for 0 ≤ p < 1, a scalar or an array: p·g(p) from _S_TABLE's
    first row, exactly 0 at p = ±0 (+ 0.0 turns the −0.0 of 0.0·g(0),
    g(0) < 0, into +0.0)."""
    return p * _table_fit(0, 2.0 * p - 1.0) + 0.0


def _log_s_table(p: _Floats) -> _Floats:
    """log S(p) for 1 ≤ p < _SERIES_FROM, a scalar or an array: the saddle
    terms plus R(p) from _S_TABLE, rounded to a float once.

    p = m·2^j with m in [0.5, 1) (np.frexp for an array, math.frexp for
    a float) lies on the octave [2^(j−1), 2^j) of row j, at x = 4m − 3,
    exactly.
    """
    m, row = np.frexp(p) if isinstance(p, np.ndarray) else math.frexp(p)
    return np.float64(_saddle(p)[1] + _table_fit(row, 4.0 * m - 3.0))


def _log_s(p: _Floats) -> _Floats:
    """log S(p) for p ≥ 0, a scalar or an array: by ``_log_s_series`` from
    p = _SERIES_FROM on, by ``_log_s_table`` from 1 and by
    ``_log_s_below_one`` below.  One order goes to its piece as a Python
    float.

    Raises DomainError, naming the lowest such p of the whole batch, where
    the series' window check fails, and after every piece where a floored
    estimate exceeds _ACCURACY.
    """
    if p.ndim == 0:
        piece = (_log_s_series if p >= _SERIES_FROM
                 else _log_s_table if p >= 1.0 else _log_s_below_one)
        return _within_accuracy(p, "p", piece(float(p)), _S_LOG_SCALE)
    total = np.empty(p.shape)
    series, below_one = p >= _SERIES_FROM, p < 1.0
    table = ~(series | below_one)
    for rows, piece in ((series, _log_s_series), (table, _log_s_table),
                        (below_one, _log_s_below_one)):
        if rows.any():
            total[rows] = piece(p[rows])
    return _within_accuracy(p, "p", total, _S_LOG_SCALE)


def _s_terms(p) -> int:
    """The terms S(p) sums: the series' _SERIES_TERMS from p = _SERIES_FROM
    on and a table row's _TABLE_TERMS below."""
    return _SERIES_TERMS if p >= _SERIES_FROM else _TABLE_TERMS


def integrate_logweighted(p: float) -> QuadratureResult:
    """Evaluate S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx in the log domain.

    Supports real p ≥ 0 below about 1.88e6, where a float holds log S(p)
    to _ACCURACY; the result value is always positive.
    """
    p = _float_arg(p, "integrate_logweighted", "p")  # refuses arrays, as float() does
    log = float(_log_s(_checked("integrate_logweighted", p)))
    return QuadratureResult(SignedLogValue(1, log), _floor_error(log, _S_LOG_SCALE), _s_terms(p))


def log_power_integral(p):
    """log S(p): a float for a scalar p, an array of the same shape for an
    array of p (evaluated together in one batch); the workhorse for moment
    generation."""
    ps = _checked("log_power_integral", p)
    if ps.ndim == 0:
        return float(_log_s(ps))
    return _log_s(ps.ravel()).reshape(ps.shape)


# -- the unit integral and Γ⁽ⁿ⁾(1) ------------------------------------------------


#: Terms of the unit integral's series summed: the first one left out,
#: 1/(20!·21^{n+1}), is below 2e-20 for every order n ≥ 0.
_UNIT_TERMS = 20

#: log |unit| and Γ⁽ⁿ⁾(1) come from their tables for n up to this; above it
#: log |unit| is Stirling's ln n!.
_UNIT_TABLE_MAX = 8192

#: From this order on σₙ rounds to exactly 1.0, so log |unit| is ln n!: its
#: k = 1 term, −2^{−(n+1)}, is at most 2^{−54}, half a float's step below 1,
#: and the terms after it, each below 2^{−86} and positive in sum, round the
#: total up to 1.0.  At n = 52 that term is −2^{−53}, a whole step, and σ₅₂
#: is below 1 (the tests sum σₙ for every n up to _UNIT_TABLE_MAX).
_SIGMA_ONE_FROM = 53


def _table_size(top: int) -> int:
    """The size of the unit and Γ⁽ⁿ⁾(1) tables that hold the orders up to
    ``top``: the least power of two above it, capped at _UNIT_TABLE_MAX + 1
    entries."""
    return min(1 << top.bit_length(), _UNIT_TABLE_MAX + 1)


@cache
def _log_unit_table(size: int) -> np.ndarray:
    """log |∫₀¹ (ln t)^k e^{−t} dt| = ln k! + ln σₖ for k = 0..size − 1,
    size ≥ 1; read-only.

    ln k! is the compensated (Neumaier) running sum of math.log(j) for
    j = 1..k, rounded once, and ln σₖ, σₖ = Σⱼ (−1)^j/(j!·(j+1)^{k+1})
    summed over its first _UNIT_TERMS terms, is added to it below
    _SIGMA_ONE_FROM, so entry k depends on k alone, not on the size.
    """
    logs, total, comp = [0.0], 0.0, 0.0
    for x in map(math.log, range(1, size)):
        t = total + x
        total, comp = t, comp + ((total - t) + x if total >= x else (x - t) + total)
        logs.append(total + comp)
    table = np.array(logs)
    k = np.arange(float(min(size, _SIGMA_ONE_FROM)))
    # (−1)^j/j! against (j + 1)^{−(k+1)}: one row of terms per order
    coefs = np.array([(-1) ** j / math.factorial(j) for j in range(_UNIT_TERMS)])
    bases = np.arange(1.0, _UNIT_TERMS + 1.0)
    table[: k.size] += np.log(np.add.reduce(coefs * bases ** (-(k + 1.0))[..., None], axis=-1))
    table.flags.writeable = False
    return table


def _stirling_log_factorial(n: int) -> float:
    """ln n! by Stirling's series to the n^{−5} term, in 40-digit decimals
    rounded once to a float; for n > _UNIT_TABLE_MAX the first term left
    out is below 1e-30."""
    from decimal import Context, Decimal, localcontext  # here alone: it costs ~2 ms

    with localcontext(Context(prec=40)):
        x = Decimal(n)
        # ½·ln 2π to 45 digits, then the series in 1/n
        series = Decimal("0.918938533204672741780329736405617639861397474")
        series += 1 / (12 * x) - 1 / (360 * x**3) + 1 / (1260 * x**5)
        return float((x + Decimal("0.5")) * x.ln() - x + series)


def _log_unit(n: _Floats) -> _Floats:
    """log |∫₀¹ (ln t)^n e^{−t} dt| for integer n ≥ 0, a scalar or an array;
    the integral's sign is (−1)^n.

    The magnitude is n!·σₙ: its log is read from ``_log_unit_table`` up to
    _UNIT_TABLE_MAX, by an int index for one order and by a gather for a
    batch, and is Stirling's ln n! above, where σₙ is 1.0.  Raises
    DomainError where its floored estimate exceeds _ACCURACY.
    """
    if n.ndim == 0:
        k = int(n)
        log = (_log_unit_table(_table_size(k))[k] if k <= _UNIT_TABLE_MAX
               else np.float64(_stirling_log_factorial(k)))
        return _within_accuracy(n, "n", log)
    small = n <= _UNIT_TABLE_MAX
    # n·small is n in the range and 0 elsewhere
    table = _log_unit_table(_table_size(int(np.maximum.reduce(n * small))))
    if _all(small):
        return _within_accuracy(n, "n", table[n.astype(np.intp)])
    logs = [table[int(m)] if m <= _UNIT_TABLE_MAX else _stirling_log_factorial(int(m))
            for m in n.tolist()]
    return _within_accuracy(n, "n", np.array(logs))


def _log_gamma(n: _Floats):
    """(sign, log |Γ⁽ⁿ⁾(1)|, log |∫₀¹ (ln t)^n e^{−t} dt|, log S(n)) for
    integer n ≥ 0, a scalar or an array, from ``_log_unit`` and ``_log_s``:
    the one expression of Γ⁽ⁿ⁾(1), which evaluates its own orders and builds
    no table.

    The unit part dominates: |unit| = n!·σₙ ≥ (1 − e^{−1})·n! while
    e^{−1}·S(n) ≤ e^{−1}·n! (ln(1+x) ≤ x), so their ratio r is at most
    e^{−0.54}.  (−1)^n·|unit| + e^{−1}·S(n) = (−1)^n·|unit|·(1 + (−1)^n·r)
    then has the sign (−1)^n exactly and the log ln|unit| + log1p((−1)^n·r),
    whose argument lies in [−0.59, 0.59].
    """
    unit_log, s_log = _log_unit(n), _log_s(n)
    sign = (-1.0) ** n
    return sign, unit_log + np.log1p(sign * np.exp(s_log - 1.0 - unit_log)), unit_log, s_log


def _gamma_columns(n: _Floats) -> np.ndarray:
    """The sign and log of Γ⁽ⁿ⁾(1) for integer n ≥ 0, a scalar or an array,
    stacked with its estimated relative error as a third row: its two
    pieces' floored estimates times their magnitudes, added, relative to
    |Γ⁽ⁿ⁾(1)| and floored."""
    sign, log, unit_log, s_log = _log_gamma(n)
    # both pieces' estimates are above 0, so their logs are finite
    abs_err = np.logaddexp(np.log(_floor_error(unit_log)) + unit_log,
                           np.log(_floor_error(s_log, _S_LOG_SCALE)) + (s_log - 1.0))
    return np.array([sign, log, np.maximum(np.exp(abs_err - log), _floor_error(log))])


@cache
def _gamma_table(size: int) -> np.ndarray:
    """``_gamma_columns`` of k = 0..size − 1, size ≥ 1: one column per
    order; read-only.  Each entry holds the bits its order gets alone."""
    table = _gamma_columns(np.arange(float(size)))
    table.flags.writeable = False
    return table


def integrate_unit_log_power(n: int) -> QuadratureResult:
    """Evaluate ∫₀¹ (ln t)^n · e^{−t} dt for integer n ≥ 0.

    Computed as (−1)^n·n!·σₙ by ``_log_unit``, so the returned sign is
    exactly (−1)^n.
    """
    k = _int_arg(n, 0, "integrate_unit_log_power requires an integer n >= 0")
    log = float(_log_unit(_checked("integrate_unit_log_power", k, "n")))
    return QuadratureResult(SignedLogValue(-1 if k % 2 else 1, log), _floor_error(log), _UNIT_TERMS)


def gamma_derivative(n: int) -> QuadratureResult:
    """Evaluate Γ⁽ⁿ⁾(1) = ∫₀¹ (ln t)^n e^{−t} dt + e^{−1}·S(n) from one
    column of ``_gamma_columns``: its sign, log and estimate, which adds both
    pieces' absolute errors.  Up to _UNIT_TABLE_MAX the column is read from
    ``_gamma_table`` by an int index; above it, it is evaluated.

    The two pieces have opposite signs for odd n but never cancel
    catastrophically: the unit part dominates (its magnitude stays within
    [(1 − e^{−1})·n!, n!] while e^{−1}·S(n) ≤ e^{−1}·n!, see ``_log_gamma``).
    """
    k = _int_arg(n, 0, "gamma_derivative requires an integer n >= 0")
    # an int order up to the table's top is in range, so only the orders above it are checked
    column = (_gamma_table(_table_size(k))[:, k] if k <= _UNIT_TABLE_MAX
              else _gamma_columns(_checked("gamma_derivative", k, "n")))
    sign, log, est = column.tolist()
    return QuadratureResult(SignedLogValue(int(sign), log), est, _UNIT_TERMS + _s_terms(k))
