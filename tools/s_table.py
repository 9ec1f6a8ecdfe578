"""Print ``quadrature._S_TABLE``, the literal table that gives ln S(p) for
0 ≤ p below the saddle-point series' threshold, from mpmath alone::

    python3 tools/s_table.py

S(p) = ∫₀^∞ ln(1+x)^p · e^{−x} dx.  The table has one row per interval
[0, 1], [1, 2], [2, 4], ..., [32, 64].  On [0, 1] the row fits
g(p) = ln S(p)/p; on each octave [2^(j−1), 2^j] it fits what the paper's
saddle terms leave over,

    R(p) = ln S(p) − [p·ln W − (e^W − 1) + ½·ln(2πp/(1+W))],  W = W(p).

Each fit is the polynomial of degree DEGREE that interpolates the function
at the DEGREE + 1 Chebyshev points of the first kind of its interval
(L. N. Trefethen, Approximation Theory and Approximation Practice, SIAM
2013, ch. 8; ln S(p) is analytic for Re p > −1, so the fits converge
geometrically), written out as monomial coefficients in the local
variable x ∈ [−1, 1], from x⁰ up, each rounded once to a float.  Every
value is taken at DPS digits: S(p) by mpmath's tanh-sinh quadrature on
[0, peak] and [peak, peak + 120], the peak at expm1(W(p)) from
``mpmath.lambertw``; at peak + 120 the integrand is below e^{−70} of its
value at the peak for every p ≤ 64.

The output is the Python text of the table's assignment, as it stands in
``src/momentdet/quadrature.py``, so that CI can diff the two.  A run takes
about 10 s.
"""

from __future__ import annotations

import mpmath as mp

#: Digits of every mpmath value; the fits' coefficients are rounded to
#: floats only at the end.
DPS = 40
#: Degree of each row's polynomial: 24 coefficients.
DEGREE = 23
#: The rows' intervals: [0, 1], then the octaves up to [32, 64].
INTERVALS = [(0, 1)] + [(2 ** (j - 1), 2**j) for j in range(1, 7)]
#: Characters of text per line of the printed table, at most.
WIDTH = 92


def log_s(p):
    """ln S(p) for an mpf p > 0."""
    w = mp.lambertw(p).real
    peak = mp.expm1(w)
    top = p * mp.log(w) - peak

    def f(x):
        return mp.exp(p * mp.log(mp.log1p(x)) - x - top) if x > 0 else mp.mpf(0)

    return mp.log(mp.quad(f, [0, peak, peak + 120])) + top


def fitted(p, lo):
    """The function the row starting at ``lo`` fits, at p."""
    if lo == 0:
        return log_s(p) / p
    w = mp.lambertw(p).real
    return log_s(p) - (p * mp.log(w) - mp.expm1(w) + mp.log(2 * mp.pi * p / (1 + w)) / 2)


def monomial_coefficients(lo, hi) -> list:
    """The row's interpolant as coefficients of x⁰..x^DEGREE, mpfs."""
    n = DEGREE + 1
    angles = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    values = [fitted(mp.mpf(lo + hi) / 2 + mp.mpf(hi - lo) / 2 * mp.cos(a), lo) for a in angles]
    # Chebyshev coefficients c_j = (2/n)·Σ_k f(x_k)·T_j(x_k), T_j(cos a) = cos(j·a),
    # with c_0 halved
    cheb = [2 * mp.fsum(f * mp.cos(j * a) for f, a in zip(values, angles)) / n for j in range(n)]
    cheb[0] /= 2
    # T_j's monomial coefficients by T_{j+1} = 2x·T_j − T_{j−1}, in integers
    coefs = [mp.mpf(0)] * n
    previous, current = [1], [0, 1]
    for j, c in enumerate(cheb):
        t = previous if j == 0 else current
        for k, a in enumerate(t):
            coefs[k] += c * a
        if j >= 1:
            previous, current = current, [
                2 * (current[k - 1] if k else 0) - (previous[k] if k < len(previous) else 0)
                for k in range(len(current) + 1)
            ]
    return coefs


def row_text(lo, hi) -> list[str]:
    """The row's string literal, wrapped into lines of at most WIDTH
    characters, under a comment naming its interval."""
    words = [repr(float(c)) for c in monomial_coefficients(lo, hi)]
    lines, line = [], ""
    for word in words:
        piece = word if not line else " " + word
        if line and len(line) + len(piece) > WIDTH:
            lines.append(line)
            line = " " + word
        else:
            line += piece
    lines.append(line)
    return [f"    # [{lo}, {hi}]"] + [f'    "{line}"' for line in lines]


def main() -> None:
    mp.mp.dps = DPS
    print("_S_TABLE = (")
    for lo, hi in INTERVALS:
        lines = row_text(lo, hi)
        lines[-1] += ","
        print("\n".join(lines))
    print(")")


if __name__ == "__main__":
    main()
