"""The truth of each checked condition, from a family's closed forms, and the
families and exact series the tests check the verdicts against.

A product family, m_n = Πᵢ Γ(δᵢ·n + 1)·S(n·rᵢ), has the Carleman terms
a_n = m_n^{−1/(2n)} ~ n^{−p}·(ln n)^{−c}, up to slower factors, with
p = Σδ/2 and c = Σr/2: Stirling gives Γ(δn + 1)^{−1/(2n)} ~ (δn/e)^{−δ/2},
and the saddle point ln S(t) = t·ln W(t) − t/W(t) + O(ln t), W(t) ~ ln t.
Its growth ratio (m_{n+1}/m_n)/(n+1)² ~ n^{2p−2}·(ln n)^{2c}, and Hardy's
b_n = (ln m_n − ln (2n)!)/n = (2p − 2)·ln n + 2c·ln ln n + O(1).  So:

* Carleman's series diverges iff p < 1, or p = 1 and c ≤ 1 (Bertrand's
  test), as does the exact series n^{−p}·(ln n)^{−c};
* g with q ≡ 1, and Hardy's c₀, are bounded iff p < 1, or p = 1 and c = 0;
* g with q = ln n is bounded iff p < 1, or p = 1 and c ≤ 1.

These are the closed forms themselves; ROADMAP item 11 derives them a
second way.  Nothing here imports the benchmark's oracle.
"""

from __future__ import annotations

import math

import numpy as np

#: The unit-δ two-factor families with r1 ≤ r2 in {0, 0.1, …, 1}: 66 of them.
TWO_FACTOR = [
    f"product[(1,{i / 10:g}),(1,{j / 10:g})]" for i in range(11) for j in range(i, 11)
]
#: Named families off that grid: stock, p ≠ 1, c > 1 and the symmetrizations.
NAMED = [
    "exp",
    "exp2",
    "product[(2,1)]",
    "product[(1.5,0.5)]",
    "product[(1,1),(1,1),(0,0.4)]",
    "product[(0.5,1),(0.5,1),(1,0)]",
    "symroot[(1,1),(1,1)]",
    "symprod[(1,1),(1,1)]",
]
#: ROADMAP item 5's 71 families: the grid and the first five named ones.
POINT_MASS_FAMILIES = TWO_FACTOR + NAMED[:5]

#: Products off the grid: Σδ ∈ {0.5, 1.5, 1.8, 2, 2.2, 2.4, 2.5}, split evenly
#: over two factors with r1 ≤ r2 in {0, 0.5, 1}, alone and with a third
#: factor (0, 1), which adds 1 to Σr.  The six two-factor ones at Σδ = 2 are
#: grid families, so 78 labels.
_PAIRS = [(r1, r2) for i, r1 in enumerate((0, 0.5, 1)) for r2 in (0, 0.5, 1)[i:]]
WIDER = [
    f"product[({d:g},{r1:g}),({d:g},{r2:g}){third}]"
    for third in ("", ",(0,1)")
    for d in (0.25, 0.75, 0.9, 1, 1.1, 1.2, 1.25)
    for r1, r2 in _PAIRS
    if third or d != 1
]

#: The families of the truth table: item 5's and the wider products.
TABLE_FAMILIES = POINT_MASS_FAMILIES + WIDER

#: The near-critical ring: for Σδ ∈ {1.9, 1.95, 2.05, 2.1, 2.15} (p from 0.95
#: to 1.075) and Σr ∈ {0, 1, 2}, a two-factor product, δ and r split evenly,
#: and a three-factor one, δ split as (1, (Σδ − 1)/2, (Σδ − 1)/2) and r as
#: (Σr/2, Σr/4, Σr/4): 30 labels.
RING = [
    label
    for d in (1.9, 1.95, 2.05, 2.1, 2.15)
    for r in (0, 1, 2)
    for label in (
        f"product[({d / 2:g},{r / 2:g}),({d / 2:g},{r / 2:g})]",
        f"product[(1,{r / 2:g}),({(d - 1) / 2:g},{r / 4:g}),({(d - 1) / 2:g},{r / 4:g})]",
    )
]

#: The exact Bertrand series n^{−p}·(ln n)^{−c} of the truth table, as (p, c).
BERTRAND = [(p, c) for p in (0.9, 1.0, 1.1) for c in (0, 0.5, 1, 1.2, 1.25, 1.5, 2, 3)]


def carleman_diverges(p: float, c: float) -> bool:
    """Whether Σ n^{−p}·(ln n)^{−c} diverges: Bertrand's test."""
    return p < 1.0 or (p == 1.0 and c <= 1.0)


def exponents(spec) -> tuple[float, float]:
    """(p, c) = (Σδ/2, Σr/2) of a product ``FamilySpec``."""
    if spec.symmetrization != "none":
        raise ValueError(f"the closed forms are of products, not {spec.symmetrization}")
    return math.fsum(d for d, _ in spec.factors) / 2.0, math.fsum(r for _, r in spec.factors) / 2.0


def truth(spec) -> dict[str, bool]:
    """Whether each checked condition holds for a product ``FamilySpec``, by
    the criterion name of its checker: Carleman's divergence, g bounded with
    q ≡ 1 and with q = ln n, and Hardy's constant."""
    p, c = exponents(spec)
    bounded = p < 1.0 or (p == 1.0 and c == 0.0)
    return {
        "carleman": carleman_diverges(p, c),
        "growth_rate": bounded,
        "growth_rate_q": carleman_diverges(p, c),
        "hardy": bounded,
    }


def bertrand(p: float, c: float, n_max: int = 3000):
    """ns and ln of the Bertrand terms 1/(n^p·(ln n)^c), n = 2..n_max (the
    term at n = 1 is 1/0 for c > 0)."""
    ns = np.arange(2, n_max + 1, dtype=float)
    return ns, -p * np.log(ns) - c * np.log(np.log(ns))
