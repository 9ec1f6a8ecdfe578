"""Every checker's verdict against the truth of its condition
(``tests/truth.py``): one case per (family, n_max, checker), and one per
(exact Bertrand series, n_max) for Carleman's classifier, at n_max 200, 1000
and 5000.

A case fails where its verdict is the decisive opposite of the truth;
``inconclusive`` passes.  Each case that reads wrong today is a strict xfail
that names the ROADMAP item whose defect it shows, so the change that mends
it must drop it from ``WRONG``:

* item 1 (Defect A): Carleman's p is fitted against ln n alone, and its
  drift guard hands clear p > 1 tails to the critical-scale refinement;
* item 15 (Defect B): at p = 1 that refinement's watershed is c = 2, not
  Bertrand's c = 1, so a converging series with 1 < c < 2 reads satisfied;
* item 2: the growth and Hardy fits against ln n read (ln n)^α factors and
  slow powers differently as n_max grows.
"""

from __future__ import annotations

import pytest

from momentdet import SATISFIED, VIOLATED, QFunction, parse_family
from momentdet import criteria

from .truth import BERTRAND, TABLE_FAMILIES, bertrand, carleman_diverges, exponents, truth

N_MAX = (200, 1000, 5000)

#: Each checker, by the criterion name its verdict carries.
CHECKERS = {
    "carleman": criteria.check_carleman,
    "growth_rate": lambda seq: criteria.check_growth_rate(seq, QFunction.one()),
    "growth_rate_q": lambda seq: criteria.check_growth_rate(seq, QFunction.log()),
    "hardy": criteria.check_hardy,
}

#: The family cases that read the decisive opposite of their truth today, by
#: (checker, n_max): their labels, separated by white space.
WRONG = {
    ("carleman", 200): """
        product[(1,0),(1,0.6)] product[(1,0),(1,0.7)] product[(1,0),(1,0.8)]
        product[(1,0),(1,0.9)] product[(1,0),(1,1)] product[(1,0.1),(1,0.4)]
        product[(1,0.1),(1,0.5)] product[(1,0.1),(1,0.6)] product[(1,0.1),(1,0.7)]
        product[(1,0.1),(1,0.8)] product[(1,0.1),(1,0.9)] product[(1,0.1),(1,1)]
        product[(1,0.2),(1,0.3)] product[(1,0.2),(1,0.4)] product[(1,0.2),(1,0.5)]
        product[(1,0.2),(1,0.6)] product[(1,0.2),(1,0.7)] product[(1,0.2),(1,0.8)]
        product[(1,0.2),(1,0.9)] product[(1,0.2),(1,1)] product[(1,0.3),(1,0.3)]
        product[(1,0.3),(1,0.4)] product[(1,0.3),(1,0.5)] product[(1,0.3),(1,0.6)]
        product[(1,0.3),(1,0.7)] product[(1,0.3),(1,0.8)] product[(1,0.3),(1,0.9)]
        product[(1,0.3),(1,1)] product[(1,0.4),(1,0.4)] product[(1,0.4),(1,0.5)]
        product[(1,0.4),(1,0.6)] product[(1,0.4),(1,0.7)] product[(1,0.4),(1,0.8)]
        product[(1,0.4),(1,0.9)] product[(1,0.5),(1,0.5)] product[(1,0.5),(1,0.6)]
        product[(1,0.5),(1,0.7)] product[(1,0.5),(1,0.8)] product[(1,0.6),(1,0.6)]
        product[(1,0.6),(1,0.7)] product[(2,1)] product[(1,1),(1,1),(0,0.4)]
        product[(1.1,0.5),(1.1,1)] product[(1.1,1),(1.1,1)] product[(1,0),(1,0),(0,1)]
        product[(1,0.5),(1,1),(0,1)] product[(1.1,0),(1.1,0.5),(0,1)]
        product[(1.1,0),(1.1,1),(0,1)] product[(1.1,0.5),(1.1,0.5),(0,1)]
    """,
    ("carleman", 1000): """
        product[(1,0),(1,0.6)] product[(1,0),(1,0.7)] product[(1,0),(1,0.8)]
        product[(1,0),(1,0.9)] product[(1,0),(1,1)] product[(1,0.1),(1,0.4)]
        product[(1,0.1),(1,0.5)] product[(1,0.1),(1,0.6)] product[(1,0.1),(1,0.7)]
        product[(1,0.1),(1,0.8)] product[(1,0.2),(1,0.3)] product[(1,0.2),(1,0.4)]
        product[(1,0.2),(1,0.5)] product[(1,0.2),(1,0.6)] product[(1,0.3),(1,0.3)]
        product[(1,0.3),(1,0.4)] product[(1,0.3),(1,0.5)] product[(1,0.4),(1,0.4)]
        product[(1,1),(1,1),(0,0.4)] product[(1.1,0.5),(1.1,0.5)] product[(1.1,0.5),(1.1,1)]
        product[(1,0),(1,0),(0,1)] product[(1,0.5),(1,1),(0,1)]
        product[(1.1,0),(1.1,0.5),(0,1)]
    """,
    ("carleman", 5000): """
        product[(1,0),(1,0.7)] product[(1,0),(1,0.8)] product[(1,0),(1,0.9)]
        product[(1,0),(1,1)] product[(1,0.1),(1,0.5)] product[(1,0.1),(1,0.6)]
        product[(1,0.1),(1,0.7)] product[(1,0.1),(1,0.8)] product[(1,0.1),(1,0.9)]
        product[(1,0.2),(1,0.4)] product[(1,0.2),(1,0.5)] product[(1,0.2),(1,0.6)]
        product[(1,0.2),(1,0.7)] product[(1,0.3),(1,0.3)] product[(1,0.3),(1,0.4)]
        product[(1,0.3),(1,0.5)] product[(1,0.3),(1,0.6)] product[(1,0.4),(1,0.4)]
        product[(1,0.4),(1,0.5)] product[(2,1)] product[(1,1),(1,1),(0,0.4)]
        product[(1.1,0.5),(1.1,0.5)] product[(1,0),(1,0),(0,1)] product[(1,0.5),(1,1),(0,1)]
    """,
    ("growth_rate", 200): """
        product[(1,0),(1,0.1)] product[(1,0),(1,0.2)] product[(1,0),(1,0.3)]
        product[(1,0),(1,0.4)] product[(1,0),(1,0.5)] product[(1,0),(1,0.6)]
        product[(1,0.1),(1,0.1)] product[(1,0.1),(1,0.2)] product[(1,0.1),(1,0.3)]
        product[(1,0.1),(1,0.4)] product[(1,0.1),(1,0.5)] product[(1,0.2),(1,0.2)]
        product[(1,0.2),(1,0.3)] product[(0.9,1),(0.9,1)] product[(0.9,0),(0.9,1),(0,1)]
        product[(0.9,0.5),(0.9,0.5),(0,1)] product[(0.9,0.5),(0.9,1),(0,1)]
        product[(0.9,1),(0.9,1),(0,1)]
    """,
    ("growth_rate", 1000): """
        product[(1,0),(1,0.1)] product[(1,0),(1,0.2)] product[(1,0),(1,0.3)]
        product[(1,0),(1,0.4)] product[(1,0),(1,0.5)] product[(1,0),(1,0.6)]
        product[(1,0),(1,0.7)] product[(1,0),(1,0.8)] product[(1,0.1),(1,0.1)]
        product[(1,0.1),(1,0.2)] product[(1,0.1),(1,0.3)] product[(1,0.1),(1,0.4)]
        product[(1,0.1),(1,0.5)] product[(1,0.1),(1,0.6)] product[(1,0.1),(1,0.7)]
        product[(1,0.2),(1,0.2)] product[(1,0.2),(1,0.3)] product[(1,0.2),(1,0.4)]
        product[(1,0.2),(1,0.5)] product[(1,0.2),(1,0.6)] product[(1,0.3),(1,0.3)]
        product[(1,0.3),(1,0.4)] product[(0.9,0.5),(0.9,0.5),(0,1)]
        product[(0.9,0.5),(0.9,1),(0,1)] product[(0.9,1),(0.9,1),(0,1)]
    """,
    ("growth_rate", 5000): """
        product[(1,0),(1,0.1)] product[(1,0),(1,0.2)] product[(1,0),(1,0.3)]
        product[(1,0),(1,0.4)] product[(1,0),(1,0.5)] product[(1,0),(1,0.6)]
        product[(1,0),(1,0.7)] product[(1,0),(1,0.8)] product[(1,0.1),(1,0.1)]
        product[(1,0.1),(1,0.2)] product[(1,0.1),(1,0.3)] product[(1,0.1),(1,0.4)]
        product[(1,0.1),(1,0.5)] product[(1,0.1),(1,0.6)] product[(1,0.1),(1,0.7)]
        product[(1,0.2),(1,0.2)] product[(1,0.2),(1,0.3)] product[(1,0.2),(1,0.4)]
        product[(1,0.2),(1,0.5)] product[(1,0.2),(1,0.6)] product[(1,0.3),(1,0.3)]
        product[(1,0.3),(1,0.4)] product[(1,0.3),(1,0.5)] product[(1,0.4),(1,0.4)]
        product[(0.9,1),(0.9,1),(0,1)]
    """,
    ("growth_rate_q", 200): """
        product[(1,1),(1,1),(0,0.4)] product[(1.1,0),(1.1,0)] product[(1.1,0),(1.1,0.5)]
        product[(1.1,0),(1.1,1)] product[(1.1,0.5),(1.1,0.5)] product[(1.1,0.5),(1.1,1)]
        product[(1.2,0),(1.2,0)] product[(1.2,0),(1.2,0.5)] product[(1.25,0),(1.25,0)]
        product[(1,0.5),(1,1),(0,1)] product[(1.1,0),(1.1,0),(0,1)]
        product[(1.1,0),(1.1,0.5),(0,1)]
    """,
    ("growth_rate_q", 1000): """
        product[(1,1),(1,1),(0,0.4)] product[(1.1,0),(1.1,0)] product[(1.1,0),(1.1,0.5)]
        product[(1.1,0),(1.1,1)] product[(1.1,0.5),(1.1,0.5)] product[(1.2,0),(1.2,0)]
        product[(1,0.5),(1,1),(0,1)] product[(1.1,0),(1.1,0),(0,1)]
    """,
    ("growth_rate_q", 5000): """
        product[(1,1),(1,1),(0,0.4)] product[(1.1,0),(1.1,0)] product[(1.1,0),(1.1,0.5)]
        product[(1.1,0),(1.1,1)] product[(1.1,0.5),(1.1,0.5)] product[(1,0.5),(1,1),(0,1)]
        product[(1.1,0),(1.1,0),(0,1)]
    """,
    ("hardy", 200): """
        product[(1,0),(1,0.1)] product[(1,0),(1,0.2)] product[(0.9,0.5),(0.9,0.5)]
        product[(0.9,0.5),(0.9,1)] product[(0.9,1),(0.9,1)]
        product[(0.75,0.5),(0.75,1),(0,1)] product[(0.75,1),(0.75,1),(0,1)]
        product[(0.9,0),(0.9,0.5),(0,1)] product[(0.9,0),(0.9,1),(0,1)]
        product[(0.9,0.5),(0.9,0.5),(0,1)] product[(0.9,0.5),(0.9,1),(0,1)]
        product[(0.9,1),(0.9,1),(0,1)]
    """,
    ("hardy", 1000): """
        product[(1,0),(1,0.1)] product[(1,0),(1,0.2)] product[(0.9,0.5),(0.9,1)]
        product[(0.9,1),(0.9,1)] product[(0.75,1),(0.75,1),(0,1)]
        product[(0.9,0),(0.9,0.5),(0,1)] product[(0.9,0),(0.9,1),(0,1)]
        product[(0.9,0.5),(0.9,0.5),(0,1)] product[(0.9,0.5),(0.9,1),(0,1)]
        product[(0.9,1),(0.9,1),(0,1)]
    """,
    ("hardy", 5000): """
        product[(1,0),(1,0.1)] product[(1,0),(1,0.2)] product[(1,0.1),(1,0.1)]
        product[(0.9,1),(0.9,1)] product[(0.9,0),(0.9,1),(0,1)]
        product[(0.9,0.5),(0.9,0.5),(0,1)] product[(0.9,0.5),(0.9,1),(0,1)]
        product[(0.9,1),(0.9,1),(0,1)]
    """,
}
#: The exact Bertrand series, as (p, c), that read the decisive opposite of
#: their truth today, by n_max.
WRONG_BERTRAND = {
    200: [(0.9, 3), (1, 1.2), (1, 1.25), (1, 1.5), (1.1, 0.5), (1.1, 1), (1.1, 1.2), (1.1, 1.25)],
    1000: [(0.9, 3), (1, 1.2), (1, 1.25), (1, 1.5), (1.1, 0.5), (1.1, 1)],
    5000: [(1, 0.5), (1, 1.2), (1, 1.25), (1, 1.5)],
}

_REASONS = {
    1: "ROADMAP item 1 (Defect A): Carleman's p is fitted against ln n alone",
    15: "ROADMAP item 15 (Defect B): the critical-scale watershed sits at c = 2, not 1",
    2: "ROADMAP item 2: the growth and Hardy fits against ln n drift with n_max",
}


def _case(args, wrong: bool, item: int, case_id: str):
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=_REASONS[item])
    return pytest.param(*args, marks=mark if wrong else (), id=case_id)


def _carleman_item(p: float, diverges: bool) -> int:
    """The item of a wrong Carleman verdict: 15 for a converging series at
    p = 1, the critical scale, and 1 otherwise."""
    return 15 if p == 1.0 and not diverges else 1


def _family_cases():
    for n_max in N_MAX:
        for label in TABLE_FAMILIES:
            spec = parse_family(label)
            p, _ = exponents(spec)
            for checker, holds in truth(spec).items():
                item = _carleman_item(p, holds) if checker == "carleman" else 2
                wrong = label in WRONG.get((checker, n_max), "").split()
                yield _case((label, n_max, checker), wrong, item, f"{checker}-{n_max}-{label}")


def _bertrand_cases():
    for n_max in N_MAX:
        for p, c in BERTRAND:
            item = _carleman_item(p, carleman_diverges(p, c))
            wrong = (p, c) in WRONG_BERTRAND[n_max]
            yield _case((p, c, n_max), wrong, item, f"p={p:g}-c={c:g}-{n_max}")


@pytest.mark.parametrize("label, n_max, checker", _family_cases())
def test_a_family_verdict_is_not_the_opposite_of_its_truth(seqs, label, n_max, checker):
    seq = seqs(label, n_max)
    status = CHECKERS[checker](seq).status
    assert status != (VIOLATED if truth(seq.family)[checker] else SATISFIED)


@pytest.mark.parametrize("p, c, n_max", _bertrand_cases())
def test_a_bertrand_verdict_is_not_the_opposite_of_its_truth(p, c, n_max):
    status, _ = criteria._classify_series(criteria._table(n_max), bertrand(p, c, n_max)[1])
    assert status != (VIOLATED if carleman_diverges(p, c) else SATISFIED)


def test_every_wrong_case_is_a_case_of_the_table():
    assert {key for key in WRONG} <= {(checker, n_max) for checker in CHECKERS for n_max in N_MAX}
    for labels in WRONG.values():
        labels = labels.split()
        assert set(labels) <= set(TABLE_FAMILIES) and len(set(labels)) == len(labels)
    assert set(WRONG_BERTRAND) == set(N_MAX)
    for cells in WRONG_BERTRAND.values():
        assert set(cells) <= set(BERTRAND) and len(set(cells)) == len(cells)
