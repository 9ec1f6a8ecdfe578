"""Reports that agree with the paper's own theorems.

The paper proves that the quadratic growth condition (g_n bounded with
q ≡ 1) implies Carleman's condition, and so does Hardy's.  The q-modulated
form follows for a non-decreasing q: g_n ≤ C gives
a_n ≥ 1/(√C·n·q(n)), so Carleman holds wherever Σ 1/(n·q(n)) diverges.
So no report may pair a satisfied premise (growth with q ≡ 1, growth with
q = ln n, Hardy) with a violated Carleman verdict.  ``inconclusive`` on
either side is allowed.

This needs no truth table: a contradiction shows that one of the two
verdicts is wrong, whichever it is.  Today the Carleman verdict
overestimates the decay exponent of a_n ~ e/(n·(ln n)^c) (ROADMAP item 1,
Defect A), so the test is marked xfail until that lands.

The implications are strict: the paper's flagship X(1, 1) violates both
premises, growth with q ≡ 1 and Hardy, while its Carleman series
diverges.  Its reports must show that separation.
"""

from __future__ import annotations

import pytest

from momentdet import (
    SATISFIED,
    VIOLATED,
    QFunction,
    analyze,
    check_carleman,
    check_growth_rate,
    check_hardy,
    check_q_divergence,
)

from .truth import NAMED, TWO_FACTOR

def _contradicted(report: dict[str, object], q_log_diverges: bool) -> list[str]:
    """The satisfied premises of one report, if its Carleman verdict is violated."""
    status = {v["criterion"]: v["status"] for v in report["verdicts"]}
    if status["carleman"] != VIOLATED:
        return []
    premises = {
        "growth_rate": status["growth_rate"] == SATISFIED,
        "growth_rate_q": status["growth_rate_q"] == SATISFIED and q_log_diverges,
        "hardy": status.get("hardy") == SATISFIED,
    }
    return [name for name, ok in premises.items() if ok]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: Carleman reads violated where growth (q = 1 or ln n) "
    "reads satisfied, through item 1's Defect A",
)
@pytest.mark.parametrize("n_max", [200, 1000, 5000])
def test_no_satisfied_premise_with_a_violated_carleman(seqs, n_max):
    q_log_diverges = check_q_divergence(QFunction.log()).status == SATISFIED
    labels = TWO_FACTOR + NAMED + (["lognormal"] if n_max == 200 else [])
    found = []
    for label in labels:
        premises = _contradicted(analyze(seqs(label, n_max)), q_log_diverges)
        if premises:
            found.append(f"{label}: violated Carleman with satisfied {', '.join(premises)}")
    assert not found, f"{len(found)} reports contradict themselves:\n" + "\n".join(found)


@pytest.mark.parametrize("n_max", [200, 1000, 5000])
def test_the_flagship_separates_the_premises_from_carleman(seqs, n_max):
    seq = seqs("product[(1,1),(1,1)]", n_max)
    assert check_growth_rate(seq, QFunction.one()).status == VIOLATED
    assert check_hardy(seq).status == VIOLATED
    # satisfied today; inconclusive is allowed too, where the exponent's
    # log corrections leave the series borderline
    assert check_carleman(seq).status != VIOLATED
