"""Metamorphic relations: changes to a sequence that leave every
determinacy condition as it was must not move a verdict to the opposite
decisive one (a move to ``inconclusive`` is allowed).

* ``symroot`` stores the base family's moments, m_n of X at entry n, as
  the even moments m_{2n} of its symmetric root; Carleman's series is the
  same, so its verdict and diagnostics are the base family's exactly.
* The verdicts describe the family, not the quadrature that generated
  its moments, so generating at rel_tol 1e-3 or 1e-5 instead of the
  default must not move one.
"""

from __future__ import annotations

import pytest

from momentdet import SATISFIED, VIOLATED, analyze, check_carleman, generate_from_label

#: Families across the verdicts: stock, p ≠ 1, the two-factor grid's
#: corners and middle, a c > 1 factor and a symmetric root.
FAMILIES = [
    "exp",
    "exp2",
    "product[(2,1)]",
    "product[(1.5,0.5)]",
    "product[(1,1),(1,1)]",
    "product[(1,0),(1,0.3)]",
    "product[(1,0.5),(1,0.7)]",
    "product[(1,1),(1,1),(0,0.4)]",
    "symroot[(1,1),(1,1)]",
    "product[(1,0.2),(1,1)]",
]


@pytest.mark.parametrize("n_max", [200, 1000])
@pytest.mark.parametrize("factors", ["(1,1),(1,1)", "(1,0.5),(1,0.7)", "(2,1)", "(1.5,0.5)"])
def test_symroot_has_the_base_carleman_verdict(seqs, factors, n_max):
    root = check_carleman(seqs(f"symroot[{factors}]", n_max))
    base = check_carleman(seqs(f"product[{factors}]", n_max))
    assert root.to_dict() == base.to_dict()


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-5])
@pytest.mark.parametrize("n_max", [200, 1000])
def test_generation_tolerance_moves_no_verdict_to_its_opposite(seqs, n_max, rel_tol):
    flipped = []
    for label in FAMILIES:
        loose = analyze(generate_from_label(label, n_max, rel_tol=rel_tol))["verdicts"]
        for tight, other in zip(analyze(seqs(label, n_max))["verdicts"], loose):
            assert tight["criterion"] == other["criterion"]
            if {tight["status"], other["status"]} == {SATISFIED, VIOLATED}:
                flipped.append(f"{label} {tight['criterion']}: {tight['status']} -> {other['status']}")
    assert not flipped, "\n".join(flipped)
