"""Arguments too large for a float are domain errors, not OverflowError."""

from __future__ import annotations

import re

import numpy as np
import pytest

from momentdet import (
    DomainError,
    QFunction,
    asymptotic_kn,
    integrate_logweighted,
    lambert_w0,
    lambert_w_bounds,
    laplace_estimate_exact,
    laplace_estimate_leading,
    saddle_point,
    validate_rel_tol,
    verify_laplace_conditions,
    w_frac_diff,
    w_ratio_power,
)

HUGE = 10**400  # an int that float() cannot convert

#: The function each call should name, then (after a space) which argument.
CALLS = {
    "integrate_logweighted": integrate_logweighted,
    "lambert_w0": lambert_w0,
    "lambert_w_bounds": lambert_w_bounds,
    "w_ratio_power": w_ratio_power,
    "w_frac_diff": w_frac_diff,
    "saddle_point": saddle_point,
    "laplace_estimate_exact": laplace_estimate_exact,
    "laplace_estimate_leading": laplace_estimate_leading,
    "verify_laplace_conditions": verify_laplace_conditions,
    "asymptotic_kn r": lambda huge: asymptotic_kn(3, huge),
    "asymptotic_kn n": lambda huge: asymptotic_kn(huge, 0.5),
    "QFunction.power": QFunction.power,
    "QFunction.table": lambda huge: QFunction.table([1.0, huge]),
    "validate_rel_tol": validate_rel_tol,
}


@pytest.mark.parametrize("case", CALLS)
def test_huge_int_is_a_domain_error(case):
    name = case.split()[0]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} requires"):
        CALLS[case](HUGE)


def test_integrate_logweighted_still_refuses_arrays():
    with pytest.raises(TypeError):
        integrate_logweighted(np.array([1.0, 2.0]))
