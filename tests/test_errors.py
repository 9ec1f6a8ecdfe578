"""Arguments too large for a float, or n_max too large for a numpy index, are
domain errors, not OverflowError or numpy's ValueError."""

from __future__ import annotations

import re

import numpy as np
import pytest

from momentdet import (
    DomainError,
    QFunction,
    SignedLogValue,
    asymptotic_kn,
    check_q_divergence,
    generate_moments,
    integrate_logweighted,
    lambert_w0,
    lambert_w_bounds,
    laplace_estimate_exact,
    laplace_estimate_leading,
    lognormal_moments,
    parse_family,
    saddle_point,
    validate_rel_tol,
    verify_laplace_conditions,
    w_frac_diff,
    w_ratio_power,
)

HUGE = 10**400  # an int that float() cannot convert

#: One QFunction of each kind.
QFUNCTIONS = {
    "one": QFunction.one(),
    "log": QFunction.log(),
    "power": QFunction.power(2.0),
    "table": QFunction.table([1.0, 2.0]),
}

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
    "SignedLogValue from_log": SignedLogValue.from_log,
    "SignedLogValue from_float": SignedLogValue.from_float,
    "SignedLogValue logmag": lambda huge: SignedLogValue(1, huge),
    "SignedLogValue negative logmag": lambda huge: SignedLogValue(-1, -huge),
    "QFunction alpha": lambda huge: QFunction(kind="power", alpha=huge),
    **{f"QFunction {kind} log_at": q.log_at for kind, q in QFUNCTIONS.items()},
    **{f"QFunction {kind} call": q for kind, q in QFUNCTIONS.items()},
    "generate_moments n_max": lambda huge: generate_moments(parse_family("exp"), huge),
    "lognormal_moments n_max": lognormal_moments,
    "check_q_divergence n_max": lambda huge: check_q_divergence(QFunction.one(), huge),
}

#: Each n_max check, as (call, the message's opening for an n_max too small).
N_MAX_CHECKS = {
    "generate_moments": (
        lambda n: generate_moments(parse_family("exp"), n),
        "generate_moments requires an integer n_max >= 2",
    ),
    "lognormal_moments": (lognormal_moments, "lognormal_moments requires an integer n_max >= 2"),
    "check_q_divergence": (
        lambda n: check_q_divergence(QFunction.one(), n),
        "check_q_divergence requires integer n_max >= 100",
    ),
}


@pytest.mark.parametrize("case", CALLS)
def test_huge_int_is_a_domain_error(case):
    name = case.split()[0]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} requires"):
        CALLS[case](HUGE)


def test_integrate_logweighted_still_refuses_arrays():
    with pytest.raises(TypeError):
        integrate_logweighted(np.array([1.0, 2.0]))


@pytest.mark.parametrize("name", N_MAX_CHECKS)
@pytest.mark.parametrize("n_max", [2**53 + 1, 2**63 - 1, 2**63])
def test_n_max_past_a_numpy_index_is_a_domain_error(name, n_max):
    # each used to end in numpy's ValueError, or in an empty array of orders
    call, requires = N_MAX_CHECKS[name]
    with pytest.raises(DomainError, match=f"^{re.escape(requires)} and at most 9007199254740992 "):
        call(n_max)


@pytest.mark.parametrize("name", N_MAX_CHECKS)
@pytest.mark.parametrize("n_max", [1, -(10**400), True, 2.0, "300"])
def test_n_max_messages_stay_as_they_were(name, n_max):
    call, requires = N_MAX_CHECKS[name]
    with pytest.raises(DomainError) as info:
        call(n_max)
    assert str(info.value) == f"{requires}, got {n_max!r}"
