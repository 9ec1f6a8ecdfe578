"""Arguments too large for a float, or n_max too large for a numpy index, are
domain errors, not OverflowError or numpy's ValueError; so are real
arguments that are not numeric.  Numpy integers are integers everywhere."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from momentdet import (
    DomainError,
    FamilySpec,
    MomentSequence,
    QFunction,
    SequenceError,
    SignedLogValue,
    asymptotic_kn,
    check_q_divergence,
    gamma_derivative,
    generate_from_label,
    generate_moments,
    integrate_logweighted,
    integrate_unit_log_power,
    lambert_w0,
    lambert_w_bounds,
    laplace_estimate_exact,
    laplace_estimate_leading,
    log_power_integral,
    lognormal_moments,
    parse_family,
    saddle_point,
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
    "SignedLogValue from_log": SignedLogValue.from_log,
    "SignedLogValue logmag": lambda huge: SignedLogValue(1, huge),
    "SignedLogValue negative logmag": lambda huge: SignedLogValue(-1, -huge),
    "QFunction alpha": lambda huge: QFunction(kind="power", alpha=huge),
    "generate_moments n_max": lambda huge: generate_moments(parse_family("exp"), huge),
    "lognormal_moments n_max": lognormal_moments,
    "check_q_divergence n_max": lambda huge: check_q_divergence(QFunction.one(), huge),
    "FamilySpec delta": lambda huge: FamilySpec(factors=((huge, 1),)),
    "FamilySpec r": lambda huge: FamilySpec(factors=((1, huge),)),
    "log_power_integral": log_power_integral,
    "integrate_unit_log_power": integrate_unit_log_power,
    "gamma_derivative": gamma_derivative,
}

#: The one CALLS case that negates its argument, which "abc" and None cannot be.
NEGATES = "SignedLogValue negative logmag"
#: The CALLS where None and arrays are not TypeErrors: integers, arguments
#: that may be arrays (None converts to NaN), and alpha, where None is a
#: missing alpha; and NEGATES, where -None would raise in the test itself.
NOT_SCALAR_REALS = {
    NEGATES,
    "asymptotic_kn n",
    "generate_moments n_max",
    "lognormal_moments n_max",
    "check_q_divergence n_max",
    "integrate_unit_log_power",
    "gamma_derivative",
    "log_power_integral",
    "QFunction alpha",
}
SCALAR_REALS = [case for case in CALLS if case not in NOT_SCALAR_REALS]

#: Each public integer argument, as (a call taking it, a value in its domain).
INT_ARGS = {
    "generate_moments n_max": (
        lambda n: generate_moments(parse_family("product[(1,1)]"), n),
        20,
    ),
    "generate_moments n_max from a label": (
        lambda n: generate_from_label("symprod[(1,0.5)]", n),
        20,
    ),
    "lognormal_moments n_max": (lognormal_moments, 20),
    "check_q_divergence n_max": (lambda n: check_q_divergence(QFunction.log(), n), 200),
    "asymptotic_kn n": (lambda n: asymptotic_kn(n, 0.5), 30),
    "integrate_unit_log_power n": (integrate_unit_log_power, 7),
    "gamma_derivative n": (gamma_derivative, 7),
    "SignedLogValue sign": (lambda sign: SignedLogValue(sign, 2.0), -1),
    "MomentSequence.moment k": (lambda k: lognormal_moments(10).moment(k), 3),
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


@pytest.mark.parametrize("case", [case for case in CALLS if case != NEGATES])
def test_non_numeric_is_a_domain_error(case):
    name = case.split()[0]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} requires"):
        CALLS[case]("abc")


@pytest.mark.parametrize("case", SCALAR_REALS)
@pytest.mark.parametrize("value", [None, np.array([1.0, 2.0])], ids=["None", "array"])
def test_a_scalar_real_still_refuses_none_and_arrays(case, value):
    with pytest.raises(TypeError):
        CALLS[case](value)


@pytest.mark.parametrize("integer", [np.int64, np.intp], ids=["int64", "intp"])
@pytest.mark.parametrize("case", INT_ARGS)
def test_numpy_integer_gives_the_int_result(case, integer):
    call, value = INT_ARGS[case]
    assert repr(call(integer(value))) == repr(call(value))


@pytest.mark.parametrize("value", [True, 2.0, 7.5, "abc"])
@pytest.mark.parametrize("case", INT_ARGS)
def test_bools_floats_and_non_numbers_are_not_integers(case, value):
    call, _ = INT_ARGS[case]
    if case == "SignedLogValue sign":
        expected = pytest.raises(ValueError, match=r"^sign must be -1, 0 or \+1, got ")
    elif case.startswith("MomentSequence"):
        expected = pytest.raises(SequenceError, match="must be an integer")
    else:
        expected = pytest.raises(DomainError, match=f"^{case.split()[0]} requires")
    with expected:
        call(value)


class IndexOnly:
    """An integer to ``operator.index`` alone: no arithmetic, no comparisons."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __index__(self) -> int:
        return self.n


def result_bits(result) -> tuple:
    """A QuadratureResult's sign, log, estimate and term count, bit for bit."""
    value = result.value
    return (type(value.sign), value.sign, value.logmag.hex(), result.est_rel_error.hex(),
            result.nodes_used)


@pytest.mark.parametrize("n", [0, 1, 60, 255])
@pytest.mark.parametrize(
    "integer", [IndexOnly, np.int64, np.uint8, np.array], ids=["__index__", "int64", "uint8", "0-d array"]
)
@pytest.mark.parametrize("call", [integrate_unit_log_power, gamma_derivative])
def test_any_index_integer_gives_the_int_bits(call, integer, n):
    # the int of the argument check, not the argument, takes the parity and the term count
    assert result_bits(call(integer(n))) == result_bits(call(n))


#: The public one-point functions, and log_power_integral on a scalar, with
#: the argument their messages name and the domain a real argument keeps.
ONE_POINT = {
    "integrate_logweighted": (integrate_logweighted, "p", ">= 0"),
    "log_power_integral": (log_power_integral, "p", ">= 0"),
    "lambert_w0": (lambert_w0, "t", ">= 0"),
    "laplace_estimate_exact": (laplace_estimate_exact, "t", "> 0"),
    "laplace_estimate_leading": (laplace_estimate_leading, "t", "> 0"),
    "integrate_unit_log_power": (integrate_unit_log_power, "n", None),
    "gamma_derivative": (gamma_derivative, "n", None),
}

#: The arguments of the one-point differential test.
ONE_POINT_VALUES = {
    "float": 3.5,
    "int": 7,
    "np.float64": np.float64(7.0),
    "bool": True,
    "numeric string": "7",
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "negative": -2,
    "10**400": HUGE,
    "None": None,
    "one-element array": np.array([7.0]),
}


def outcome(call, value):
    """``call(value)``'s result, or its exception's type and message."""
    try:
        return call(value)
    except Exception as exc:
        return type(exc), str(exc)


def float_refusal(name: str, arg: str, value):
    """The exception type and message of float()'s refusal of a real
    argument, or None where float() converts it."""
    try:
        float(value)
    except OverflowError as exc:
        return DomainError, f"{name} requires {arg} to be a number that fits a float: {exc}"
    except TypeError as exc:
        return TypeError, str(exc)
    return None


@pytest.mark.parametrize("kind", ONE_POINT_VALUES)
@pytest.mark.parametrize("name", ONE_POINT)
def test_one_point_arguments_keep_their_results_and_refusals(name, kind):
    # each value gives its plain number's result bit for bit, or the refusal of
    # the argument rules of this module's docstring, type and message text
    call, arg, domain = ONE_POINT[name]
    value = ONE_POINT_VALUES[kind]
    got = outcome(call, value)
    if domain is None:  # an integer argument: of these, 7 alone is one
        if kind == "int":
            assert result_bits(got) == result_bits(call(7))
        elif kind == "10**400":
            assert got == (DomainError, f"{name} requires n to be a number that fits a float: "
                                        "int too large to convert to float")
        else:
            assert got == (DomainError, f"{name} requires an integer n >= 0, got {value!r}")
    elif name == "log_power_integral" and kind in ("None", "one-element array"):
        # np.asarray converts both: None to nan, an array to an array of results
        if kind == "None":
            assert got == (DomainError, "log_power_integral requires finite p >= 0, got nan")
        else:
            assert got.tobytes() == np.array([log_power_integral(7.0)]).tobytes()
    elif (refusal := float_refusal(name, arg, value)) is not None:
        assert got == refusal
    else:
        x = float(value)
        if (x >= 0.0 if domain == ">= 0" else x > 0.0) and x < math.inf:
            want = call(x)
            assert type(got) is type(want) and repr(got) == repr(want)
        else:
            assert got == (DomainError, f"{name} requires finite {arg} {domain}, got {x!r}")
