"""Log-domain tanh-sinh quadrature for the weighted log-power integrals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import momentdet.quadrature as quadrature
from momentdet import (
    DEFAULT_REL_TOL,
    DomainError,
    QuadratureError,
    QuadratureResult,
    SignedLogValue,
    gamma_derivative,
    generate_moments,
    integrate_logweighted,
    integrate_unit_log_power,
    log_power_integral,
    parse_family,
    validate_rel_tol,
)

from .oracles import (
    EULER,
    bisect_w,
    reference_log_gamma,
    reference_log_s,
    reference_log_unit,
    reference_s_shape,
    reference_tanh_sinh,
    simpson_s,
    simpson_unit,
)

# ∫₀^∞ ln(1+x)^p e^{−x} dx, independently computed / published anchors
S1 = 0.596347362323194

EPS = 2.220446049250313e-16

#: Node counts of one panel converged at refinement level L = 4..12.
LEVEL_NODES = {8 * 2**level + 1 for level in range(4, 13)}


def s_value(p: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    return integrate_logweighted(p, rel_tol).value.to_float()


class TestAnchors:
    def test_p_zero_is_one(self):
        res = integrate_logweighted(0.0)
        assert res.value.to_float() == pytest.approx(1.0, rel=1e-12)

    def test_p_one(self):
        assert s_value(1.0) == pytest.approx(S1, abs=1e-10)

    def test_p_two(self):
        assert s_value(2.0) == pytest.approx(0.531930770065, abs=1e-9)

    def test_p_hundred_magnitude(self):
        assert s_value(100.0) == pytest.approx(4.47183580135e41, rel=1e-8)


class TestOracleEquivalence:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 5.0])
    def test_small_p(self, p):
        assert s_value(p) == pytest.approx(simpson_s(p), rel=1e-8)

    def test_p_hundred(self):
        assert s_value(100.0) == pytest.approx(simpson_s(100.0, x_max=150.0), rel=1e-8)


class TestShapeProperties:
    def test_increasing_for_large_p(self):
        values = [integrate_logweighted(float(p)).value.logmag for p in range(3, 40)]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))

    def test_log_convex_in_p(self):
        logs = {p: integrate_logweighted(float(p)).value.logmag for p in range(2, 151)}
        for p in range(3, 150):
            gap = logs[p + 1] + logs[p - 1] - 2.0 * logs[p]
            assert gap >= -1e-8, f"log-convexity violated at p={p}"

    @given(st.floats(min_value=1.0, max_value=150.0))
    def test_random_p_convexity(self, p):
        # midpoint log-convexity on {p, p+1, p+2}
        a = integrate_logweighted(p).value.logmag
        b = integrate_logweighted(p + 1.0).value.logmag
        c = integrate_logweighted(p + 2.0).value.logmag
        assert a + c - 2.0 * b >= -1e-8

    def test_large_p_no_blowup(self):
        res = integrate_logweighted(2000.0)
        assert res.est_rel_error <= DEFAULT_REL_TOL
        assert math.isfinite(res.value.logmag)

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-300, 1e-100])
    def test_subnormal_p_continuous_with_zero(self, p):
        # the peak split must not break when the peak underflows toward 0
        res = integrate_logweighted(p)
        assert res.value.to_float() == pytest.approx(1.0, rel=1e-9)


class TestUnitIntegral:
    def test_n_zero(self):
        res = integrate_unit_log_power(0)
        # ∫₀¹ e^{−t} dt = 1 − e^{−1}
        assert res.value.to_float() == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_n_one_anchor(self):
        res = integrate_unit_log_power(1)
        assert res.value.to_float() == pytest.approx(-0.7965995992970524, abs=1e-9)

    def test_n_six_range(self):
        res = integrate_unit_log_power(6)
        assert res.value.sign == 1
        assert 264.9 <= res.value.to_float() <= 720.0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_sign_and_factorial_bracket(self, n):
        res = integrate_unit_log_power(n)
        assert res.value.sign == (-1) ** n
        log_abs = res.value.logmag
        log_fact = math.lgamma(n + 1)
        assert log_fact - 1.0 - 1e-9 <= log_abs <= log_fact + 1e-9

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_simpson_oracle(self, n):
        res = integrate_unit_log_power(n)
        assert abs(res.value.to_float()) == pytest.approx(simpson_unit(n), rel=1e-8)

    @pytest.mark.parametrize("n", [0, 7, 400, 8192, 8193, 10**9])
    def test_reports_the_series_terms_as_nodes(self, n):
        assert integrate_unit_log_power(n, 1e-3).nodes_used == quadrature._UNIT_TERMS == 20

    def test_orders_across_the_table_batch_as_scalars(self):
        # table entries up to _LOG_FACTORIAL_MAX, Stirling's series above it
        orders = [10**9, 8193, 0, 8192, 8191, 123457, 1]
        logs, ests, nodes = quadrature._log_unit(np.array(orders, dtype=float), 1e-3)
        for i, n in enumerate(orders):
            res = integrate_unit_log_power(n, 1e-3)
            assert res.value == SignedLogValue.from_log(logs[i], sign=(-1) ** n)
            assert (res.est_rel_error, res.nodes_used) == (ests[i], nodes[i])

    def test_no_driver_call(self, monkeypatch):
        def driver(*args):
            raise AssertionError("the unit integral called the tanh-sinh driver")

        monkeypatch.setattr(quadrature, "_tanh_sinh", driver)
        for n in (0, 1, 200, 5000):
            integrate_unit_log_power(n)

    def test_floored_estimate_above_rel_tol_raises(self):
        # eps·ln(10^9)! ≈ 4.4e-6 is above 1e-6; the batch names its lowest such order
        with pytest.raises(DomainError, match=r"p = 1000000000 .*above rel_tol=1\.0e-06"):
            integrate_unit_log_power(10**9, 1e-6)
        with pytest.raises(DomainError, match="p = 300000000 "):
            quadrature._log_unit(np.array([1e9, 5.0, 3e8]), 1e-6)


class TestLogFactorialTable:
    """The ln k! tables hold the same bits at every size, whatever sizes
    were built first."""

    @staticmethod
    def built(sizes):
        """The tables of ``sizes``, built in that order from an empty cache."""
        quadrature._log_factorial_table.cache_clear()
        tables = [quadrature._log_factorial_table(size) for size in sizes]
        for size, table in zip(sizes, tables):
            assert table.size == size
            assert not table.flags.writeable
        return tables

    @pytest.mark.parametrize(
        "sizes",
        [[1, 2, 3, 400, 401, 5000, 8193], [8193, 7, 300], [5, 17, 4096, 4097, 8000, 8192, 8193]],
    )
    def test_entries_depend_on_k_alone(self, sizes):
        [whole] = self.built([quadrature._LOG_FACTORIAL_MAX + 1])
        for table in self.built(sizes):
            assert table.tobytes() == whole[: table.size].tobytes()

    @given(st.lists(st.integers(min_value=0, max_value=8192), min_size=1, max_size=6))
    def test_any_growth_order_gives_the_same_entries(self, tops):
        quadrature._log_factorial_table.cache_clear()
        got = [quadrature._log_factorial(np.float64(top)) for top in tops]
        # one table per power-of-two size, capped at the table's range
        sizes = {min(1 << top.bit_length(), quadrature._LOG_FACTORIAL_MAX + 1) for top in tops}
        assert quadrature._log_factorial_table.cache_info().currsize == len(sizes)
        [whole] = self.built([quadrature._LOG_FACTORIAL_MAX + 1])
        assert np.array(got).tobytes() == whole[tops].tobytes()

    def test_entries_are_ln_k_factorial(self):
        table = quadrature._log_factorial_table(quadrature._LOG_FACTORIAL_MAX + 1)
        assert table.size == quadrature._LOG_FACTORIAL_MAX + 1
        for k in (0, 1, 2, 3, 10, 170, 8192):
            assert table[k] == pytest.approx(math.lgamma(k + 1.0), rel=4 * EPS, abs=4 * EPS)


class TestGammaDerivatives:
    def test_gamma_0(self):
        assert gamma_derivative(0).value.to_float() == pytest.approx(1.0, abs=1e-12)

    def test_gamma_1(self):
        assert gamma_derivative(1).value.to_float() == pytest.approx(-EULER, abs=1e-8)

    def test_gamma_2(self):
        expected = EULER**2 + math.pi**2 / 6.0
        assert gamma_derivative(2).value.to_float() == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_decomposition_matches_oracles(self, n):
        got = gamma_derivative(n).value.to_float()
        expected = (-1.0) ** n * simpson_unit(n) + math.exp(-1.0) * simpson_s(float(n))
        assert got == pytest.approx(expected, rel=1e-8)


class TestValidation:
    @pytest.mark.parametrize("rel_tol", [1e-14, 1e-2, 0.0, -1e-5, 1.0])
    def test_rel_tol_out_of_range(self, rel_tol):
        with pytest.raises(DomainError):
            validate_rel_tol(rel_tol)
        with pytest.raises(DomainError):
            integrate_logweighted(1.0, rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [1e-13, 1e-3, 1e-9])
    def test_rel_tol_in_range(self, rel_tol):
        assert validate_rel_tol(rel_tol) == rel_tol
        integrate_logweighted(1.0, rel_tol=rel_tol)

    @pytest.mark.parametrize("p", [-0.5, math.nan, math.inf])
    def test_invalid_p(self, p):
        with pytest.raises(DomainError):
            integrate_logweighted(p)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_invalid_unit_order(self, n):
        with pytest.raises(DomainError):
            integrate_unit_log_power(n)
        with pytest.raises(DomainError):
            gamma_derivative(n)

    def test_order_beyond_float_range(self):
        for fn in (integrate_unit_log_power, gamma_derivative, log_power_integral):
            with pytest.raises(DomainError, match="too large"):
                fn(10**400)

    def test_result_field_validation(self):
        # each invariant of a result and of its value rejects, whether the
        # value arrives as the int and float the package builds or as numpy
        # scalars, which are converted
        rejected = [
            ((2, 1.0), "sign must be"),
            ((np.int64(-2), 1.0), "sign must be"),
            ((True, 1.0), "sign must be"),
            ((np.bool_(False), -math.inf), "sign must be"),
            ((1.0, 1.0), "sign must be"),
            ((1, math.nan), "logmag must be"),
            ((1, np.float64(math.nan)), "logmag must be"),
            ((-1, math.inf), "logmag must be"),
            ((0, 1.0), "zero must be"),
            ((np.int8(0), np.float64(1.0)), "zero must be"),
            ((1, -math.inf), "zero must be"),
        ]
        for (sign, logmag), message in rejected:
            with pytest.raises(ValueError, match=message):
                SignedLogValue(sign, logmag)
        for est, nodes, message in [
            (-0.1, 10, "est_rel_error"),
            (math.nan, 10, "est_rel_error"),
            (-math.inf, 10, "est_rel_error"),
            (0.0, 0, "nodes_used"),
            (1e-9, -3, "nodes_used"),
        ]:
            with pytest.raises(ValueError, match=message):
                QuadratureResult(SignedLogValue.one(), est, nodes)
        value = SignedLogValue(np.int64(-1), np.float64(2.5))
        assert (type(value.sign), type(value.logmag)) == (int, float)
        assert value == SignedLogValue(-1, 2.5)
        assert SignedLogValue(np.int64(0), np.float64(-math.inf)) == SignedLogValue.zero()
        assert QuadratureResult(value, 0.0, 1).est_rel_error == 0.0


class TestErrorEstimates:
    @pytest.mark.parametrize("p", [0.5, 1.0, 10.0, 100.0])
    def test_estimate_within_request(self, p):
        for rel_tol in (1e-6, 1e-9, 1e-12):
            res = integrate_logweighted(p, rel_tol=rel_tol)
            assert res.est_rel_error <= rel_tol

    @pytest.mark.parametrize("p", [0.0, 2.0, 100.0, 1000.0, 1e5])
    def test_estimate_never_below_float_resolution(self, p):
        # levels that agree bit for bit still leave the rounding of log S
        res = integrate_logweighted(p)
        assert res.est_rel_error >= EPS * max(1.0, abs(res.value.logmag))

    @pytest.mark.parametrize("n", [0, 1, 60, 200])
    def test_gamma_estimate_floor(self, n):
        res = gamma_derivative(n)
        assert res.est_rel_error >= EPS * max(1.0, abs(res.value.logmag))

    def test_tighter_tolerance_costs_more_nodes(self):
        loose = integrate_logweighted(5.0, rel_tol=1e-4)
        tight = integrate_logweighted(5.0, rel_tol=1e-12)
        assert tight.nodes_used >= loose.nodes_used


class TestDeterminism:
    def test_identical_bits_on_repeat(self):
        a = integrate_logweighted(7.5)
        b = integrate_logweighted(7.5)
        assert a.value == b.value
        assert a.est_rel_error == b.est_rel_error
        assert a.nodes_used == b.nodes_used

    def test_log_power_integral_matches_full_result(self):
        assert log_power_integral(3.0) == integrate_logweighted(3.0).value.logmag

    def test_log_power_integral_cached_identity(self):
        assert log_power_integral(11.0) == log_power_integral(11.0)


class TestBatchedPath:
    def test_scalar_in_float_out(self):
        assert isinstance(log_power_integral(3.0), float)

    def test_array_in_array_out(self):
        ps = np.array([[0.0, 0.5, 3.0], [100.0, 1000.0, 4000.0]])
        got = log_power_integral(ps)
        assert got.shape == ps.shape
        for p, lg in zip(ps.ravel(), got.ravel()):
            expected = integrate_logweighted(float(p)).value.logmag
            assert abs(lg - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_invalid_p_in_array(self, bad):
        with pytest.raises(DomainError):
            log_power_integral(np.array([1.0, bad]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1e17, 1e20, 1e308])
    def test_p_beyond_float_resolution(self, p):
        # eps·|log integrand| exceeds the 60-nat cutoff window there
        with pytest.raises(DomainError, match="float rounding"):
            integrate_logweighted(p)

    def test_estimate_above_rel_tol_raises(self):
        # the floored estimate of log S(1e10) is ~6.5e-6, far above 1e-9
        with pytest.raises(DomainError, match=r"p = 10000000000 .*above rel_tol=1\.0e-09"):
            integrate_logweighted(1e10)

    def test_estimate_above_rel_tol_names_the_lowest_p(self):
        with pytest.raises(DomainError, match="p = 10000000000 "):
            log_power_integral(np.array([5e10, 1.0, 1e10]))

    #: Per last level: a rel_tol, and two orders both unconverged at that
    #: level, the higher first, whose lower one the error must name.
    UNCONVERGED = {4: (DEFAULT_REL_TOL, [300.0, 7.0], "7"), 5: (1e-12, [1579.0, 1543.0], "1543")}

    @pytest.mark.parametrize("max_level", UNCONVERGED)
    def test_unconverged_batch_names_the_lowest_p(self, monkeypatch, max_level):
        rel_tol, ps, lowest = self.UNCONVERGED[max_level]
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", max_level)
        with pytest.raises(QuadratureError, match=f"the integral for p = {lowest} did not converge"):
            quadrature._log_s_quadrature(np.array(ps), rel_tol)


#: Batches of orders for the batch/scalar comparisons.
ORDER_SETS = st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=12)

#: Batches of p for S: zero, subnormals, integers and reals up to 1e5.
P_SETS = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2.2250738585072014e-308, exclude_max=True),
        st.integers(min_value=0, max_value=100_000).map(float),
        st.floats(min_value=0.0, max_value=1e5),
    ),
    min_size=1,
    max_size=12,
)


class TestRowIndependence:
    """Each row of a batch is the value its scalar wrapper gives, bit for bit."""

    @given(P_SETS)
    def test_s_batch_equals_scalar_calls(self, ps):
        logs, ests, nodes = quadrature._log_s(np.array(ps), DEFAULT_REL_TOL)
        for i, p in enumerate(ps):
            res = integrate_logweighted(p)
            assert res.value == SignedLogValue.from_log(logs[i])
            assert (res.est_rel_error, res.nodes_used) == (ests[i], nodes[i])
            assert log_power_integral(p) == logs[i]

    @given(ORDER_SETS)
    def test_unit_batch_equals_scalar_calls(self, orders):
        logs, ests, nodes = quadrature._log_unit(np.array(orders, dtype=float), DEFAULT_REL_TOL)
        for i, n in enumerate(orders):
            res = integrate_unit_log_power(n)
            assert res.value == SignedLogValue.from_log(logs[i], sign=(-1) ** n)
            assert (res.est_rel_error, res.nodes_used) == (ests[i], nodes[i])

    @given(ORDER_SETS)
    def test_gamma_batch_equals_scalar_calls(self, orders):
        (signs, logs, ests, nodes), (unit_logs, _, _) = quadrature._log_gamma(
            np.array(orders, dtype=float), DEFAULT_REL_TOL
        )
        for i, n in enumerate(orders):
            res = gamma_derivative(n)
            assert res.value == SignedLogValue.from_log(logs[i], sign=int(signs[i]))
            assert (res.est_rel_error, res.nodes_used) == (ests[i], nodes[i])
            assert integrate_unit_log_power(n).value.logmag == unit_logs[i]


class TestShapeMatchesReference:
    """``_s_shape`` gives the bits of ``oracles.reference_s_shape``, for a
    batch and for each p alone.  The batch-equals-scalar tests cannot see a
    change that moves both paths alike; this test can."""

    @staticmethod
    def assert_same_bits(p):
        for got, want in zip(quadrature._s_shape(p), reference_s_shape(p)):
            assert type(got) is type(want)
            assert got.tobytes() == want.tobytes()

    @given(P_SETS)
    def test_batches_and_scalars(self, ps):
        self.assert_same_bits(np.array(ps))
        for p in ps:
            self.assert_same_bits(np.float64(p))

    @pytest.mark.parametrize("p", [-0.0, 0.0, 5e-324, 1e-300, 2e6, 1e17, 3e17, 1e300, 1.7e308])
    def test_signed_zero_and_the_overflowing_range(self, p):
        # p = −0.0 passes the p >= 0 check; near the float maximum the
        # reach and the tangent steps overflow.  _s_shape has no guard of
        # its own: _log_s_quadrature rejects every p from about 1e17 on
        # before calling it (TestNoWarnings), so the guard is the test's
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.assert_same_bits(np.float64(p))
            self.assert_same_bits(np.array([p, 1.0]))


class TestNoWarnings:
    """``_log_s_quadrature`` warns for no p, accepted or rejected."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [0.0, -0.0, 5e-324, 1e-320, 0.5, 30.0, 1e5])
    def test_accepted_orders(self, p):
        for ps in (np.float64(p), np.array([p, 1.0])):
            log, est, nodes = quadrature._log_s_quadrature(ps, DEFAULT_REL_TOL)
            assert np.isfinite(log).all() and (est > 0.0).all() and (nodes > 0).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1e17, 4.3e32, 1e300, 1.7e308])
    def test_orders_past_the_window_raise_first(self, p):
        for ps in (np.float64(p), np.array([1.0, p])):
            with pytest.raises(DomainError, match="float rounding exceeds"):
                quadrature._log_s_quadrature(ps, DEFAULT_REL_TOL)


class TestIntegralsMatchReference:
    """``_log_s_quadrature``, ``_log_unit`` and ``_log_gamma`` (with S by
    quadrature at every order) give the bits of ``oracles.reference_log_s``,
    ``reference_log_unit`` and ``reference_log_gamma``, for a batch and for
    each order alone.  The
    batch-equals-scalar tests cannot see a change that moves the finishing
    arithmetic of both paths alike; these tests can."""

    @staticmethod
    def assert_same_bits(integral, reference, orders, rel_tol=DEFAULT_REL_TOL):
        orders = np.array(orders, dtype=float)
        want = reference(orders, rel_tol)
        for g, w in zip(integral(orders, rel_tol), want, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for i, order in enumerate(orders):
            got = integral(order, rel_tol)  # a float64 scalar, as a one-point call passes
            for g, w in zip(got, want, strict=True):
                assert np.ndim(g) == 0 and g.dtype == w.dtype
                assert g.tobytes() == w[i].tobytes()

    @staticmethod
    def log_gamma(n, rel_tol):
        return quadrature._log_gamma(n, rel_tol)[0]

    @given(P_SETS, st.sampled_from([1e-4, DEFAULT_REL_TOL]))
    def test_s(self, ps, rel_tol):
        self.assert_same_bits(quadrature._log_s_quadrature, reference_log_s, ps, rel_tol)

    @given(ORDER_SETS)
    def test_unit(self, orders):
        self.assert_same_bits(quadrature._log_unit, reference_log_unit, orders)

    @given(ORDER_SETS)
    def test_gamma(self, orders):
        # S(n) by quadrature at every order, as the reference takes it
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_log_s", quadrature._log_s_quadrature)
            self.assert_same_bits(self.log_gamma, reference_log_gamma, orders)

    @pytest.mark.parametrize("rel_tol", [1e-4, DEFAULT_REL_TOL])
    def test_signed_zero_subnormal_and_the_first_orders(self, rel_tol):
        # p = −0.0 passes the p >= 0 check, and S(0) = 1 takes the p = 0 branch
        # of the peak's log; S(n) by quadrature, as the references take it
        self.assert_same_bits(
            quadrature._log_s_quadrature, reference_log_s, [-0.0, 0.0, 5e-324], rel_tol
        )
        self.assert_same_bits(quadrature._log_unit, reference_log_unit, [0, 1], rel_tol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_log_s", quadrature._log_s_quadrature)
            self.assert_same_bits(self.log_gamma, reference_log_gamma, [0, 1], rel_tol)


def driver_calls(integral, orders, rel_tol):
    """The argument tuples ``integral`` (such as ``_log_s_quadrature``) hands
    ``_tanh_sinh`` for ``orders``, each with the driver's result."""
    calls, real = [], quadrature._tanh_sinh

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_tanh_sinh", spy)
        try:
            integral(np.array(orders, dtype=float), rel_tol)
        except DomainError:  # a floored estimate above a tight rel_tol; the driver ran
            pass
    return calls


#: Tolerances whose panels stop at levels 4 to 6, with both first-sweep depths.
SWEEP_TOLS = [1e-4, 1e-6, 1e-8, 1e-9, 1e-12]


class TestFirstSweep:
    """The driver's first sweep evaluates several levels in one array pass;
    its results are those of one pass per level, bit for bit."""

    @staticmethod
    def assert_matches_reference(calls):
        for args, (scaled, errs, nodes) in calls:
            want = reference_tanh_sinh(*args)
            assert scaled.tobytes() == want[0].tobytes()
            assert errs.tobytes() == want[1].tobytes()
            assert nodes.tolist() == want[2].tolist()

    @given(st.lists(st.floats(min_value=0.0, max_value=3000.0), min_size=1, max_size=8),
           st.sampled_from(SWEEP_TOLS))
    def test_s_panels_match_one_pass_per_level(self, ps, rel_tol):
        self.assert_matches_reference(driver_calls(quadrature._log_s_quadrature, ps, rel_tol))

    def test_panels_stop_at_levels_four_to_six(self):
        # S(2000)'s left panel at rel_tol 1e-12 goes past the first sweep, to level 6
        levels = set()
        for rel_tol in SWEEP_TOLS:
            orders = [0.0, 0.5, 7.0, 300.0, 1578.0] + [2000.0] * (rel_tol == 1e-12)
            calls = driver_calls(quadrature._log_s_quadrature, orders, rel_tol)
            self.assert_matches_reference(calls)
            levels.update(int(n - 1).bit_length() - 4 for _, (_, _, ns) in calls for n in ns)
        assert levels == {4, 5, 6}

    def test_rows_stopping_in_different_later_passes(self):
        # a kink inside the panel: rows stop at levels 4, 4, 4, 5, 5, 5, 8 and 9
        p = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
        args = (lambda x, p: -p * np.abs(x - 0.3), np.zeros(8), np.ones(8), p, np.zeros(8), 1e-4)
        result = quadrature._tanh_sinh(*args)
        self.assert_matches_reference([(args, result)])
        assert [int(n - 1).bit_length() - 4 for n in result[2]] == [4, 4, 4, 5, 5, 5, 8, 9]

    @pytest.mark.parametrize("max_level", [4, 5, 6])
    @pytest.mark.parametrize("tol", [1e-4, 1e-9])
    def test_unconverged_error_matches_reference(self, monkeypatch, max_level, tol):
        # a kink inside the panel: tanh-sinh converges too slowly for any level
        args = (
            lambda x, p: -p * np.abs(x - 0.3),
            np.zeros(3),
            np.ones(3),
            np.array([300.0, 30.0, 100.0]),
            np.zeros(3),
            tol,
        )
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", max_level)
        with pytest.raises(QuadratureError) as want:
            reference_tanh_sinh(*args)
        with pytest.raises(QuadratureError, match="p = 30 ") as got:
            quadrature._tanh_sinh(*args)
        assert str(got.value) == str(want.value)
        assert got.value.partial == want.value.partial


class TestOnePass:
    """At the default rel_tol every driver call of the benchmark's kinds of
    traffic, with S(p) by quadrature, stops in its first pass, which is
    then the whole result."""

    @staticmethod
    def driver_passes(run):
        """Each ``_tanh_sinh`` call ``run`` makes, with its result, and the
        number of ``_level_sums`` passes it took."""
        calls, passes = [], []
        driver, level_sums = quadrature._tanh_sinh, quadrature._level_sums

        def driver_spy(*args):
            passes.append(0)
            calls.append((args, driver(*args)))
            return calls[-1][1]

        def level_sums_spy(*args):
            passes[-1] += 1
            return level_sums(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "_tanh_sinh", driver_spy)
            patch.setattr(quadrature, "_level_sums", level_sums_spy)
            run()
        return calls, passes

    @pytest.mark.parametrize(
        "run",
        [
            lambda: [integrate_logweighted(t) for t in np.geomspace(0.5, 4000.0, 64).tolist()],
            lambda: [f(n) for n in range(201) for f in (gamma_derivative, integrate_unit_log_power)],
            lambda: generate_moments(parse_family("product[(1,0.63),(1,0.81)]"), 2000),
        ],
        ids=["s-points", "gamma-and-unit-points", "generation"],
    )
    def test_default_tolerance_stops_in_the_first_pass(self, monkeypatch, run):
        # S(p) by quadrature at every order, as the CLI asym takes it
        monkeypatch.setattr(quadrature, "_log_s", quadrature._log_s_quadrature)
        calls, passes = self.driver_passes(run)
        assert calls and passes == [1] * len(calls)
        TestFirstSweep.assert_matches_reference(calls)

    def test_gamma_derivative_makes_one_driver_call(self, monkeypatch):
        # S(n) alone, here by quadrature at every order: the unit integral
        # comes from its series
        monkeypatch.setattr(quadrature, "_log_s", quadrature._log_s_quadrature)
        calls, _ = self.driver_passes(lambda: [gamma_derivative(n) for n in range(201)])
        assert len(calls) == 201


class TestNodeCounts:
    @pytest.mark.parametrize("tol", [1e-4, 1e-9, 1e-13])
    def test_one_panel_reports_its_level_nodes(self, tol):
        # ∫₀^60 e^{−x} dx: nested levels evaluate 8·2^L + 1 nodes in all
        _, _, nodes = quadrature._tanh_sinh(
            lambda x, p: -x, np.array([0.0]), np.array([60.0]), np.zeros(1), np.zeros(1), tol
        )
        assert nodes[0] in LEVEL_NODES

    def test_tighter_panel_tolerance_reaches_a_deeper_level(self):
        def nodes(tol):
            return quadrature._tanh_sinh(
                lambda x, p: p * np.log(x) - x,
                np.array([0.0]),
                np.array([80.0]),
                np.array([0.5]),
                np.zeros(1),
                tol,
            )[2][0]

        assert nodes(1e-13) > nodes(1e-4)

    @pytest.mark.parametrize("p", [0.0, 0.5, 7.0, 300.0, 5000.0])
    def test_two_panels_report_two_levels(self, p):
        nodes = quadrature._log_s_quadrature(np.float64(p), DEFAULT_REL_TOL)[2]
        assert any(nodes - left in LEVEL_NODES for left in LEVEL_NODES)


def _s_log_integrand(p: float, x: float) -> float:
    return -x if p == 0.0 else p * math.log(math.log1p(x)) - x


class TestCutoff:
    # The peak comes from the bisection oracle and its value is at most the
    # true maximum, so these checks are at least as strict as the contract.

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_s_cutoff_lies_past_the_drop(self, p):
        ps = np.array([p])
        cut = float(quadrature._s_shape(ps)[2][0])
        peak_log = _s_log_integrand(p, math.expm1(bisect_w(p)))
        drop = peak_log - _s_log_integrand(p, cut)
        assert 60.0 <= drop <= 61.0
