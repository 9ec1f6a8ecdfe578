"""The weighted log-power integrals S(p), the unit integral and Γ⁽ⁿ⁾(1),
in the log domain."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import momentdet.quadrature as quadrature
from momentdet import (
    DomainError,
    QuadratureResult,
    SignedLogValue,
    gamma_derivative,
    integrate_logweighted,
    integrate_unit_log_power,
    log_power_integral,
)
from momentdet.lambertw import _halley

from .oracles import (
    EULER,
    reference_floor,
    reference_gamma_error,
    reference_log_gamma,
    reference_log_factorial,
    reference_log_unit,
    reference_sigma,
    s_terms,
    simpson_s,
    simpson_unit,
)

# ∫₀^∞ ln(1+x)^p e^{−x} dx, independently computed / published anchors
S1 = 0.596347362323194

EPS = 2.220446049250313e-16


def s_value(p: float) -> float:
    return integrate_logweighted(p).value.to_float()


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
        assert res.est_rel_error <= quadrature._ACCURACY
        assert math.isfinite(res.value.logmag)

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-300, 1e-100])
    def test_subnormal_p_continuous_with_zero(self, p):
        # S(p) tends to S(0) = 1, subnormal p included
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

    @pytest.mark.parametrize("n", [0, 7, 400, 8192, 8193, 300_000])
    def test_reports_the_series_terms_as_nodes(self, n):
        assert integrate_unit_log_power(n).nodes_used == quadrature._UNIT_TERMS == 20

    def test_orders_across_the_table_batch_as_scalars(self):
        # table entries up to _UNIT_TABLE_MAX, Stirling's series above it
        orders = [300_000, 8193, 0, 8192, 8191, 123457, 1]
        logs = quadrature._log_unit(np.array(orders, dtype=float))
        for i, n in enumerate(orders):
            res = integrate_unit_log_power(n)
            assert res.value == SignedLogValue.from_log(logs[i], sign=(-1) ** n)
            assert (res.est_rel_error, res.nodes_used) == (reference_floor(logs[i]), 20)

    def test_every_order_of_the_table_gives_its_batch_bits(self):
        # one order up to _UNIT_TABLE_MAX reads its entry by its int and skips the
        # accuracy check, which no such order fails; 8193 takes Stirling's ln n!
        logs = quadrature._log_unit(np.arange(quadrature._UNIT_TABLE_MAX + 1.0))
        for n, log in enumerate(logs.tolist()):
            res = integrate_unit_log_power(n)
            assert (res.value.sign, res.value.logmag.hex(), res.est_rel_error) == (
                (-1) ** n, log.hex(), reference_floor(log)), n
        res = integrate_unit_log_power(8193)
        assert (res.value.sign, res.value.logmag.hex(), res.est_rel_error) == (
            -1, "0x1.0067d66bc11f7p+16", reference_floor(65639.83758170145))

    def test_floored_estimate_above_the_accuracy_raises(self):
        # eps·ln(10^9)! ≈ 4.4e-6 is above 1e-9; the batch names its lowest such order
        with pytest.raises(DomainError, match=r"n = 1000000000 .*above 1e-09"):
            integrate_unit_log_power(10**9)
        with pytest.raises(DomainError, match="n = 300000000 "):
            quadrature._log_unit(np.array([1e9, 5.0, 3e8]))

    def test_the_first_refused_order_as_one_point_and_in_a_batch(self):
        # 380,107 is the last order whose floored estimate keeps 1e-9: a one-point
        # call tests its floor on a Python float, and 380,108 goes on to the raise
        assert integrate_unit_log_power(380_107).est_rel_error <= quadrature._ACCURACY
        assert gamma_derivative(380_107).est_rel_error <= quadrature._ACCURACY
        message = ("the integral for n = 380108 has a floored error estimate 1e-09 above 1e-09, "
                   "the accuracy every result keeps (its log, 4.50361e+06, is too coarse in a float)")
        for call in (integrate_unit_log_power, gamma_derivative,
                     lambda n: quadrature._log_unit(np.array([n, 380_107.0]))):
            with pytest.raises(DomainError) as info:
                call(380_108)
            assert str(info.value) == message


class TestLogFactorialTable:
    """The unit integral's tables, of ln k! + ln σₖ (ln k! alone from k = 53
    on), hold the same bits at every size, whatever sizes were built first."""

    @staticmethod
    def built(sizes):
        """The tables of ``sizes``, built in that order from an empty cache."""
        quadrature._log_unit_table.cache_clear()
        tables = [quadrature._log_unit_table(size) for size in sizes]
        for size, table in zip(sizes, tables):
            assert table.size == size
            assert not table.flags.writeable
        return tables

    @pytest.mark.parametrize(
        "sizes",
        [[1, 2, 3, 400, 401, 5000, 8193], [8193, 7, 300], [5, 17, 4096, 4097, 8000, 8192, 8193]],
    )
    def test_entries_depend_on_k_alone(self, sizes):
        [whole] = self.built([quadrature._UNIT_TABLE_MAX + 1])
        for table in self.built(sizes):
            assert table.tobytes() == whole[: table.size].tobytes()

    @given(st.lists(st.integers(min_value=0, max_value=8192), min_size=1, max_size=6))
    def test_any_growth_order_gives_the_same_entries(self, tops):
        quadrature._log_unit_table.cache_clear()
        got = [quadrature._log_unit(np.float64(top)) for top in tops]
        # one table per power-of-two size, capped at the table's range
        sizes = {min(1 << top.bit_length(), quadrature._UNIT_TABLE_MAX + 1) for top in tops}
        assert quadrature._log_unit_table.cache_info().currsize == len(sizes)
        [whole] = self.built([quadrature._UNIT_TABLE_MAX + 1])
        assert np.array(got).tobytes() == whole[tops].tobytes()

    def test_entries_are_ln_k_factorial(self):
        # the ln k! part: ln σₖ taken off below k = 53, and 0.0 from there on
        table = quadrature._log_unit_table(quadrature._UNIT_TABLE_MAX + 1)
        assert table.size == quadrature._UNIT_TABLE_MAX + 1
        ks = [0, 1, 2, 3, 10, 52, 53, 170, 8192]
        parts = table[ks] - np.log(reference_sigma(np.array(ks, dtype=float)))
        for k, part in zip(ks, parts.tolist()):
            assert part == pytest.approx(math.lgamma(k + 1.0), rel=4 * EPS, abs=4 * EPS)

    def test_entries_are_ln_k_factorial_plus_ln_sigma(self):
        table = quadrature._log_unit_table(quadrature._UNIT_TABLE_MAX + 1)
        ks = np.arange(quadrature._UNIT_TABLE_MAX + 1.0)
        want = reference_log_factorial(quadrature._UNIT_TABLE_MAX) + np.log(reference_sigma(ks))
        assert table.tobytes() == want.tobytes()


class TestSigmaIsOneFrom53:
    """σₙ rounds to exactly 1.0 from n = _SIGMA_ONE_FROM on, so the unit
    integral's log there is ln n!: the table stops adding ln σₙ at 53, and
    above it _log_unit is Stirling's ln n! alone."""

    def test_sigma_is_one_from_53_to_the_table_top(self):
        assert quadrature._SIGMA_ONE_FROM == 53
        sigma = reference_sigma(np.arange(52.0, quadrature._UNIT_TABLE_MAX + 1.0))
        assert sigma[0] != 1.0
        assert np.all(sigma[1:] == 1.0)

    def test_above_the_table_stirling_plus_ln_sigma(self):
        orders = np.array(sorted({*np.geomspace(8193, 379_999, 30).round().tolist(),
                                  8193.0, 8194.0, 9060.0, 123457.0, 379_999.0}))
        want = np.array([quadrature._stirling_log_factorial(int(n)) for n in orders])
        want += np.log(reference_sigma(orders))
        assert quadrature._log_unit(orders).tobytes() == want.tobytes()
        for n, log in zip(orders, want):
            assert quadrature._log_unit(n).tobytes() == log.tobytes(), n


class TestGammaTable:
    """Γ⁽ⁿ⁾(1)'s sign, log and estimate are read from a table by one order up
    to _UNIT_TABLE_MAX and evaluated above it and by a batch, with the bits
    each order gets from ``_gamma_columns`` alone, on both routes and across
    them."""

    @staticmethod
    def built(sizes):
        """The tables of ``sizes``, built in that order from an empty cache."""
        quadrature._gamma_table.cache_clear()
        tables = [quadrature._gamma_table(size) for size in sizes]
        for size, table in zip(sizes, tables):
            assert table.shape == (3, size)
            assert not table.flags.writeable
        return tables

    @staticmethod
    def read(n):
        """``gamma_derivative(n)``'s sign, log and estimate, as a column."""
        result = gamma_derivative(n)
        return np.array([result.value.sign, result.value.logmag, result.est_rel_error])

    @staticmethod
    def column(n):
        """Order n's column of the table that holds it."""
        return quadrature._gamma_table(quadrature._table_size(n))[:, n]

    def test_orders_across_the_table_top(self):
        top = quadrature._UNIT_TABLE_MAX
        for orders in ([top - 1, top, top + 1], [top + 1, 150, top, 0, top - 1], [top, top - 1]):
            batch = quadrature._gamma_columns(np.array(orders, dtype=float))
            for i, n in enumerate(orders):
                want = quadrature._gamma_columns(np.float64(n))
                assert want.shape == (3,) and want.dtype == np.float64
                assert self.read(n).tobytes() == batch[:, i].tobytes() == want.tobytes(), n
                if n <= top:
                    assert self.column(n).tobytes() == want.tobytes(), n

    def test_every_order_of_the_table_reads_what_it_gets_alone(self):
        for n in range(quadrature._UNIT_TABLE_MAX + 1):
            want = quadrature._gamma_columns(np.float64(n)).tobytes()
            assert self.read(n).tobytes() == self.column(n).tobytes() == want, n

    @pytest.mark.parametrize("sizes", [[8, 8193], [8193, 8]])
    def test_entries_depend_on_k_alone(self, sizes):
        small, whole = sorted(self.built(sizes), key=lambda table: table.shape[1])
        assert small.tobytes() == whole[:, : small.shape[1]].tobytes()

    def test_every_estimate_is_the_reference_estimate(self):
        # through 8193, the first order above the table
        _, *logs = quadrature._log_gamma(np.arange(quadrature._UNIT_TABLE_MAX + 2.0))
        for n, est in enumerate(reference_gamma_error(*logs).tolist()):
            assert gamma_derivative(n).est_rel_error == est, n

    def test_every_table_is_read_only(self):
        quadrature._gamma_table.cache_clear()
        for n in (0, 1, 150, 4000, quadrature._UNIT_TABLE_MAX):
            gamma_derivative(n)
        # a batch evaluates its own orders and builds no table
        quadrature._log_gamma(np.arange(300.0))
        quadrature._gamma_columns(np.arange(300.0))
        assert quadrature._gamma_table.cache_info().currsize == 5
        for size in (1, 2, 256, 4096, quadrature._UNIT_TABLE_MAX + 1):
            table = quadrature._gamma_table(size)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_a_first_one_point_call_builds_tables_of_its_size(self, monkeypatch):
        # n = 150 needs 256 rows, and neither table is built larger on the way
        sizes = []
        for name in ("_gamma_table", "_log_unit_table"):
            build = getattr(quadrature, name)
            build.cache_clear()
            monkeypatch.setattr(quadrature, name,
                                lambda size, build=build, name=name:
                                sizes.append((name, size)) or build(size))
        gamma_derivative(150)
        assert sizes == [("_gamma_table", 256), ("_log_unit_table", 256)]


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

    @pytest.mark.parametrize(
        "est, nodes, message",
        [
            (math.nan, 20, "est_rel_error must be >= 0, got nan"),
            (-0.1, 20, "est_rel_error must be >= 0, got -0.1"),
            (np.float64(-1e-300), 0, f"est_rel_error must be >= 0, got {np.float64(-1e-300)!r}"),
            (1e-15, 0, "nodes_used must be positive, got 0"),
            (0.0, -3, "nodes_used must be positive, got -3"),
        ],
    )
    def test_each_result_refusal_keeps_its_type_and_message(self, est, nodes, message):
        # the estimate is checked before the term count
        with pytest.raises(ValueError) as info:
            QuadratureResult(SignedLogValue.one(), est, nodes)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_a_result_is_a_frozen_dataclass(self, assert_frozen_record):
        result = integrate_unit_log_power(7)
        assert_frozen_record(result, nodes_used=24)
        assert_frozen_record(result, value=SignedLogValue.one())
        assert repr(result) == (f"QuadratureResult(value={result.value!r}, "
                                f"est_rel_error={result.est_rel_error!r}, nodes_used=20)")
        # the record stores what it is given: a numpy estimate stays one
        kept = QuadratureResult(value=result.value, nodes_used=20, est_rel_error=np.float64(0.5))
        assert type(kept.est_rel_error) is np.float64 and kept == dataclasses.replace(result, est_rel_error=0.5)
        with pytest.raises(ValueError, match="^nodes_used must be positive, got 0$"):
            dataclasses.replace(result, nodes_used=0)


class TestErrorEstimates:
    @pytest.mark.parametrize("p", [0.5, 1.0, 10.0, 100.0])
    def test_estimate_within_the_accuracy(self, p):
        assert integrate_logweighted(p).est_rel_error <= quadrature._ACCURACY

    @pytest.mark.parametrize("p", [0.0, 2.0, 100.0, 1000.0, 1e5])
    def test_estimate_never_below_float_resolution(self, p):
        # a value exact to rounding still leaves the rounding of log S
        res = integrate_logweighted(p)
        assert res.est_rel_error >= EPS * max(1.0, abs(res.value.logmag))

    @pytest.mark.parametrize("n", [0, 1, 60, 200])
    def test_gamma_estimate_floor(self, n):
        res = gamma_derivative(n)
        assert res.est_rel_error >= EPS * max(1.0, abs(res.value.logmag))


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
        # a float rounds the log-integrand's peak by 60 nats or more there
        with pytest.raises(DomainError, match="a float rounds by 60 nats"):
            integrate_logweighted(p)

    def test_estimate_above_the_accuracy_raises(self):
        # the floored estimate of log S(1e10) is ~6.5e-6, far above 1e-9
        with pytest.raises(DomainError, match=r"p = 10000000000 .*above 1e-09"):
            integrate_logweighted(1e10)

    def test_estimate_above_the_accuracy_names_the_lowest_p(self):
        with pytest.raises(DomainError, match="p = 10000000000 "):
            log_power_integral(np.array([5e10, 1.0, 1e10]))


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
    """Each row of a batch is the value its scalar wrapper gives, bit for
    bit, and the public estimate is the floor of the batch's log."""

    @given(P_SETS)
    def test_s_batch_equals_scalar_calls(self, ps):
        logs = quadrature._log_s(np.array(ps))
        for i, p in enumerate(ps):
            res = integrate_logweighted(p)
            assert res.value == SignedLogValue.from_log(logs[i])
            assert (res.est_rel_error, res.nodes_used) == (reference_floor(logs[i]), s_terms(p))
            assert log_power_integral(p) == logs[i]

    @given(ORDER_SETS)
    def test_unit_batch_equals_scalar_calls(self, orders):
        logs = quadrature._log_unit(np.array(orders, dtype=float))
        for i, n in enumerate(orders):
            res = integrate_unit_log_power(n)
            assert res.value == SignedLogValue.from_log(logs[i], sign=(-1) ** n)
            assert (res.est_rel_error, res.nodes_used) == (reference_floor(logs[i]), 20)

    @given(ORDER_SETS)
    def test_gamma_batch_equals_scalar_calls(self, orders):
        signs, logs, unit_logs, s_logs = quadrature._log_gamma(np.array(orders, dtype=float))
        ests = reference_gamma_error(logs, unit_logs, s_logs)
        for i, n in enumerate(orders):
            res = gamma_derivative(n)
            assert res.value == SignedLogValue.from_log(logs[i], sign=int(signs[i]))
            assert (res.est_rel_error, res.nodes_used) == (ests[i], 20 + s_terms(n))
            assert integrate_unit_log_power(n).value.logmag == unit_logs[i]
            assert log_power_integral(n) == s_logs[i]


class TestOnePointBits:
    """A one-point S(p) runs on Python floats, with numpy's ufuncs called on
    them, and gives the bits a batch gives each of its orders."""

    def test_halley_on_floats_gives_the_array_bits(self):
        # seeded bit patterns of positive finite floats, subnormals included, and both ends
        rng = np.random.default_rng(3901)
        t = rng.integers(1, 0x7FF0000000000000, 100_000, dtype=np.uint64).view(float)
        t = np.concatenate([t, [5e-324, 1.7976931348623157e308]])
        got = [_halley(x, quadrature._FLOAT_UFUNCS) for x in t.tolist()]
        assert all(type(w) is float for w in got)
        assert np.array(got).tobytes() == _halley(t, np).tobytes()

    def test_one_point_log_s_gives_the_batch_bits(self):
        # all three pieces, both sides of 1 and of the series' 61, up to the last accepted p
        rng = np.random.default_rng(3902)
        ps = np.concatenate([
            rng.uniform(0.0, 1.0, 4000),
            rng.uniform(1.0, quadrature._SERIES_FROM, 8000),
            np.exp(rng.uniform(math.log(quadrature._SERIES_FROM), math.log(1.87e6), 8000)),
            [0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0,
             np.nextafter(quadrature._SERIES_FROM, 0.0), quadrature._SERIES_FROM],
        ])
        for p, log in zip(ps, quadrature._log_s(ps)):
            assert quadrature._log_s(p).tobytes() == log.tobytes(), p


class TestNoWarnings:
    """``_log_s`` warns for no p, accepted or rejected, as a scalar or in a batch."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [0.0, -0.0, 5e-324, 1e-320, 0.5, 30.0, 1e5])
    def test_accepted_orders(self, p):
        for ps in (np.float64(p), np.array([p, 1.0])):
            assert np.isfinite(quadrature._log_s(ps)).all()
        res = integrate_logweighted(p)
        assert res.est_rel_error > 0.0 and res.nodes_used > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1e17, 4.3e32, 1e300, 1.7e308])
    def test_orders_past_the_window_raise_first(self, p):
        for ps in (np.float64(p), np.array([1.0, p])):
            with pytest.raises(DomainError, match="a float rounds by 60 nats"):
                quadrature._log_s(ps)


class TestIntegralsMatchReference:
    """``_log_unit`` and ``_log_gamma`` give the bits of
    ``oracles.reference_log_unit`` and ``reference_log_gamma``, for a batch
    and for each order alone.  The batch-equals-scalar tests cannot see a
    change that moves the finishing arithmetic of both paths alike; these
    tests can."""

    @staticmethod
    def assert_same_bits(integral, reference, orders):
        """``integral`` and ``reference`` give the same tuple of columns."""
        orders = np.array(orders, dtype=float)
        want = reference(orders)
        for g, w in zip(integral(orders), want, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for i, order in enumerate(orders):
            got = integral(order)  # a float64 scalar, as a one-point call passes
            for g, w in zip(got, want, strict=True):
                assert np.ndim(g) == 0 and g.dtype == w.dtype
                assert g.tobytes() == w[i].tobytes()
        return want

    def check_unit(self, orders):
        logs = self.assert_same_bits(lambda n: (quadrature._log_unit(n),),
                                     lambda n: (reference_log_unit(n),), orders)[0]
        for n, floor in zip(orders, reference_floor(logs).tolist()):
            res = integrate_unit_log_power(n)
            assert (res.est_rel_error, res.nodes_used) == (floor, 20)

    def check_gamma(self, orders):
        _, *logs = self.assert_same_bits(quadrature._log_gamma, reference_log_gamma, orders)
        for n, est in zip(orders, reference_gamma_error(*logs).tolist()):
            res = gamma_derivative(n)
            assert (res.est_rel_error, res.nodes_used) == (est, 20 + s_terms(n))

    @given(ORDER_SETS)
    def test_unit(self, orders):
        self.check_unit(orders)

    @given(ORDER_SETS)
    def test_gamma(self, orders):
        self.check_gamma(orders)

    def test_the_first_orders(self):
        # Γ(1) = 1 from S(0) = 1, and Γ'(1) = −γ, whose two parts have opposite signs
        self.check_unit([0, 1])
        self.check_gamma([0, 1])


@pytest.mark.parametrize(
    "p", [0.0, 5e-324, 0.3, 0.999, 1.0, 7.5, 32.0, 60.999, 61.0, 150.0, 4000.0, 1e5, 1_877_828.0]
)
def test_s_estimate_is_the_floor_of_its_log(p):
    # on each piece: below 1, the table from 1 and the series from 61
    res = integrate_logweighted(p)
    assert res.est_rel_error == EPS * (4.0 + abs(res.value.logmag))


@pytest.mark.parametrize("n", [0, 1, 7, 400, 8192, 8193, 123_457, 300_000])
def test_unit_estimate_is_the_floor_of_its_log(n):
    # on both sides of the ln n! table's top, 8192
    res = integrate_unit_log_power(n)
    assert res.est_rel_error == EPS * (4.0 + abs(res.value.logmag))
