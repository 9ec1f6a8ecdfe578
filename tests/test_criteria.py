"""Evidence-graded condition checkers and the aggregate report."""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import momentdet.criteria as criteria
from momentdet import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    DomainError,
    MomentSequence,
    QFunction,
    SequenceError,
    analyze,
    check_carleman,
    check_growth_rate,
    check_hardy,
    check_q_divergence,
)

from . import oracles
from .truth import bertrand

X11 = "product[(1,1),(1,1)]"
SYM_X11 = "symroot[(1,1),(1,1)]"


def scaled(seq: MomentSequence, c: float) -> MomentSequence:
    """The sequence of c·X: m_n ↦ cⁿ·m_n."""
    entries = [float(x) + n * math.log(c) for n, x in enumerate(seq.log_moments)]
    return MomentSequence(seq.support, entries, label=seq.label)


def synthetic(log_moment, n_max: int = 200) -> MomentSequence:
    entries = [float(log_moment(n)) for n in range(n_max + 1)]
    return MomentSequence("stieltjes", entries)


class TestCalibrationMatrix:
    """Verdicts for the stock families at n_max = 200."""

    def test_flagship(self, seqs):
        seq = seqs(X11, 200)
        assert check_carleman(seq).status == SATISFIED
        assert check_growth_rate(seq, QFunction.one()).status == VIOLATED
        assert check_growth_rate(seq, QFunction.log()).status == SATISFIED
        assert check_hardy(seq).status == VIOLATED

    def test_exponential(self, seqs):
        seq = seqs("exp", 200)
        assert check_carleman(seq).status == SATISFIED
        assert check_growth_rate(seq, QFunction.one()).status == SATISFIED
        assert check_growth_rate(seq, QFunction.log()).status == SATISFIED
        assert check_hardy(seq).status == SATISFIED

    def test_squared_exponential(self, seqs):
        seq = seqs("exp2", 200)
        assert check_carleman(seq).status == SATISFIED
        assert check_growth_rate(seq).status == SATISFIED
        hardy = check_hardy(seq)
        assert hardy.status == SATISFIED
        assert hardy.diagnostics["c0"] == pytest.approx(1.0, rel=1e-12)

    def test_lognormal(self, seqs):
        assert check_carleman(seqs("lognormal", 200)).status == VIOLATED

    def test_lognormal_past_float_range(self, seqs):
        # g_n, b_n and c0 overflow a float from n_max ≈ 724 on; they read inf
        report = analyze(seqs("lognormal", 1000))
        assert [v["status"] for v in report["verdicts"]] == [VIOLATED] * 4
        growth = report["verdicts"][1]["diagnostics"]
        assert growth["g_last"] == math.inf
        assert growth["sup_g"] == math.inf

    def test_symmetrized_flagship(self, seqs):
        seq = seqs(SYM_X11, 200)
        assert seq.support == "hamburger-symmetric"
        carleman = check_carleman(seq)
        growth = check_growth_rate(seq)
        assert carleman.status == SATISFIED
        assert growth.status == VIOLATED
        assert growth.criterion == "growth_rate"


class TestCarleman:
    def test_exp_exponent_is_half(self, seqs):
        v = check_carleman(seqs("exp", 200))
        assert 0.4 <= v.diagnostics["exponent"] <= 0.6

    def test_lognormal_exponent_is_huge(self, seqs):
        v = check_carleman(seqs("lognormal", 200))
        assert v.diagnostics["exponent"] > 5.0

    def test_flagship_used_refinement(self, seqs):
        v = check_carleman(seqs(X11, 200))
        assert v.diagnostics["refined"] == 1.0
        assert v.diagnostics["b_slope"] > -0.75

    def test_too_short_sequence(self, seqs):
        with pytest.raises(SequenceError, match=r"^check_carleman needs n_max >= 16, got 12$"):
            check_carleman(seqs("exp", 12))

    def test_n_used_records_orders(self, seqs):
        assert check_carleman(seqs("exp", 100)).n_used == 100


class TestSyntheticScales:
    def test_clear_convergent_power(self):
        # log m_n = 3n ln n gives a_n = n^{−3/2}: summable
        seq = synthetic(lambda n: 3.0 * n * math.log(n) if n else 0.0)
        assert check_carleman(seq).status == VIOLATED

    def test_clear_divergent_power(self):
        # log m_n = n ln n gives a_n = n^{−1/2}: divergent
        seq = synthetic(lambda n: n * math.log(n) if n else 0.0)
        assert check_carleman(seq).status == SATISFIED

    def test_exact_critical_scale(self):
        # a_n = 1/(n·ln n) exactly: the borderline divergent series
        seq = synthetic(lambda n: 2.0 * n * (math.log(n) + math.log(math.log(n))) if n >= 2 else 0.0)
        assert check_carleman(seq).status == SATISFIED

    def test_just_past_critical_is_inconclusive(self):
        # a_n ≈ 1/(n·(ln n)²) converges, but it sits dead-center of the
        # refinement's undecidable band (critical-scale slope −1): the
        # honest verdict is inconclusive
        def lm(n):
            return 2.0 * n * (math.log(n + 3.0) + 2.0 * math.log(math.log(n + 3.0)))

        v = check_carleman(synthetic(lm, 400))
        assert v.diagnostics["refined"] == 1.0
        assert v.status == INCONCLUSIVE

    def test_clearly_past_critical_is_violated(self):
        # a_n ≈ 1/(n·(ln n)³): convergent, and only the critical-scale
        # refinement can tell (the power-law exponent fit alone drifts)
        def lm(n):
            return 2.0 * n * (math.log(n + 3.0) + 3.0 * math.log(math.log(n + 3.0)))

        v = check_carleman(synthetic(lm, 400))
        assert v.diagnostics["refined"] == 1.0
        assert v.status == VIOLATED


class TestGrowthRate:
    def test_exp_constant_bound(self, seqs):
        v = check_growth_rate(seqs("exp", 200))
        assert v.status == SATISFIED
        assert v.criterion == "growth_rate"
        # m_{n+1}/m_n = n+1, so g_n = (n+1)⁻¹ and sup over n ≥ 1 is 1/2
        assert v.diagnostics["sup_g"] == pytest.approx(0.5, rel=1e-9)

    def test_flagship_needs_log_modulation(self, seqs):
        seq = seqs(X11, 200)
        plain = check_growth_rate(seq)
        modulated = check_growth_rate(seq, QFunction.log())
        assert plain.status == VIOLATED
        assert plain.diagnostics["power_slope"] > 0.0
        assert modulated.status == SATISFIED
        assert modulated.criterion == "growth_rate_q"
        assert math.isfinite(modulated.diagnostics["sup_g"])

    def test_power_q_records_alpha(self, seqs):
        v = check_growth_rate(seqs(X11, 100), QFunction.power(0.5))
        assert v.diagnostics["q_alpha"] == 0.5
        assert v.criterion == "growth_rate_q"

    def test_lognormal_blows_up(self, seqs):
        v = check_growth_rate(seqs("lognormal", 200))
        assert v.status == VIOLATED

    def test_a_tail_that_falls_back_is_not_power_growth(self):
        # ln g_n rises as 0.5·ln n over most of the tail, then falls as
        # −1.95·ln n (as fast as log-convexity allows) to 0.01 below its start
        n = np.arange(1.0, 200.0)
        x = np.maximum(np.log(n / 99.0), 0.0)
        top = (1.95 * x[-1] - 0.01) / 2.45
        log_g = np.where(x <= top, 0.5 * x, 0.5 * top - 1.95 * (x - top))
        log_m = np.cumsum(log_g + 2.0 * np.log(n + 1.0))
        v = check_growth_rate(MomentSequence("stieltjes", np.concatenate([[0.0, 0.0], log_m])))
        assert v.diagnostics["power_slope"] >= criteria.GROWTH_POWER_SLOPE
        assert v.status != VIOLATED

    @pytest.mark.parametrize("alpha", [-400.0, 400.0])
    def test_extreme_power_q_stays_in_the_log_domain(self, seqs, alpha):
        # n^alpha under- or overflows; ln q(n) = alpha·ln n, as the checkers read it, does not
        n, ln_n, lnln, _ = criteria._table(10)
        assert QFunction.power(alpha)._log_of(n, ln_n, lnln)[-1] == alpha * math.log(10)
        v = check_growth_rate(seqs(X11, 100), QFunction.power(alpha))
        assert v.status in (SATISFIED, VIOLATED, INCONCLUSIVE)
        assert math.isfinite(v.diagnostics["sup_log_g"])

    @pytest.mark.parametrize("alpha", [1e304, 1e305, 1e307])
    def test_tail_whose_sum_overflows_is_fitted(self, seqs, alpha):
        # ln g_n ≈ −2α·ln(n+1) is finite at every n, but from α = 1e305 on
        # the sum of its 251-term tail is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = check_growth_rate(seqs("exp", 500), QFunction.power(alpha))
        assert v.status == SATISFIED
        assert v.diagnostics["power_slope"] == pytest.approx(-2.0 * alpha, rel=0.01)
        assert -math.inf < v.diagnostics["loglog_slope"] < 0.0

    def test_minimum_length(self, seqs):
        with pytest.raises(SequenceError):
            check_growth_rate(seqs("exp", 7))


class TestQDivergence:
    def test_constant_one_diverges(self):
        v = check_q_divergence(QFunction.one())
        assert v.status == SATISFIED
        assert v.n_used == 400
        # the harmonic series fits p = 1 exactly, so the critical scale decides
        assert v.diagnostics["refined"] == 1.0

    def test_log_diverges(self):
        v = check_q_divergence(QFunction.log())
        assert v.status == SATISFIED
        # n = 1 is skipped because q(1) = ln 1 = 0
        assert v.n_used == 399

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_positive_power_converges(self, alpha):
        assert check_q_divergence(QFunction.power(alpha)).status == VIOLATED

    def test_drift_gate_blocks_slow_power(self):
        # q(n) = n^0.1 has exponent ≈ 1.1 with near-zero drift: the
        # refinement must not rescue it
        v = check_q_divergence(QFunction.power(0.1), n_max=1000)
        assert v.status == VIOLATED
        assert v.diagnostics["refined"] == 0.0

    @pytest.mark.parametrize("alpha, status", [(400.0, VIOLATED), (-400.0, SATISFIED)])
    def test_extreme_power_stays_in_the_log_domain(self, alpha, status):
        # n^alpha over- or underflows; the terms are formed from alpha·ln n
        v = check_q_divergence(QFunction.power(alpha))
        assert v.status == status
        assert v.n_used == 400
        assert v.diagnostics["exponent"] == pytest.approx(1.0 + alpha, rel=1e-12)

    @pytest.mark.parametrize("n_max", [99, 0, -5, 200.0])
    def test_n_max_floor(self, n_max):
        with pytest.raises(DomainError):
            check_q_divergence(QFunction.one(), n_max=n_max)


QS = [QFunction.one(), QFunction.log(), QFunction.power(0.7)]


class TestQFunction:
    def test_kinds_and_labels(self):
        assert [(q.kind, q.alpha) for q in QS] == [("constant-one", None), ("log", None), ("power", 0.7)]
        assert type(QFunction.power(2).alpha) is float
        assert QFunction.power(0.5).label() == "power(0.5)"
        assert QFunction.log().label() == "log"
        assert QFunction.one().label() == "constant-one"

    def test_validation(self):
        with pytest.raises(DomainError):
            QFunction(kind="weird")
        with pytest.raises(DomainError):
            QFunction.power(math.nan)
        with pytest.raises(DomainError):
            QFunction(kind="table")

    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_the_least_n_where_alpha_ln_n_overflows_is_named(self, seqs, alpha):
        # alpha·ln 6 is a float and alpha·ln 7 is not
        assert math.isfinite(alpha * math.log(6)) and not math.isfinite(alpha * math.log(7))
        q = QFunction.power(alpha)
        for check in (lambda: check_growth_rate(seqs(X11, 100), q), lambda: check_q_divergence(q)):
            with pytest.raises(DomainError, match=r"^ln q\(7\) = "):
                check()

    @pytest.mark.parametrize("alpha", [1e308, 2e307, -2e307])
    def test_growth_rate_rejects_an_overflowing_q(self, seqs, alpha):
        # 2e307·ln n is finite up to n = 1000, but twice it is not
        with pytest.raises(DomainError, match="overflows a float"):
            check_growth_rate(seqs(X11, 100), QFunction.power(alpha))


class TestHardy:
    def test_exp_constant(self, seqs):
        v = check_hardy(seqs("exp", 200))
        assert v.status == SATISFIED
        # sup of (ln n! − ln(2n)!)/n sits at n = 1: c0 = 1/2
        assert v.diagnostics["c0"] == pytest.approx(0.5, rel=1e-12)
        assert v.diagnostics["bound_ok"] == 1.0

    def test_exp2_constant_is_one(self, seqs):
        v = check_hardy(seqs("exp2", 200))
        assert v.status == SATISFIED
        assert v.diagnostics["c0"] == pytest.approx(1.0, rel=1e-12)

    def test_flagship_unbounded(self, seqs):
        v = check_hardy(seqs(X11, 200))
        assert v.status == VIOLATED
        assert v.diagnostics["slope"] > 0.05

    def test_reported_constant_actually_bounds(self, seqs):
        seq = seqs("exp", 200)
        v = check_hardy(seq)
        log_c0 = math.log(v.diagnostics["c0"])
        for n in range(1, seq.n_max + 1):
            assert float(seq.log_moments[n]) <= math.lgamma(2.0 * n + 1.0) + n * log_c0 + 1e-9

    def test_symmetric_support_rejected(self, seqs):
        with pytest.raises(DomainError):
            check_hardy(seqs(SYM_X11, 100))

    def test_minimum_length(self, seqs):
        with pytest.raises(SequenceError):
            check_hardy(seqs("exp", 15))


class TestScaleEquivariance:
    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_statuses_invariant_under_scaling(self, seqs, c):
        base = seqs(X11, 200)
        other = scaled(base, c)
        assert check_carleman(other).status == check_carleman(base).status
        assert check_growth_rate(other).status == check_growth_rate(base).status
        assert (
            check_growth_rate(other, QFunction.log()).status
            == check_growth_rate(base, QFunction.log()).status
        )
        assert check_hardy(other).status == check_hardy(base).status

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_carleman_status_for_random_scale(self, seqs, c):
        assert check_carleman(scaled(seqs(X11, 100), c)).status == SATISFIED

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_hardy_constant_scales_linearly(self, seqs, c):
        base = check_hardy(seqs("exp", 200)).diagnostics["c0"]
        other = check_hardy(scaled(seqs("exp", 200), c)).diagnostics["c0"]
        assert other == pytest.approx(base * c, rel=1e-9)

    @pytest.mark.parametrize("q", [QFunction.one(), QFunction.log()], ids=["one", "log"])
    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_growth_bound_scales_linearly(self, seqs, c, q):
        # g_n = (m_{n+1}/m_n)/((n+1)²·q(n+1)²) takes the factor c, and its slopes do not move
        base = check_growth_rate(seqs(X11, 200), q).diagnostics
        other = check_growth_rate(scaled(seqs(X11, 200), c), q).diagnostics
        assert other["sup_g"] == pytest.approx(base["sup_g"] * c, rel=1e-9)
        for slope in ("power_slope", "loglog_slope"):
            assert other[slope] == pytest.approx(base[slope], rel=1e-9, abs=1e-12)


class TestStabilityAcrossLengths:
    @pytest.mark.parametrize("label", ["exp", "exp2", "lognormal"])
    def test_no_definite_flips(self, seqs, label):
        verdicts = {}
        for n_max in (100, 200, 400):
            seq = seqs(label, n_max)
            verdicts[n_max] = {
                "carleman": check_carleman(seq).status,
                "growth": check_growth_rate(seq).status,
                "hardy": check_hardy(seq).status,
            }
        for key in ("carleman", "growth", "hardy"):
            statuses = {verdicts[n][key] for n in (100, 200, 400)}
            assert not ({SATISFIED, VIOLATED} <= statuses), (key, verdicts)

    def test_flagship_stable_past_preasymptotic_window(self, seqs):
        # below n_max ≈ 100 the flagship's local exponents still rise and
        # the verdict is honestly "violated-evidence"; from 100 on it locks in
        for n_max in (100, 200, 400):
            assert check_carleman(seqs(X11, n_max)).status == SATISFIED


class TestAggregateReport:
    def test_flagship_report_shape(self, seqs):
        report = analyze(seqs(X11, 200))
        assert report["label"] == X11
        assert report["support"] == "stieltjes"
        assert report["n_max"] == 200
        criteria = [v["criterion"] for v in report["verdicts"]]
        assert criteria == ["carleman", "growth_rate", "growth_rate_q", "hardy"]
        statuses = {v["criterion"]: v["status"] for v in report["verdicts"]}
        assert statuses["carleman"] == SATISFIED
        assert statuses["growth_rate"] == VIOLATED
        assert statuses["growth_rate_q"] == SATISFIED
        assert statuses["hardy"] == VIOLATED

    def test_verdict_dict_shape(self, seqs):
        v = check_carleman(seqs(X11, 200)).to_dict()
        assert set(v) == {"criterion", "status", "diagnostics", "n_used"}
        assert set(v["diagnostics"]) == {
            "exponent",
            "exponent_drift",
            "partial_sum",
            "b_slope",
            "b_last",
            "tail_start",
            "refined",
        }

    def test_trends_only_for_two_factor_families(self, seqs):
        assert "trends" in analyze(seqs(X11, 100))
        assert "trends" not in analyze(seqs("exp", 100))
        assert "trends" not in analyze(seqs("lognormal", 100))

    def test_symmetric_product_gets_no_trends(self, seqs):
        # its entry n is m_{2n}, not the m_n that both trend columns read
        assert "trends" not in analyze(seqs("symprod[(1,1),(1,1)]", 100))

    def test_symmetric_root_gets_the_trends_of_its_product(self, seqs):
        # its entry n is the product's m_n
        assert analyze(seqs(SYM_X11, 200))["trends"] == analyze(seqs(X11, 200))["trends"]

    def test_trend_columns_shape(self, seqs):
        # both trends dip through a pre-asymptotic minimum and then climb
        # (very slowly) toward their limits; assert the documented shape
        trends = analyze(seqs(X11, 400))["trends"]
        for key in ("carleman_root_trend", "growth_ratio_trend"):
            values = [v for _, v in trends[key]]
            assert all(0.3 < v < 1.5 for v in values), (key, values)
            assert values[-1] > min(values)
            assert values[-3] < values[-2] < values[-1]  # rising tail
        root_ns = [n for n, _ in trends["carleman_root_trend"]]
        assert root_ns == sorted(root_ns)
        assert root_ns[-1] == 400

    def test_symmetric_support_drops_hardy(self, seqs):
        report = analyze(seqs(SYM_X11, 100))
        criteria = [v["criterion"] for v in report["verdicts"]]
        assert "hardy" not in criteria
        assert len(criteria) == 3

    @pytest.mark.parametrize("label", [X11, SYM_X11])
    def test_every_verdict_comes_from_a_public_checker(self, seqs, monkeypatch, label):
        # a tracer wrapping the public checkers sees every checker analyze runs
        seq = seqs(label, 100)
        calls = []
        for name in ("check_carleman", "check_growth_rate", "check_hardy"):

            def spy(*args, _name=name, _checker=getattr(criteria, name), **kwargs):
                verdict = _checker(*args, **kwargs)
                calls.append((_name, verdict.to_dict()))
                return verdict

            monkeypatch.setattr(criteria, name, spy)
        report = analyze(seq)
        expected = ["check_carleman", "check_growth_rate", "check_growth_rate"]
        if seq.support == "stieltjes":
            expected.append("check_hardy")
        assert [name for name, _ in calls] == expected
        assert [verdict for _, verdict in calls] == report["verdicts"]


def _assert_plain(value, path="report"):
    """Reports hold only plain Python values, so json.dumps reads them as before."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, path
            _assert_plain(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _assert_plain(item, f"{path}[{i}]")
    else:
        assert value is None or type(value) in (str, int, float), (path, type(value))


class TestPlainReportValues:
    @pytest.mark.parametrize("label", [X11, "exp", "lognormal", SYM_X11])
    def test_analyze_report(self, seqs, label):
        _assert_plain(analyze(seqs(label, 200)))

    def test_checker_verdicts(self, seqs):
        seq = seqs(X11, 200)
        verdicts = [
            check_carleman(seq),
            check_growth_rate(seq, QFunction.power(0.5)),
            check_growth_rate(seq, QFunction.log()),
            check_hardy(seqs("exp", 200)),
            check_q_divergence(QFunction.log()),
        ]
        for v in verdicts:
            _assert_plain(v.to_dict())
            assert all(type(x) is float for x in v.diagnostics.values())
            assert type(v.n_used) is int


class TestDeterminism:
    def test_identical_reports_across_threads(self, seqs):
        seq = seqs(X11, 200)
        serial = analyze(seq)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: analyze(seq), range(8)))
        assert all(r == serial for r in results)

    def test_identical_reports_on_repeat(self, seqs):
        seq = seqs("lognormal", 150)
        assert analyze(seq) == analyze(seq)


# -- the tail fit and the ln (2n)! table --------------------------------------


def _lstsq_slope(x: np.ndarray, y: np.ndarray) -> float:
    """The reference fit: an SVD least-squares solve on the design (x, 1)."""
    sol, *_ = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)
    return float(sol[0])


def _exact_slope(x: np.ndarray, y: np.ndarray) -> Fraction:
    """The least-squares slope of the floats x and y in exact arithmetic."""

    def scaled_ints(values):
        # every float is an integer over a power of two: bring them to one
        ratios = [v.as_integer_ratio() for v in values.tolist()]
        den = max(d for _, d in ratios)
        return [n * (den // d) for n, d in ratios], den

    (xs, dx), (ys, dy) = scaled_ints(x), scaled_ints(y)
    n, sx, sy = len(xs), sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    return Fraction(n * sxy - sx * sy, n * sxx - sx * sx) * Fraction(dx, dy)


def _recorded_fits(run) -> tuple[object, list[tuple[np.ndarray, np.ndarray, float]]]:
    """What ``run()`` returns, and the x, y and slope of every tail fit it makes."""
    fits = []
    slope = criteria._slope

    def recording(x, y):
        fits.append((x.copy(), y.copy(), slope(x, y)))
        return fits[-1][2]

    with mock.patch.object(criteria, "_slope", recording):
        return run(), fits


def _near_float_limit(n_max: int = 400) -> MomentSequence:
    """log m_n = 1.5e308·(n/n_max)², log-convex up to 1.5e308."""
    ns = np.arange(n_max + 1, dtype=float)
    return MomentSequence("stieltjes", 1.5e308 * (ns / n_max) ** 2)


#: The check grid: the two-factor product grid and the stock and symmetrized families.
GRID = [
    f"product[(1,{r1}),(1,{r2})]"
    for i, r1 in enumerate((0.5, 0.63, 0.81, 1))
    for r2 in (0.5, 0.63, 0.81, 1)[i:]
] + ["exp", "exp2", "lognormal", SYM_X11, "symprod[(1,1),(1,1)]"]


class TestFitSlope:
    """The closed-form centred slope against an exact oracle and against
    the SVD solve it replaced."""

    @pytest.mark.parametrize("label", [X11, "exp", "lognormal"])
    def test_family_tails(self, seqs, label):
        seq = seqs(label, 3000)
        _, fits = _recorded_fits(lambda: analyze(seq))
        assert len(fits) == 8  # Carleman's three, two per growth check, Hardy's one
        self._assert_as_close_as_lstsq(fits)

    @pytest.mark.parametrize("p", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("c", [0.0, 1.0, 2.0])
    def test_bertrand_tails(self, p, c):
        _, log_terms = bertrand(p, c)
        _, fits = _recorded_fits(lambda: criteria._classify_series(criteria._table(3000), log_terms))
        assert len(fits) == 3
        self._assert_as_close_as_lstsq(fits)

    def test_near_float_limit_tails(self):
        seq = _near_float_limit()
        assert seq.log_moments[-1] == 1.5e308
        _, fits = _recorded_fits(lambda: analyze(seq))
        assert max(float(np.max(np.abs(y))) for _, y, _ in fits) > 1e305
        self._assert_as_close_as_lstsq(fits)

    @staticmethod
    def _assert_as_close_as_lstsq(fits):
        for x, y, slope in fits:
            exact = _exact_slope(x, y)
            # |slope| <= ‖y − ȳ‖/‖x − x̄‖, the scale of its rounding errors
            scale = math.hypot(*(y - y.mean())) / math.hypot(*(x - x.mean()))
            closed = abs(Fraction(slope) - exact)
            reference = abs(Fraction(_lstsq_slope(x, y)) - exact)
            assert closed <= reference + 4 * Fraction(math.ulp(scale)), (float(exact), scale)

    @pytest.mark.parametrize("n_max", [200, 1000, 3000])
    def test_statuses_match_an_lstsq_fit(self, seqs, monkeypatch, n_max):
        def statuses():
            out = []
            for label in GRID:
                seq = seqs(label, n_max)
                out += [v["status"] for v in analyze(seq)["verdicts"]]
                out.append(check_growth_rate(seq, QFunction.power(0.6)).status)
            for q in (QFunction.one(), QFunction.log(), QFunction.power(0.2)):
                out.append(check_q_divergence(q, n_max).status)
            return out

        closed = statuses()
        monkeypatch.setattr(criteria, "_slope", _lstsq_slope)
        assert closed == statuses()
        assert {SATISFIED, VIOLATED} <= set(closed)


def _lgamma_per_order(n_max: int) -> np.ndarray:
    return np.array([math.lgamma(2.0 * n + 1.0) for n in range(1, n_max + 1)])


class TestLogFactorialTable:
    @pytest.mark.parametrize("sizes", [(5000, 200, 3000), (200, 3000, 5000)])
    @pytest.mark.parametrize("label", [X11, "exp"])
    def test_hardy_matches_lgamma_per_order(self, seqs, sizes, label):
        criteria._columns.cache_clear()
        for n in sizes:
            seq = seqs(label, n)
            _assert_reads_its_ingredients(check_hardy, oracles.hardy_ingredients, seq)
            ns = np.arange(1.0, n + 1.0)
            rows = criteria._table(n)
            assert rows[0].tolist() == ns.tolist()
            assert rows[1].tolist() == np.log(ns).tolist()
            with np.errstate(divide="ignore"):
                assert rows[2].tolist() == np.log(np.log(ns)).tolist()
            assert rows[3].tolist() == _lgamma_per_order(n).tolist()
        # every size up to _TABLE_MIN reads one table
        assert criteria._columns.cache_info().currsize == 1
        table = criteria._columns(criteria._TABLE_MIN)
        assert not any(row.flags.writeable for row in (table, *table, *criteria._table(200)))

    def test_larger_tables_are_powers_of_two_with_the_same_entries(self):
        criteria._columns.cache_clear()
        sizes = (16, 8192, 8193, 16384, 16385, 300)
        tables = [criteria._table(n) for n in sizes]
        assert criteria._columns.cache_info().currsize == 3  # 8192, 16384 and 32768 columns
        for n, rows in zip(sizes, tables):
            assert rows.shape == (4, n)
            assert rows.tobytes() == tables[-2][:, :n].tobytes()

    def test_threads_growing_the_table(self, seqs):
        batch = [seqs(label, n) for label in (X11, "exp") for n in (300, 1200, 2500, 4000)]
        serial = [analyze(seq) for seq in batch]
        criteria._columns.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(analyze, batch + batch[::-1]))
        assert results == serial + serial[::-1]


# -- what each checker reads and reports, against its ingredients -----------


def _undecided(verdict: dict) -> dict:
    """A verdict's to_dict without its decisions, ``status`` and ``refined``."""
    diagnostics = {k: v for k, v in verdict["diagnostics"].items() if k != "refined"}
    return {k: diagnostics if k == "diagnostics" else v for k, v in verdict.items() if k != "status"}


def _outcome(call):
    """The repr of the verdict or report ``call()`` returns and the bytes of
    the (x, y) of its fits, or the type and message of what it raises, and
    the messages of the warnings it gives (numpy's, where a tail's sum
    overflows)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, fits = call()
            fits = [(fit[0].tobytes(), fit[1].tobytes()) for fit in fits]
        except Exception as exc:  # noqa: BLE001 - the outcome compared is any exception
            result, fits = (type(exc), str(exc)), []
    return repr(result), fits, [str(w.message) for w in caught]


def _assert_reads_its_ingredients(checker, ingredients, *args):
    """``checker(*args)`` fits and reports, decisions aside, what
    ``ingredients(*args)`` gives."""

    def run():
        result, fits = _recorded_fits(lambda: checker(*args))
        if isinstance(result, criteria.Verdict):
            return _undecided(result.to_dict()), fits
        return {**result, "verdicts": [_undecided(v) for v in result["verdicts"]]}, fits

    assert _outcome(run) == _outcome(lambda: ingredients(*args))


@st.composite
def log_convex_sequences(draw) -> MomentSequence:
    """Log-moments with nondecreasing increments d_j = d_1 + Σ steps:
    power-law steps scale·j^a, seeded exponential noise, or both; where
    the partial sums outrun the validation slack's rounding, the increments
    are rounded to a power-of-two grid on which every sum is exact."""
    n_max = draw(st.integers(16, 3000))
    j = np.arange(1.0, n_max + 1.0)
    steps = draw(st.floats(0.0, 100.0)) * j ** draw(st.floats(-2.5, 2.0))
    noise = draw(st.floats(0.0, 10.0))
    if noise:
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        steps = steps + rng.exponential(noise, n_max) * (rng.random(n_max) < 0.5)
    d = draw(st.floats(-3000.0, 3000.0)) + np.cumsum(steps) - steps[0]
    grid = 2.0 ** (math.frexp(float(np.abs(np.cumsum(d)).max()) + 1.0)[1] - 48)
    d = np.round(d / grid) * grid
    label = draw(st.sampled_from([None, "lognormal", X11, "symroot[(1,0.7),(1,1)]"]))
    support = draw(st.sampled_from(["stieltjes", "hamburger-symmetric"]))
    try:
        return MomentSequence(support, np.concatenate([[0.0], np.cumsum(d)]), label)
    except SequenceError:
        assume(False)


Q_ARGS = st.one_of(
    st.none(),
    st.sampled_from([QFunction.one(), QFunction.log()]),
    st.floats(-400.0, 1e308).map(QFunction.power),
)


class TestFitsAndDiagnosticsMatchIngredients:
    """Every checker, reading the one table of its call, fits the (x, y),
    reports the diagnostics, trend columns and exceptions of ``oracles``'
    ingredients, bit for bit.  Its verdicts are judged by the truth table,
    the implications, the relations and the pinned statuses."""

    @settings(max_examples=150)
    @given(log_convex_sequences(), Q_ARGS, st.integers(100, 3000))
    def test_reports_and_exceptions(self, seq, q, q_n_max):
        _assert_reads_its_ingredients(analyze, oracles.analyze_ingredients, seq)
        _assert_reads_its_ingredients(check_carleman, oracles.carleman_ingredients, seq)
        _assert_reads_its_ingredients(check_growth_rate, oracles.growth_rate_ingredients, seq, q)
        _assert_reads_its_ingredients(check_hardy, oracles.hardy_ingredients, seq)
        if q is not None:
            _assert_reads_its_ingredients(
                check_q_divergence, oracles.q_divergence_ingredients, q, q_n_max
            )

    @pytest.mark.parametrize("label", [X11, "exp", "lognormal", SYM_X11])
    @pytest.mark.parametrize("n_max", [16, 200, 3000])
    def test_families(self, seqs, label, n_max):
        seq = seqs(label, n_max)
        _assert_reads_its_ingredients(analyze, oracles.analyze_ingredients, seq)
        for q in (QFunction.power(0.5), QFunction.power(1e300), QFunction.power(1e308)):
            _assert_reads_its_ingredients(check_growth_rate, oracles.growth_rate_ingredients, seq, q)

    def test_near_float_limit(self):
        _assert_reads_its_ingredients(analyze, oracles.analyze_ingredients, _near_float_limit())


#: Calls with an argument of the wrong kind, on ``exp`` at n_max 50, and
#: the TypeError message each must give.
WRONG_KINDS = {
    "check_growth_rate requires a QFunction, got str": lambda seq: check_growth_rate(seq, "log"),
    "check_growth_rate requires a QFunction, got int": lambda seq: check_growth_rate(seq, 0),
    "check_growth_rate requires a MomentSequence, got ndarray": (
        lambda seq: check_growth_rate(seq.log_moments)
    ),
    "check_q_divergence requires a QFunction, got NoneType": lambda seq: check_q_divergence(None),
    "check_q_divergence requires a QFunction, got str": lambda seq: check_q_divergence("log", 200),
    "check_hardy requires a MomentSequence, got list": lambda seq: check_hardy([1, 2]),
    "check_carleman requires a MomentSequence, got NoneType": lambda seq: check_carleman(None),
    "analyze requires a MomentSequence, got NoneType": lambda seq: analyze(None),
}


class TestWrongKinds:
    """A value of the wrong kind is a TypeError naming the checker, not
    the AttributeError of a missing field."""

    @pytest.mark.parametrize("message", WRONG_KINDS)
    def test_wrong_kind_is_a_type_error(self, seqs, message):
        with pytest.raises(TypeError) as info:
            WRONG_KINDS[message](seqs("exp", 50))
        assert str(info.value) == message
