"""Evidence-graded condition checkers and the aggregate report."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

X11 = "product[(1,1),(1,1)]"
SYM_X11 = "symroot[(1,1),(1,1)]"


def scaled(seq: MomentSequence, c: float) -> MomentSequence:
    """The sequence of c·X: m_n ↦ cⁿ·m_n."""
    entries = [float(x) + n * math.log(c) for n, x in enumerate(seq.log_moments)]
    return MomentSequence(seq.support, seq.n_max, entries, label=seq.label)


def synthetic(log_moment, n_max: int = 200) -> MomentSequence:
    entries = [float(log_moment(n)) for n in range(n_max + 1)]
    return MomentSequence("stieltjes", n_max, entries)


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

    def test_explicit_tail_window(self, seqs):
        seq = seqs(X11, 200)
        v = check_carleman(seq, n_min=150)
        assert v.status == SATISFIED
        assert v.diagnostics["tail_start"] == 150.0

    def test_too_short_sequence(self, seqs):
        with pytest.raises(SequenceError):
            check_carleman(seqs("exp", 12))
        with pytest.raises(SequenceError):
            check_carleman(seqs("exp", 20), n_min=15)

    def test_bad_n_min(self, seqs):
        with pytest.raises(DomainError):
            check_carleman(seqs("exp", 100), n_min=0)
        with pytest.raises(DomainError):
            check_carleman(seqs("exp", 100), n_min=2.5)

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

    @pytest.mark.parametrize("alpha", [-400.0, 400.0])
    def test_extreme_power_q_stays_in_the_log_domain(self, seqs, alpha):
        # n^alpha under- or overflows; ln q(n) = alpha·ln n does not
        assert QFunction.power(alpha).log_at(10) == alpha * math.log(10)
        v = check_growth_rate(seqs(X11, 100), QFunction.power(alpha))
        assert v.status in (SATISFIED, VIOLATED, INCONCLUSIVE)
        assert math.isfinite(v.diagnostics["sup_log_g"])

    def test_minimum_length(self, seqs):
        with pytest.raises(SequenceError):
            check_growth_rate(seqs("exp", 7))


class TestQDivergence:
    def test_constant_one_diverges(self):
        v = check_q_divergence(QFunction.one())
        assert v.status == SATISFIED
        assert v.n_used == 400

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

    def test_table_kind(self):
        v = check_q_divergence(QFunction.table([1.0] * 400), n_max=400)
        assert v.status == SATISFIED

    def test_table_too_short(self):
        with pytest.raises(DomainError):
            check_q_divergence(QFunction.table([1.0] * 50), n_max=400)

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


class TestQFunction:
    @pytest.mark.parametrize(
        "q", [QFunction.one(), QFunction.log(), QFunction.power(0.7), QFunction.table([2.0, 3.0, 5.0])]
    )
    def test_log_at_array_matches_scalar(self, q):
        ns = np.arange(2, 4)
        got = q.log_at(ns)
        assert got.dtype == np.float64
        assert got.tolist() == [q.log_at(int(n)) for n in ns]
        assert got.tolist() == pytest.approx([math.log(q(int(n))) for n in ns], rel=1e-15)
        assert type(q.log_at(3)) is float

    def test_log_at_domain(self):
        assert QFunction.log().log_at(1) == -math.inf
        with pytest.raises(DomainError):
            QFunction.power(1.0).log_at(np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match="q\\(4\\)"):
            QFunction.table([1.0, 2.0]).log_at(np.arange(1, 5))

    def test_kinds_and_labels(self):
        assert QFunction.one()(17) == 1.0
        assert QFunction.log()(math.isqrt(100)) == math.log(10)
        assert QFunction.power(2.0)(3) == 9.0
        assert QFunction.table([5.0, 6.0])(2) == 6.0
        assert QFunction.power(0.5).label() == "power(0.5)"
        assert QFunction.table([1.0, 2.0]).label() == "table[2]"
        assert QFunction.one().label() == "constant-one"

    def test_validation(self):
        with pytest.raises(DomainError):
            QFunction(kind="weird")
        with pytest.raises(DomainError):
            QFunction.power(math.nan)
        with pytest.raises(DomainError):
            QFunction.table([])
        with pytest.raises(DomainError):
            QFunction.table([1.0, -2.0])
        with pytest.raises(DomainError):
            QFunction.table([1.0, 2.0])(3)
        with pytest.raises(DomainError):
            QFunction.one()(0)

    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_log_at_names_the_first_n_where_alpha_ln_n_overflows(self, alpha):
        q = QFunction.power(alpha)
        assert q.log_at(6) == alpha * math.log(6)
        for n in (7, np.arange(1.0, 10.0)):
            with pytest.raises(DomainError, match=r"ln q\(7\)"):
                q.log_at(n)

    @pytest.mark.parametrize("alpha", [1e308, 2e307, -2e307])
    def test_growth_rate_rejects_an_overflowing_q(self, seqs, alpha):
        # 2e307·ln n is finite up to n = 1000, but twice it is not
        with pytest.raises(DomainError, match="overflows a float"):
            check_growth_rate(seqs(X11, 100), QFunction.power(alpha))

    @pytest.mark.parametrize("alpha", [400.0, -400.0])
    def test_unrepresentable_power_points_to_log_at(self, alpha):
        # 7^400 overflows and 7^-400 underflows to 0.0; ln q stays finite
        q = QFunction.power(alpha)
        with pytest.raises(DomainError, match="log_at"):
            q(7)
        assert q.log_at(7) == alpha * math.log(7)


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
            check_growth_rate(seq, QFunction.table([1.0] * 200)),
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
