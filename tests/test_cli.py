"""Command-line interface: subcommands, formats, env overrides, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from momentdet import (
    QuadratureError,
    from_csv,
    from_json,
    gamma_derivative,
    generate_from_label,
    integrate_unit_log_power,
    lognormal_moments,
    to_json,
)
from momentdet.cli import main

X11 = "product[(1,1),(1,1)]"


@pytest.fixture()
def runner():
    return CliRunner()


def strict_json(text: str) -> object:
    """json.loads that rejects NaN and ±Infinity, as strict parsers do."""

    def reject(constant: str) -> None:
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestGen:
    def test_stdout_json(self, runner):
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "10"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["support"] == "stieltjes"
        assert doc["n_max"] == 10
        assert len(doc["moments"]) == 11

    def test_file_matches_library_bit_exactly(self, runner, tmp_path):
        path = tmp_path / "x11.json"
        result = runner.invoke(
            main, ["gen", "--family", X11, "--nmax", "100", "--out", str(path)]
        )
        assert result.exit_code == 0
        assert np.array_equal(
            from_json(path.read_text()).log_moments, generate_from_label(X11, 100).log_moments
        )

    def test_csv_format(self, runner, tmp_path):
        path = tmp_path / "exp.csv"
        result = runner.invoke(
            main, ["gen", "--family", "exp", "--nmax", "20", "--format", "csv", "--out", str(path)]
        )
        assert result.exit_code == 0
        seq = from_csv(path.read_text())
        assert seq.n_max == 20
        assert seq.label == "exp"

    @pytest.mark.parametrize("family", ["bogus", "product[]", "product[(1,1)(1,1)]", "product[(5,0)]"])
    def test_bad_family_exits_2(self, runner, family):
        result = runner.invoke(main, ["gen", "--family", family, "--nmax", "10"])
        assert result.exit_code == 2

    def test_nmax_floor_exits_2(self, runner):
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "1"])
        assert result.exit_code == 2

    def test_bad_rel_tol_exits_2(self, runner):
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "10", "--rel-tol", "1"])
        assert result.exit_code == 2

    def test_lognormal_bad_rel_tol_exits_2(self, runner):
        # the closed-form family runs no quadrature, so the flag is checked up front
        args = ["gen", "--family", "lognormal", "--nmax", "10", "--rel-tol", "nan"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "rel_tol" in result.output

    def test_lognormal_nmax_floor_exits_2(self, runner):
        result = runner.invoke(main, ["gen", "--family", "lognormal", "--nmax", "1"])
        assert result.exit_code == 2
        assert "n_max >= 2" in result.output

    @pytest.mark.parametrize("out", [".", "no-such-dir/x.json"])
    def test_unwritable_out_exits_2(self, runner, out):
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "10", "--out", out])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: cannot write {out!r}")

    def test_numeric_failure_exits_3(self, runner, monkeypatch):
        import momentdet.moments as moments_mod

        def boom(p, rel_tol):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(moments_mod, "log_power_integral", boom)
        result = runner.invoke(main, ["gen", "--family", X11, "--nmax", "10"])
        assert result.exit_code == 3


class TestCheck:
    def test_exp_all_satisfied(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert [v["criterion"] for v in report["verdicts"]] == [
            "carleman",
            "growth_rate",
            "growth_rate_q",
            "hardy",
        ]
        assert all(v["status"] == "satisfied-evidence" for v in report["verdicts"])

    def test_round_trip_via_csv_file(self, runner, tmp_path):
        path = tmp_path / "x11.csv"
        runner.invoke(
            main, ["gen", "--family", X11, "--nmax", "100", "--format", "csv", "--out", str(path)]
        )
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["label"] == X11
        assert "trends" in report

    def test_exit_zero_even_for_violations(self, runner, tmp_path):
        path = tmp_path / "lognormal.json"
        runner.invoke(main, ["gen", "--family", "lognormal", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 0
        statuses = {v["criterion"]: v["status"] for v in json.loads(result.output)["verdicts"]}
        assert statuses["carleman"] == "violated-evidence"

    def test_criteria_subset(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path), "--criteria", "carleman,hardy"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert [v["criterion"] for v in report["verdicts"]] == ["carleman", "hardy"]

    def test_growth_q_power_spec(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main,
            ["check", "--in", str(path), "--criteria", "growth-q", "--q", "power:0.5"],
        )
        assert result.exit_code == 0
        verdict = json.loads(result.output)["verdicts"][0]
        assert verdict["criterion"] == "growth_rate_q"
        assert verdict["diagnostics"]["q_alpha"] == 0.5

    def test_growth_q_extreme_power_gives_a_report(self, runner, tmp_path):
        path = tmp_path / "x11.json"
        runner.invoke(main, ["gen", "--family", X11, "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main,
            ["check", "--in", str(path), "--criteria", "growth-q", "--q", "power:-400"],
        )
        assert result.exit_code == 0, result.output
        verdict = json.loads(result.output)["verdicts"][0]
        assert verdict["diagnostics"]["q_alpha"] == -400.0

    def test_overflowing_diagnostics_are_null(self, runner, tmp_path):
        # q = n^(-1e17) sends g_n past the float range: null, not Infinity
        path = tmp_path / "x11.json"
        runner.invoke(main, ["gen", "--family", X11, "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main,
            ["check", "--in", str(path), "--criteria", "growth-q", "--q", "power:-1e17"],
        )
        assert result.exit_code == 0, result.output
        diagnostics = strict_json(result.output)["verdicts"][0]["diagnostics"]
        assert diagnostics["sup_g"] is None
        assert diagnostics["g_last"] is None

    def test_overflowing_trend_columns_are_null(self, runner, tmp_path):
        # lognormal moments under a two-factor label: both trend columns overflow
        path = tmp_path / "lognormal.json"
        path.write_text(to_json(dataclasses.replace(lognormal_moments(3000), label=X11)))
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 0, result.output
        trends = strict_json(result.output)["trends"]
        assert trends["carleman_root_trend"][-1] == [3000, None]
        assert trends["growth_ratio_trend"][-1] == [1311, None]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", ["1e308", "-1e308"])
    def test_growth_q_overflowing_power_exits_2(self, runner, tmp_path, alpha):
        # alpha·ln n overflows from n = 7 on: an input error, not a NaN report
        path = tmp_path / "x11.json"
        runner.invoke(main, ["gen", "--family", X11, "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main,
            ["check", "--in", str(path), "--criteria", "growth-q", "--q", f"power:{alpha}"],
        )
        assert result.exit_code == 2
        assert result.output == f"error: ln q(7) = {float(alpha):g}*ln(7) overflows a float\n"

    def test_non_utf8_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: cannot read")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nan_logmag_file_exits_2(self, runner, tmp_path, fmt):
        path = tmp_path / f"exp.{fmt}"
        runner.invoke(
            main, ["gen", "--family", "exp", "--nmax", "20", "--format", fmt, "--out", str(path)]
        )
        if fmt == "json":
            doc = json.loads(path.read_text())
            doc["moments"][5]["logmag"] = "nan"
            path.write_text(json.dumps(doc))
        else:
            lines = [
                "5,1,nan" if line.startswith("5,1,") else line
                for line in path.read_text().splitlines()
            ]
            path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    def test_unknown_criterion_exits_2(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path), "--criteria", "bogus"])
        assert result.exit_code == 2

    def test_bad_q_spec_exits_2(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main, ["check", "--in", str(path), "--criteria", "growth-q", "--q", "junk"]
        )
        assert result.exit_code == 2

    def test_hardy_on_symmetric_support_exits_2(self, runner, tmp_path):
        path = tmp_path / "sym.json"
        runner.invoke(
            main, ["gen", "--family", "symroot[(1,1),(1,1)]", "--nmax", "100", "--out", str(path)]
        )
        result = runner.invoke(main, ["check", "--in", str(path), "--criteria", "hardy"])
        assert result.exit_code == 2
        # but the aggregate report simply skips hardy
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 0
        assert len(json.loads(result.output)["verdicts"]) == 3

    @pytest.mark.parametrize(
        "content", ['{"support": "stieltjes", "n_max"', "n,sign,logmag\n0,1", ""]
    )
    def test_malformed_file_exits_2(self, runner, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 2

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["check", "--in", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    def test_truncated_generated_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "trunc.csv"
        runner.invoke(
            main, ["gen", "--family", "exp", "--nmax", "50", "--format", "csv", "--out", str(path)]
        )
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 2

    def test_human_format(self, runner, tmp_path):
        path = tmp_path / "x11.json"
        runner.invoke(main, ["gen", "--family", X11, "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path), "--format", "human"])
        assert result.exit_code == 0
        assert "carleman" in result.output
        assert "trend" in result.output


class TestPaperTable:
    def test_default_human_all_ok(self, runner):
        result = runner.invoke(main, ["paper-table"])
        assert result.exit_code == 0
        assert "K100/K99" in result.output
        assert "FAIL" not in result.output

    def test_json_structure(self, runner):
        result = runner.invoke(main, ["paper-table", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["all_within"] is True
        names = [r["name"] for r in doc["rows"]]
        assert names == [
            "K1/K0",
            "K2/K1",
            "K3/K2",
            "K4/K3",
            "K100/K99",
            "K2",
            "K99",
            "K100",
            "m2",
            "m99/(99!)^2",
            "m100/(100!)^2",
            "m1",
        ]
        by_name = {r["name"]: r for r in doc["rows"]}
        assert all(r["status"] == "ok" for n, r in by_name.items() if n != "m1")
        assert by_name["m1"]["status"] == "info"
        assert "inconsistent" in by_name["m1"]["note"]
        assert by_name["m1"]["computed"] == pytest.approx(0.3556, abs=2e-3)

    def test_csv_format(self, runner):
        result = runner.invoke(main, ["paper-table", "--format", "csv"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header[:3] == ["name", "computed", "reference"]
        assert len(rows) == 12
        k2 = next(r for r in rows if r[0] == "K2")
        assert float(k2[1]) == pytest.approx(0.5319, abs=1e-3)

    def test_numeric_failure_exits_3(self, runner, monkeypatch):
        import momentdet.cli as cli_mod

        def boom(p, rel_tol):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(cli_mod, "log_power_integral", boom)
        result = runner.invoke(main, ["paper-table"])
        assert result.exit_code == 3


class TestAsym:
    def test_ratios_at_hundred(self, runner):
        result = runner.invoke(main, ["asym", "--t", "100", "--format", "csv"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == [
            "t",
            "log10_integral",
            "log10_exact",
            "log10_leading",
            "exact_to_integral",
            "leading_to_integral",
        ]
        row = dict(zip(header, (float(c) for c in rows[0])))
        assert row["t"] == 100.0
        assert row["log10_integral"] == pytest.approx(math.log10(4.47183580135e41), abs=1e-6)
        assert row["exact_to_integral"] == pytest.approx(1.0, abs=0.01)
        assert 1.0 < row["leading_to_integral"] < 1.4

    def test_multiple_t(self, runner):
        result = runner.invoke(
            main, ["asym", "--t", "50", "--t", "100", "--t", "500", "--format", "csv"]
        )
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        devs = [abs(float(r[4]) - 1.0) for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_invalid_t_exits_2(self, runner):
        result = runner.invoke(main, ["asym", "--t", "-5", "--format", "csv"])
        assert result.exit_code == 2

    def test_t_beyond_float_resolution_exits_2(self, runner):
        result = runner.invoke(main, ["asym", "--t", "1e20"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    def test_t_past_the_requested_accuracy_exits_2(self, runner):
        # the floored estimate of log S(1e7) is ~5.6e-9, above the default 1e-9
        result = runner.invoke(main, ["asym", "--t", "1", "--t", "1e7"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "p = 10000000 " in result.output
        assert "Traceback" not in result.output


class TestWTable:
    def test_bounds_sandwich(self, runner):
        result = runner.invoke(main, ["wtable", "--t", "10", "--format", "csv"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        t, w, residual, lower, upper, note = rows[0]
        assert float(lower) <= float(w) <= float(upper)
        assert float(residual) <= 1e-12 * 10
        assert note == ""

    def test_boundary_at_e(self, runner):
        result = runner.invoke(main, ["wtable", "--t", "e", "--format", "csv"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        t, w, _, lower, upper, note = rows[0]
        assert float(w) == pytest.approx(1.0, abs=1e-12)
        assert lower == "" and upper == ""
        assert "boundary" in note

    def test_below_e_notes_bounds_unavailable(self, runner):
        result = runner.invoke(main, ["wtable", "--t", "1", "--format", "csv"])
        _, rows = csv_rows(result.output)
        assert rows[0][5] == "bounds require t > e"

    @pytest.mark.parametrize("t", ["-5", "abc"])
    def test_bad_t_exits_2(self, runner, t):
        result = runner.invoke(main, ["wtable", "--t", t])
        assert result.exit_code == 2


class TestGammaDerivs:
    def test_table_through_three(self, runner):
        result = runner.invoke(main, ["gamma-derivs", "--nmax", "3", "--format", "csv"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert len(rows) == 4
        signs = [int(r[header.index("gamma_sign")]) for r in rows]
        assert signs == [1, -1, 1, -1]
        gamma2 = float(rows[2][header.index("gamma_value")])
        assert gamma2 == pytest.approx(1.9781119906, abs=1e-8)
        assert all(r[header.index("unit_bracket_ok")] == "1" for r in rows[1:])

    def test_rows_match_the_per_order_functions(self, runner):
        result = runner.invoke(main, ["gamma-derivs", "--nmax", "60", "--format", "csv"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert len(rows) == 61
        for n, row in enumerate(rows):
            g = gamma_derivative(n).value
            unit = integrate_unit_log_power(n).value
            cells = dict(zip(header, row))
            assert cells["n"] == str(n)
            assert cells["gamma_sign"] == str(g.sign)
            assert cells["gamma_log_abs"] == f"{g.logmag:.17g}"
            assert cells["gamma_value"] == f"{g.to_float():.17g}"
            assert cells["unit_log_abs"] == f"{unit.logmag:.17g}"

    def test_nmax_zero_is_valid(self, runner):
        result = runner.invoke(main, ["gamma-derivs", "--nmax", "0", "--format", "csv"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert len(rows) == 1

    def test_negative_nmax_exits_2(self, runner):
        result = runner.invoke(main, ["gamma-derivs", "--nmax", "-1"])
        assert result.exit_code == 2


class TestEnvironmentOverrides:
    def test_nmax_cap(self, runner, monkeypatch):
        monkeypatch.setenv("MOMENTDET_NMAX_CAP", "50")
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "50"])
        assert result.exit_code == 0

    def test_bad_nmax_cap_exits_2(self, runner, monkeypatch):
        monkeypatch.setenv("MOMENTDET_NMAX_CAP", "many")
        result = runner.invoke(main, ["gen", "--family", "exp", "--nmax", "10"])
        assert result.exit_code == 2

    def test_rel_tol_env(self, runner, monkeypatch):
        monkeypatch.setenv("MOMENTDET_REL_TOL", "1e-6")
        result = runner.invoke(main, ["gen", "--family", X11, "--nmax", "10"])
        assert result.exit_code == 0

    def test_bad_rel_tol_env_exits_2(self, runner, monkeypatch):
        monkeypatch.setenv("MOMENTDET_REL_TOL", "tight")
        result = runner.invoke(main, ["gen", "--family", X11, "--nmax", "10"])
        assert result.exit_code == 2

    def test_flag_beats_env(self, runner, monkeypatch):
        # the flag short-circuits resolution, so a bogus env value is ignored
        monkeypatch.setenv("MOMENTDET_REL_TOL", "tight")
        result = runner.invoke(
            main, ["gen", "--family", X11, "--nmax", "10", "--rel-tol", "1e-8"]
        )
        assert result.exit_code == 0


class TestTopLevel:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("gen", "check", "paper-table", "asym", "wtable", "gamma-derivs"):
            assert cmd in result.output
