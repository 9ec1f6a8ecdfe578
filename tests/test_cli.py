"""Command-line interface: subcommands, formats, env overrides, exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentdet
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

from .conftest import CliRunner

X11 = "product[(1,1),(1,1)]"


@pytest.fixture()
def runner():
    return CliRunner()


def run_fresh(*args: str, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter, with this package on its path
    and ``env`` added to its environment."""
    src = str(Path(momentdet.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=text, timeout=120
    )


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

    def test_every_named_criterion_matches_all(self, runner, tmp_path):
        path = tmp_path / "x11.json"
        runner.invoke(main, ["gen", "--family", X11, "--nmax", "200", "--out", str(path)])
        named = runner.invoke(
            main, ["check", "--in", str(path), "--criteria", "carleman,growth,growth-q,hardy"]
        )
        every = runner.invoke(main, ["check", "--in", str(path)])
        assert named.exit_code == every.exit_code == 0
        assert json.loads(named.output)["verdicts"] == json.loads(every.output)["verdicts"]

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

    def test_symmetric_report_has_no_trends(self, runner, tmp_path):
        # a symmetric product stores m_{2n} at entry n: no trend columns
        path = tmp_path / "symprod.json"
        runner.invoke(main, ["gen", "--family", "symprod[(1,1),(1,1)]", "--nmax", "300",
                             "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path)])
        assert result.exit_code == 0, result.output
        assert "trends" not in strict_json(result.output)

    def test_human_trend_values_stay_short(self, runner, tmp_path):
        # finite trend values up to ~1e300: exponent form, not hundreds of digits
        path = tmp_path / "lognormal.json"
        path.write_text(to_json(dataclasses.replace(lognormal_moments(2800), label=X11)))
        result = runner.invoke(main, ["check", "--in", str(path), "--format", "human"])
        assert result.exit_code == 0, result.output
        trend_lines = [line for line in result.output.splitlines() if line.startswith("  trend ")]
        tokens = [token for line in trend_lines for token in line.split(": ", 1)[1].split()]
        assert len(tokens) == 17
        assert "2800:1.2404e+300" in tokens
        assert max(map(len, tokens)) <= 20

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

    @pytest.mark.parametrize("criteria", ["all,bogus", "bogus,all"])
    def test_unknown_criterion_beside_all_exits_2(self, runner, tmp_path, criteria):
        # every name is checked, not only those of a list without "all"
        path, out = tmp_path / "exp.json", tmp_path / "report.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main, ["check", "--in", str(path), "--criteria", criteria, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.output == (
            "error: unknown criterion 'bogus'; expected carleman, growth, growth-q, hardy\n"
        )
        assert not out.exists()

    def test_bad_q_spec_exits_2(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main, ["check", "--in", str(path), "--criteria", "growth-q", "--q", "junk"]
        )
        assert result.exit_code == 2

    def test_bad_q_spec_exits_2_under_the_default_criteria(self, runner, tmp_path):
        # all reports growth_rate_q at q = ln n, yet --q is still read
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path), "--q", "junk"])
        assert result.exit_code == 2
        assert result.output.startswith("error: unknown q spec 'junk'")

    def test_growth_q_one_matches_growth(self, runner, tmp_path):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(
            main, ["check", "--in", str(path), "--criteria", "growth,growth-q", "--q", "one"]
        )
        assert result.exit_code == 0, result.output
        growth, growth_q = json.loads(result.output)["verdicts"]
        # q = 1 is the plain growth-rate condition, under the growth-q verdict's own name
        assert (growth_q["status"], growth_q["diagnostics"]) == (growth["status"], growth["diagnostics"])
        assert (growth["criterion"], growth_q["criterion"]) == ("growth_rate", "growth_rate_q")

    @pytest.mark.parametrize(
        "args, message",
        [(["--criteria", "growth-q", "--q", "power:x"],
          "error: bad power q spec 'power:x': could not convert string to float: 'x'\n"),
         (["--criteria", ","], "error: --criteria must name at least one checker\n")],
    )
    def test_bad_q_power_and_empty_criteria_exit_2(self, runner, tmp_path, args, message):
        path = tmp_path / "exp.json"
        runner.invoke(main, ["gen", "--family", "exp", "--nmax", "100", "--out", str(path)])
        result = runner.invoke(main, ["check", "--in", str(path), *args])
        assert result.exit_code == 2
        assert result.output == message

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

    def test_tolerance_failure_exits_1(self, runner, monkeypatch):
        import momentdet.cli as cli_mod

        failing = {
            "name": "K2",
            "computed": 0.6,
            "reference": 0.53,
            "deviation": 0.07,
            "tolerance": 0.01,
            "mode": "abs",
            "status": "FAIL",
            "note": "",
        }
        monkeypatch.setattr(cli_mod, "_reference_rows", lambda rel_tol: [failing])
        result = runner.invoke(main, ["paper-table", "--format", "json"])
        assert result.exit_code == 1
        assert '"all_within": false' in result.output
        assert json.loads(result.output) == {"rows": [failing], "all_within": False}

    def test_shifted_integrals_fail_their_rows(self, runner, monkeypatch):
        """ln K_2 and ln K_99 off by 0.1: each row that reads either fails by
        its own deviation rule, abs or rel, and the other rows stand."""
        import momentdet.cli as cli_mod

        real = cli_mod.log_power_integral

        def shifted(p, rel_tol):
            return real(p, rel_tol) + np.where(np.isin(p, (2, 99)), 0.1, 0.0)

        monkeypatch.setattr(cli_mod, "log_power_integral", shifted)
        result = runner.invoke(main, ["paper-table", "--format", "json"])
        assert result.exit_code == 1
        assert '"all_within": false' in result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]}
        failed = ["K2/K1", "K3/K2", "K100/K99", "K2", "K99", "m2", "m99/(99!)^2"]
        assert {rows[name]["status"] for name in failed} == {"FAIL"}
        assert {rows[name]["mode"] for name in failed} == {"abs", "rel"}
        assert all(rows[name]["deviation"] > rows[name]["tolerance"] for name in failed)
        for name in ("K1/K0", "K4/K3", "K100", "m100/(100!)^2"):
            assert rows[name]["status"] == "ok"
        assert rows["m1"]["status"] == "info"


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

    @pytest.mark.parametrize("t, shown", [("-5", "-5.0"), ("nan", "nan"), ("inf", "inf")])
    def test_invalid_t_is_named_under_asym(self, runner, t, shown):
        result = runner.invoke(main, ["asym", "--t", "1", "--t", t])
        assert result.exit_code == 2
        assert result.output == f"error: asym requires finite t >= 0, got {shown}\n"

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

    def test_python_dash_m_runs_the_cli(self):
        result = run_fresh("-m", "momentdet", "--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("version 0.1.0\n")

    def test_runs_without_click(self, tmp_path):
        # with click refused, gen then check; the CLI does not import it
        blocked = f"""
import sys
sys.modules["click"] = None
from momentdet.cli import main
main(["gen", "--family", {X11!r}, "--nmax", "100", "--out", {str(tmp_path / "x11.json")!r}])
main(["check", "--in", {str(tmp_path / "x11.json")!r}])
"""
        result = run_fresh("-c", blocked)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["label"] == X11
        result = run_fresh("-c", "import sys, momentdet.cli; print('click' in sys.modules)")
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
        result = run_fresh("-m", "momentdet", "--version")
        assert (result.returncode, result.stdout) == (0, "momentdet, version 0.1.0\n")

    def test_streams_are_utf8_whatever_the_encoding(self):
        # latin-1 has no δ: main switches stderr to UTF-8 before the error names it
        result = run_fresh(
            "-m", "momentdet", "gen", "--family", "δ", "--nmax", "10",
            text=False, PYTHONIOENCODING="latin-1",
        )
        assert result.returncode == 2
        assert "unrecognized family 'δ'".encode() in result.stderr

    def test_ctrl_c_aborts_with_exit_1(self, runner, monkeypatch):
        import momentdet.moments as moments_mod

        def interrupted(p, rel_tol):
            raise KeyboardInterrupt

        monkeypatch.setattr(moments_mod, "log_power_integral", interrupted)
        result = runner.invoke(main, ["gen", "--family", X11, "--nmax", "10"])
        assert (result.exit_code, result.output) == (1, "\nAborted!\n")

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("gen", "check", "paper-table", "asym", "wtable", "gamma-derivs"):
            assert cmd in result.output
