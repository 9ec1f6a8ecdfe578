"""Command-line front end.

Subcommands:

* ``gen`` — generate a moment-sequence file from a family description.
* ``check`` — run determinacy checkers on a sequence file, emit a report.
* ``paper-table`` — reproduce the reference table of K-ratios and moments
  with tolerances; exits 1 if any tolerance fails.
* ``asym`` — quadrature vs. saddle-point estimates of S(t) at given t.
* ``wtable`` — Lambert W values with residuals and a-priori bounds.
* ``gamma-derivs`` — derivatives of the gamma function at 1 with
  bracketing checks of the unit-interval part.

Exit codes: 0 ok; 1 tolerance failure (paper-table only); 2 input error
(bad family string, malformed file, out-of-range parameter); 3 numeric
failure (non-convergence).

Environment overrides (explicit flags take precedence):
``MOMENTDET_REL_TOL`` sets the default quadrature tolerance;
``MOMENTDET_NMAX_CAP`` caps --nmax (default 5000).

Numeric output is stable for machine consumption: CSV carries 17
significant digits, JSON renders log-magnitudes as strings, so files
round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .asymptotics import laplace_estimate_exact, laplace_estimate_leading
from .criteria import QFunction, _report, analyze, check_carleman, check_growth_rate, check_hardy
from .errors import (
    ConvergenceError,
    DomainError,
    FamilyParseError,
    QuadratureError,
    SequenceError,
)
from .lambertw import lambert_w0, lambert_w_bounds
from .moments import from_csv, from_json, generate_from_label, to_csv, to_json
from .quadrature import DEFAULT_REL_TOL, _log_gamma, log_power_integral, validate_rel_tol

_ENV_REL_TOL = "MOMENTDET_REL_TOL"
_ENV_NMAX_CAP = "MOMENTDET_NMAX_CAP"
_DEFAULT_NMAX_CAP = 5000

_LOG10 = math.log(10.0)


def _env(name: str, parse, noun: str, default):
    """The value of environment variable ``name`` read by ``parse``, or
    ``default`` when it is unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise DomainError(f"{name} must be {noun}, got {text!r}") from exc


def _resolve_rel_tol(flag_value: float | None) -> float:
    if flag_value is None:
        flag_value = _env(_ENV_REL_TOL, float, "a float", DEFAULT_REL_TOL)
    return validate_rel_tol(flag_value)


def _resolve_nmax(n_max: int) -> int:
    cap = _env(_ENV_NMAX_CAP, int, "an integer", _DEFAULT_NMAX_CAP)
    if n_max > cap:
        raise DomainError(f"--nmax {n_max} exceeds the cap {cap} (set {_ENV_NMAX_CAP} to raise)")
    return n_max


def _write(out: str, text: str) -> None:
    try:
        with click.open_file(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out!r}: {exc}") from exc


def _table(fmt: str, header: list[str], rows: list[list[object]]) -> str:
    """The rows as CSV (floats at 17 significant digits) for ``fmt == "csv"``,
    else as aligned human text (floats at 6)."""
    spec = ".17g" if fmt == "csv" else ".6g"

    def cell(value: object) -> str:
        if value is None:
            return ""
        return format(value, spec) if isinstance(value, float) else str(value)

    cells = [list(map(cell, row)) for row in rows]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [header, *cells])
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    lines = [header, ["-" * w for w in widths], *cells]
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in lines)


def _format_option(*choices: str):
    return click.option(
        "--format", "fmt", type=click.Choice(choices), default=choices[0], show_default=True
    )


_out_option = click.option(
    "--out", default="-", show_default=True, help="Output path ('-' for stdout)."
)
_rel_tol_option = click.option(
    "--rel-tol", type=float, default=None, help="Quadrature relative tolerance."
)


class _Main(click.Group):
    """The command group; the one place package exceptions become exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (FamilyParseError, SequenceError, DomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (QuadratureError, ConvergenceError) as exc:
            click.echo(f"numeric error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Moment-determinacy diagnostics and log-domain special functions."""


# -- gen ----------------------------------------------------------------------


@main.command("gen")
@click.option("--family", required=True, help="Family description, e.g. 'product[(1,1),(1,1)]'.")
@click.option("--nmax", required=True, type=int, help="Highest stored order (>= 2).")
@_rel_tol_option
@_format_option("json", "csv")
@_out_option
def cmd_gen(family: str, nmax: int, rel_tol: float | None, fmt: str, out: str) -> None:
    """Generate a moment-sequence file for a family.

    Grammar: exp | exp2 | lognormal | product[(delta,r),...] |
    symroot[(delta,r),...] | symprod[(delta,r),...].
    """
    seq = generate_from_label(family, _resolve_nmax(nmax), rel_tol=_resolve_rel_tol(rel_tol))
    _write(out, to_json(seq) if fmt == "json" else to_csv(seq))


# -- check --------------------------------------------------------------------


def _parse_q(text: str) -> QFunction:
    text = text.strip()
    if text in ("one", "1", "constant-one"):
        return QFunction.one()
    if text == "log":
        return QFunction.log()
    if text.startswith("power:"):
        try:
            return QFunction.power(float(text.partition(":")[2]))
        except ValueError as exc:
            raise DomainError(f"bad power q spec {text!r}: {exc}") from exc
    raise DomainError(f"unknown q spec {text!r}; expected one, log, or power:ALPHA")


def _load_sequence(path: str):
    try:
        with click.open_file(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceError(f"cannot read {path!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_csv(text)


def _human_report(report: dict[str, object]) -> str:
    lines = [
        f"sequence: {report.get('label') or '(unlabeled)'}  "
        f"support={report['support']}  n_max={report['n_max']}"
    ]
    for v in report["verdicts"]:  # type: ignore[index]
        diag = v["diagnostics"]
        keys = sorted(diag)[:4]
        detail = ", ".join(f"{k}={diag[k]:.4g}" for k in keys)
        lines.append(f"  {v['criterion']:<14} {v['status']:<20} ({detail})")
    trends = report.get("trends")
    if isinstance(trends, dict):
        for name, pairs in trends.items():
            path = "  ".join(f"{n}:{val:.4f}" for n, val in pairs)
            lines.append(f"  trend {name}: {path}")
    return "\n".join(lines) + "\n"


def _finite_or_null(value: object) -> object:
    """``value`` with every non-finite float in it replaced by None, so that
    an overflowed diagnostic is written as strict JSON ``null``."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@main.command("check")
@click.option("--in", "input_path", required=True, help="Moment-sequence file (JSON or CSV).")
@click.option(
    "--criteria",
    default="all",
    show_default=True,
    help="Comma list from {carleman, growth, growth-q, hardy} or 'all'.",
)
@click.option("--q", "q_spec", default="log", show_default=True, help="q for growth-q: one, log, power:ALPHA.")
@_format_option("json", "human")
@_out_option
def cmd_check(input_path: str, criteria: str, q_spec: str, fmt: str, out: str) -> None:
    """Run determinacy checkers on a sequence file; exit 0 regardless of verdicts."""
    seq = _load_sequence(input_path)
    wanted = [c.strip() for c in criteria.split(",") if c.strip()]
    if not wanted:
        raise DomainError("--criteria must name at least one checker")
    if "all" in wanted:
        report = analyze(seq)
    else:
        verdicts = []
        for name in wanted:
            if name == "carleman":
                verdicts.append(check_carleman(seq))
            elif name == "growth":
                verdicts.append(check_growth_rate(seq, QFunction.one()))
            elif name == "growth-q":
                verdicts.append(check_growth_rate(seq, _parse_q(q_spec)))
            elif name == "hardy":
                verdicts.append(check_hardy(seq))
            else:
                raise DomainError(
                    f"unknown criterion {name!r}; expected carleman, growth, growth-q, hardy"
                )
        report = _report(seq, verdicts)
    if fmt == "json":
        _write(out, json.dumps(_finite_or_null(report), indent=2, allow_nan=False) + "\n")
    else:
        _write(out, _human_report(report))


# -- paper-table ----------------------------------------------------------------


def _reference_rows(rel_tol: float) -> list[dict[str, object]]:
    orders = (0, 1, 2, 3, 4, 99, 100)
    logk = dict(zip(orders, log_power_integral(orders, rel_tol).tolist()))

    def row(
        name: str,
        computed: float,
        reference: float,
        tol: float,
        mode: str,
        informational: bool = False,
        note: str = "",
    ) -> dict[str, object]:
        if mode == "abs":
            deviation = abs(computed - reference)
        else:
            deviation = abs(computed / reference - 1.0)
        status = "info" if informational else ("ok" if deviation <= tol else "FAIL")
        return {
            "name": name,
            "computed": computed,
            "reference": reference,
            "deviation": deviation,
            "tolerance": tol,
            "mode": mode,
            "status": status,
            "note": note,
        }

    return [
        row("K1/K0", math.exp(logk[1] - logk[0]), 0.60, 0.01, "abs"),
        row("K2/K1", math.exp(logk[2] - logk[1]), 0.89, 0.01, "abs"),
        row("K3/K2", math.exp(logk[3] - logk[2]), 1.09, 0.01, "abs"),
        row("K4/K3", math.exp(logk[4] - logk[3]), 1.24, 0.01, "abs"),
        row("K100/K99", math.exp(logk[100] - logk[99]), 3.39, 0.01, "abs"),
        row("K2", math.exp(logk[2]), 0.53, 0.01, "abs"),
        row("K99", math.exp(logk[99]), 1.32e41, 0.01, "rel"),
        row("K100", math.exp(logk[100]), 4.47e41, 0.01, "rel"),
        row("m2", math.exp(2.0 * math.log(2.0) + 2.0 * logk[2]), 1.13, 0.01, "abs"),
        row("m99/(99!)^2", math.exp(2.0 * logk[99]), 1.73e82, 0.02, "rel"),
        row("m100/(100!)^2", math.exp(2.0 * logk[100]), 2.0e83, 0.02, "rel"),
        row(
            "m1",
            math.exp(2.0 * logk[1]),
            1.0,
            0.0,
            "abs",
            informational=True,
            note="paper value inconsistent; m1 = K1^2 by definition",
        ),
    ]


_TABLE_HEADER = ["name", "computed", "reference", "deviation", "tolerance", "mode", "status", "note"]


@main.command("paper-table")
@_rel_tol_option
@_format_option("human", "json", "csv")
@_out_option
def cmd_paper_table(rel_tol: float | None, fmt: str, out: str) -> None:
    """Reproduce the reference K-ratio/moment table; exit 1 on tolerance failure."""
    rows = _reference_rows(_resolve_rel_tol(rel_tol))
    all_within = all(r["status"] != "FAIL" for r in rows)
    as_lists = [[r[h] for h in _TABLE_HEADER] for r in rows]
    if fmt == "json":
        _write(out, json.dumps({"rows": rows, "all_within": all_within}, indent=2) + "\n")
    else:
        _write(out, _table(fmt, _TABLE_HEADER, as_lists))
    if not all_within:
        sys.exit(1)


# -- asym ----------------------------------------------------------------------


@main.command("asym")
@click.option("--t", "t_values", required=True, multiple=True, type=float, help="Repeatable.")
@_rel_tol_option
@_format_option("human", "csv")
@_out_option
def cmd_asym(t_values: tuple[float, ...], rel_tol: float | None, fmt: str, out: str) -> None:
    """Compare quadrature S(t) against the exact and leading saddle estimates."""
    rel_tol = _resolve_rel_tol(rel_tol)
    header = [
        "t",
        "log10_integral",
        "log10_exact",
        "log10_leading",
        "exact_to_integral",
        "leading_to_integral",
    ]
    rows = []
    for t, log_s in zip(t_values, log_power_integral(t_values, rel_tol).tolist()):
        estimates = (laplace_estimate_exact(t).logmag, laplace_estimate_leading(t).logmag)
        rows.append(
            [float(t), log_s / _LOG10, *(e / _LOG10 for e in estimates)]
            + [math.exp(e - log_s) for e in estimates]
        )
    _write(out, _table(fmt, header, rows))


# -- wtable ----------------------------------------------------------------------


def _parse_t(token: str) -> float:
    token = token.strip()
    if token == "e":
        return math.e
    try:
        return float(token)
    except ValueError as exc:
        raise DomainError(f"bad --t value {token!r} (use a number or 'e')") from exc


@main.command("wtable")
@click.option("--t", "t_values", required=True, multiple=True, help="Number or 'e'; repeatable.")
@_format_option("human", "csv")
@_out_option
def cmd_wtable(t_values: tuple[str, ...], fmt: str, out: str) -> None:
    """Tabulate W(t) with residuals and the a-priori bounds (t > e)."""
    header = ["t", "w", "residual", "lower_bound", "upper_bound", "note"]
    rows = []
    for token in t_values:
        t = _parse_t(token)
        wv = lambert_w0(t)
        if t > math.e:
            lower, upper = lambert_w_bounds(t)
            note = ""
        else:
            lower = upper = None
            note = "boundary (t = e): bounds require t > e" if t == math.e else "bounds require t > e"
        rows.append([wv.t, wv.w, wv.residual, lower, upper, note])
    _write(out, _table(fmt, header, rows))


# -- gamma-derivs -----------------------------------------------------------------


@main.command("gamma-derivs")
@click.option("--nmax", required=True, type=int, help="Tabulate n = 0..nmax.")
@_rel_tol_option
@_format_option("human", "csv")
@_out_option
def cmd_gamma_derivs(nmax: int, rel_tol: float | None, fmt: str, out: str) -> None:
    """Tabulate gamma-function derivatives at 1 with unit-part bracket checks."""
    if nmax < 0:
        raise DomainError(f"--nmax must be >= 0, got {nmax}")
    rel_tol = _resolve_rel_tol(rel_tol)
    _resolve_nmax(nmax)  # cap applies to the tabulation order, which may be < 2
    header = [
        "n",
        "gamma_sign",
        "gamma_log_abs",
        "gamma_value",
        "unit_log_abs",
        "unit_bracket_lo",
        "unit_bracket_hi",
        "unit_bracket_ok",
    ]
    (signs, logs, _, _), (unit_logs, _, _) = _log_gamma(np.arange(nmax + 1.0), rel_tol)
    rows = []
    for n, sign, log, unit_log in zip(
        range(nmax + 1), signs.astype(int).tolist(), logs.tolist(), unit_logs.tolist()
    ):
        # e^{-1}·n! <= |unit| <= n!, in the log domain
        lo = math.lgamma(n + 1.0) - 1.0
        hi = math.lgamma(n + 1.0)
        ok = int(lo - 1e-9 <= unit_log <= hi + 1e-9)
        value = sign * math.exp(log) if abs(log) < 700.0 else None
        rows.append([n, sign, log, value, unit_log, lo, hi, ok])
    _write(out, _table(fmt, header, rows))


if __name__ == "__main__":  # pragma: no cover
    main()
