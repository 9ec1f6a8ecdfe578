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

import functools
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


def _resolve_rel_tol(flag_value: float | None) -> float:
    if flag_value is not None:
        return validate_rel_tol(flag_value)
    env = os.environ.get(_ENV_REL_TOL)
    if env is None:
        return DEFAULT_REL_TOL
    try:
        value = float(env)
    except ValueError as exc:
        raise DomainError(f"{_ENV_REL_TOL} must be a float, got {env!r}") from exc
    return validate_rel_tol(value)


def _resolve_nmax(n_max: int) -> int:
    cap = _DEFAULT_NMAX_CAP
    env = os.environ.get(_ENV_NMAX_CAP)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise DomainError(f"{_ENV_NMAX_CAP} must be an integer, got {env!r}") from exc
    if n_max > cap:
        raise DomainError(f"--nmax {n_max} exceeds the cap {cap} (set {_ENV_NMAX_CAP} to raise)")
    return n_max


def _exit_codes(fn):
    """Map package exceptions to the CLI exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FamilyParseError, SequenceError, DomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (QuadratureError, ConvergenceError) as exc:
            click.echo(f"numeric error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _write(out: str, text: str) -> None:
    with click.open_file(out, "w") as handle:
        handle.write(text)


def _csv_table(header: list[str], rows: list[list[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.17g}")
            elif cell is None:
                cells.append("")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _human_table(header: list[str], rows: list[list[object]]) -> str:
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.6g}"
        if cell is None:
            return ""
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Moment-determinacy diagnostics and log-domain special functions."""


# -- gen ----------------------------------------------------------------------


@main.command("gen")
@click.option("--family", required=True, help="Family description, e.g. 'product[(1,1),(1,1)]'.")
@click.option("--nmax", required=True, type=int, help="Highest stored order (>= 2).")
@click.option("--rel-tol", type=float, default=None, help="Quadrature relative tolerance.")
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
@click.option("--out", default="-", show_default=True, help="Output path ('-' for stdout).")
@_exit_codes
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
        with click.open_file(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
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


@main.command("check")
@click.option("--in", "input_path", required=True, help="Moment-sequence file (JSON or CSV).")
@click.option(
    "--criteria",
    default="all",
    show_default=True,
    help="Comma list from {carleman, growth, growth-q, hardy} or 'all'.",
)
@click.option("--q", "q_spec", default="log", show_default=True, help="q for growth-q: one, log, power:ALPHA.")
@click.option(
    "--format", "fmt", type=click.Choice(["json", "human"]), default="json", show_default=True
)
@click.option("--out", default="-", show_default=True)
@_exit_codes
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
        _write(out, json.dumps(report, indent=2) + "\n")
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
@click.option("--rel-tol", type=float, default=None, help="Quadrature relative tolerance.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["human", "json", "csv"]),
    default="human",
    show_default=True,
)
@click.option("--out", default="-", show_default=True)
@_exit_codes
def cmd_paper_table(rel_tol: float | None, fmt: str, out: str) -> None:
    """Reproduce the reference K-ratio/moment table; exit 1 on tolerance failure."""
    rows = _reference_rows(_resolve_rel_tol(rel_tol))
    all_within = all(r["status"] != "FAIL" for r in rows)
    as_lists = [[r[h] for h in _TABLE_HEADER] for r in rows]
    if fmt == "json":
        _write(out, json.dumps({"rows": rows, "all_within": all_within}, indent=2) + "\n")
    elif fmt == "csv":
        _write(out, _csv_table(_TABLE_HEADER, as_lists))
    else:
        _write(out, _human_table(_TABLE_HEADER, as_lists))
    if not all_within:
        sys.exit(1)


# -- asym ----------------------------------------------------------------------


@main.command("asym")
@click.option("--t", "t_values", required=True, multiple=True, type=float, help="Repeatable.")
@click.option("--rel-tol", type=float, default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["human", "csv"]), default="human", show_default=True
)
@click.option("--out", default="-", show_default=True)
@_exit_codes
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
    text = _csv_table(header, rows) if fmt == "csv" else _human_table(header, rows)
    _write(out, text)


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
@click.option(
    "--format", "fmt", type=click.Choice(["human", "csv"]), default="human", show_default=True
)
@click.option("--out", default="-", show_default=True)
@_exit_codes
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
    text = _csv_table(header, rows) if fmt == "csv" else _human_table(header, rows)
    _write(out, text)


# -- gamma-derivs -----------------------------------------------------------------


@main.command("gamma-derivs")
@click.option("--nmax", required=True, type=int, help="Tabulate n = 0..nmax.")
@click.option("--rel-tol", type=float, default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["human", "csv"]), default="human", show_default=True
)
@click.option("--out", default="-", show_default=True)
@_exit_codes
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
    text = _csv_table(header, rows) if fmt == "csv" else _human_table(header, rows)
    _write(out, text)


if __name__ == "__main__":  # pragma: no cover
    main()
