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
(bad family string, malformed file, out-of-range parameter) or usage
error (unknown, abbreviated or missing option, bad choice or number);
3 numeric failure (non-convergence).

Environment overrides (explicit flags take precedence):
``MOMENTDET_REL_TOL`` sets the default quadrature tolerance;
``MOMENTDET_NMAX_CAP`` caps --nmax (default 5000).

Numeric output is stable for machine consumption: CSV carries 17
significant digits, JSON renders log-magnitudes as strings, so files
round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import codecs
import json
import math
import os
import sys
from dataclasses import replace

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
from .quadrature import (
    DEFAULT_REL_TOL,
    _checked,
    _log_gamma,
    _log_s_quadrature,
    log_power_integral,
    validate_rel_tol,
)

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
        if out == "-":
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as handle:
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


# -- gen ----------------------------------------------------------------------


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
        # '-' is stdin, file descriptor 0, which stays open
        with open(0 if path == "-" else path, encoding="utf-8", closefd=path != "-") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceError(f"cannot read {path!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_csv(text)


def _trend_value(value: float) -> str:
    """A trend value for human output; from 1e6 on in exponent form, not hundreds of digits."""
    return f"{value:.4e}" if math.isfinite(value) and abs(value) >= 1e6 else f"{value:.4f}"


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
            path = "  ".join(f"{n}:{_trend_value(val)}" for n, val in pairs)
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


#: Each ``check --criteria`` name's checker, given the sequence and the ``--q`` function.
_CHECKERS = {
    "carleman": lambda seq, q: check_carleman(seq),
    "growth": lambda seq, q: check_growth_rate(seq, QFunction.one()),
    # named growth_rate_q whatever q is, so it never shares the growth verdict's name
    "growth-q": lambda seq, q: replace(check_growth_rate(seq, q), criterion="growth_rate_q"),
    "hardy": lambda seq, q: check_hardy(seq),
}
_CHECKER_NAMES = ", ".join(_CHECKERS)


def cmd_check(input_path: str, criteria: str, q_spec: str, fmt: str, out: str) -> None:
    """Run determinacy checkers on a sequence file; exit 0 regardless of verdicts."""
    q = _parse_q(q_spec)
    seq = _load_sequence(input_path)
    wanted = [c.strip() for c in criteria.split(",") if c.strip()]
    if not wanted:
        raise DomainError("--criteria must name at least one checker")
    for name in wanted:  # every name, before any checker runs
        if name != "all" and name not in _CHECKERS:
            raise DomainError(f"unknown criterion {name!r}; expected {_CHECKER_NAMES}")
    if "all" in wanted:
        report = analyze(seq)
    else:
        report = _report(seq, [_CHECKERS[name](seq, q) for name in wanted])
    if fmt == "json":
        _write(out, json.dumps(_finite_or_null(report), indent=2, allow_nan=False) + "\n")
    else:
        _write(out, _human_report(report))


# -- paper-table ----------------------------------------------------------------


_TABLE_HEADER = ["name", "computed", "reference", "deviation", "tolerance", "mode", "status", "note"]

# The paper's table: name, the log of the value over k[n] = ln K_n, the paper's
# value, tolerance, mode (abs/rel) and a note; a row with a note is "info" only.
_REFERENCE = [
    ("K1/K0", lambda k: k[1] - k[0], 0.60, 0.01, "abs", ""),
    ("K2/K1", lambda k: k[2] - k[1], 0.89, 0.01, "abs", ""),
    ("K3/K2", lambda k: k[3] - k[2], 1.09, 0.01, "abs", ""),
    ("K4/K3", lambda k: k[4] - k[3], 1.24, 0.01, "abs", ""),
    ("K100/K99", lambda k: k[100] - k[99], 3.39, 0.01, "abs", ""),
    ("K2", lambda k: k[2], 0.53, 0.01, "abs", ""),
    ("K99", lambda k: k[99], 1.32e41, 0.01, "rel", ""),
    ("K100", lambda k: k[100], 4.47e41, 0.01, "rel", ""),
    ("m2", lambda k: 2.0 * math.log(2.0) + 2.0 * k[2], 1.13, 0.01, "abs", ""),
    ("m99/(99!)^2", lambda k: 2.0 * k[99], 1.73e82, 0.02, "rel", ""),
    ("m100/(100!)^2", lambda k: 2.0 * k[100], 2.0e83, 0.02, "rel", ""),
    ("m1", lambda k: 2.0 * k[1], 1.0, 0.0, "abs", "paper value inconsistent; m1 = K1^2 by definition"),
]


def _reference_rows(rel_tol: float) -> list[dict[str, object]]:
    orders = (0, 1, 2, 3, 4, 99, 100)
    k = dict(zip(orders, log_power_integral(orders, rel_tol).tolist()))
    rows = []
    for name, log, reference, tol, mode, note in _REFERENCE:
        computed = math.exp(log(k))
        deviation = abs(computed - reference) if mode == "abs" else abs(computed / reference - 1.0)
        status = "info" if note else ("ok" if deviation <= tol else "FAIL")
        rows.append(dict(zip(_TABLE_HEADER, (name, computed, reference, deviation, tol, mode, status, note))))
    return rows


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


def cmd_asym(t_values: list[float], rel_tol: float | None, fmt: str, out: str) -> None:
    """Compare quadrature S(t) against the exact and leading saddle estimates, at each --t."""
    rel_tol = _resolve_rel_tol(rel_tol)
    header = [
        "t",
        "log10_integral",
        "log10_exact",
        "log10_leading",
        "exact_to_integral",
        "leading_to_integral",
    ]
    # S(t) by quadrature, not by the series and table the library takes:
    # they extend the saddle terms of the estimates this command compares it with
    ts, rel_tol = _checked("asym", t_values, rel_tol, "t")
    rows = []
    for t, log_s in zip(t_values, _log_s_quadrature(ts, rel_tol)[0].tolist()):
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


def cmd_wtable(t_values: list[str], fmt: str, out: str) -> None:
    """Tabulate W(t) at each --t, a number or e, with residuals and the a-priori bounds (t > e)."""
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


# -- the command line ---------------------------------------------------------------


def _parser(prog: str) -> argparse.ArgumentParser:
    """The parser of every command; each command's docstring is its help."""
    exact = {"add_help": False, "allow_abbrev": False}  # no -h, and --fam is not --family
    parser = argparse.ArgumentParser(prog, description=main.__doc__, **exact)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run, *formats: str, rel_tol: bool = True) -> argparse.ArgumentParser:
        """The subparser that calls ``run``, with the options every command shares."""
        doc = run.__doc__
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc, **exact)
        sub.set_defaults(run=run)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        if rel_tol:
            sub.add_argument("--rel-tol", type=float, help="Quadrature relative tolerance.")
        sub.add_argument(
            "--format", dest="fmt", choices=formats, default=formats[0], help="Default: %(default)s."
        )
        sub.add_argument("--out", default="-", help="Output path; '-', the default, is stdout.")
        return sub

    gen = command("gen", cmd_gen, "json", "csv")
    gen.add_argument("--family", required=True, help="A family, e.g. 'product[(1,1),(1,1)]'.")
    gen.add_argument("--nmax", required=True, type=int, help="Highest stored order (>= 2).")
    check = command("check", cmd_check, "json", "human", rel_tol=False)
    check.add_argument("--in", dest="input_path", required=True, help="A JSON or CSV sequence file.")
    check.add_argument("--criteria", default="all", help=f"Comma list from {{{_CHECKER_NAMES}}} or all.")
    q_help = "q for growth-q: one, log (the default), power:ALPHA; all reports growth_rate_q at q = ln n."
    check.add_argument("--q", dest="q_spec", default="log", help=q_help)
    command("paper-table", cmd_paper_table, "human", "json", "csv")
    asym = command("asym", cmd_asym, "human", "csv")
    asym.add_argument("--t", dest="t_values", action="append", required=True, type=float, metavar="T")
    wtable = command("wtable", cmd_wtable, "human", "csv", rel_tol=False)
    wtable.add_argument("--t", dest="t_values", action="append", required=True, metavar="T")
    gamma = command("gamma-derivs", cmd_gamma_derivs, "human", "csv")
    gamma.add_argument("--nmax", required=True, type=int, help="Tabulate n = 0..nmax.")
    return parser


def main(args: list[str] | None = None, prog_name: str = "momentdet") -> None:
    """Moment-determinacy diagnostics and log-domain special functions."""
    for stream in (sys.stdout, sys.stderr):  # UTF-8 whatever the locale
        if stream.encoding and codecs.lookup(stream.encoding).name != "utf-8":
            stream.reconfigure(encoding="utf-8", errors="replace")
    try:  # the one place package exceptions become exit codes
        options = vars(_parser(prog_name).parse_args(args))
        options.pop("run")(**options)
    except (FamilyParseError, SequenceError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (QuadratureError, ConvergenceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        sys.exit(3)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
