"""Acceptance suite: the seven shipping criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion re-asserts its published tolerances directly (hardcoded
here, not read back from the package) so a regression in either the
numerics or the reporting fails loudly.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from momentdet import (
    analyze,
    check_carleman,
    check_growth_rate,
    check_hardy,
    from_csv,
    from_json,
    gamma_derivative,
    generate_from_label,
    integrate_logweighted,
    integrate_unit_log_power,
    lambert_w0,
    lambert_w_bounds,
    laplace_estimate_exact,
    QFunction,
    to_csv,
    to_json,
    w_frac_diff,
    w_ratio_power,
)
from momentdet.cli import main

from .conftest import CliRunner
from .oracles import simpson_s, simpson_unit

X11 = "product[(1,1),(1,1)]"
SATISFIED = "satisfied-evidence"
VIOLATED = "violated-evidence"


def _finish(name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] acceptance: {name}")
    assert not failures, "\n".join(failures)


def test_acceptance_1_reference_table():
    """K-ratio/K-value/moment table within the stated tolerances."""
    failures: list[str] = []
    result = CliRunner().invoke(main, ["paper-table", "--format", "json"])
    if result.exit_code != 0:
        failures.append(f"paper-table exited {result.exit_code}")
    doc = json.loads(result.output)
    if doc.get("all_within") is not True:
        failures.append("paper-table reports a tolerance failure")
    computed = {r["name"]: float(r["computed"]) for r in doc["rows"]}

    expectations = [
        ("K1/K0", 0.60, 0.01, "abs"),
        ("K2/K1", 0.89, 0.01, "abs"),
        ("K3/K2", 1.09, 0.01, "abs"),
        ("K4/K3", 1.24, 0.01, "abs"),
        ("K100/K99", 3.39, 0.01, "abs"),
        ("K2", 0.53, 0.01, "abs"),
        ("K99", 1.32e41, 0.01, "rel"),
        ("K100", 4.47e41, 0.01, "rel"),
        ("m2", 1.13, 0.01, "abs"),
        ("m99/(99!)^2", 1.73e82, 0.02, "rel"),
        ("m100/(100!)^2", 2.0e83, 0.02, "rel"),
    ]
    for name, reference, tol, mode in expectations:
        if name not in computed:
            failures.append(f"row {name} missing from table")
            continue
        value = computed[name]
        dev = abs(value - reference) if mode == "abs" else abs(value / reference - 1.0)
        if dev > tol:
            failures.append(f"{name}: computed {value:.6g}, reference {reference:.6g}, "
                            f"{mode} deviation {dev:.3g} > {tol}")
    _finish("reference table reproduction", failures)


def test_acceptance_2_lambert_w_suite():
    """W anchors, residuals, bound sandwich, and ratio/difference bounds."""
    failures: list[str] = []
    if lambert_w0(0.0).w != 0.0:
        failures.append("W(0) != 0")
    if abs(lambert_w0(math.e).w - 1.0) > 1e-12:
        failures.append(f"|W(e) - 1| = {abs(lambert_w0(math.e).w - 1.0):.3g} > 1e-12")

    for t in np.geomspace(1e-6, 1e12, 200):
        t = float(t)
        res = lambert_w0(t)
        if res.residual > 1e-12 * max(t, 1.0):
            failures.append(f"t={t:.3g}: residual {res.residual:.3g} above 1e-12 relative")
        if t > math.e:
            lo, hi = lambert_w_bounds(t)
            if not (lo <= res.w * (1 + 1e-13) and res.w <= hi * (1 + 1e-13)):
                failures.append(f"t={t:.3g}: bound sandwich violated ({lo} !<= {res.w} !<= {hi})")
        rp = w_ratio_power(t)
        rp_hi = math.exp(1.0 / (res.w + 1.0))
        if not (1.0 - 1e-12 <= rp <= rp_hi * (1 + 1e-12)):
            failures.append(f"t={t:.3g}: w_ratio_power {rp} outside [1, {rp_hi}]")
        fd = w_frac_diff(t)
        fd_hi = 1.0 / lambert_w0(t + 1.0).w
        if not (-1e-12 <= fd <= fd_hi * (1 + 1e-12)):
            failures.append(f"t={t:.3g}: w_frac_diff {fd} outside [0, {fd_hi}]")
    _finish("lambert W suite", failures)


def test_acceptance_3_asymptotics_convergence():
    """Saddle-point estimate converges; growth trends approach their limits."""
    failures: list[str] = []
    devs = []
    for t in (50.0, 100.0, 500.0, 1000.0):
        log_s = integrate_logweighted(t).value.logmag
        devs.append(abs(math.exp(laplace_estimate_exact(t).logmag - log_s) - 1.0))
    if not all(devs[i] > devs[i + 1] for i in range(len(devs) - 1)):
        failures.append(f"estimate deviation not strictly decreasing: {devs}")
    if devs[-1] > 0.25:
        failures.append(f"estimate deviation at t=1000 is {devs[-1]:.3g} > 0.25")

    root_devs, ratio_devs = [], []
    for n in (50, 200, 1000):
        log_kn = integrate_logweighted(float(n)).value.logmag
        log_kn1 = integrate_logweighted(float(n + 1)).value.logmag
        scale = math.log(n + 1.0)
        root_devs.append(abs(math.exp(log_kn / n) / scale - 1.0))
        ratio_devs.append(abs(math.exp(log_kn1 - log_kn) / scale - 1.0))
    if not (root_devs[0] > root_devs[1] > root_devs[2]):
        failures.append(f"K_n^(1/n)/ln(n+1) not monotonically approaching 1: {root_devs}")
    if not (ratio_devs[0] > ratio_devs[1] > ratio_devs[2]):
        failures.append(f"(K_(n+1)/K_n)/ln(n+1) not monotonically approaching 1: {ratio_devs}")
    _finish("asymptotics convergence", failures)


def test_acceptance_4_gamma_derivatives():
    """Anchor values, sign/bracket laws, and the decomposition identity."""
    failures: list[str] = []
    g0 = gamma_derivative(0).value.to_float()
    if abs(g0 - 1.0) > 1e-12:
        failures.append(f"gamma_0 = {g0!r}, expected 1")
    g1 = gamma_derivative(1).value.to_float()
    if abs(g1 - (-0.5772156649)) > 1e-8:
        failures.append(f"gamma_1 = {g1!r}, expected -0.5772156649 +- 1e-8")
    g2 = gamma_derivative(2).value.to_float()
    if abs(g2 - 1.9781119906) > 1e-8:
        failures.append(f"gamma_2 = {g2!r}, expected 1.9781119906 +- 1e-8")

    for n in range(1, 21):
        unit = integrate_unit_log_power(n).value
        if unit.sign != (-1) ** n:
            failures.append(f"unit integral n={n}: sign {unit.sign}, expected {(-1)**n}")
        log_fact = math.lgamma(n + 1.0)
        if not (log_fact - 1.0 - 1e-9 <= unit.logmag <= log_fact + 1e-9):
            failures.append(f"unit integral n={n}: |value| outside [e^-1 n!, n!]")
        got = gamma_derivative(n).value.to_float()
        expected = (-1.0) ** n * simpson_unit(n) + math.exp(-1.0) * simpson_s(float(n))
        if abs(got / expected - 1.0) > 1e-8:
            failures.append(
                f"gamma_{n}: decomposition mismatch {got!r} vs oracle {expected!r}"
            )
    _finish("gamma derivatives", failures)


def test_acceptance_5_checker_calibration(seqs):
    """Verdict matrix for the stock families at n_max = 200."""
    failures: list[str] = []

    def expect(desc: str, status: str, want: str) -> None:
        if status != want:
            failures.append(f"{desc}: got {status}, want {want}")

    x11 = seqs(X11, 200)
    expect("X(1,1) carleman", check_carleman(x11).status, SATISFIED)
    expect("X(1,1) growth q=1", check_growth_rate(x11, QFunction.one()).status, VIOLATED)
    expect("X(1,1) growth q=log", check_growth_rate(x11, QFunction.log()).status, SATISFIED)
    expect("X(1,1) hardy", check_hardy(x11).status, VIOLATED)

    exp = seqs("exp", 200)
    expect("exp carleman", check_carleman(exp).status, SATISFIED)
    expect("exp growth q=1", check_growth_rate(exp).status, SATISFIED)
    expect("exp growth q=log", check_growth_rate(exp, QFunction.log()).status, SATISFIED)
    expect("exp hardy", check_hardy(exp).status, SATISFIED)

    exp2 = seqs("exp2", 200)
    expect("exp2 carleman", check_carleman(exp2).status, SATISFIED)
    expect("exp2 growth q=1", check_growth_rate(exp2).status, SATISFIED)
    hardy2 = check_hardy(exp2)
    expect("exp2 hardy", hardy2.status, SATISFIED)
    if abs(hardy2.diagnostics["c0"] - 1.0) > 1e-9:
        failures.append(f"exp2 hardy c0 = {hardy2.diagnostics['c0']!r}, want 1")

    expect("lognormal carleman", check_carleman(seqs("lognormal", 200)).status, VIOLATED)

    sym = seqs("symroot[(1,1),(1,1)]", 200)
    if sym.support != "hamburger-symmetric":
        failures.append(f"symroot support is {sym.support}")
    expect("symroot X(1,1) carleman", check_carleman(sym).status, SATISFIED)
    expect("symroot X(1,1) growth q=1", check_growth_rate(sym).status, VIOLATED)
    _finish("checker calibration matrix", failures)


def test_acceptance_6_oracle_equivalence():
    """Quadrature vs. brute-force rule; log-convexity of S."""
    failures: list[str] = []
    for p in (0.5, 1.0, 2.0, 5.0):
        got = integrate_logweighted(p).value.to_float()
        want = simpson_s(p)
        if abs(got / want - 1.0) > 1e-8:
            failures.append(f"p={p}: {got!r} vs oracle {want!r}")
    logs = {p: integrate_logweighted(float(p)).value.logmag for p in range(1, 152)}
    for p in range(2, 151):
        if logs[p - 1] + logs[p + 1] - 2.0 * logs[p] < -1e-8:
            failures.append(f"log-convexity S(p)^2 <= S(p-1)S(p+1) fails at p={p}")
    _finish("oracle equivalence", failures)


def test_acceptance_7_round_trip_and_determinism(seqs):
    """Bit-exact serialization at n_max=500; verdicts stable across runs/threads."""
    failures: list[str] = []
    for label in (X11, "exp"):
        seq = seqs(label, 500)
        for codec, dump, load in (("json", to_json, from_json), ("csv", to_csv, from_csv)):
            back = load(dump(seq))
            if not np.array_equal(back.log_moments, seq.log_moments):
                failures.append(f"{label}@500 {codec} round trip not bit-exact")
            if (back.support, back.n_max, back.label) != (seq.support, seq.n_max, seq.label):
                failures.append(f"{label}@500 {codec} metadata changed")

    seq = seqs(X11, 200)
    first = analyze(seq)
    if analyze(seq) != first:
        failures.append("repeated analyze() runs differ")
    for workers in (1, 4):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda _: analyze(seq), range(2 * workers)))
        if any(r != first for r in results):
            failures.append(f"analyze() differs across {workers} worker threads")

    regen = generate_from_label(X11, 200)
    if not np.array_equal(regen.log_moments, seq.log_moments):
        failures.append("regenerated sequence differs from first generation")
    _finish("round trip and determinism", failures)
