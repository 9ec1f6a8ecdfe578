"""point-eval: one row of ``asym``, ``gamma-derivs`` or ``wtable`` per request.

Why: it uses the quadrature layer one point at a time, where cli-pipeline
uses it for whole sequences, so a batched quadrature that adds per-call
overhead shows here.  It is also the only workload where ``lambertw`` and
``asymptotics`` carry real weight.

Each block of ten requests holds three ``asym`` rows, three
``gamma-derivs`` rows and four ``wtable`` rows in a seeded order, so the
mix is the same for every seed.  The median then falls a third of the way
into the asym rows, inside the band of t whose S(t) takes the same number
of quadrature nodes, rather than at a band edge where it would jump from
seed to seed.  Inputs come from seeded pools:

* asym: t log-uniform in [0.5, 4000]; the row calls integrate_logweighted,
  laplace_estimate_exact and laplace_estimate_leading;
* gamma-derivs: n in [0, 200]; the row calls gamma_derivative and
  integrate_unit_log_power;
* wtable: t log-uniform in [3, 1e6] (the bounds need t > e); the row calls
  lambert_w0 and lambert_w_bounds.

No call in these rows goes through the S(p) cache.
"""

from __future__ import annotations

import harness

NAME = "point-eval"
TRACE_REQUESTS = 3000
#: A set-up is a fresh import and three rows, a few hundredths of a
#: second, so many are made.
SETUP_REPEATS = 15
_BLOCK = ("asym",) * 3 + ("gamma",) * 3 + ("wtable",) * 4
#: Requests make whole blocks, about 2500 a second.
PASS = len(_BLOCK)
REQUESTS_PER_SECOND = 2500


def setup(md, seed: int, timed) -> dict[str, list]:
    r = harness.rng(seed, NAME)
    pools = {
        "asym": harness.stratified(r, 0.5, 4000.0, 32),
        "gamma": [int(x) for x in harness.stratified(r, 0.0, 201.0, 24, log=False)],
        "wtable": harness.stratified(r, 3.0, 1e6, 32),
    }
    for kind, values in pools.items():  # warm-up: one row of each kind
        timed(request, md, pools, (kind, values[0]))
    return pools


def schedule(pools: dict[str, list], seed: int):
    r = harness.rng(seed, NAME + ":order")
    orders = {kind: [] for kind in pools}
    while True:
        block = list(_BLOCK)
        r.shuffle(block)
        for kind in block:
            if not orders[kind]:
                orders[kind] = r.sample(range(len(pools[kind])), len(pools[kind]))
            value = pools[kind][orders[kind].pop()]
            yield (kind, value), (kind, value)


def request(md, pools, args):
    kind, x = args
    if kind == "asym":
        s = md.integrate_logweighted(x)
        return (
            s.value.logmag,
            md.laplace_estimate_exact(x).logmag,
            md.laplace_estimate_leading(x).logmag,
        )
    if kind == "gamma":
        g = md.gamma_derivative(x)
        u = md.integrate_unit_log_power(x)
        return g.value.sign, g.value.logmag, u.value.sign, u.value.logmag
    w = md.lambert_w0(x)
    lower, upper = md.lambert_w_bounds(x)
    return w.w, lower, upper


def check(pools, key, outcome, ledger: harness.Ledger):
    import oracle  # mpmath is loaded only once the timed work is over

    if outcome[0] != "ok":
        return f"raised {outcome[1]}: {outcome[2]}", None
    kind, x = key
    result = outcome[2]
    if kind == "asym":
        log_s, exact, leading = result
        ref_exact, ref_leading = oracle.laplace_estimates(x)
        gaps = (harness.gap(exact, ref_exact), harness.gap(leading, ref_leading))
        bad = ledger.log_gap(log_s, oracle.log_s(x)) > oracle.TOL or max(gaps) > oracle.TOL
    elif kind == "gamma":
        g_sign, g_log, u_sign, u_log = result
        ref_g_sign, ref_g_log = oracle.gamma_derivative(x)
        ref_u_sign, ref_u_log = oracle.unit_log_power(x)
        bad = (g_sign, u_sign) != (ref_g_sign, ref_u_sign)
        bad |= ledger.log_gap(g_log, ref_g_log) > oracle.TOL
        bad |= ledger.log_gap(u_log, ref_u_log) > oracle.TOL
    else:
        w, lower, upper = result
        ref_lower, ref_upper = oracle.lambert_bounds(x)
        gaps = (harness.gap(w, oracle.lambert_w(x)), harness.gap(lower, ref_lower),
                harness.gap(upper, ref_upper))
        bad = max(gaps) > oracle.TOL or not lower <= w <= upper
    return (f"{kind} row misses its mpmath reference", None) if bad else None
