"""corpus-check: parse, check and re-serialise sequence files in-process.

Why: quadrature does no timed work here.  The time goes to parsing,
validation, SignedLogValue construction and the checkers, so a quadrature
change should show no change on this workload (except in ``setup_s``).

Set-up generates a seeded corpus through the package:

* ``exp``, ``exp2`` and ``lognormal``: nine files each, one n_max from
  each of nine log-equal strata of [200, 5000];
* four two-factor unit-delta families, one n_max from each of four
  log-equal strata of [200, 5000], r drawn from [0.5, 1]: product and
  symroot with distinct factors on the two lower strata, with identical
  factors (whose S(p) values the package's cache reuses) on the two upper
  ones;
* JSON and CSV alternating along the strata, half of the files each;
* two malformed files (about 5%), cut from the smallest file of their
  format: one JSON file with a ``"nan"`` logmag, and one of a truncated
  JSON file, a CSV index gap, a negative sign or a log-convexity break.  A
  malformed file rejected with SequenceError is a success.

Each request is ``from_json`` or ``from_csv``, then ``analyze``, then
``check_growth_rate`` with the file's seeded ``QFunction.power(α)``,
α in [0.25, 1], then ``to_json``.  Files are served in a fresh seeded
order on every pass over the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import harness

NAME = "corpus-check"
TRACE_REQUESTS = 99
#: A set-up (generating the corpus) takes about 2 s, so a run makes few.
SETUP_REPEATS = 4
#: Requests make whole passes over the 33 files, about 80 a second.
PASS = 33
REQUESTS_PER_SECOND = 80
_STOCK = ("exp", "exp2", "lognormal")
_TWO_FACTOR_KINDS = (("product", False), ("symroot", False), ("product", True), ("symroot", True))
_FORMATS = ("json", "csv")
#: Files per stock family.  With 9 (27 + 4 + 2 files in all) the corpus
#: has an odd number of files, all served equally often, so the median
#: request lies inside one file's block of requests rather than on the
#: edge between two, where it would jump between their costs.
_STOCK_FILES = 9
#: Sizes come from the central fifth of their strata, so that the sorted
#: request costs, and with them the median, barely move between seeds.
_WIDTH = 0.2
_MALFORMATIONS = ("truncated-json", "csv-index-gap", "negative-sign", "not-log-convex")


@dataclass(frozen=True)
class Entry:
    family_class: str  # exp, exp2, lognormal or two-factor
    label: str
    factors: tuple[tuple[float, float], ...]
    n_max: int
    fmt: str
    alpha: float
    text: str
    malformed: str | None = None


def _factors(label: str) -> tuple[tuple[float, float], ...]:
    if label == "exp":
        return ((1.0, 0.0),)
    if label == "exp2":
        return ((2.0, 0.0),)
    if label == "lognormal":
        return ()
    body = label[label.index("[") + 1 : -1]
    return tuple(
        tuple(float(v) for v in pair.strip("()").split(",")) for pair in body.split("),(")
    )


def _plan(seed: int) -> list[tuple[str, str, int, str, float]]:
    """(family class, label, n_max, format, α) for every well-formed file."""
    r = harness.rng(seed, NAME)
    plan = []
    for k, label in enumerate(_STOCK):
        for i, n in enumerate(harness.stratified(r, 200, 5000, _STOCK_FILES, width=_WIDTH)):
            fmt = _FORMATS[(i + k) % 2]
            plan.append((label, label, round(n), fmt, round(r.uniform(0.25, 1.0), 3)))
    sizes = harness.stratified(r, 200, 5000, 4, width=_WIDTH)
    for i, ((head, identical), n) in enumerate(zip(_TWO_FACTOR_KINDS, sizes)):
        r1 = round(r.uniform(0.5, 1.0), 3)
        r2 = r1 if identical else round(r.uniform(0.5, 1.0), 3)
        label = f"{head}[(1,{r1:g}),(1,{r2:g})]"
        alpha = round(r.uniform(0.25, 1.0), 3)
        plan.append(("two-factor", label, round(n), _FORMATS[i % 2], alpha))
    return plan


def _malform(kind: str, entry: Entry, position: int) -> str:
    """Break one file; ``position`` is a seeded moment index in [1, n_max)."""
    lines = entry.text.splitlines(keepends=True)
    if kind == "truncated-json":
        return entry.text[: len(entry.text) * position // entry.n_max]
    if kind == "csv-index-gap":
        start = next(i for i, line in enumerate(lines) if line.startswith("n,sign,logmag")) + 1
        del lines[start + position]
        return "".join(lines)
    doc = json.loads(entry.text)
    moment = doc["moments"][position]
    if kind == "nan-logmag":
        moment["logmag"] = "nan"
    elif kind == "negative-sign":
        moment["sign"] = -1
    else:  # not-log-convex: lift one moment far above its neighbours' mean
        moment["logmag"] = repr(float(moment["logmag"]) + 50.0)
    return json.dumps(doc, indent=2) + "\n"


def setup(md, seed: int, timed) -> list[Entry]:
    corpus = []
    for family_class, label, n_max, fmt, alpha in _plan(seed):
        seq = timed(md.generate_from_label, label, n_max)
        text = timed(md.to_json if fmt == "json" else md.to_csv, seq)
        corpus.append(Entry(family_class, label, _factors(label), n_max, fmt, alpha, text))

    # The malformed files are cut from the smallest file of their format, so
    # they stay at the cheap end of the costs whichever malformation is drawn.
    r = harness.rng(seed, NAME + ":malformed")
    for kind in ("nan-logmag", r.choice(_MALFORMATIONS)):
        fmt = "csv" if kind == "csv-index-gap" else "json"
        base = min((e for e in corpus if e.fmt == fmt), key=lambda e: e.n_max)
        text = _malform(kind, base, r.randrange(1, base.n_max))
        corpus.append(Entry(base.family_class, base.label, base.factors, base.n_max, fmt,
                            base.alpha, text, malformed=kind))

    assert len(corpus) == PASS
    timed(request, md, corpus, min(corpus, key=lambda e: e.n_max))  # warm-up
    return corpus


def schedule(corpus: list[Entry], seed: int):
    r = harness.rng(seed, NAME + ":order")
    while True:
        for i in r.sample(range(len(corpus)), len(corpus)):
            yield i, corpus[i]


def request(md, corpus, entry: Entry):
    seq = md.from_json(entry.text) if entry.fmt == "json" else md.from_csv(entry.text)
    report = md.analyze(seq)
    verdict = md.check_growth_rate(seq, md.QFunction.power(entry.alpha))
    return report, verdict.to_dict(), md.to_json(seq)


def _expected_logmags(entry: Entry) -> list[str]:
    """The file's own log-magnitude strings, re-rendered as to_json renders them."""
    if entry.fmt == "json":
        return [m["logmag"] for m in json.loads(entry.text)["moments"]]
    rows = entry.text.splitlines()
    start = rows.index("n,sign,logmag") + 1
    return [repr(float(row.split(",")[2])) for row in rows[start:]]


def check(corpus, key, outcome, ledger: harness.Ledger):
    import oracle  # mpmath is loaded only once the timed work is over

    entry = corpus[key]
    if entry.malformed is not None:
        if outcome[0] == "raised" and outcome[1] == "SequenceError":
            return None
        known = "nan-logmag-valueerror" if (
            entry.malformed == "nan-logmag" and outcome[:2] == ("raised", "ValueError")
        ) else None
        got = outcome[1] if outcome[0] == "raised" else "no error"
        return f"malformed file ({entry.malformed}) gave {got}, not SequenceError", known
    if outcome[0] == "raised":
        known = "lognormal-overflow" if (
            entry.family_class == "lognormal" and outcome[1] == "OverflowError"
        ) else None
        return f"raised {outcome[1]}: {outcome[2]}", known

    report, verdict, text = outcome[2]
    doc = json.loads(text)
    if (doc["label"], doc["n_max"]) != (entry.label, entry.n_max):
        return "label or n_max changed in the round trip", None
    logmags = [m["logmag"] for m in doc["moments"]]
    if logmags != _expected_logmags(entry) or any(m["sign"] != 1 for m in doc["moments"]):
        return "JSON/CSV round trip is not bit-exact", None

    r = harness.rng(entry.n_max, entry.label)
    for order in (entry.n_max, r.randrange(1, entry.n_max), r.randrange(1, entry.n_max)):
        ref = oracle.log_moment(entry.family_class, entry.factors, order)
        got = float(logmags[order])
        if entry.family_class == "two-factor":
            off = ledger.log_gap(got, ref)
        else:
            off = harness.gap(got, ref)
        if off > oracle.TOL:
            return f"log m_{order} = {got!r} misses the mpmath reference {ref!r}", None

    statuses = {v["criterion"]: v["status"] for v in report["verdicts"]}
    statuses["growth_power"] = verdict["status"]
    wrong = oracle.contradictions(entry.family_class, statuses)
    if wrong:
        known = "short-carleman-tail" if (
            wrong == ["carleman"] and entry.family_class == "two-factor" and entry.n_max < 500
        ) else None
        return f"verdicts contradict the truth table: {', '.join(wrong)}", known
    return None
