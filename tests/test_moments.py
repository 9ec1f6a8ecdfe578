"""Moment-sequence generation, validation, families, and serialization."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentdet.moments as moments_mod
import momentdet.quadrature as quadrature_mod
from momentdet import (
    DomainError,
    FamilyParseError,
    FamilySpec,
    MomentSequence,
    SequenceError,
    SignedLogValue,
    analyze,
    carleman_terms,
    from_csv,
    from_json,
    generate_from_label,
    generate_moments,
    integrate_logweighted,
    lognormal_moments,
    moment_ratios,
    parse_family,
    to_csv,
    to_json,
)

from .oracles import reference_parse_family

X11 = "product[(1,1),(1,1)]"


def logs_of(seq: MomentSequence) -> list[float]:
    return [float(x) for x in seq.log_moments]


class TestClosedFormFamilies:
    def test_exp_is_factorials(self, seqs):
        seq = seqs("exp", 50)
        for n, lg in enumerate(logs_of(seq)):
            assert lg == math.lgamma(n + 1.0)

    def test_exp2_is_double_factorials(self, seqs):
        seq = seqs("exp2", 50)
        for n, lg in enumerate(logs_of(seq)):
            assert lg == math.lgamma(2.0 * n + 1.0)

    def test_two_plain_factors_double_the_log(self):
        seq = generate_from_label("product[(1,0),(1,0)]", 20)
        for n, lg in enumerate(logs_of(seq)):
            assert lg == pytest.approx(2.0 * math.lgamma(n + 1.0), rel=1e-14, abs=1e-12)

    def test_lognormal_closed_form(self, seqs):
        seq = seqs("lognormal", 30)
        for n, lg in enumerate(logs_of(seq)):
            assert lg == n * n / 2.0


class TestFlagshipFamily:
    def test_factorization(self, seqs):
        # m_n = (n!)² K_n² with K_n the weighted log-power integral
        seq = seqs(X11, 30)
        for n in range(1, 31):
            expected = 2.0 * (math.lgamma(n + 1.0) + integrate_logweighted(float(n)).value.logmag)
            assert logs_of(seq)[n] == pytest.approx(expected, abs=1e-9)

    def test_m1_and_m2_anchors(self, seqs):
        seq = seqs(X11, 30)
        assert seq.moment(1).to_float() == pytest.approx(0.355630158, abs=1e-3)
        assert seq.moment(2).to_float() == pytest.approx(1.13, abs=0.01)

    def test_m100_normalized_magnitude(self, seqs):
        seq = seqs(X11, 100)
        normalized = logs_of(seq)[100] - 2.0 * math.lgamma(101.0)
        assert math.exp(normalized) == pytest.approx(2.0e83, rel=0.02)


class TestSymmetrizations:
    def test_symroot_stores_base_moments(self, seqs):
        base = seqs(X11, 40)
        sym = seqs("symroot[(1,1),(1,1)]", 40)
        assert sym.support == "hamburger-symmetric"
        assert np.array_equal(sym.log_moments, base.log_moments)

    def test_symroot_moment_accessor(self, seqs):
        base = seqs(X11, 40)
        sym = seqs("symroot[(1,1),(1,1)]", 40)
        for k in range(1, 40, 7):
            assert sym.moment(2 * k) == SignedLogValue.from_log(float(base.log_moments[k]))
            assert sym.moment(2 * k - 1) == SignedLogValue.zero()

    def test_symprod_stores_doubled_orders(self, seqs):
        sym = seqs("symprod[(1,1),(1,1)]", 20)
        assert sym.support == "hamburger-symmetric"
        for j in range(1, 21):
            expected = 2.0 * (
                math.lgamma(2.0 * j + 1.0) + integrate_logweighted(2.0 * j).value.logmag
            )
            assert logs_of(sym)[j] == pytest.approx(expected, abs=1e-9)

    def test_symprod_dominates_symroot(self, seqs):
        root = seqs("symroot[(1,1),(1,1)]", 20)
        prod = seqs("symprod[(1,1),(1,1)]", 20)
        for j in range(1, 21):
            assert logs_of(prod)[j] > logs_of(root)[j]


class TestDerivedSeries:
    def test_exp_ratios_are_log_integers(self, seqs):
        ratios = moment_ratios(seqs("exp", 40))
        for n, r in enumerate(ratios):
            assert r == pytest.approx(math.log(n + 1.0), rel=1e-10, abs=1e-12)

    def test_exp2_ratios(self, seqs):
        ratios = moment_ratios(seqs("exp2", 40))
        for n, r in enumerate(ratios):
            assert r == pytest.approx(math.log((2.0 * n + 2.0) * (2.0 * n + 1.0)), rel=1e-10)

    def test_flagship_ratio_matches_integral_ratio(self, seqs):
        ratios = moment_ratios(seqs(X11, 100))
        k100 = integrate_logweighted(100.0).value.logmag
        k99 = integrate_logweighted(99.0).value.logmag
        expected = 2.0 * (math.log(100.0) + k100 - k99)
        assert ratios[99] == pytest.approx(expected, rel=1e-9)

    def test_exp_carleman_first_term_is_one(self, seqs):
        terms = carleman_terms(seqs("exp", 20))
        assert terms[0] == pytest.approx(1.0, rel=1e-14)

    def test_lognormal_carleman_terms_closed_form(self, seqs):
        terms = carleman_terms(seqs("lognormal", 30))
        for n, a in enumerate(terms, start=1):
            assert a == pytest.approx(math.exp(-n / 4.0), rel=1e-12)

    def test_flagship_normalized_terms_decay_toward_limit(self, seqs):
        # a_n · n·ln(n+1)/e approaches 1 from above (the harmonic-type
        # comparison scale that makes the series diverge)
        terms = carleman_terms(seqs(X11, 200))
        trend = [terms[n - 1] * n * math.log(n + 1.0) / math.e for n in (50, 100, 200)]
        assert trend[0] > trend[1] > trend[2] > 1.0
        assert trend[2] < 2.0

    def test_minimal_sequence_has_ratios(self):
        entries = [float(n) for n in range(3)]
        seq = MomentSequence("stieltjes", entries)
        assert len(moment_ratios(seq)) == 2
        assert len(carleman_terms(seq)) == 2


class TestValidationGates:
    def build(self, logs, **kw):
        entries = [float(lg) for lg in logs]
        return MomentSequence("stieltjes", entries, **kw)

    def test_m0_must_be_one(self):
        with pytest.raises(SequenceError, match="m_0"):
            self.build([0.5, 1.0, 2.0])

    def test_log_convexity_enforced(self):
        with pytest.raises(SequenceError, match="convexity"):
            self.build([0.0, 1.0, 0.5])

    def test_negative_sign_rejected(self, seqs):
        # signs enter only through files, so a sign of -1 is refused there
        doc = json.loads(to_json(seqs("exp", 10)))
        doc["moments"][4]["sign"] = -1
        with pytest.raises(SequenceError, match="index 4 must be positive"):
            from_json(json.dumps(doc))
        text = to_csv(seqs("exp", 10)).replace("\n4,1,", "\n4,-1,")
        with pytest.raises(SequenceError, match="index 4 must be positive"):
            from_csv(text)

    @pytest.mark.parametrize("n_max", [40.0, True, "abc"])
    def test_json_n_max_field_must_be_an_integer(self, seqs, n_max):
        doc = json.loads(to_json(seqs("exp", 40)))
        doc["n_max"] = n_max
        # indented as to_json writes it (the canonical path), and on one line
        for text in (json.dumps(doc, indent=2) + "\n", json.dumps(doc)):
            with pytest.raises(SequenceError, match=f"^bad n_max field {re.escape(repr(n_max))}$"):
                from_json(text)

    @pytest.mark.parametrize("label", [5, [], True, None])
    def test_json_label_field_must_be_a_string_or_null(self, seqs, label):
        doc = json.loads(to_json(seqs("exp", 40)))
        doc["label"] = label
        # indented as to_json writes it (the canonical path), and on one line
        for text in (json.dumps(doc, indent=2) + "\n", json.dumps(doc)):
            if label is None:
                assert from_json(text).label is None
            else:
                with pytest.raises(SequenceError, match=f"^bad label field {re.escape(repr(label))}$"):
                    from_json(text)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_n_max_in_a_file_must_match_its_moments(self, seqs, fmt):
        if fmt == "json":
            text = to_json(seqs("exp", 10)).replace('"n_max": 10,', '"n_max": 5,')
        else:
            text = to_csv(seqs("exp", 10)).replace("# n_max: 10\n", "# n_max: 5\n")
        message = r"^n_max = 5 inconsistent with stored shape \(11,\)$"
        with pytest.raises(SequenceError, match=message):
            (from_json if fmt == "json" else from_csv)(text)

    @pytest.mark.parametrize("label", [5, b"exp", ["exp"], 1.5])
    def test_label_must_be_a_string_or_none(self, label):
        with pytest.raises(SequenceError, match="^label must be a string or None, got "):
            MomentSequence("stieltjes", [0.0, 0.0, 1.0], label)

    def test_empty_label_is_stored_as_none(self):
        seq = MomentSequence("stieltjes", [0.0, 0.0, 1.0], "")
        assert seq.label is None
        assert seq == MomentSequence("stieltjes", [0.0, 0.0, 1.0])

    def test_n_max_and_family_are_derived(self, seqs):
        seq = seqs(X11, 50)
        assert [f.name for f in dataclasses.fields(seq)] == ["support", "log_moments", "label"]
        assert seq.n_max == 50 and type(seq.n_max) is int
        assert seq.family == parse_family(X11)
        rebuilt = MomentSequence(seq.support, seq.log_moments, seq.label)
        assert rebuilt == seq
        assert "trends" in analyze(rebuilt)
        assert lognormal_moments(20).family is None
        assert dataclasses.replace(seq, label="flagship").family is None

    def test_minimum_length(self):
        entries = [0.0, 0.0]
        with pytest.raises(SequenceError):
            MomentSequence("stieltjes", entries)

    def test_n_max_of_an_integer_type_is_stored_as_int(self):
        seq = MomentSequence("stieltjes", np.arange(41.0) ** 2)
        assert type(seq.n_max) is int and seq.n_max == 40
        assert from_json(to_json(seq)) == seq
        assert from_csv(to_csv(seq)) == seq

    def test_unknown_support(self):
        entries = [float(n) for n in range(3)]
        with pytest.raises(SequenceError, match="support"):
            MomentSequence("hausdorff", entries)

    def test_moment_accessor_bounds(self, seqs):
        seq = seqs("exp", 10)
        assert seq.moment(10) == SignedLogValue.from_log(float(seq.log_moments[10]))
        with pytest.raises(SequenceError):
            seq.moment(11)
        with pytest.raises(SequenceError):
            seq.moment(-1)

    def test_moment_accessor_bounds_on_symmetric_support(self, seqs):
        seq = seqs("symroot[(1,1),(1,1)]", 10)
        assert seq.moment(20) == SignedLogValue.from_log(float(seq.log_moments[10]))
        assert seq.moment(21) == SignedLogValue.zero()
        message = r"^moment order 22 exceeds stored range 2n_max = 20$"
        with pytest.raises(SequenceError, match=message):
            seq.moment(22)

    @pytest.mark.parametrize("label", ["exp", "symroot[(1,1),(1,1)]"])
    def test_moment_order_must_be_an_integer(self, seqs, label):
        seq = seqs(label, 10)
        for k in (2.5, 2.0, True, "2", None):
            with pytest.raises(SequenceError, match="moment order must be an integer"):
                seq.moment(k)
        for k in (np.int64(4), np.uint8(3)):
            assert seq.moment(k) == seq.moment(int(k))

    def test_log_moments_are_read_only(self, seqs):
        seq = seqs("exp", 10)
        assert seq.log_moments.dtype == np.float64
        assert seq.log_moments.ndim == 1
        assert not seq.log_moments.flags.writeable
        with pytest.raises(ValueError):
            seq.log_moments[3] = 0.0

    def test_constructor_keeps_its_own_copy(self):
        logs = np.arange(4, dtype=float) ** 2
        seq = MomentSequence("stieltjes", logs)
        logs[2] = 100.0
        assert logs.flags.writeable
        assert seq.log_moments.tolist() == [0.0, 1.0, 4.0, 9.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_at_first_index(self, bad):
        logs = [float(n * n) for n in range(8)]
        logs[3] = logs[5] = bad
        with pytest.raises(SequenceError, match="index 3 "):
            self.build(logs)

    def test_two_dimensional_entries_rejected(self):
        with pytest.raises(SequenceError, match="shape"):
            MomentSequence("stieltjes", [[0.0, 1.0, 2.0]])

    def test_convexity_names_first_failing_index(self):
        with pytest.raises(SequenceError, match="index 2 "):
            self.build([0.0, 1.0, 3.0, 3.5, 3.6])

    @pytest.mark.filterwarnings("error")
    def test_convexity_near_the_float_limit(self):
        # log m_1 + log m_3 overflows a float, yet index 3 is still concave
        logs = ("0", "-1e308", "-1.7e308", "-1.2e308", "-1.7e308")
        moments = [{"sign": 1, "logmag": lg} for lg in logs]
        doc = {"support": "stieltjes", "n_max": 4, "moments": moments}
        with pytest.raises(SequenceError, match=r"index 3 \(.* = -1\.000e\+308\)"):
            from_json(json.dumps(doc))

    def test_equality_is_exact(self, seqs):
        seq = seqs("exp", 10)
        same = MomentSequence(seq.support, seq.log_moments.copy(), seq.label)
        assert same == seq
        nudged = seq.log_moments.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        assert MomentSequence(seq.support, nudged, seq.label) != seq
        assert MomentSequence(seq.support, seq.log_moments, label="other") != seq
        assert seq != seq.log_moments.tolist()

    @pytest.mark.parametrize("n_max", [1, 0, -2])
    def test_generation_floor(self, n_max):
        with pytest.raises(DomainError):
            generate_moments(parse_family("exp"), n_max)
        with pytest.raises(DomainError):
            lognormal_moments(n_max)

    def test_generation_error_carries_order_context(self, monkeypatch):
        # an accuracy below eps·(4 + |log S(1)|) refuses S(p) from order 1 on
        monkeypatch.setattr(quadrature_mod, "_ACCURACY", 1e-16)
        with pytest.raises(DomainError, match="while generating moment of order 1 .*above 1e-16"):
            generate_from_label(X11, 5)

    def test_batch_error_names_the_lowest_failing_order(self, monkeypatch):
        # p = n·1 reaches 7 at order 7, p = n·0.5 only at order 14
        def fails_from_seven(ps):
            if (ps >= 7.0).any():
                raise DomainError("synthetic failure")
            return ps * 0.0

        monkeypatch.setattr(quadrature_mod, "log_power_integral", fails_from_seven)
        with pytest.raises(DomainError, match="while generating moment of order 7 ") as info:
            generate_from_label("product[(1,0.5),(1,1)]", 20)
        assert str(info.value.__cause__) == "synthetic failure"

    @pytest.mark.parametrize(
        "first, n_max",
        [pytest.param(first, n_max, id=str(first)) for first, n_max in [
            (1, 100_000), (2, 100_000), (7, 100_000), (76_543, 100_000), (99_999, 100_000),
            (100_000, 100_000), (1_234_567, 1_300_000)]],
    )
    def test_lowest_failing_order_is_bisected(self, monkeypatch, first, n_max):
        # refusal is monotone in p, so the last row and about log₂(n_max) more are
        # evaluated, not one row per order; an order from 10⁶ on is named as an integer
        calls = []

        def fails_from_first(ps):
            calls.append(len(ps))
            if (ps >= first).any():
                raise DomainError("synthetic failure")
            return ps * 0.0

        monkeypatch.setattr(quadrature_mod, "log_power_integral", fails_from_first)
        with pytest.raises(DomainError, match=f"while generating moment of order {first} ") as info:
            generate_from_label("product[(1,0.5),(1,1)]", n_max)
        assert str(info.value.__cause__) == "synthetic failure"
        assert len(calls) <= 2 * math.log2(n_max)

    def test_batch_error_no_order_reproduces_is_raised_unchanged(self, monkeypatch):
        # the batch holds every distinct p, an order at most two of them
        real = quadrature_mod.log_power_integral
        batch_error = DomainError("synthetic batch failure")

        def fails_on_the_batch(ps):
            if len(ps) > 2:
                raise batch_error
            return real(ps)

        monkeypatch.setattr(quadrature_mod, "log_power_integral", fails_on_the_batch)
        with pytest.raises(DomainError) as info:
            generate_from_label("product[(1,0.5),(1,1)]", 20)
        assert info.value is batch_error
        assert str(info.value) == "synthetic batch failure"


class TestBatchedGeneration:
    @pytest.mark.parametrize(
        "label", [X11, "product[(1,0.613),(1,0.871)]", "symprod[(1,1),(1,0.7)]"]
    )
    def test_matches_per_order_quadrature(self, seqs, label):
        seq = seqs(label, 5000)
        step = 2 if seq.family.symmetrization == "symmetric-product" else 1
        for j in [*range(0, 5000, 3), 5000]:
            n = step * j
            expected = 0.0
            for d, r in seq.family.factors:
                expected += math.lgamma(d * n + 1.0)
                if n * r > 0.0:
                    expected += integrate_logweighted(n * r).value.logmag
            got = float(seq.log_moments[j])
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), j


class TestFamilyGrammar:
    def test_stock_names(self):
        assert parse_family("exp").factors == ((1.0, 0.0),)
        assert parse_family("exp2").factors == ((2.0, 0.0),)
        assert parse_family("exp").label == "exp"

    def test_product_list(self):
        fam = parse_family("product[(1,1),(0.5,0.25)]")
        assert fam.factors == ((1.0, 1.0), (0.5, 0.25))
        assert fam.symmetrization == "none"
        assert fam.label == "product[(1,1),(0.5,0.25)]"

    def test_symmetrized_heads(self):
        assert parse_family("symroot[(1,1)]").symmetrization == "symmetric-root"
        assert parse_family("symprod[(1,1)]").symmetrization == "symmetric-product"

    def test_whitespace_tolerated(self):
        fam = parse_family("  product[( 1 , 0.5 )]  ")
        assert fam.factors == ((1.0, 0.5),)

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "product[]",
            "product[(1,1)(2,0)]",
            "product[(1,2,3)]",
            "product[(1,)]",
            "product[(a,1)]",
            "symroot",
            "product[(1,1),]",
            "product[(1,\n1)]",
            "product[(1,1)\n,(1,1)]",
            "product[(1,1), (1,1)]",
            "product[ ]",
        ],
    )
    def test_malformed_strings(self, text):
        with pytest.raises(FamilyParseError):
            parse_family(text)
        with pytest.raises(FamilyParseError):
            reference_parse_family(text)

    @pytest.mark.parametrize("text", ["product[(3,0)]", "product[(1,2)]", "product[(-1,0)]"])
    def test_out_of_range_parameters(self, text):
        with pytest.raises(DomainError):
            parse_family(text)

    def test_family_spec_needs_a_factor_and_a_known_symmetrization(self):
        with pytest.raises(DomainError, match="^FamilySpec requires at least one"):
            FamilySpec(())
        with pytest.raises(DomainError, match="^symmetrization must be one of "):
            FamilySpec(((1.0, 1.0),), "symmetric")

    def test_default_labels(self):
        assert FamilySpec(((1.0, 1.0), (1.0, 1.0))).label == X11
        assert FamilySpec(((1.0, 0.5),), "symmetric-root").label == "symroot[(1,0.5)]"
        # :g would round this r to 0.123457, another family
        assert FamilySpec(((1.0, 0.123456789),)).label == "product[(1,0.123456789)]"

    @given(
        st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0)), min_size=1, max_size=4),
        st.sampled_from(["none", "symmetric-root", "symmetric-product"]),
    )
    def test_default_label_names_its_factors_bit_for_bit(self, factors, symmetrization):
        spec = parse_family(FamilySpec(tuple(factors), symmetrization).label)
        assert [(d.hex(), r.hex()) for d, r in spec.factors] == [
            (d.hex(), r.hex()) for d, r in factors
        ]
        assert spec.symmetrization == symmetrization


_GRAMMAR_WHITESPACE = [" ", "\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
                       "\u3000"]
_GRAMMAR_CHARS = [*"0123456789_e+-.[](),", *_GRAMMAR_WHITESPACE]
_GRAMMAR_WORDS = ["product", "symroot", "symprod", "exp", "exp2", "lognormal", "inf", "nan"]


@st.composite
def family_descriptions(draw):
    """A family description with random padding, or a string of the
    grammar's own characters and words, after zero to three random edits."""
    pad = st.text(st.sampled_from(_GRAMMAR_WHITESPACE), max_size=2)
    number = st.one_of(st.sampled_from(["0", "1", "0.5", "2", "1e-3", "1_0", "-0", "inf", "nan"]),
                       st.text(st.sampled_from([*"0123456789_e+-."]), min_size=1, max_size=4))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(pad, number, pad, pad, number, pad), min_size=1, max_size=3))
        body = ",".join(f"({a}{d}{b},{c}{r}{e})" for a, d, b, c, r, e in pairs)
        head = draw(st.sampled_from(["product", "symroot", "symprod"]))
        text = draw(pad) + f"{head}[{body}]" + draw(pad)
    else:
        text = "".join(draw(st.lists(st.sampled_from(_GRAMMAR_CHARS + _GRAMMAR_WORDS), max_size=12)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        how, ch = draw(st.sampled_from(["replace", "insert", "delete"])), draw(
            st.sampled_from(_GRAMMAR_CHARS))
        text = text[:pos] + (ch if how != "delete" else "") + text[pos + (how != "insert") :]
    return text


def _parsed(parse, text: str):
    """The spec's factors by their bits, symmetrization and label, or the exception's type."""
    try:
        spec = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return [(d.hex(), r.hex()) for d, r in spec.factors], spec.symmetrization, spec.label


class TestGrammarMatchesReference:
    """parse_family accepts what the cursor-loop reference accepts, with the
    same spec, and refuses the rest with the same exception type."""

    @settings(max_examples=2000)
    @given(family_descriptions())
    def test_drawn_descriptions(self, text):
        assert _parsed(parse_family, text) == _parsed(reference_parse_family, text)

    @pytest.mark.parametrize(
        "text",
        ["exp", " exp2\n", "lognormal", "product", "product[]", "product[ ]", "product[,]",
         "product[(1,1)]", "\u3000symroot[( 1\t, 0.5\xa0)]\u2028", "symprod[(1,1),(0.5,0.25)]",
         "product[(1,1),]", "product[,(1,1)]", "product[(1,1),,(1,1)]", "product[(1,1)(1,1)]",
         "product[(1,1) ,(1,1)]", "product[(1,\n1)]", "product[(1\r,1)]", "product[(1,1)]\n]",
         "product[(1],1)]", "product[(1,1]", "product[(a,1)]", "product[(a,1),x]",
         "product[(1_0,1)]", "product[(inf,1)]", "product[(nan,1)]", "product[(3,0)]",
         "product[(1,2)]", "product[(-0,1)]", "product[(1e-400,1)]", "Product[(1,1)]",
         "product [(1,1)]", "product[(1,1)] x", "product[((1,1))]"],
    )
    def test_fixed_descriptions(self, text):
        assert _parsed(parse_family, text) == _parsed(reference_parse_family, text)


class TestSerialization:
    @pytest.mark.parametrize("label", [X11, "exp", "lognormal", "symroot[(1,1),(1,1)]"])
    def test_json_round_trip_bit_exact(self, seqs, label):
        seq = seqs(label, 50)
        back = from_json(to_json(seq))
        assert np.array_equal(back.log_moments, seq.log_moments)
        assert (back.support, back.n_max, back.label) == (seq.support, seq.n_max, seq.label)
        assert back == seq

    @pytest.mark.parametrize("label", [X11, "exp", "lognormal", "symprod[(1,1),(1,1)]"])
    def test_csv_round_trip_bit_exact(self, seqs, label):
        seq = seqs(label, 50)
        back = from_csv(to_csv(seq))
        assert np.array_equal(back.log_moments, seq.log_moments)
        assert back == seq

    @pytest.mark.parametrize("label", [X11, None, 'quo"te \\ é'])
    def test_json_text_is_indented_json_dumps(self, seqs, label):
        seq = seqs(X11, 30)
        seq = MomentSequence(seq.support, seq.log_moments, label=label)
        doc = {
            "support": seq.support,
            "n_max": seq.n_max,
            "label": seq.label,
            "moments": [{"sign": 1, "logmag": repr(float(x))} for x in seq.log_moments],
        }
        assert to_json(seq) == json.dumps(doc, indent=2) + "\n"

    def test_nan_logmag_in_json_is_a_sequence_error(self, seqs):
        doc = json.loads(to_json(seqs("exp", 10)))
        doc["moments"][3]["logmag"] = "nan"
        with pytest.raises(SequenceError, match="index 3"):
            from_json(json.dumps(doc))

    def test_nan_logmag_in_csv_is_a_sequence_error(self, seqs):
        lines = to_csv(seqs("exp", 10)).splitlines()
        row = lines.index("n,sign,logmag") + 4
        lines[row] = "3,1,nan"
        with pytest.raises(SequenceError, match="index 3"):
            from_csv("\n".join(lines) + "\n")

    def test_exp_json_text_is_pinned(self, seqs):
        entry = '    {{\n      "sign": 1,\n      "logmag": "{}"\n    }}'
        logmags = ["0.0", "0.0", "0.693147180559945", "1.7917594692280554",
                   "3.178053830347945", "4.787491742782047"]
        expected = (
            '{\n  "support": "stieltjes",\n  "n_max": 5,\n  "label": "exp",\n  "moments": [\n'
            + ",\n".join(entry.format(m) for m in logmags)
            + "\n  ]\n}\n"
        )
        assert to_json(seqs("exp", 5)) == expected

    def test_exp_csv_text_is_pinned(self, seqs):
        assert to_csv(seqs("exp", 5)) == (
            "# support: stieltjes\n# n_max: 5\n# label: exp\nn,sign,logmag\n"
            "0,1,0\n1,1,0\n2,1,0.69314718055994495\n3,1,1.7917594692280554\n"
            "4,1,3.1780538303479449\n5,1,4.7874917427820467\n"
        )

    @pytest.mark.parametrize("label", ['quo"te \\ é', "tab\tinside", "a: b # c", "n,sign,logmag"])
    def test_csv_label_is_written_verbatim(self, seqs, label):
        seq = seqs("exp", 5)
        text = to_csv(MomentSequence(seq.support, seq.log_moments, label=label))
        assert text == to_csv(seq).replace("# label: exp\n", f"# label: {label}\n")
        assert from_csv(text).label == label

    @pytest.mark.parametrize("label", ["my data\n# n_max: 3", " padded ", "end\r", "a\u2028b"])
    def test_csv_refuses_a_label_it_cannot_read_back(self, seqs, label):
        seq = seqs("exp", 5)
        with pytest.raises(SequenceError, match="to_csv cannot store label"):
            to_csv(MomentSequence(seq.support, seq.log_moments, label=label))

    def test_csv_in_other_layouts_reads_the_same(self, seqs):
        seq = seqs("exp", 10)
        lines = to_csv(seq).splitlines()
        header = lines.index("n,sign,logmag")
        shuffled = [lines[header], "", "  # a comment", *lines[:header]]
        shuffled += [f" {row} " for row in lines[header + 1 :]]
        shuffled[-2] = shuffled[-2].replace(",1,", ",+1,")
        assert from_csv("\r\n".join(shuffled)) == seq

    @pytest.mark.parametrize(
        "row, message",
        [("4,1,x", "line 9"), ("4,1", "line 9"), ("5,1,3.1", "line 9: expected index 4"),
         ("4,0,3.1", "index 4 must be positive"), ("4,1,1e999", "index 4 ")],
    )
    def test_malformed_csv_row_is_named(self, seqs, row, message):
        lines = to_csv(seqs("exp", 10)).splitlines()
        assert lines[8].startswith("4,1,")
        lines[8] = row
        with pytest.raises(SequenceError, match=message):
            from_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "entry, message",
        [({"sign": 1}, "index 4"), ({"sign": "x", "logmag": "1.0"}, "index 4"),
         ({"sign": 0, "logmag": "1.0"}, "index 4 must be positive"), (7, "index 4"),
         ({"sign": 1.5, "logmag": "1.0"}, "index 4 must be positive, got sign 1.5"),
         ({"sign": math.inf, "logmag": "1.0"}, "index 4"),
         ({"sign": 1, "logmag": 10**400}, "index 4"),
         ({"sign": True, "logmag": "1.0"}, "index 4")],
    )
    def test_malformed_json_entry_is_named(self, seqs, entry, message):
        doc = json.loads(to_json(seqs("exp", 10)))
        doc["moments"][4] = entry
        with pytest.raises(SequenceError, match=message):
            from_json(json.dumps(doc))

    def test_boolean_signs_rejected(self, seqs):
        # every sign true, so the columnar fast path sees them all equal to 1
        doc = json.loads(to_json(seqs("exp", 10)))
        for item in doc["moments"]:
            item["sign"] = True
        with pytest.raises(SequenceError, match="index 0: a sign must be a number, got true"):
            from_json(json.dumps(doc))

    def test_json_signs_read_as_integers(self, seqs):
        doc = json.loads(to_json(seqs("exp", 10)))
        doc["moments"][2]["sign"] = "1"
        doc["moments"][3]["sign"] = 1.0
        assert from_json(json.dumps(doc)) == seqs("exp", 10)

    def test_unparseable_label_kept_family_dropped(self, seqs):
        text = to_json(seqs("exp", 10)).replace('"exp"', '"my custom data"')
        back = from_json(text)
        assert back.label == "my custom data"
        assert back.family is None
        assert np.array_equal(back.log_moments, seqs("exp", 10).log_moments)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            '{"support": "stieltjes"}',
            '{"support": "stieltjes", "n_max": 2, "moments": [{"sign": 1}]}',
            '{"support": "nope", "n_max": 2, "moments": []}',
        ],
    )
    def test_malformed_json(self, text):
        with pytest.raises(SequenceError):
            from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "n,sign,logmag\n",
            "# support: stieltjes\n# n_max: 2\nn,sign,logmag\n0,1,0\n1,1\n",
            "# support: stieltjes\n# n_max: 2\nn,sign,logmag\n0,1,0.0\n2,1,1.0\n3,1,3.0\n",
            "# support: stieltjes\n# n_max: nope\nn,sign,logmag\n",
        ],
    )
    def test_malformed_csv(self, text):
        with pytest.raises(SequenceError):
            from_csv(text)

    def test_csv_without_its_header_line_rejected(self, seqs):
        text = to_csv(seqs("exp", 10)).replace("n,sign,logmag\n", "")
        with pytest.raises(SequenceError, match="^CSV moment file is missing its header or data rows$"):
            from_csv(text)

    def test_truncated_csv_rejected(self, seqs):
        text = to_csv(seqs("exp", 10))
        truncated = "\n".join(text.splitlines()[:-3]) + "\n"
        with pytest.raises(SequenceError):
            from_csv(truncated)


factor_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=3,
)


class TestGeneratedFamilyProperties:
    @given(factor_lists, st.sampled_from(["none", "symmetric-root", "symmetric-product"]))
    def test_generation_validates_and_round_trips(self, factors, symmetrization):
        family = FamilySpec(tuple(factors), symmetrization)
        seq = generate_moments(family, 12)
        for via in (lambda s: from_json(to_json(s)), lambda s: from_csv(to_csv(s))):
            back = via(seq)
            assert np.array_equal(back.log_moments, seq.log_moments)
            assert back.support == seq.support
            assert back.n_max == seq.n_max
            assert back.label == seq.label


@st.composite
def any_sequences(draw):
    """A sequence long enough for analyze: from generate_moments under its
    family's own label or a custom one, from lognormal_moments, or built by
    hand under no label, an empty one, a family description or free text."""
    n_max = draw(st.integers(16, 40))
    source = draw(st.sampled_from(["generated", "lognormal", "hand-built"]))
    if source == "lognormal":
        return lognormal_moments(n_max)
    if source == "generated":
        # two unit-delta factors with r > 0 make the X(r1, r2) family analyze adds trends for
        unit_pairs = st.lists(st.tuples(st.just(1.0), st.floats(0.01, 1.0)), min_size=2, max_size=2)
        factors = draw(st.one_of(factor_lists, unit_pairs))
        symmetrization = draw(st.sampled_from(["none", "symmetric-root", "symmetric-product"]))
        label = draw(st.sampled_from(["", "flagship", "my data", X11, "exp", " exp"]))
        return generate_moments(FamilySpec(tuple(factors), symmetrization, label), n_max)
    delta, c = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 1.0))
    logs = [math.lgamma(delta * n + 1.0) + c * n * n for n in range(n_max + 1)]
    support = draw(st.sampled_from(["stieltjes", "hamburger-symmetric"]))
    label = draw(
        st.one_of(
            st.sampled_from([None, "", X11, "symroot[(1,0.5),(1,1)]", "lognormal", "exp"]),
            st.text(max_size=12),
        )
    )
    return MomentSequence(support, logs, label)


class TestRoundTripEquality:
    """Every sequence equals its own JSON and CSV round trips, and analyze
    reports the same on all three."""

    @settings(max_examples=120)
    @given(any_sequences())
    def test_sequence_equals_its_round_trips(self, seq):
        backs = [from_json(to_json(seq))]
        try:
            text = to_csv(seq)
        except SequenceError as exc:  # a label with a line break or outer whitespace
            assert str(exc).startswith("to_csv cannot store label")
        else:
            backs.append(from_csv(text))
        report = json.dumps(analyze(seq))
        for back in backs:
            assert back == seq
            assert back.family == seq.family
            assert json.dumps(analyze(back)) == report


# -- loader equivalence --------------------------------------------------------


def reference_from_json(text: str) -> MomentSequence:
    """from_json with no canonical path: json.loads, then a check of each entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceError(f"invalid JSON moment file: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("moments"), list):
        raise SequenceError("JSON moment file must be an object with a 'moments' array")
    logs = []
    for i, item in enumerate(doc["moments"]):
        try:
            raw = item["sign"]
            sign, logmag = int(raw), float(item["logmag"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise SequenceError(f"bad moment entry at index {i}: {exc}") from exc
        if isinstance(raw, bool):
            raise SequenceError(
                f"bad moment entry at index {i}: a sign must be a number, got {json.dumps(raw)}"
            )
        if (raw if isinstance(raw, float) else sign) != 1:
            raise SequenceError(
                f"stored moment at index {i} must be positive, "
                f"got sign {raw if isinstance(raw, float) else sign}"
            )
        logs.append(logmag)
    return moments_mod._rehydrate(doc.get("support"), doc.get("n_max"), doc.get("label"), logs)


def reference_from_csv(text: str) -> MomentSequence:
    """from_csv with no bulk row check: every line read one at a time."""
    meta: dict[str, object] = {}
    saw_header, logs = moments_mod._read_csv_lines(text.splitlines(), meta)
    if not saw_header or not logs:
        raise SequenceError("CSV moment file is missing its header or data rows")
    return moments_mod._rehydrate(
        meta.get("support"), meta.get("n_max", len(logs) - 1), meta.get("label"), logs
    )


def _outcome(load, text: str):
    """The loaded sequence with its log-moments' bytes, or the SequenceError's message."""
    try:
        seq = load(text)
    except SequenceError as exc:
        return "SequenceError", str(exc)
    return seq, seq.log_moments.tobytes()


_JSON_ENTRY = moments_mod._JSON_OPEN
_CSV_HEADER_LINE = "\nn,sign,logmag\n"
_EDIT_CHARS = ["0", "1", "9", "-", ".", "e", "x", " ", ",", '"', "\\", "\n", "\t", "{", "}", "[", ":"]


def _split_moments(text: str, fmt: str):
    """(head, moment pieces, separator, tail) of a text, or None where its
    moments can no longer be found."""
    if fmt == "json":
        marker, separator = moments_mod._JSON_MOMENTS, moments_mod._JSON_SEPARATOR
        start, end = text.find(marker), text.rfind(moments_mod._JSON_END.rstrip())
        if start < 0 or end < start + len(marker):
            return None
        start += len(marker)
        return text[:start], text[start:end].split(separator), separator, text[end:]
    start = text.find(_CSV_HEADER_LINE)
    if start < 0:
        return None
    start += len(_CSV_HEADER_LINE)
    return text[:start], text[start:].split("\n"), "\n", ""


def _edit(data, text: str, fmt: str) -> str:
    """One random edit of a moment file's text."""
    kind = data.draw(
        st.sampled_from(["char", "logmag", "sign", "duplicate-key", "bom", "trailing", "rows"])
    )
    if kind == "char":
        pos = data.draw(st.integers(0, len(text)))
        how, ch = data.draw(st.sampled_from(["replace", "insert", "delete"])), data.draw(
            st.sampled_from(_EDIT_CHARS)
        )
        return text[:pos] + (ch if how != "delete" else "") + text[pos + (how != "insert") :]
    if kind == "logmag":
        pattern = r'"logmag": "' if fmt == "json" else r"(?m)^\d+,[^,\n]*,"
        ends = [m.end() for m in re.finditer(pattern, text)]
        if not ends:
            return text
        pos = data.draw(st.sampled_from(ends))
        if data.draw(st.booleans()):  # at the logmag's end rather than its start
            pos = text.find('"' if fmt == "json" else "\n", pos) % (len(text) + 1)
        return text[:pos] + data.draw(st.sampled_from(['"', "\\", "\t", "\n", "\x00"])) + text[pos:]
    if kind == "sign":
        sign = data.draw(st.sampled_from(["-1", "true", '"1"']))
        old, new = ('"sign": 1,', f'"sign": {sign},') if fmt == "json" else (",1,", f",{sign},")
        spots = [m.start() for m in re.finditer(re.escape(old), text)]
        if not spots:
            return text
        pos = data.draw(st.sampled_from(spots))
        return text[:pos] + new + text[pos + len(old) :]
    if kind == "duplicate-key":
        if fmt == "json":
            line = data.draw(st.sampled_from(
                ['  "n_max": 3,\n', '  "moments": [],\n', '  "label": "exp",\n',
                 '  "support": "hamburger-symmetric",\n', '  "moments": {},\n']
            ))
            entry = data.draw(st.sampled_from(
                [None, ('"sign": 1,', '"sign": 1,\n      "sign": 0,'),
                 ('"logmag": "', '"logmag": "5",\n      "logmag": "')]
            ))
            if entry is None:
                return text.replace("{\n", "{\n" + line, 1)
            return text.replace(*entry, 1)
        line = data.draw(st.sampled_from(
            ["# n_max: 3\n", "# label: exp\n", "# support: hamburger-symmetric\n", "# n_max: x\n"]
        ))
        pos = data.draw(st.sampled_from([0, text.find(_CSV_HEADER_LINE) + 1]))
        return text[:pos] + line + text[pos:]
    if kind == "bom":
        return "\ufeff" + text
    if kind == "trailing":
        suffix = data.draw(st.sampled_from([None, " ", "\n", "x", "{}", "\n\n", ",", "0,1,0\n"]))
        return text[:-1] if suffix is None else text + suffix
    parts = _split_moments(text, fmt)
    if parts is None:
        return text
    head, pieces, sep, tail = parts
    i, j = data.draw(st.integers(0, len(pieces) - 1)), data.draw(st.integers(0, len(pieces) - 1))
    how = data.draw(st.sampled_from(["duplicate", "drop", "swap"]))
    if how == "duplicate":
        pieces.insert(i, pieces[i])
    elif how == "drop":
        del pieces[i]
    else:
        pieces[i], pieces[j] = pieces[j], pieces[i]
    return head + sep.join(pieces) + tail


@st.composite
def edited_files(draw, fmt: str):
    """A moment file as to_json or to_csv writes it, after zero to three random edits."""
    factors = draw(factor_lists)
    symmetrization = draw(st.sampled_from(["none", "symmetric-root", "symmetric-product"]))
    seq = generate_moments(FamilySpec(tuple(factors), symmetrization), draw(st.integers(2, 12)))
    # a label that mimics the layout's own marker: JSON's moments key, or
    # the CSV header (to_csv refuses a label holding a line break)
    marker = '  "moments": [\n' if fmt == "json" else "n,sign,logmag"
    label = draw(st.sampled_from([seq.label, None, "exp", 'quo"te \\ é', marker]))
    seq = MomentSequence(seq.support, seq.log_moments, label=label)
    text = to_json(seq) if fmt == "json" else to_csv(seq)
    data = draw(st.data())
    for _ in range(draw(st.integers(0, 3))):
        text = _edit(data, text, fmt)
    return text


class TestLoaderEquivalence:
    """from_json and from_csv read a file only as the general path would:
    the same sequence, bit for bit, or a SequenceError with the same text."""

    @settings(max_examples=300)
    @given(edited_files("json"))
    def test_json_matches_reference(self, text):
        assert _outcome(from_json, text) == _outcome(reference_from_json, text)

    @settings(max_examples=300)
    @given(edited_files("csv"))
    def test_csv_matches_reference(self, text):
        assert _outcome(from_csv, text) == _outcome(reference_from_csv, text)

    @pytest.mark.parametrize(
        "fmt, old, new",
        [("json", "", ""), ("json", '"logmag": "1', '"logmag": "\\u0031'),
         ("json", '"logmag": "1', '"logmag": "\t1'), ("json", '"logmag": "1', '"logmag": "\n1'),
         ("json", '"logmag": "1', '"logmag": "\\t1'), ("json", '.0"', '.0\x1f"'),
         ("json", "}\n  ]\n}\n", "}\n  ]\n}"), ("json", "}\n  ]\n}\n", "}\n  ]\n}\n\n"),
         ("json", '"label": "exp",\n', '"label": "exp",\n  "moments": 0,\n'),
         ("json", "{\n", '{\n  "moments": [\n' + _JSON_ENTRY + '0"\n    }\n  ],\n'),
         ("csv", "", ""), ("csv", "\n10,1,", "\n10,1,9,"), ("csv", "\n3,1,", "\n3,1,7,"),
         ("csv", "\n3,1,", "\n3,"), ("csv", "\n0,1,0\n", "\n0,1,0,\n"),
         ("csv", "\n1,1,0\n2,1,", "\n1,1\n0,2,1,")],
    )
    def test_edge_cases_match_reference(self, seqs, fmt, old, new):
        text = (to_json if fmt == "json" else to_csv)(seqs("exp", 10))
        assert old in text
        text = text.replace(old, new, 1)
        load, reference = (from_json, reference_from_json) if fmt == "json" else (
            from_csv, reference_from_csv)
        assert _outcome(load, text) == _outcome(reference, text)


class TestCanonicalReaderTables:
    """The CSV reader's shared table of index strings, and which logmag
    characters send a JSON file to the general path."""

    @pytest.mark.parametrize("n_max", [8190, 8191, 8192, 9000])
    def test_csv_index_column_around_the_table_cap(self, n_max):
        seq = lognormal_moments(n_max)
        text = to_csv(seq)
        assert from_csv(text) == seq
        for old, new in ((f"\n{n_max},1,", f"\n{n_max + 1},1,"), ("\n8000,1,", "\n8001,1,")):
            bad = text.replace(old, new, 1)
            assert _outcome(from_csv, bad) == _outcome(reference_from_csv, bad)
            assert isinstance(_outcome(from_csv, bad)[0], str)

    def test_index_text_is_built_once_at_its_cap(self, monkeypatch):
        moments_mod._index_text.cache_clear()
        monkeypatch.setattr(moments_mod, "_INDEX_ROWS_MAX", 16)
        for count in (5, 3, 7, 12, 40, 16, 1):
            assert moments_mod._is_index_column(list(map(str, range(count))))
        for count in (1, 5, 16, 17, 40):
            column = list(map(str, range(count)))
            for j in {0, count // 2, count - 1}:
                for wrong in (str(j + 1), str(j)[:-1], "0" + str(j), str(j) + " "):
                    assert not moments_mod._is_index_column(column[:j] + [wrong] + column[j + 1 :])
            assert not moments_mod._is_index_column(column + ["x"])
        assert moments_mod._index_text.cache_info().currsize == 1
        assert moments_mod._index_text(16) == "".join(f"{j}\n" for j in range(16))

    def test_threads_growing_the_index_text(self, monkeypatch):
        moments_mod._index_text.cache_clear()
        monkeypatch.setattr(moments_mod, "_INDEX_ROWS_MAX", 300)
        columns = [list(map(str, range(n))) for n in [5, 700, 40, 299, 300, 301, 150, 1000] * 8]
        columns += [column[:-1] + ["0"] for column in columns[:16]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(moments_mod._is_index_column, columns, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [True] * 64 + [n == 1 for n in map(len, columns[:16])]

    @pytest.mark.parametrize("char", ["\xa0", " ", "\x7f", "١", "\ud800", "é"])
    def test_json_logmag_characters_read_as_the_general_path_reads_them(self, seqs, char):
        text = to_json(seqs("exp", 10))
        for old in ('"logmag": "1', '.0"'):
            edited = text.replace(old, old[:-1] + char + old[-1], 1)
            assert edited != text
            assert _outcome(from_json, edited) == _outcome(reference_from_json, edited)
