"""Fuzzing the command line: whatever the arguments and input files, every
run ends in an exit code of the contract (0, 2, 3, and 1 for paper-table
only), never in an uncaught exception or a traceback."""

from __future__ import annotations

import itertools

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from momentdet import generate_from_label, to_csv, to_json
from momentdet.cli import main

#: On top of the suite profile (no deadline, 60 examples): the same examples
#: on every run, so that the gate gives one answer for one tree.
FUZZ = settings(derandomize=True)

#: Every float class the option parsers must survive, written as a user would.
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "0", "-1", "5e-324", "1e-310", "1e308", "-0.0"]),
)
rel_tols = st.one_of(numbers, st.floats(1e-13, 1e-3).map(repr))
t_values = st.one_of(numbers, st.floats(0.0, 1e4).map(repr))

pairs = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([0.5, 1, 2]), st.sampled_from([0.5, 1, 3])),
        st.tuples(st.sampled_from([-1, 0, 1e300, "x"]), st.sampled_from([-1, 0, "nan"])),
    ),
    max_size=3,
).map(lambda ps: ",".join(f"({d},{r})" for d, r in ps))
families = st.one_of(
    st.sampled_from(["exp", "exp2", "lognormal"]),
    st.builds("{}[{}]".format, st.sampled_from(["product", "symroot", "symprod"]), pairs),
    st.text(max_size=30),
)
q_specs = st.one_of(
    st.sampled_from(["one", "1", "constant-one", "log", "power:", "power:x"]),
    numbers.map("power:{}".format),
    st.text(max_size=12),
)
checkers = st.sampled_from(["all", "carleman", "growth", "growth-q", "hardy"])
criteria = st.lists(st.one_of(checkers, st.text(max_size=6)), max_size=4).map(",".join)

_SEQUENCES = [
    generate_from_label(family, n_max)
    for family, n_max in (("exp", 30), ("lognormal", 20), ("symroot[(1,1),(1,1)]", 20))
]
_GENERATED = [write(seq).encode() for seq in _SEQUENCES for write in (to_json, to_csv)]


@st.composite
def edited(draw) -> bytes:
    """Generated output cut short or with a span overwritten."""
    data = draw(st.sampled_from(_GENERATED))
    start = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:start]
    stop = draw(st.integers(start, min(len(data), start + 12)))
    return data[:start] + draw(st.binary(max_size=12)) + data[stop:]


files = st.one_of(
    st.sampled_from(_GENERATED),
    st.binary(max_size=200),
    st.binary(max_size=40).map(lambda b: b"\xff\xfe" + b),
    edited(),
)


def option(flag: str, values) -> st.SearchStrategy[list[str]]:
    return values.map(lambda v: [flag, v])


def optional(flag: str, values) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), option(flag, values))


def repeated(flag: str, values) -> st.SearchStrategy[list[str]]:
    return st.lists(option(flag, values), min_size=1, max_size=3).map(
        lambda pairs: [*itertools.chain.from_iterable(pairs)]
    )


def outputs(*formats: str) -> st.SearchStrategy[list[str]]:
    """An optional --format, and an optional --out that is stdout or cannot
    be written (a directory, a path under a missing one)."""
    return st.tuples(
        optional("--format", st.sampled_from([*formats, "xml"])),
        optional("--out", st.sampled_from(["-", ".", "no-such-dir/out"])),
    ).map(lambda parts: parts[0] + parts[1])


nmax = st.integers(-3, 60).map(str)

ARGS = {
    "gen": st.tuples(
        option("--family", families),
        option("--nmax", nmax),
        optional("--rel-tol", rel_tols),
        outputs("json", "csv"),
    ),
    "paper-table": st.tuples(optional("--rel-tol", rel_tols), outputs("human", "json", "csv")),
    "asym": st.tuples(
        repeated("--t", t_values), optional("--rel-tol", rel_tols), outputs("human", "csv")
    ),
    "wtable": st.tuples(
        repeated("--t", st.one_of(t_values, st.just("e"), st.text(max_size=8))),
        outputs("human", "csv"),
    ),
    "gamma-derivs": st.tuples(
        option("--nmax", nmax), optional("--rel-tol", rel_tols), outputs("human", "csv")
    ),
}


def assert_contract(command: str, args: list[str]) -> None:
    result = CliRunner().invoke(main, args)
    allowed = {0, 1, 2, 3} if command == "paper-table" else {0, 2, 3}
    assert result.exit_code in allowed, (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args,
        repr(result.exception),
    )
    assert "Traceback" not in result.output, (args, result.output)


@pytest.mark.parametrize("command", sorted(ARGS))
@FUZZ
@given(data=st.data())
def test_option_values_keep_the_exit_code_contract(command, data):
    assert_contract(command, [command, *itertools.chain.from_iterable(data.draw(ARGS[command]))])


@FUZZ
@given(
    content=files,
    extra=st.tuples(
        optional("--criteria", criteria), optional("--q", q_specs), outputs("json", "human")
    ),
)
def test_check_input_files_keep_the_exit_code_contract(tmp_path_factory, content, extra):
    path = tmp_path_factory.mktemp("fuzz") / "seq"
    path.write_bytes(content)
    assert_contract("check", ["check", "--in", str(path), *itertools.chain.from_iterable(extra)])
