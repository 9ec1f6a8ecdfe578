"""Shared fixtures: cached family sequences, a hypothesis profile, an
in-process runner of the command line and the frozen-record check."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import pickle
from dataclasses import dataclass
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, settings

from momentdet import MomentSequence, generate_from_label

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@lru_cache(maxsize=None)
def _sequence(label: str, n_max: int) -> MomentSequence:
    return generate_from_label(label, n_max)


@pytest.fixture(scope="session")
def seqs():
    """Memoized family generator: seqs(label, n_max) -> MomentSequence."""
    return _sequence


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr together, in the order written
    exception: BaseException | None  # SystemExit for a non-zero exit code


class CliRunner:
    """Runs a command line's ``main(args)`` in this process, as a terminal shows it."""

    def invoke(self, main, args: list[str]) -> Result:
        buffer = io.BytesIO()
        stream = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:  # an uncaught exception: a traceback and exit 1
                exit_code, exception = 1, exc
        stream.flush()
        return Result(exit_code, buffer.getvalue().decode("utf-8"), exception)


def _assert_frozen_record(record, **changes) -> None:
    """``record`` keeps what a frozen dataclass gives: its fields in order,
    each stored once in the instance dict; ``dataclasses.replace`` with
    ``changes`` built through its ``__init__``; equal, equally hashed and
    equally printed copies by pickle, ``copy`` and ``copy.deepcopy``; and
    FrozenInstanceError on assigning or deleting a field."""
    names = [field.name for field in dataclasses.fields(record)]
    assert vars(record) == {name: getattr(record, name) for name in names}
    changed = dataclasses.replace(record, **changes)
    assert type(changed) is type(record) and changed != record
    assert changed == type(record)(**{**vars(record), **changes})
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        assert [type(getattr(twin, name)) for name in names] == [type(getattr(record, name)) for name in names]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


@pytest.fixture(scope="session")
def assert_frozen_record():
    """The check ``_assert_frozen_record``, for the package's result records."""
    return _assert_frozen_record
