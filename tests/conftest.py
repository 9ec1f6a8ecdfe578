"""Shared fixtures: cached family sequences, a hypothesis profile and an
in-process runner of the command line."""

from __future__ import annotations

import contextlib
import io
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
