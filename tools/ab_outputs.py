"""Run the command line's entry-point commands on a source tree and check
what each must do; given two trees, also print every output that differs.

    python3 tools/ab_outputs.py TREE
    python3 tools/ab_outputs.py PARENT CHANGE

A tree is a checkout's root, such as the parent commit unpacked with
``git archive`` beside this one.  ``COMMANDS`` is the one list of
commands: each is run as ``python ARGS`` in order, in one fresh temporary
directory per tree that starts with the file ``not-utf8.json`` (the bytes
FF FE), with ``PYTHONPATH=TREE/src``, ``PYTHONDONTWRITEBYTECODE=1`` and no
``MOMENTDET_*`` variable, so that nothing is written into either tree.
Each command must exit with its code and meet its one further expectation,
if it has one; a miss is printed.  With two trees, every command whose
exit code, stdout or stderr differs between them is printed, and so is
every file left in the directory that differs.  The exit status is 1 on
any miss or difference.

No output is kept to compare against: numpy's vectorised ``log`` and
``exp`` may round differently across CPUs and releases, so a byte
comparison holds only between two trees run on one host.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path


@dataclass(frozen=True)
class Command:
    """``python ARGS``: its exit code and at most one further expectation."""

    args: str
    exit_code: int = 0
    stderr_has: str = ""  # text stderr must contain
    report_lacks: str = ""  # a key the JSON object on stdout must not have
    stdout_of: str = ""  # the args of an earlier command whose stdout this one's must equal


CLI = "-m momentdet.cli"
LOOSE = f"{CLI} gen --family 'product[(1,0.6),(1,0.8)]' --nmax 300"
# numpy warnings as errors
STRICT = f"-W error::RuntimeWarning {CLI}"

COMMANDS = [
    Command(f"{CLI} --version"),
    Command("-m momentdet --version"),
    # the reference table through each of its three writers
    Command(f"{CLI} paper-table"),
    Command(f"{CLI} paper-table --format json"),
    Command(f"{CLI} paper-table --format csv --rel-tol 1e-12"),
    Command(f"{CLI} gamma-derivs --nmax 200 --format csv"),
    # the scalar W from e to subnormal t, and saddle estimates that resolve
    Command(f"{CLI} wtable --t e --t 3 --t 1e300 --t 5e-324 --format csv"),
    Command(f"{CLI} asym --t 0.5 --t 100 --t 4000 --format csv"),
    Command(f"{CLI} gen --family exp --nmax 40 --out e.json"),
    Command(f"{CLI} check --in e.json"),
    Command(f"{CLI} check --in e.json --criteria carleman,growth,growth-q,hardy --format human"),
    # the quadrature's first sweep through level 4 (rel_tol above 1e-8), then through level 5
    Command(f"{LOOSE} --rel-tol 1e-4 --out loose.json"),
    Command(f"{CLI} check --in loose.json"),
    # the same sequence as CSV: the two loaders give byte-identical reports
    Command(f"{LOOSE} --rel-tol 1e-4 --format csv --out loose.csv"),
    Command(f"{CLI} check --in loose.csv", stdout_of=f"{CLI} check --in loose.json"),
    Command(f"{LOOSE} --rel-tol 1e-12 --out tight.json"),
    Command(f"{CLI} check --in tight.json"),
    # Hardy and Carleman on a long sequence and on one with large tail slopes
    Command(f"{CLI} gen --family 'product[(1,1),(1,1)]' --nmax 5000 --out flagship.json"),
    Command(f"{STRICT} check --in flagship.json --criteria hardy,carleman"),
    Command(f"{CLI} gen --family lognormal --nmax 700 --out lognormal.json"),
    Command(f"{STRICT} check --in lognormal.json --criteria hardy,carleman"),
    # a symmetric product stores m_{2n} at entry n, so its report has no trend columns
    Command(f"{CLI} gen --family 'symprod[(1,1),(1,1)]' --nmax 300 --out symprod.json"),
    Command(f"{CLI} check --in symprod.json", report_lacks="trends"),
    Command(f"{CLI} gamma-derivs --nmax 400 --format csv"),
    # the saddle-point series across its threshold p = 61, at the tightest rel_tol here
    Command(f"{CLI} gamma-derivs --nmax 400 --rel-tol 1e-12 --format csv"),
    # the ln n! table of the unit integral's series at the CLI's n_max cap
    Command(f"{CLI} gamma-derivs --nmax 5000 --format csv"),
    # the left panel of S(2000) goes past the first sweep, to level 6
    Command(f"{CLI} asym --t 2000 --rel-tol 1e-12"),
    # asym's quadrature at orders the library takes from the series, numpy warnings as errors
    Command(f"{STRICT} asym --t 64 --t 150 --t 1e5 --format csv"),
    # S(n) from the table at n = 0 and at every octave edge to 64, numpy warnings as errors
    Command(f"{STRICT} gamma-derivs --nmax 64 --format csv"),
    # input errors: an unknown criterion, alone and beside all, a file that is
    # not UTF-8 text, log S(1e7), which cannot be resolved to the default
    # rel_tol, and a negative t, named under asym
    Command(f"{CLI} check --in e.json --criteria bogus", 2),
    Command(
        f"{CLI} check --in e.json --criteria all,bogus", 2, stderr_has="unknown criterion 'bogus'"
    ),
    Command(f"{CLI} check --in not-utf8.json", 2),
    Command(f"{CLI} asym --t 1e7", 2),
    Command(f"{CLI} asym --t -5", 2, stderr_has="error: asym requires finite t >= 0, got -5.0"),
    # ln q(n) = alpha*ln n overflowing a float names the first such n
    Command(
        f"{CLI} check --in e.json --criteria growth-q --q power:1e308",
        2,
        stderr_has="ln q(7) = 1e+308*ln(7) overflows a float",
    ),
    # --q is read whatever --criteria says: an unknown q spec under the default all
    Command(f"{CLI} check --in e.json --q junk", 2),
    # usage errors: an abbreviated option, a missing required option, a bad choice
    Command(f"{CLI} gen --fam exp --nmax 10", 2),
    Command(f"{CLI} gen --family exp", 2),
    Command(f"{CLI} gen --family exp --nmax 10 --format xml", 2),
]

@dataclass(frozen=True)
class Run:
    """What the commands did in one tree."""

    results: list[subprocess.CompletedProcess]
    files: dict[str, bytes]  # the directory's files after the last command


def run(tree: Path) -> Run:
    """Every command of ``COMMANDS``, in order, from ``tree``'s ``src``."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("MOMENTDET_")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        Path(work, "not-utf8.json").write_bytes(b"\xff\xfe")
        results = [
            subprocess.run(
                [sys.executable, *shlex.split(command.args)],
                cwd=work,
                env=env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
            )
            for command in COMMANDS
        ]
        files = {path.name: path.read_bytes() for path in sorted(Path(work).iterdir())}
    return Run(results, files)


def miss(command: Command, result: subprocess.CompletedProcess, stdout: dict[str, bytes]) -> str:
    """How ``result`` falls short of what ``command`` expects, or "" when it does not;
    ``stdout`` maps each command's args to its stdout."""
    if result.returncode != command.exit_code:
        stderr = result.stderr[-300:]
        return f"exit code {result.returncode}, not {command.exit_code}; stderr ends {stderr!r}"
    if command.stderr_has and command.stderr_has.encode() not in result.stderr:
        return f"stderr lacks {command.stderr_has!r}"
    if command.report_lacks:
        try:
            report = json.loads(result.stdout)
        except ValueError as error:
            return f"stdout is not JSON: {error}"
        if command.report_lacks in report:
            return f"the report has the key {command.report_lacks!r}"
    if command.stdout_of and result.stdout != stdout[command.stdout_of]:
        return f"stdout differs from that of python {command.stdout_of}"
    return ""


def misses(done: Run) -> list[str]:
    """Each command of ``done`` that did not do what ``COMMANDS`` expects of it."""
    stdout = {command.args: result.stdout for command, result in zip(COMMANDS, done.results)}
    return [
        f"python {command.args}: {text}"
        for command, result in zip(COMMANDS, done.results)
        if (text := miss(command, result, stdout))
    ]


def first_difference(a: bytes, b: bytes) -> str:
    """The first line at which ``a`` and ``b`` differ, from each."""
    pairs = zip_longest(a.splitlines(keepends=True), b.splitlines(keepends=True))
    line, (x, y) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    return f"line {line}: {x!r} / {y!r}"


def differences(a: Run, b: Run) -> list[str]:
    """Each exit code, stdout, stderr and file that differs between ``a`` and ``b``."""
    found = []
    for command, x, y in zip(COMMANDS, a.results, b.results):
        if x.returncode != y.returncode:
            found.append(f"python {command.args}: exit code {x.returncode} / {y.returncode}")
        for stream in ("stdout", "stderr"):
            if getattr(x, stream) != getattr(y, stream):
                diff = first_difference(getattr(x, stream), getattr(y, stream))
                found.append(f"python {command.args}: {stream} {diff}")
    for name in sorted(a.files.keys() | b.files.keys()):
        if name not in a.files or name not in b.files:
            found.append(f"file {name}: written in one tree only")
        elif a.files[name] != b.files[name]:
            found.append(f"file {name}: {first_difference(a.files[name], b.files[name])}")
    return found


def main(trees: list[str]) -> int:
    if len(trees) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = []
    failed = False
    for tree in trees:
        runs.append(run(Path(tree).resolve()))
        found = misses(runs[-1])
        print(f"{tree}: {len(COMMANDS)} commands, {len(found)} expectations missed")
        print("".join(f"  {line}\n" for line in found), end="")
        failed |= bool(found)
    if len(runs) == 2:
        found = differences(*runs)
        print(f"{trees[0]} / {trees[1]}: {len(found)} differences")
        print("".join(f"  {line}\n" for line in found), end="")
        failed |= bool(found)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
