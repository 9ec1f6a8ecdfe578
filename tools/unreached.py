"""Print the statements of src/momentdet that no tier-1 test reaches.

Runs the tier-1 suite in this process under a line tracer, installed with
``sys.settrace`` and ``threading.settrace`` so that the checkers' thread
tests are traced too, and prints each statement of the package whose lines
saw no line event, as ``file:line: source``.  Statements are found by the
``ast`` walk of ``tools/code_lines.py``: every statement but a docstring.
``ALLOWED`` lists the statements known to be unreached, each with the
reason; they are printed under their reason and do not fail the run.  The
exit status is 1 if any other statement is unreached or the suite fails::

    python3 tools/unreached.py [pytest arguments]

Tests that run the package in a subprocess are not traced, so what only
they reach is in ``ALLOWED``.  The run takes a few times as long as the
suite does alone.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

from code_lines import PACKAGE, docstring_lines

ROOT = PACKAGE.parent.parent

#: Why no test reaches each statement listed under it.  A statement is
#: (module file, context, its first line stripped): the context is the
#: innermost function or class that holds it, or ``if TEST`` / ``if not
#: (TEST)`` for a branch of an ``if`` (``module`` at the top), and "*"
#: stands for any.  An entry without "*" must name exactly one statement.
ALLOWED = {
    "ROADMAP item 2: no sequence of the suite reads a ln ln n slope of GROWTH_ALPHA_DIVERGENT": [
        ("criteria.py", "if loglog_slope >= GROWTH_ALPHA_DIVERGENT", "status = VIOLATED"),
    ],
    "ROADMAP item 2: no sequence of the suite leaves Hardy's bound undecided": [
        ("criteria.py", "if not (bound_ok)", "status = INCONCLUSIVE"),
    ],
    "the __main__ guards and the process entry point they call, run by `python -m momentdet`, "
    "`-m momentdet.cli` and tests/test_cli.py in subprocesses: `entry_point` run in-process "
    "would freeze the test runner's heap": [
        ("__main__.py", "*", "*"),
        ("cli.py", "if __name__ == '__main__'", "entry_point()"),
        ("cli.py", "entry_point", "*"),
    ],
    "the package's loader after its first use, and its retry of a submodule that failed to run: "
    "tests/test_package.py reaches both in subprocesses, each from a fresh import": [
        ("__init__.py", "if name in _pending", "_pending.add(name)"),
        ("__init__.py", "if name in _pending", "raise"),
        ("__init__.py", "_first_use", "*"),
        ("__init__.py", "if name == '__all__'", "*"),
        ("__init__.py", "__dir__", "*"),
    ],
}


def statements(path: Path) -> list[tuple[int, int, str, str]]:
    """The statements of ``path`` but its docstrings and declarations, as
    (first line, last line of its own code, context, first line's text): a
    compound statement's own code ends where its body begins, and ``try:``,
    which runs no code of its own, is left out for its body and handlers."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    skip = docstring_lines(tree)
    found = []

    def visit(body: list, context: str) -> None:
        for node in body:
            if node.lineno in skip or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if not isinstance(node, ast.Try):
                first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
                inner = getattr(node, "body", None)
                last = inner[0].lineno - 1 if inner and inner[0].lineno > first else node.end_lineno
                found.append((first, last, context, lines[first - 1].strip()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, node.name)
            elif isinstance(node, ast.If):
                test = ast.unparse(node.test)
                visit(node.body, f"if {test}")
                visit(node.orelse, f"if not ({test})")
            else:
                for block in ("body", "orelse", "finalbody"):
                    visit(getattr(node, block, []), context)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, context)

    visit(tree.body, "module")
    return found


def allowed(name: str, context: str, text: str, entry: tuple[str, str, str]) -> bool:
    """Whether ``entry`` of ALLOWED names the statement (name, context, text)."""
    return all(want in ("*", got) for want, got in zip(entry, (name, context, text)))


def trace(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code, and the lines of each package file that ran."""
    import pytest

    package = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(package):
            return None
        seen.setdefault(name, set())
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, seen = trace(argv or [str(ROOT / "tests")])
    entries = [(reason, entry) for reason, listed in ALLOWED.items() for entry in listed]
    matched = {entry: 0 for _, entry in entries}
    missed, excused = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        for first, last, context, text in statements(path):
            reasons = [r for r, entry in entries if allowed(path.name, context, text, entry)]
            for _, entry in entries:
                matched[entry] += allowed(path.name, context, text, entry)
            if ran.isdisjoint(range(first, last + 1)):
                where = f"{path.relative_to(ROOT)}:{first}: {text}"
                if reasons:
                    excused.setdefault(reasons[0], []).append(where)
                else:
                    missed.append(where)
    bad = [entry for entry, n in matched.items() if n == 0 or (n > 1 and "*" not in entry)]
    for reason, wheres in excused.items():
        print(f"allowed ({reason}):")
        print("".join(f"  {where}\n" for where in wheres), end="")
    print("".join(f"ALLOWED entry matches {matched[e]} statements: {e}\n" for e in bad), end="")
    print(f"{len(missed)} statements no test reaches" + (":" if missed else ""))
    print("".join(f"  {where}\n" for where in missed), end="")
    return int(bool(missed or bad) or code != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
