"""The package namespace resolves names on first use.

Each check runs in a fresh interpreter, with the package taken from
``src`` as the tier-1 command takes it, so that no earlier import in the
test process decides what has run.  A submodule has run when its
``__all__`` is in its namespace; ``import momentdet`` registers all seven
in ``sys.modules`` before any has run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
#: The submodules in dependency order; each imports only those before it.
SUBMODULES = ("errors", "logdomain", "lambertw", "quadrature", "asymptotics", "moments", "criteria")
#: One public name of each submodule, in the same order.
ONE_NAME = ("DomainError", "SignedLogValue", "lambert_w0", "integrate_logweighted",
            "saddle_point", "to_json", "analyze")
NUMERIC_HALF = ["asymptotics", "errors", "lambertw", "logdomain", "quadrature"]

PRELUDE = """\
import json, sys

def ran():
    return sorted(
        name.partition(".")[2]
        for name, module in list(sys.modules.items())
        if name.startswith("momentdet.") and "__all__" in vars(module)
    )
"""


def run_fresh(code: str):
    """Run ``code`` after PRELUDE in a new interpreter; returns the JSON it
    prints on its last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_runs_no_submodule():
    result = run_fresh("""
        import momentdet
        print(json.dumps({
            "ran": ran(),
            "registered": sorted(n for n in sys.modules if n.startswith("momentdet.")),
        }))
    """)
    assert result == {"ran": [], "registered": sorted(f"momentdet.{m}" for m in SUBMODULES)}


def test_the_numeric_half_runs_without_the_diagnostic_half():
    result = run_fresh("""
        import momentdet as md
        md.integrate_logweighted(150.0)
        md.gamma_derivative(60)
        md.integrate_unit_log_power(60)
        md.laplace_estimate_exact(150.0)
        md.lambert_w0(150.0)
        md.lambert_w_bounds(150.0)
        print(json.dumps({"ran": ran(), "cli": "momentdet.cli" in sys.modules}))
    """)
    assert result == {"ran": NUMERIC_HALF, "cli": False}


def test_all_is_the_union_of_the_submodules_and_names_are_their_objects():
    result = run_fresh("""
        import importlib
        import momentdet
        names = list(momentdet.__all__)
        namespace = {}
        exec("from momentdet import *", namespace)
        owners = {}
        for sub in %r:
            module = importlib.import_module("momentdet." + sub)
            for name in module.__all__:
                owners.setdefault(name, []).append(sub)
        same = all(
            namespace[name] is getattr(importlib.import_module("momentdet." + subs[0]), name)
            for name, subs in owners.items()
        )
        print(json.dumps({"all": names, "owners": owners, "same": same,
                          "bound": sorted(set(namespace) - {"__builtins__"})}))
    """ % (SUBMODULES,))
    assert result["all"] == sorted(result["owners"])
    assert len(result["all"]) == 49
    assert {name: subs for name, subs in result["owners"].items() if len(subs) > 1} == {}
    assert result["same"]
    assert result["bound"] == result["all"]


def test_unknown_names_raise_attribute_error():
    result = run_fresh("""
        import momentdet
        messages, ran_after = [], []
        for name in ("_private", "__wrapped__", "no_such_name"):
            try:
                getattr(momentdet, name)
            except AttributeError as exc:
                messages.append(str(exc))
            ran_after.append(ran())
        print(json.dumps({"messages": messages, "ran": ran_after}))
    """)
    assert result["messages"] == [
        f"module 'momentdet' has no attribute '{name}'"
        for name in ("_private", "__wrapped__", "no_such_name")
    ]
    # a private name is refused at once; an unknown public one runs them all
    assert result["ran"] == [[], [], sorted(SUBMODULES)]


@pytest.mark.parametrize("lookup", ["momentdet.analyze", "momentdet.criteria.analyze"])
def test_threads_resolving_one_name_first_get_one_object(lookup):
    result = run_fresh("""
        import threading
        import momentdet
        sys.setswitchinterval(1e-6)
        barrier, found = threading.Barrier(8), []

        def resolve():
            barrier.wait()
            found.append(%s)

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        print(json.dumps({
            "alive": sum(thread.is_alive() for thread in threads),
            "found": len(found),
            "same": all(f is sys.modules["momentdet.criteria"].analyze for f in found),
        }))
    """ % lookup)
    assert result == {"alive": 0, "found": 8, "same": True}


def test_each_module_imports_from_a_clean_start():
    result = run_fresh("""
        import importlib
        report = {}
        for name in %r:
            for loaded in [n for n in sys.modules if n.split(".")[0] == "momentdet"]:
                del sys.modules[loaded]
            module = importlib.import_module(name)
            public = getattr(module, "__all__", ["main"])
            report[name] = all(hasattr(module, attr) for attr in public) and bool(public)
        print(json.dumps(report))
    """ % ([f"momentdet.{m}" for m in SUBMODULES] + ["momentdet.cli"],))
    assert result == {name: True for name in [f"momentdet.{m}" for m in SUBMODULES] + ["momentdet.cli"]}


def test_a_name_runs_its_module_and_only_those_before_it():
    result = run_fresh("""
        import importlib
        report = []
        for name in %r:
            for loaded in [n for n in sys.modules if n.split(".")[0] == "momentdet"]:
                del sys.modules[loaded]
            getattr(importlib.import_module("momentdet"), name)
            report.append(ran())
        print(json.dumps(report))
    """ % (ONE_NAME,))
    assert result == [sorted(SUBMODULES[: i + 1]) for i in range(len(SUBMODULES))]
