"""momentdet: moment-determinacy diagnostics and log-domain numerics.

The package has two halves.

The numeric half evaluates, entirely in the log domain, the special
functions behind a family of moment sequences built from products of
gamma factors and the log-power integrals
S(p) = ∫₀^∞ ln(1+x)^p e^{−x} dx: Lambert W (``lambertw``), S(p) from
its saddle-point series and a table, the unit-interval companion
∫₀¹ (ln t)^n e^{−t} dt and the gamma derivatives Γ⁽ⁿ⁾(1) they combine
into (``quadrature``), and
saddle-point asymptotics of S(t) with numeric verification of the
Laplace-method hypotheses (``asymptotics``).

The diagnostic half generates and serializes exact log-domain moment
sequences (``moments``) and classifies them against moment-determinacy
conditions — Carleman's series test on both supports, the quadratic and
q-modulated growth-rate conditions, the q-series divergence test, and
Hardy's moment bound — with evidence-graded verdicts and quantitative
diagnostics (``criteria``).  A command-line front end (``cli``) exposes
generation, checking, and reproducible reference tables.

Names resolve on first use.  ``import momentdet`` registers the seven
submodules in ``sys.modules`` and as package attributes without running
them.  The first lookup of a public name here runs them in dependency
order (``errors``, ``logdomain``, ``lambertw``, ``quadrature``,
``asymptotics``, ``moments``, ``criteria``) up to the one that defines
it, and binds the public names of each module it runs, so later lookups
are plain attribute hits: a caller of the numeric half alone never
compiles the diagnostic half.  The first lookup in a submodule object
that has not run, as in ``from momentdet.criteria import analyze`` or
``sys.modules["momentdet.quadrature"].integrate_logweighted``, runs that
submodule alone, and its own ``from .x import ...`` lines run the
siblings it takes names from, each by the same first lookup.  ``cli``
binds the submodules themselves and looks a name up when a command calls
it, so each command runs only what it uses: ``gen`` runs ``errors``,
``logdomain``, ``lambertw``, ``quadrature`` and ``moments``; ``check``
runs ``errors``, ``logdomain``, ``moments`` and ``criteria``;
``paper-table`` and ``gamma-derivs`` run ``errors``, ``logdomain``,
``lambertw`` and ``quadrature``, and ``asym`` those and ``asymptotics``;
``wtable`` runs ``errors`` and ``lambertw``; ``--help``, ``--version``
and a usage error run ``errors`` alone.  Only ``quadrature``,
``asymptotics``, ``moments`` and ``criteria`` import numpy, so the
commands that compute load it when they first look a name up in one of
them, and ``wtable``, ``--help``, ``--version`` and a usage error never
load it.  Code that finds a module in ``sys.modules`` and
rebinds a function wherever it is bound still sees every call: its first
lookup there runs the module, the modules run before the rebinding hold
the same function object, and a module run after it imports the function
as rebound.  The benchmark's tracer works that way: it looks each
layer's functions up in the layer's module, which runs the layer, then
rebinds them in every module of the package that holds them.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
import threading

__version__ = "0.1.0"

#: The submodules in dependency order: each imports only those before it.
_SUBMODULES = ("errors", "logdomain", "lambertw", "quadrature", "asymptotics", "moments", "criteria")
#: Held while a submodule runs; re-entrant, as running one may look into another.
_lock = threading.RLock()
_pending = set(_SUBMODULES)


def _run(name: str) -> None:
    """Run submodule ``name`` in its registered module, once, and bind its
    public names here.  A name assigned to the module before it ran is
    assigned again after, so the assignment holds."""
    with _lock:
        if name in _pending:
            _pending.discard(name)
            module = globals()[name]
            assigned = {k: v for k, v in vars(module).items() if not k.startswith("__")}
            try:
                module.__spec__.loader.exec_module(module)
            except BaseException:
                _pending.add(name)
                raise
            vars(module).update(assigned)
            del module.__getattr__
            globals().update((public, getattr(module, public)) for public in module.__all__)


def _first_use(module, attr: str):
    """The ``__getattr__`` (PEP 562) of a submodule that has not run: runs
    that submodule alone, then looks ``attr`` up again."""
    _run(module.__name__.rpartition(".")[2])
    return getattr(module, attr)


for _name in _SUBMODULES:
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    _module.__getattr__ = functools.partial(_first_use, _module)
    globals()[_name] = sys.modules[_module.__name__] = _module
del _name, _module


def __getattr__(name: str):
    global __all__
    if name == "__all__":
        for submodule in _SUBMODULES:
            _run(submodule)
        __all__ = sorted(public for submodule in _SUBMODULES for public in globals()[submodule].__all__)
        return __all__
    if not name.startswith("_"):
        for submodule in _SUBMODULES:
            _run(submodule)
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
