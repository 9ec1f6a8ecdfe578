"""Time the package's layers in two source trees, side by side.

Both trees' ``src/momentdet`` are imported into one process under
different package names (``momentdet_a`` and ``momentdet_b``) and timed
in alternating rounds: each round times every layer on both trees, the
tree that goes first swapping from round to round.  A timing is the wall
time of a batch of calls divided by ``perfbench/harness.Clock.factor()``,
the host's slow-down probed just before the batch, so it is in the
benchmark's reference seconds; a round keeps the best of three batches
of about 10 ms.
Prints the median per-call time of each layer in each tree over the
rounds, and the ratio b/a::

    python3 tools/ab_layers.py TREE_A TREE_B [--rounds N]

A tree is a checkout's root, such as the parent commit unpacked with
``git archive`` (or added with ``git worktree``) beside this one.  The
same tree twice shows the timer's own spread.  Layers:

* ``S(150)``: one ``integrate_logweighted(150)``;
* ``gamma row``: ``gamma_derivative(60)`` and ``integrate_unit_log_power(60)``;
* ``_s_shape``, ``laplace``, ``lambert_w0``: S's peak and cutoff at
  p = 150, ``laplace_estimate_exact(150)`` and ``lambert_w0(150)``;
* ``gen 2000``: the flagship ``product[(1,1),(1,1)]`` generated at n_max 2000;
* ``from_json``, ``to_json``, ``analyze``: the flagship at n_max 5000;
* ``fresh import``: the tree's package dropped from ``sys.modules``,
  imported afresh under its A/B name, and one ``integrate_logweighted(150)``
  call.  It includes compiling the source only where no bytecode is written
  (``PYTHONDONTWRITEBYTECODE=1``, as start-up is measured for ROADMAP);
  elsewhere, as in CI, the modules load from ``__pycache__``.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from harness import Clock  # noqa: E402

FLAGSHIP = "product[(1,1),(1,1)]"
#: Wall time of one batch of calls, and batches per layer, tree and round.
BATCH_S = 0.01
REPEATS = 3


def load(tree: Path, name: str):
    """``tree``'s ``src/momentdet`` imported as the package ``name``."""
    init = tree / "src" / "momentdet" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def fresh_import(tree: Path, name: str) -> None:
    """Drop package ``name`` from ``sys.modules``, import it afresh from
    ``tree`` and make one S(150) call."""
    for loaded in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    load(tree, name).integrate_logweighted(150.0)


def layers(md) -> dict[str, object]:
    """Each layer's name and a no-argument call into package ``md``."""
    import numpy as np

    # Run every submodule of a package that loads them on first use, before
    # a fresh import replaces them in sys.modules.
    md.__all__
    tree, name = Path(md.__file__).parents[2], md.__name__
    p = np.float64(150.0)
    family = md.parse_family(FLAGSHIP)
    seq = md.generate_moments(family, 5000)
    text = md.to_json(seq)
    return {
        "S(150)": lambda: md.integrate_logweighted(150.0),
        "gamma row": lambda: (md.gamma_derivative(60), md.integrate_unit_log_power(60)),
        "_s_shape": lambda: md.quadrature._s_shape(p),
        "laplace": lambda: md.laplace_estimate_exact(150.0),
        "lambert_w0": lambda: md.lambert_w0(150.0),
        "gen 2000": lambda: md.generate_moments(family, 2000),
        "from_json": lambda: md.from_json(text),
        "to_json": lambda: md.to_json(seq),
        "analyze": lambda: md.analyze(seq),
        "fresh import": lambda: fresh_import(tree, name),
    }


def batch_size(call) -> int:
    """Calls that take about BATCH_S seconds, from a first timing."""
    call()
    start = time.perf_counter()
    call()
    return max(1, round(BATCH_S / max(time.perf_counter() - start, 1e-9)))


def timed(call, count: int) -> float:
    """Reference seconds per call: the best of REPEATS batches of ``count``
    calls, each scaled by the host's slow-down just before it."""
    best = float("inf")
    for _ in range(REPEATS):
        factor = Clock.factor()
        start = time.perf_counter()
        for _ in range(count):
            call()
        best = min(best, (time.perf_counter() - start) / count / factor)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--rounds", type=int, default=15, help="alternating rounds (default 15)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {}
    for side, tree in (("a", args.tree_a), ("b", args.tree_b)):
        if not (tree / "src" / "momentdet" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/momentdet package")
        trees[side] = layers(load(tree.resolve(), f"momentdet_{side}"))
    counts = {name: batch_size(call) for name, call in trees["a"].items()}
    times = {side: {name: [] for name in counts} for side in trees}
    for i in range(args.rounds):
        for name, count in counts.items():
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                times[side][name].append(timed(trees[side][name], count))
    print(f"{'layer':<12} {'a (µs)':>11} {'b (µs)':>11} {'b/a':>7}   "
          f"median of {args.rounds} alternating rounds, reference µs per call")
    for name in counts:
        a, b = (statistics.median(times[side][name]) * 1e6 for side in ("a", "b"))
        print(f"{name:<12} {a:>11.1f} {b:>11.1f} {b / a:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
