"""Time the package's layers in two source trees, side by side.

Both trees' ``src/momentdet`` are imported into one process under
different package names (``momentdet_a`` and ``momentdet_b``) and timed
in adjacent A/B pairs: in each round every layer gets one batch of calls
of about 2 ms on each tree, back to back, the tree that goes first
swapping from round to round.  One ``perfbench/harness.Clock.factor()``
probe, the host's slow-down taken just before the pair, scales both of
its batches, so a timing is in the benchmark's reference seconds per
call.  One untimed call of each tree follows the probe: the probe slows
the batch right after it (``S(150)`` by about 5% on a 2-core host).
Prints each layer's median time in each tree over the rounds, and b/a,
the median over the rounds of each pair's own ratio, with its quartiles::

    python3 tools/ab_layers.py TREE_A TREE_B [--rounds N]

The two batches of a pair lie within a few milliseconds of each other, so
both see the same phase of a shared host's speed, and their ratio needs
no correction; the probe only keeps the µs columns comparable across
runs.  A default run (50 rounds) takes about 10 s on a 2-core host.

A tree is a checkout's root, such as the parent commit unpacked with
``git archive`` (or added with ``git worktree``) beside this one.  The
same tree twice shows the timer's own spread: on the 2-core host, three
default runs of a checkout against itself read every layer's b/a within
0.979–1.017 and ``gen 2000``'s within 0.999–1.004, and a copy made about
6% slower in S(p) read ``S(150)`` at 1.048–1.094 (CHANGES.md).  Layers:

* ``S(150)``, ``S(30)``: one ``integrate_logweighted`` at 150, from the
  saddle-point series, and at 30, from the table below the series' p = 61;
* ``S(30) quadrature``: S(30) by ``quadrature._log_s_quadrature``, the
  tanh-sinh path the CLI ``asym`` takes at every t;
* ``asym row``, ``gamma row``, ``wtable row``: one request of each of
  ``point-eval``'s three kinds, ``integrate_logweighted(150)`` with both
  Laplace estimates at 150, ``gamma_derivative(60)`` with
  ``integrate_unit_log_power(60)`` (S(60) from the table), and
  ``lambert_w0`` with ``lambert_w_bounds`` at 1e3;
* ``gamma row 150``: that gamma row at n = 150, S(150) from the series;
* ``_s_shape``, ``laplace``, ``lambert_w0``: S's peak and cutoff at
  p = 150, ``laplace_estimate_exact(150)`` and ``lambert_w0(150)``;
* ``gen 2000``: the flagship ``product[(1,1),(1,1)]`` generated at n_max 2000;
* ``from_json``, ``from_csv``, ``to_json``, ``analyze``: the flagship at
  n_max 5000;
* ``analyze 500``: ``analyze`` of ``exp`` at n_max 500, about the median
  ``corpus-check`` file;
* ``growth 500``: ``check_growth_rate`` of that sequence with
  ``QFunction.power(0.5)``;
* ``fresh import``: the tree's package dropped from ``sys.modules``,
  imported afresh under its A/B name, and one ``integrate_logweighted(150)``
  call.  It includes compiling the source only where no bytecode is written
  (``PYTHONDONTWRITEBYTECODE=1``, as start-up is measured for ROADMAP);
  elsewhere, as in CI, the modules load from ``__pycache__``.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from harness import Clock  # noqa: E402

FLAGSHIP = "product[(1,1),(1,1)]"
#: Wall time of one batch of calls, and A/B pairs of batches per layer by default.
BATCH_S = 0.002
ROUNDS = 50


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
    # Run every submodule of a package that loads them on first use, before
    # a fresh import replaces them in sys.modules.
    md.__all__
    tree, name = Path(md.__file__).parents[2], md.__name__
    p, p30 = np.float64(150.0), np.float64(30.0)
    family = md.parse_family(FLAGSHIP)
    seq = md.generate_moments(family, 5000)
    text, csv = md.to_json(seq), md.to_csv(seq)
    exp500, half = md.generate_from_label("exp", 500), md.QFunction.power(0.5)
    return {
        "S(150)": lambda: md.integrate_logweighted(150.0),
        "S(30)": lambda: md.integrate_logweighted(30.0),
        "S(30) quadrature": lambda: md.quadrature._log_s_quadrature(p30, md.DEFAULT_REL_TOL),
        "asym row": lambda: (
            md.integrate_logweighted(150.0),
            md.laplace_estimate_exact(150.0),
            md.laplace_estimate_leading(150.0),
        ),
        "gamma row": lambda: (md.gamma_derivative(60), md.integrate_unit_log_power(60)),
        "gamma row 150": lambda: (md.gamma_derivative(150), md.integrate_unit_log_power(150)),
        "wtable row": lambda: (md.lambert_w0(1e3), md.lambert_w_bounds(1e3)),
        "_s_shape": lambda: md.quadrature._s_shape(p),
        "laplace": lambda: md.laplace_estimate_exact(150.0),
        "lambert_w0": lambda: md.lambert_w0(150.0),
        "gen 2000": lambda: md.generate_moments(family, 2000),
        "from_json": lambda: md.from_json(text),
        "from_csv": lambda: md.from_csv(csv),
        "to_json": lambda: md.to_json(seq),
        "analyze": lambda: md.analyze(seq),
        "analyze 500": lambda: md.analyze(exp500),
        "growth 500": lambda: md.check_growth_rate(exp500, half),
        "fresh import": lambda: fresh_import(tree, name),
    }


def batch_size(call) -> int:
    """Calls that take about BATCH_S seconds, from a first timing."""
    call()
    start = time.perf_counter()
    call()
    return max(1, round(BATCH_S / max(time.perf_counter() - start, 1e-9)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--rounds", type=int, default=ROUNDS, help=f"A/B pairs (default {ROUNDS})")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {}
    for side, tree in (("a", args.tree_a), ("b", args.tree_b)):
        if not (tree / "src" / "momentdet" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/momentdet package")
        trees[side] = layers(load(tree.resolve(), f"momentdet_{side}"))
    counts = {name: batch_size(call) for name, call in trees["a"].items()}
    # reference seconds per call: each layer's round-by-tree batch timings
    times = {name: np.empty((args.rounds, 2)) for name in counts}
    for i in range(args.rounds):
        for name, count in counts.items():
            calls = [trees[side][name] for side in "ab"]
            factor = Clock.factor()  # one probe scales both batches of the pair
            for call in calls:  # one untimed call each: the probe slows what follows it
                call()
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                start = time.perf_counter()
                for _ in range(count):
                    calls[side]()
                times[name][i, side] = (time.perf_counter() - start) / count / factor
    print(f"{'layer':<16} {'a (µs)':>11} {'b (µs)':>11} {'b/a':>7} {'quartiles':>13}   "
          f"medians of {args.rounds} adjacent A/B pairs, reference µs per call")
    for name, pairs in times.items():
        a, b = np.median(pairs, axis=0) * 1e6
        low, ratio, high = np.percentile(pairs[:, 1] / pairs[:, 0], [25, 50, 75])
        print(f"{name:<16} {a:>11.1f} {b:>11.1f} {ratio:>7.3f} {low:>6.3f}–{high:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
