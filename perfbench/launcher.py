"""Run the momentdet CLI with the benchmark's tracer installed.

Usage: ``PERFBENCH_SPANS=<file> PERFBENCH_REQUEST=<id> python perfbench/launcher.py
<momentdet arguments>``, with the package on PYTHONPATH.  The tracer is
installed after import and before ``momentdet.cli.main`` runs, so the
process starts with the same cold caches a CLI user's does; its spans are
written to ``PERFBENCH_SPANS`` when the command ends, however it ends.
"""

from __future__ import annotations

import os
from pathlib import Path

import momentdet.cli

import tracer as tracing


def main() -> None:
    tracer = tracing.Tracer()
    tracer.request = int(os.environ["PERFBENCH_REQUEST"])
    tracer.install()
    try:
        momentdet.cli.main(prog_name="momentdet")
    finally:
        tracer.uninstall()
        tracer.dump(Path(os.environ["PERFBENCH_SPANS"]))


if __name__ == "__main__":
    main()
