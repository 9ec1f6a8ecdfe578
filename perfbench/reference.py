"""The reference child of ``cli-pipeline``: a Python process that imports
numpy and runs the benchmark's probe (``harness.probe``) a fixed number
of times, about a quarter of a second on an unloaded core.

Its make-up follows a CLI child's (interpreter start-up, imports, numpy
and Python work), so its wall time, taken between CLI requests, tells how
fast the host runs such processes at that moment.  Run it with
``python perfbench/reference.py``.
"""

import harness

for _ in range(300):
    harness.probe()
