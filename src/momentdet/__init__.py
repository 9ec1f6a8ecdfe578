"""momentdet: moment-determinacy diagnostics and log-domain numerics.

The package has two halves.

The numeric half evaluates, entirely in the log domain, the special
functions behind a family of moment sequences built from products of
gamma factors and the log-power integrals
S(p) = ∫₀^∞ ln(1+x)^p e^{−x} dx: Lambert W (``lambertw``), tanh-sinh
quadrature for S(p), the unit-interval companion ∫₀¹ (ln t)^n e^{−t} dt
and the gamma derivatives Γ⁽ⁿ⁾(1) they combine into (``quadrature``), and
saddle-point asymptotics of S(t) with numeric verification of the
Laplace-method hypotheses (``asymptotics``).

The diagnostic half generates and serializes exact log-domain moment
sequences (``moments``) and classifies them against moment-determinacy
conditions — Carleman's series test on both supports, the quadratic and
q-modulated growth-rate conditions, the q-series divergence test, and
Hardy's moment bound — with evidence-graded verdicts and quantitative
diagnostics (``criteria``).  A command-line front end (``cli``) exposes
generation, checking, and reproducible reference tables.
"""

from __future__ import annotations

from . import asymptotics, criteria, errors, lambertw, logdomain, moments, quadrature
from .asymptotics import *  # noqa: F403
from .criteria import *  # noqa: F403
from .errors import *  # noqa: F403
from .lambertw import *  # noqa: F403
from .logdomain import *  # noqa: F403
from .moments import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (asymptotics, criteria, errors, lambertw, logdomain, moments, quadrature)
        for name in module.__all__
    }
)
