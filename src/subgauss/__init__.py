"""Exact subgaussian norms of centered indicator variables.

A centered indicator with success probability p takes the value 1 - p with
probability p and -p otherwise.  Its subgaussian norm, the smallest tau with
E exp(t X) <= exp(tau^2 t^2) for all t, has a closed form; this package
computes it, the companion quantities around it (extremal point, growth-rate
asymptotics, a moment-based norm), and certified tail bounds for weighted
sums of such indicators, checked against exact and Monte Carlo oracles.

Each module's __all__ lists its public names; the package re-exports them.
"""

from ._version import __version__
from . import core, errors, optimize, oracles, report, sums, verify
from .core import *
from .errors import *
from .optimize import *
from .oracles import *
from .report import *
from .sums import *
from .verify import *

__all__ = [
    "__version__", *core.__all__, *errors.__all__, *optimize.__all__,
    *oracles.__all__, *report.__all__, *sums.__all__, *verify.__all__,
]
