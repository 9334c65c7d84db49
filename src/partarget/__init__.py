"""Welfare value functions, prediction-access ratios and cost-benefit
grids for budget-constrained statistical targeting.

Modules:

* :mod:`partarget.gaussian` -- standard-normal special functions.
* :mod:`partarget.linear` -- closed forms for the continuous-welfare model.
* :mod:`partarget.probit` -- Owen's-T closed form for the binary model.
* :mod:`partarget.oracle` -- Monte Carlo and brute-force verification oracles.
* :mod:`partarget.grid` -- cost-benefit grid sweeps and contour extraction.
* :mod:`partarget.cli` -- the ``partarget`` command-line entry point.

``partarget.MC_BACKEND`` reports whether the compiled Monte Carlo kernel
or the NumPy fallback is in use.
"""

from ._backend import BACKEND as MC_BACKEND
from .errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PartargetError,
    PreconditionError,
    RegimeError,
)
from .gaussian import BoundPair
from .grid import CostModel, GridResult, GridSpec
from .linear import LeverDelta, LinearParams
from .oracle import DiscreteDistribution, Estimate, SimConfig
from .probit import ProbitParams

__version__ = "0.1.0"

__all__ = [
    "MC_BACKEND",
    "BoundPair",
    "CostModel",
    "DegenerateLeverError",
    "DiscreteDistribution",
    "DomainError",
    "Estimate",
    "GridResult",
    "GridSpec",
    "LeverDelta",
    "LinearParams",
    "NumericsError",
    "PartargetError",
    "PreconditionError",
    "ProbitParams",
    "RegimeError",
    "SimConfig",
    "__version__",
]
