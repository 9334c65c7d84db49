"""Welfare value functions, prediction-access ratios and cost-benefit
grids for budget-constrained statistical targeting.

Modules:

* :mod:`partarget.inputs` -- input types and checks, without NumPy.
* :mod:`partarget.gaussian` -- standard-normal special functions.
* :mod:`partarget.linear` -- closed forms for the continuous-welfare model.
* :mod:`partarget.probit` -- Plackett-integral value for the binary model.
* :mod:`partarget.oracle` -- Monte Carlo and brute-force verification oracles.
* :mod:`partarget.grid` -- cost-benefit grid sweeps and contour extraction.
* :mod:`partarget.cli` -- the ``partarget`` command-line entry point.

The Monte Carlo oracle runs on one NumPy kernel (``partarget._backend``):
it draws only the treated samples, block j of them from its own NumPy
Generator seeded by (seed, j), blocks run on one plain thread per usable
CPU (the calling thread among them), and their partial sums are combined
in block order, so a fixed seed and sample count give bit-identical sums
whatever the thread count.
``partarget.MC_BACKEND`` names it (``"numpy"``).

The errors are imported with the package; every other export, and every
submodule (``partarget.grid`` after a bare ``import partarget``), on first
access, so ``import partarget.cli`` loads no NumPy.
"""

import sys

from .errors import (DegenerateLeverError, DomainError, NumericsError, PartargetError,
                     PreconditionError, RegimeError)

__version__ = "0.1.0"

# The package's modules, and the one that holds each export, imported on
# first access (PEP 562).
_SUBMODULES = ("_backend", "cli", "errors", "gaussian", "grid", "inputs", "linear", "oracle",
               "probit")
_LAZY = {"MC_BACKEND": "_backend", "BoundPair": "gaussian", "CostModel": "inputs",
         "DiscreteDistribution": "inputs", "Estimate": "oracle", "GridResult": "grid",
         "GridSpec": "inputs", "LeverDelta": "inputs", "LinearParams": "inputs",
         "ProbitParams": "inputs", "SimConfig": "inputs"}

__all__ = ["DegenerateLeverError", "DomainError", "NumericsError", "PartargetError",
           "PreconditionError", "RegimeError", "__version__", *_LAZY]


def __getattr__(name: str):
    home = _LAZY.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # unlike importlib, shows in -X importtime
    value = sys.modules[f"{__name__}.{home}"]
    if name != home:  # an export, bound here for the next access
        globals()[name] = value = getattr(value, "BACKEND" if name == "MC_BACKEND" else name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
