"""Standard-normal special functions used throughout the package.

Everything here is scalar, pure and stateless, except :func:`pdf_array`,
the unchecked density the linear array core shares with :func:`pdf`, and
:func:`conditional_sd`, the gamma_t of both models.  The ``check_alpha_*``
functions hold the four access-level domains the models use.  The
quantile is the one primitive the rest of the package leans on
(thresholds, closed forms and the Monte Carlo sampler all use it), and it
meets a tight round-trip contract:

    |cdf(quantile(p)) - p| <= 1e-12   for p in [1e-10, 1 - 1e-10].

Implementation notes
--------------------
* This is the one module that names ``scipy.special``.  Its ufuncs
  ``ndtr``, ``ndtri`` and ``owens_t`` are reached as ``gaussian.ndtr``,
  ``gaussian.ndtri`` and ``gaussian.owens_t``, and ``scipy.special`` is
  imported at the first call of any of them, not when the package loads
  (see :func:`_stub`).
* ``cdf`` and ``sf`` are ``ndtr`` (``sf`` at -t, never ``1 - cdf``), the
  CDF of the probit core and the Monte Carlo kernel.
* ``quantile`` is ``ndtri``, the same inverse CDF as the array closed
  forms and the Monte Carlo kernel, so the package has one implementation
  of it (within about 3e-16 relative of a 40-digit reference,
  ``tests/data/reference.json``).
* ``upper_quantile(alpha)`` returns the (1 - alpha) quantile without ever
  forming ``1 - alpha``, so it stays accurate for alpha down to the
  smallest normal doubles.

All functions reject NaN inputs explicitly instead of propagating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, PreconditionError, RegimeError

__all__ = [
    "BoundPair",
    "conditional_sd",
    "pdf",
    "pdf_array",
    "cdf",
    "sf",
    "quantile",
    "upper_quantile",
    "mills_conditional_mean",
    "tail_bounds",
    "phi_of_quantile",
    "phi_of_quantile_slack",
    "k_phi_of_quantile_bounds",
]

INV_SQRT_2PI = 0.3989422804014327
SQRT_2PI = 2.5066282746310002


def _stub(name: str):
    """A stand-in for scipy.special's ``name``.  Its first call imports
    scipy.special and binds ndtr, ndtri and owens_t in place of the three
    stubs, so that every later call is a plain lookup of the ufunc.

    The import is about half of a command's start-up, and commands that
    evaluate no normal function (allocate, help, input refused before the
    core runs) never pay it.  A thread that calls a stub while another is
    importing waits on the import lock for the finished module.
    """
    def first_call(*args, **kwargs):
        from scipy.special import ndtr, ndtri, owens_t

        globals().update(ndtr=ndtr, ndtri=ndtri, owens_t=owens_t)
        return globals()[name](*args, **kwargs)

    return first_call


# Call these through the module (gaussian.ndtri), never as names copied by
# ``from .gaussian import ...``: a copy stays the stub and imports on every call.
ndtr, ndtri, owens_t = (_stub(name) for name in ("ndtr", "ndtri", "owens_t"))


@dataclass(frozen=True)
class BoundPair:
    """A lower/upper sandwich around some target quantity."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise DomainError(
                f"bound pair is inverted: lower={self.lower!r} > upper={self.upper!r}"
            )

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _reject_nan(x: float, name: str) -> None:
    if math.isnan(x):
        raise DomainError(f"{name} is NaN")


def _alpha_check(inside, domain: str, error=DomainError, why: str = ""):
    """The check that alpha lies in ``domain``, which ``inside`` tests."""
    def check(alpha: float) -> None:
        _reject_nan(alpha, "alpha")
        if not inside(alpha):
            raise error(f"alpha must lie in {domain}, got {alpha!r}{why}")
    return check


# The four access-level domains of the models and oracles.  Above 1/2 the
# linear model's positivity constraint binds, so its regime is (0, 0.5).
check_alpha_half = _alpha_check(
    lambda a: 0.0 < a < 0.5, "(0, 0.5)", RegimeError,
    " (above 0.5 the positivity constraint binds and the closed form does not apply)")
check_alpha_open = _alpha_check(lambda a: 0.0 < a < 1.0, "(0, 1)")
check_alpha_open_closed = _alpha_check(lambda a: 0.0 < a <= 1.0, "(0, 1]")
check_alpha_closed = _alpha_check(lambda a: 0.0 <= a <= 1.0, "[0, 1]")


def conditional_sd(rho):
    """sqrt(1 - rho^2), the standard deviation of one standard normal given
    another at correlation rho, formed as sqrt((1 - rho)(1 + rho)) so that
    it keeps its relative accuracy as rho approaches 1."""
    return np.sqrt((1.0 - rho) * (1.0 + rho))


def pdf_array(z):
    """Standard normal density (1/sqrt(2*pi)) * exp(-z^2/2), unchecked."""
    return INV_SQRT_2PI * np.exp(-0.5 * z * z)


def pdf(z: float) -> float:
    """Standard normal density at a finite z."""
    _reject_nan(z, "z")
    if math.isinf(z):
        raise DomainError("pdf requires a finite argument")
    return float(pdf_array(z))


def cdf(t: float) -> float:
    """Standard normal CDF; +/-inf map to 1/0."""
    _reject_nan(t, "t")
    return float(ndtr(t))


def sf(t: float) -> float:
    """Upper tail probability Pr(Z >= t), accurate for large t."""
    _reject_nan(t, "t")
    return float(ndtr(-t))


def quantile(p: float) -> float:
    """Inverse standard normal CDF for p in the open unit interval."""
    _reject_nan(p, "p")
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    return float(ndtri(p))


def upper_quantile(alpha: float) -> float:
    """The (1 - alpha) quantile, computed without forming 1 - alpha.

    Equals ``quantile(1 - alpha)`` by symmetry but stays fully accurate
    for very small alpha.  alpha = 1 maps to -inf (treat-everyone limit).
    """
    check_alpha_open_closed(alpha)
    return -math.inf if alpha == 1.0 else -quantile(alpha)


def mills_conditional_mean(mu: float, sigma: float, a: float) -> float:
    """E[Z | Z > a] for Z ~ N(mu, sigma^2), via the inverse Mills ratio.

    ``a = -inf`` returns the unconditional mean.  Raises
    :class:`NumericsError` when the tail mass beyond ``a`` underflows.
    """
    for name, val in (("mu", mu), ("sigma", sigma), ("a", a)):
        _reject_nan(val, name)
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if a == -math.inf:
        return mu
    if not math.isfinite(mu) or a == math.inf:
        raise DomainError("mu must be finite and a < +inf")
    abar = (a - mu) / sigma
    tail = sf(abar)
    if tail <= 0.0:
        raise NumericsError(
            f"tail mass beyond a={a!r} underflows (standardized threshold {abar:.6g}); "
            "the conditional mean is not representable"
        )
    return mu + sigma * pdf(abar) / tail


def tail_bounds(t: float) -> BoundPair:
    """Classic sandwich (phi(t)/t)(1 - t^-2) <= Pr(Z >= t) <= phi(t)/t."""
    _reject_nan(t, "t")
    if not t > 0.0 or t == math.inf:
        raise DomainError(f"tail_bounds requires finite t > 0, got {t!r}")
    hazard = pdf(t) / t
    return BoundPair(hazard * (1.0 - 1.0 / (t * t)), hazard)


def phi_of_quantile(alpha: float) -> float:
    """g(alpha) = pdf(quantile(1 - alpha)), the density at the access cutoff."""
    check_alpha_open(alpha)
    # pdf is symmetric, so evaluate at quantile(alpha) directly.
    return pdf(quantile(alpha))


def phi_of_quantile_slack(alpha: float) -> float:
    """Multiplicative slack f(alpha) in the upper half of the g sandwich.

    f(alpha) = T^2/(T^2 - 1) - 1 with T = quantile(1 - alpha); the sandwich
    alpha*T <= g(alpha) <= alpha*T*(1 + f(alpha)) holds for alpha < 0.15.
    """
    _reject_nan(alpha, "alpha")
    if not 0.0 < alpha < 0.15:
        raise DomainError(f"slack is only defined for 0 < alpha < 0.15, got {alpha!r}")
    t = upper_quantile(alpha)
    t2 = t * t
    if t2 <= 1.0:
        raise DomainError(f"cutoff {t:.6g} too small for the sandwich (alpha={alpha!r})")
    return t2 / (t2 - 1.0) - 1.0


def k_phi_of_quantile_bounds(k: float, alpha: float, eps: float) -> BoundPair:
    """Sandwich for pdf(k * quantile(1 - alpha)) at slack eps.

    Requires alpha small enough that g(alpha) <= (1 + eps) * alpha * T
    actually holds; the check is performed numerically and a
    :class:`PreconditionError` names the failing alpha otherwise.
    """
    for name, val in (("k", k), ("alpha", alpha), ("eps", eps)):
        _reject_nan(val, name)
    if not k > 0.0:
        raise DomainError(f"k must be positive, got {k!r}")
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    check_alpha_open(alpha)
    t = upper_quantile(alpha)
    g = phi_of_quantile(alpha)
    if alpha >= 0.15 or t <= 1.0 or g > (1.0 + eps) * alpha * t:
        raise PreconditionError(
            f"the density/quantile sandwich with slack eps={eps!r} does not hold at "
            f"alpha={alpha!r}; a smaller alpha (or larger eps) is required"
        )
    k2 = k * k
    lower = INV_SQRT_2PI * (SQRT_2PI * alpha * t) ** k2
    upper = INV_SQRT_2PI * ((1.0 + eps) * SQRT_2PI * alpha * t) ** k2
    return BoundPair(lower, upper)
