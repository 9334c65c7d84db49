"""Value function and marginal analysis for the probit (binary-welfare) model.

A unit benefits (w = 1) when a latent Gaussian score crosses zero:
w = 1{gamma_s*z_s + gamma_t*z_t + m > 0}, where z_s is the observable
component, gamma_t = sqrt(1 - gamma_s^2), and the offset m is pinned by
the base rate b = Pr[w = 1] via m = quantile(b).  The optimal policy
treats the top alpha-quantile of z_s, giving

    V(alpha, gamma_s) = Pr(z_s >= T, gamma_s*z_s + gamma_t*z_t > -m)
                      = Phi_2(h, k; rho),

the bivariate-normal orthant probability with h = quantile(alpha),
k = m = quantile(b) and correlation rho = gamma_s.  It is evaluated in
closed form with Owen's T function (Owen 1956, "Tables for computing
bivariate normal probabilities", Ann. Math. Statist. 27), elementwise
over arrays: :func:`value_probit_array` is the one numerical core, and
the scalar functions call it.  The derivative formulas below are exact
and serve as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from . import gaussian
from .errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PreconditionError,
)
from .gaussian import SQRT_2PI, BoundPair
from .linear import LeverDelta

__all__ = [
    "ProbitParams",
    "CutoffResult",
    "MIN_DELTA",
    "GAIN_FLOOR",
    "PAR_OK",
    "PAR_REGIME",
    "PAR_NOISE",
    "policy_threshold_probit",
    "value_probit_array",
    "value_probit",
    "dvalue_dalpha_probit",
    "dvalue_dgamma_probit",
    "par_probit_array",
    "par_probit_exact",
    "par_probit_bounds",
    "probit_cutoff_check",
]

# Smallest nonzero lever increment accepted by the exact ratio.
MIN_DELTA = 1e-5
# A prediction gain at or below this (absolute) is not trusted as the
# denominator of a ratio of two value differences.
GAIN_FLOOR = 1e-9

# Per-cell status codes of par_probit_array.
PAR_OK = 0
PAR_REGIME = 1  # alpha + delta_alpha or gamma_s + delta_r2 exceeds 1
PAR_NOISE = 2   # the prediction gain is at most GAIN_FLOOR


@dataclass(frozen=True)
class ProbitParams:
    """Population parameters of the probit welfare model.

    base_rate is Pr[w = 1]; gamma_s is the observable share of the latent
    score's standard deviation (square root of the latent r squared).
    """

    base_rate: float
    gamma_s: float

    def __post_init__(self) -> None:
        for name in ("base_rate", "gamma_s"):
            if math.isnan(getattr(self, name)):
                raise DomainError(f"{name} is NaN")
        if not 0.0 < self.base_rate < 1.0:
            raise DomainError(
                f"base_rate must lie in (0, 1), got {self.base_rate!r}"
            )
        if not 0.0 <= self.gamma_s <= 1.0:
            raise DomainError(f"gamma_s must lie in [0, 1], got {self.gamma_s!r}")

    @property
    def mu_over_beta(self) -> float:
        """Latent mean offset implied by the base rate: quantile(base_rate)."""
        return gaussian.quantile(self.base_rate)

    @property
    def gamma_t(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.gamma_s * self.gamma_s))

    def with_gamma_s(self, gamma_s: float) -> "ProbitParams":
        return ProbitParams(self.base_rate, gamma_s)


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of the access-is-cheaper cutoff test."""

    passes: bool
    margin: float
    degenerate: bool


def _check_alpha_open(alpha: float) -> None:
    if math.isnan(alpha):
        raise DomainError("alpha is NaN")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")


def policy_threshold_probit(p: ProbitParams, alpha: float) -> float:
    """Standardized observable-score cutoff of the optimal policy."""
    _check_alpha_open(alpha)
    return gaussian.upper_quantile(alpha)


def value_probit_array(base_rate, gamma_s, alpha) -> np.ndarray | np.float64:
    """V(alpha, gamma_s) of the probit model at every element of the
    broadcast inputs (a NumPy scalar when all three are scalars).

    Inputs are not validated: base_rate must lie in (0, 1), gamma_s in
    [0, 1] and alpha in (0, 1].  gamma_s = 0, gamma_s = 1 and alpha = 1
    take the analytic branches alpha * base_rate, min(alpha, base_rate)
    and base_rate.

    The relative error is about 1e-11 or less unless alpha and base_rate
    are both below about 1e-4: V is then a difference of terms of order
    min(alpha, base_rate) and loses digits (1.7e-9 at alpha = b = 1e-6).
    """
    # [()] turns 0-d arrays into NumPy scalars, whose arithmetic is several
    # times cheaper; that is most of the cost of a scalar call.
    b, rho, alpha = (np.asarray(x, dtype=float)[()] for x in (base_rate, gamma_s, alpha))
    # Phi_2 is symmetric in its limits; the form below wants h <= k.
    h, k = ndtri(alpha), ndtri(b)
    h, k = np.minimum(h, k), np.maximum(h, k)
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Owen's form is Phi_2 = [Phi(h)/2 - T(h, a_h)] + [Phi(k)/2 - T(k, a_k)]
        # - [hk < 0]/2 with a_h = (k - rho h)/(h s) and a_k = (h - rho k)/(k s).
        # As h -> -inf the k bracket and the indicator are O(1) and cancel
        # down to a value of order Phi(h), so the k bracket is rewritten with
        # T(k, a) + T(ak, 1/a) = Phi(k)/2 + Phi(ak)/2 - Phi(k) Phi(ak) - [a < 0]/2
        # into terms that vanish with Phi(h), and the indicators, which are
        # exact halves, are summed apart from them.
        h_part = 0.5 * ndtr(h) - owens_t(h, (k - rho * h) / (h * s))
        x = (h - rho * k) / s  # a_k * k
        v = (h_part + (ndtr(x) * (ndtr(k) - 0.5) + owens_t(x, k / x))
             + 0.5 * (1.0 * (x * k < 0.0) - (h * k < 0.0)))
        # Limits and analytic branches, patched only where they occur.
        edge = (h == 0.0) | (x == 0.0) | (rho == 0.0) | (rho == 1.0) | (alpha == 1.0)
        if edge.any():
            # x = 0 means h = rho k, so hk >= 0 and the k bracket tends to Phi(k)/2.
            v = np.where(x == 0.0, h_part + 0.5 * ndtr(k), v)
            # h = 0 (min(alpha, b) = 1/2) makes a_h infinite.
            v = np.where(h == 0.0, 0.5 * ndtr(k) + owens_t(k, rho / s), v)
            v = np.where(alpha == 1.0, b, v)
            v = np.where(rho == 1.0, np.minimum(alpha, b), v)
            v = np.where(rho == 0.0, alpha * b, v)
    return v


def value_probit(p: ProbitParams, alpha: float) -> float:
    """Expected welfare of the optimal policy at access level alpha.

    Degenerate predictors get analytic branches: gamma_s = 0 gives
    alpha * base_rate, gamma_s = 1 gives min(alpha, base_rate), and
    alpha = 1 gives base_rate exactly.
    """
    if math.isnan(alpha):
        raise DomainError("alpha is NaN")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    return float(value_probit_array(p.base_rate, p.gamma_s, alpha))


def dvalue_dalpha_probit(p: ProbitParams, alpha: float) -> float:
    """Marginal value of the access budget: the benefit probability of
    the marginal treated unit, Phi((gamma_s*T + m)/gamma_t)."""
    _check_alpha_open(alpha)
    if p.gamma_s == 1.0:
        raise DomainError(
            "gamma_s = 1 leaves no residual variance; the derivative formula "
            "is degenerate"
        )
    t = gaussian.upper_quantile(alpha)
    return gaussian.cdf((p.gamma_s * t + p.mu_over_beta) / p.gamma_t)


def dvalue_dgamma_probit(p: ProbitParams, alpha: float) -> float:
    """Marginal value of the prediction level gamma_s."""
    _check_alpha_open(alpha)
    if not 0.0 < p.gamma_s < 1.0:
        raise DomainError(
            f"derivative requires gamma_s strictly inside (0, 1), got {p.gamma_s!r}"
        )
    t = gaussian.upper_quantile(alpha)
    m = p.mu_over_beta
    gt = p.gamma_t
    return gaussian.pdf(m) * gaussian.pdf((t + m * p.gamma_s) / gt) / gt


def par_probit_array(
    base_rate,
    gamma_s,
    alpha,
    d: LeverDelta,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact prediction-access ratio at every cell of the broadcast
    (gamma_s, alpha) inputs, and a status code per cell.

    The ratio is [V(alpha + delta_alpha) - V(alpha)] / [V(gamma_s + delta_r2)
    - V(gamma_s)].  Cells where a lever step leaves [0, 1] get PAR_REGIME,
    cells whose prediction gain is at most GAIN_FLOOR get PAR_NOISE, and
    both carry a NaN ratio.  Deltas below MIN_DELTA raise
    :class:`DegenerateLeverError`; alpha in (0, 1) and a valid base_rate
    are the caller's to check.
    """
    if d.delta_r2 < MIN_DELTA:
        raise DegenerateLeverError(
            f"delta_r2 must be >= {MIN_DELTA} for the prediction gain to clear "
            f"rounding in the values, got {d.delta_r2!r}"
        )
    if 0.0 < d.delta_alpha < MIN_DELTA:
        raise DegenerateLeverError(
            f"delta_alpha must be 0 or >= {MIN_DELTA}, got {d.delta_alpha!r}"
        )
    gamma_s, alpha = (np.asarray(x, dtype=float)[()] for x in (gamma_s, alpha))
    alpha_up = alpha + d.delta_alpha
    gamma_up = gamma_s + d.delta_r2
    regime = (alpha_up > 1.0) | (gamma_up > 1.0)
    # Steps out of the domain are evaluated at the cell itself, then masked.
    v0 = value_probit_array(base_rate, gamma_s, alpha)
    va = value_probit_array(base_rate, gamma_s, np.where(regime, alpha, alpha_up))
    vg = value_probit_array(base_rate, np.where(regime, gamma_s, gamma_up), alpha)
    gain = vg - v0
    status = np.where(regime, PAR_REGIME,
                      np.where(gain <= GAIN_FLOOR, PAR_NOISE, PAR_OK))
    with np.errstate(divide="ignore", invalid="ignore"):
        par = np.where(status == PAR_OK, (va - v0) / gain, np.nan)
    return par, status


def par_probit_exact(p: ProbitParams, alpha: float, d: LeverDelta) -> float:
    """Exact prediction-access ratio from finite differences of the value
    function: :func:`par_probit_array` at one cell, with its statuses
    raised as errors.

    Deltas below MIN_DELTA are rejected, and so is a prediction gain at or
    below GAIN_FLOOR, where rounding in the two values it differences
    could dominate the ratio.
    """
    _check_alpha_open(alpha)
    par, status = par_probit_array(p.base_rate, p.gamma_s, alpha, d)
    if status == PAR_REGIME:
        raise DomainError(
            f"alpha + delta_alpha = {alpha + d.delta_alpha!r} and gamma_s + "
            f"delta_r2 = {p.gamma_s + d.delta_r2!r} must both stay <= 1"
        )
    if status == PAR_NOISE:
        raise NumericsError(
            f"prediction gain V(gamma_s + delta_r2) - V(gamma_s) is at most "
            f"{GAIN_FLOOR:g}, too small to form a trustworthy ratio"
        )
    return float(par)


def par_probit_bounds(
    p: ProbitParams,
    alpha: float,
    d: LeverDelta,
    eps: float = 0.05,
    max_alpha: float = 0.01,
    max_delta_r2: float = 0.01,
) -> BoundPair:
    """Asymptotic sandwich around the exact prediction-access ratio.

    The underlying result is asymptotic in alpha: it only applies below
    an unspecified smallness threshold.  max_alpha and max_delta_r2 stand
    in for that threshold and are deliberately configurable; violations
    of any checked hypothesis raise :class:`PreconditionError` naming it.
    """
    _check_alpha_open(alpha)
    if math.isnan(eps) or not 0.0 < eps < 0.1:
        raise DomainError(f"eps must lie in (0, 0.1), got {eps!r}")
    if not 0.0 < p.gamma_s < 1.0:
        raise PreconditionError(f"requires gamma_s in (0, 1), got {p.gamma_s!r}")
    if p.base_rate > 0.1:
        raise PreconditionError(
            f"requires base_rate <= 0.1, got {p.base_rate!r}"
        )
    if d.delta_alpha > alpha:
        raise PreconditionError(
            f"requires delta_alpha <= alpha; got delta_alpha={d.delta_alpha!r} "
            f"with alpha={alpha!r}"
        )
    if alpha > max_alpha:
        raise PreconditionError(
            f"requires alpha <= {max_alpha!r} (smallness threshold), got {alpha!r}"
        )
    if d.delta_r2 > max_delta_r2:
        raise PreconditionError(
            f"requires delta_r2 <= {max_delta_r2!r} (smallness threshold), "
            f"got {d.delta_r2!r}"
        )
    if d.delta_r2 <= 0.0:
        raise DegenerateLeverError("delta_r2 must be positive")
    gt = p.gamma_t
    t_alpha = gaussian.upper_quantile(alpha)
    t_b = gaussian.upper_quantile(p.base_rate)
    prefactor = (d.delta_alpha * gt / d.delta_r2) / (p.base_rate * t_b)
    core = 1.0 / (SQRT_2PI * alpha * t_alpha)
    eps_up = eps / (1.0 - eps)
    lower = 0.3 * prefactor * (core / 1.01) ** ((1.0 - eps) ** 2 / (gt * gt))
    upper = 3.0 * prefactor * core ** ((1.0 + eps_up) ** 2 / (gt * gt))
    return BoundPair(lower, upper)


def probit_cutoff_check(
    p: ProbitParams,
    alpha: float,
    cost_ratio_access_over_prediction: float,
) -> CutoffResult:
    """Test whether gamma_t >= cost_ratio * alpha^(1/gamma_t^2) * base_rate,
    the first-order condition for access being the cheaper lever.

    gamma_s = 1 collapses gamma_t to zero and the exponent to infinity;
    the right-hand side then vanishes for alpha < 1 and the result is
    flagged degenerate.
    """
    _check_alpha_open(alpha)
    cr = cost_ratio_access_over_prediction
    if math.isnan(cr) or not cr > 0.0:
        raise DomainError(f"cost ratio must be positive, got {cr!r}")
    gt = p.gamma_t
    if gt == 0.0:
        # alpha^inf -> 0 for alpha < 1: the condition holds vacuously.
        return CutoffResult(passes=True, margin=0.0, degenerate=True)
    rhs = cr * alpha ** (1.0 / (gt * gt)) * p.base_rate
    return CutoffResult(passes=gt >= rhs, margin=gt - rhs, degenerate=False)
