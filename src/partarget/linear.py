"""Closed forms for the linear (continuous-welfare) targeting model.

Welfare per unit is Gaussian, w = gamma_s*beta_norm*z_s + gamma_t*beta_norm*z_t + mu,
where only z_s is observable.  The optimal policy under an access budget
alpha treats the top alpha-quantile of the observable score, giving the
closed-form value

    V(alpha, gamma_s) = alpha*mu + gamma_s*beta_norm*g(alpha),

with g(alpha) the standard-normal density at the upper alpha cutoff.
Everything else here (ratios, bound pairs, thresholds) is algebra on top
of that expression.  The supported access regime is alpha < 1/2; beyond
it the positivity constraint on conditional means activates and the
closed form above no longer applies, so those inputs are rejected.

:func:`value_linear_array` and :func:`par_linear_array` evaluate whole
arrays of cells, and :func:`value_linear` and :func:`par_linear_exact`
call them, so a grid cell and a scalar call give the same bits.
:class:`LinearParams` and :class:`LeverDelta` (the lever steps) are
defined in ``inputs`` (no NumPy) and importable from here too.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import gaussian
from .errors import (
    DegenerateLeverError,
    DomainError,
    PreconditionError,
    RegimeError,
)
from .gaussian import BoundPair, check_alpha_half, check_alpha_closed, pdf_array
from .inputs import LeverDelta, LinearParams

__all__ = [
    "LinearParams",
    "LeverDelta",
    "PAR_OK",
    "PAR_REGIME",
    "PAR_NOISE",
    "policy_threshold_linear",
    "value_linear_array",
    "value_linear",
    "random_value",
    "random_to_optimal_ratio",
    "par_from_values",
    "par_linear_array",
    "par_linear_exact",
    "par_linear_bounds",
    "quality_gain_linear",
    "linear_indifference_gamma",
]


# Per-cell status codes of par_linear_array and par_probit_array.
PAR_OK = 0
PAR_REGIME = 1  # a lever step leaves the model's supported regime
PAR_NOISE = 2   # the prediction gain is too small to divide by


def policy_threshold_linear(p: LinearParams, alpha: float) -> float:
    """Score cutoff of the optimal policy: treat units with observable
    score component above quantile(1 - alpha) * gamma_s * beta_norm."""
    check_alpha_half(alpha)
    return gaussian.upper_quantile(alpha) * p.gamma_s * p.beta_norm


def _in_welfare_unit(mu: float, beta_norm: float) -> tuple[float, float, float]:
    """(mu / u, beta_norm / u, u), with u the power of two at or below max(mu, beta_norm):
    scaling by u is exact, and in u the scale of (mu, beta_norm) over- or underflows nothing."""
    u = math.ldexp(0.5, math.frexp(max(mu, beta_norm))[1])
    return mu / u, beta_norm / u, u


def value_linear_array(mu, beta_norm, gamma_s, alpha) -> np.ndarray | np.float64:
    """V(alpha, gamma_s) of the linear model at every element of the
    broadcast inputs (a NumPy scalar when all four are scalars).

    Inputs are not validated: alpha must lie in (0, 1), and the result is
    the policy's value only for alpha < 1/2.
    """
    # [()] turns 0-d arrays into NumPy scalars, as in value_probit_array.
    gamma_s, alpha = (np.asarray(x, dtype=float)[()] for x in (gamma_s, alpha))
    return alpha * mu + gamma_s * beta_norm * pdf_array(gaussian.ndtri(alpha))


def value_linear(p: LinearParams, alpha: float) -> float:
    """Expected welfare of the optimal policy at access level alpha."""
    check_alpha_half(alpha)
    return float(value_linear_array(p.mu, p.beta_norm, p.gamma_s, alpha))


def random_value(p: LinearParams, alpha: float) -> float:
    """Expected welfare of random assignment at the same budget: alpha * mu."""
    check_alpha_closed(alpha)
    return alpha * p.mu


def random_to_optimal_ratio(p: LinearParams, alpha: float) -> float:
    """Random-assignment value over the full-information optimal value.

    The denominator uses gamma_s = 1 (the best any predictor could do),
    so the ratio isolates how much prediction matters at this budget.
    """
    check_alpha_half(alpha)
    g = gaussian.phi_of_quantile(alpha)
    return 1.0 / (1.0 + (p.beta_norm / p.mu) * g / alpha)


def par_from_values(value, gamma_s, alpha, d: LeverDelta, regime, gain_floor: float,
                    prediction_gain=None):
    """The finite-difference ratio [V(alpha + delta_alpha) - V(alpha)] /
    [V(gamma_s + delta_r2) - V(gamma_s)] of a model's array value function
    ``value(gamma_s, alpha)``, and a status code per cell: PAR_REGIME where
    ``regime`` is set, PAR_NOISE where the gain is not above gain_floor or the
    ratio is not finite.  Both carry a NaN ratio, so an ok ratio is finite.

    ``prediction_gain``, when given, is that denominator in closed form;
    otherwise it is the difference of the two values."""
    # Steps out of the regime are evaluated at the cell itself, then masked.
    v0 = value(gamma_s, alpha)
    va = value(gamma_s, np.where(regime, alpha, alpha + d.delta_alpha))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain = (value(np.where(regime, gamma_s, gamma_s + d.delta_r2), alpha) - v0
                if prediction_gain is None else prediction_gain)
        par = (va - v0) / gain
    ok = (gain > gain_floor) & np.isfinite(par)
    status = np.where(regime, PAR_REGIME, np.where(ok, PAR_OK, PAR_NOISE))
    return np.where(status == PAR_OK, par, np.nan), status


def par_linear_array(
    mu,
    beta_norm,
    gamma_s,
    alpha,
    d: LeverDelta,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact prediction-access ratio at every cell of the broadcast
    (gamma_s, alpha) inputs, and a status code per cell (see
    :func:`par_from_values`): PAR_REGIME where alpha + delta_alpha reaches
    0.5 or gamma_s + delta_r2 exceeds 1, PAR_NOISE where the prediction gain
    is too small to divide by.  delta_r2 <= 0 raises :class:`DegenerateLeverError`;
    alpha > 0 and valid mu and beta_norm are the caller's to check.
    """
    if d.delta_r2 <= 0.0:
        raise DegenerateLeverError("delta_r2 must be positive to form a ratio")
    gamma_s, alpha = (np.asarray(x, dtype=float)[()] for x in (gamma_s, alpha))
    regime = (alpha + d.delta_alpha >= 0.5) | (gamma_s + d.delta_r2 > 1.0)
    mu, beta_norm, _ = _in_welfare_unit(mu, beta_norm)
    # V is linear in gamma_s, so V(gamma_s + delta_r2) - V(gamma_s) is exactly
    # delta_r2 * beta_norm * g(alpha), formed without the alpha * mu of each value.
    gain = d.delta_r2 * beta_norm * pdf_array(gaussian.ndtri(alpha))
    return par_from_values(partial(value_linear_array, mu, beta_norm),
                           gamma_s, alpha, d, regime, 0.0, gain)


def par_linear_exact(p: LinearParams, alpha: float, d: LeverDelta) -> float:
    """Exact prediction-access ratio: :func:`par_linear_array` at one
    cell, with its statuses raised as errors."""
    check_alpha_half(alpha)
    par, status = par_linear_array(p.mu, p.beta_norm, p.gamma_s, alpha, d)
    if status == PAR_REGIME:
        if not alpha + d.delta_alpha < 0.5:
            raise RegimeError(
                f"alpha + delta_alpha = {alpha + d.delta_alpha!r} must stay below 0.5"
            )
        raise DomainError(
            f"gamma_s + delta_r2 = {p.gamma_s + d.delta_r2!r} exceeds 1"
        )
    if status == PAR_NOISE:
        raise DegenerateLeverError("prediction gain V(gamma_s + delta_r2) - V(gamma_s) "
                                   "is not positive, or too small to divide by")
    return float(par)


def par_linear_bounds(p: LinearParams, alpha: float, d: LeverDelta) -> BoundPair:
    """Factor-of-four sandwich around the exact prediction-access ratio.

    upper = (1/alpha) * (mu/(beta_norm*T) + gamma_s) * (delta_alpha/delta_r2)
    with T the upper alpha cutoff; lower = upper/4.  Valid only under the
    hypotheses checked below; each violation is named in the error.
    """
    check_alpha_half(alpha)
    if not 0.0 < p.gamma_s < 1.0:
        raise PreconditionError(f"requires gamma_s in (0, 1), got {p.gamma_s!r}")
    if not 0.0 < d.delta_r2 < 1.0:
        raise PreconditionError(f"requires delta_r2 in (0, 1), got {d.delta_r2!r}")
    if not alpha + d.delta_alpha < 0.05:
        raise PreconditionError(
            f"requires alpha + delta_alpha < 0.05, got {alpha + d.delta_alpha!r}"
        )
    if not 0.0 <= d.delta_alpha <= 4.0 * alpha:
        raise PreconditionError(
            f"requires delta_alpha in [0, 4*alpha]; got delta_alpha={d.delta_alpha!r} "
            f"with alpha={alpha!r}"
        )
    mu, beta_norm, _ = _in_welfare_unit(p.mu, p.beta_norm)
    t = gaussian.upper_quantile(alpha)
    upper = (mu / (beta_norm * t) + p.gamma_s) * (d.delta_alpha / d.delta_r2) / alpha
    return BoundPair(0.25 * upper, upper)


def quality_gain_linear(p: LinearParams, alpha: float, delta_mu: float) -> float:
    """Welfare gain from raising the mean improvement by delta_mu: alpha * delta_mu."""
    check_alpha_half(alpha)
    if math.isnan(delta_mu) or not delta_mu > 0.0:
        raise DomainError(f"delta_mu must be positive, got {delta_mu!r}")
    return delta_mu * alpha


def linear_indifference_gamma(
    alpha: float,
    cost_ratio_access_over_prediction: float,
    d: LeverDelta,
    p: LinearParams,
) -> float:
    """First-order gamma_s threshold above which expanding access beats
    improving prediction at the given cost ratio.

    Returns max(0, (delta_r2/delta_alpha) * cost_ratio * alpha
                   - mu / (beta_norm * T)).
    This is a straight-line approximation to the exact indifference
    contour (which sweep_grid extracts numerically), not a guaranteed
    conservative bound.
    """
    if math.isnan(alpha) or not 0.0 < alpha < 0.05:
        raise DomainError(f"alpha must lie in (0, 0.05), got {alpha!r}")
    cr = cost_ratio_access_over_prediction
    if math.isnan(cr) or not cr > 0.0:
        raise DomainError(f"cost ratio must be positive, got {cr!r}")
    if d.delta_alpha <= 0.0 or d.delta_r2 <= 0.0:
        raise DomainError("both lever increments must be positive")
    mu, beta_norm, _ = _in_welfare_unit(p.mu, p.beta_norm)
    t = gaussian.upper_quantile(alpha)
    raw = (d.delta_r2 / d.delta_alpha) * cr * alpha - mu / (beta_norm * t)
    return max(0.0, raw)
