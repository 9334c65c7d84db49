"""Closed forms for the linear (continuous-welfare) targeting model.

Welfare per unit is Gaussian, w = gamma_s*beta_norm*z_s + gamma_t*beta_norm*z_t + mu,
where only z_s is observable.  The optimal policy under an access budget
alpha treats the top alpha-quantile of the observable score, giving the
closed-form value

    V(alpha, gamma_s) = alpha*mu + gamma_s*beta_norm*g(alpha),

with g(alpha) the standard-normal density at the upper alpha cutoff.
Everything else here (ratios, bound pairs, thresholds) is algebra on top
of that expression.  It is exact up to alpha* = Phi(mu/(gamma_s*beta_norm)),
where the positivity constraint on conditional means binds, and alpha* >=
1/2; inputs with alpha >= 1/2 are refused by choice, not by the formula.

g is the expression's only transcendental, and it is taken on one float
path (:func:`gaussian.phi_of_quantile`, with the C library's log and exp)
for floats and arrays alike, through :func:`gaussian.at_distinct` (once
per distinct alpha) for arrays.  The value and the PAR are written once,
in + - * / on g (:func:`_value` and :func:`_par`), and the float
functions (:func:`value_linear`, :func:`par_linear_exact`) and the array
cores (:func:`value_linear_array`, :func:`par_linear_array`) all call
them, so a grid cell and a scalar call take the same IEEE steps and give
the same bits.  The float functions and :func:`par_linear_bounds` load no
NumPy.  The value, PAR, bounds and indifference threshold take mu and
beta_norm in one power-of-two unit (:func:`_in_welfare_unit`), so none of
them depends on their scale.  :class:`LinearParams` and
:class:`LeverDelta` (the lever steps) are defined in ``inputs`` (no
NumPy) and importable from here too, and so are the status codes
``PAR_OK``, ``PAR_REGIME`` and ``PAR_NOISE`` of both models' array cores.
"""

from __future__ import annotations

import math

from . import gaussian
from .errors import (
    DegenerateLeverError,
    DomainError,
    PreconditionError,
    RegimeError,
)
from .gaussian import BoundPair, check_alpha_half, check_alpha_closed
from .inputs import PAR_NOISE, PAR_OK, PAR_REGIME, LeverDelta, LinearParams

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
    "par_linear_array",
    "par_linear_exact",
    "par_linear_bounds",
    "quality_gain_linear",
    "linear_indifference_gamma",
]


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


def _value(mu, beta_norm, gamma_s, alpha, g):
    """V(alpha, gamma_s) in the unit of mu and beta_norm, from g = g(alpha),
    at floats or at every element of the broadcast arrays."""
    return alpha * mu + gamma_s * beta_norm * g


def _par(mu, beta_norm, gamma_s, alpha, d: LeverDelta, g, g_up):
    """The exact PAR [V(alpha + delta_alpha) - V(alpha)] / [V(gamma_s +
    delta_r2) - V(gamma_s)] from :func:`_value`, with g at alpha and g_up at
    alpha + delta_alpha.  V is linear in gamma_s, so its gain is exactly
    delta_r2 * beta_norm * g, formed without the alpha * mu of each value.
    A zero gain raises ZeroDivisionError at floats."""
    va = _value(mu, beta_norm, gamma_s, alpha + d.delta_alpha, g_up)
    return (va - _value(mu, beta_norm, gamma_s, alpha, g)) / (d.delta_r2 * beta_norm * g)


def value_linear_array(mu, beta_norm, gamma_s, alpha):
    """V(alpha, gamma_s) of the linear model at every element of the
    broadcast gamma_s and alpha (a NumPy scalar when both are scalars).

    mu, beta_norm and gamma_s are not validated; alpha outside (0, 1)
    raises :class:`DomainError`.  The result is the policy's value up to
    alpha* = Phi(mu/(gamma_s*beta_norm)) (see the module docstring); the
    float functions refuse alpha >= 1/2 by choice.
    """
    import numpy as np

    # [()] turns 0-d arrays into NumPy scalars, as in value_probit_array.
    gamma_s, alpha = (np.asarray(x, dtype=float)[()] for x in (gamma_s, alpha))
    mu, beta_norm, u = _in_welfare_unit(mu, beta_norm)
    return u * _value(mu, beta_norm, gamma_s, alpha,
                      gaussian.at_distinct(gaussian.phi_of_quantile, alpha))


def value_linear(p: LinearParams, alpha: float) -> float:
    """Expected welfare of the optimal policy at access level alpha:
    :func:`value_linear_array` at one cell, in floats."""
    check_alpha_half(alpha)
    mu, beta_norm, u = _in_welfare_unit(p.mu, p.beta_norm)
    return u * _value(mu, beta_norm, p.gamma_s, alpha, gaussian.phi_of_quantile(alpha))


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


def par_linear_array(mu, beta_norm, gamma_s, alpha, d: LeverDelta):
    """Exact prediction-access ratio at every cell of the broadcast
    (gamma_s, alpha) inputs, and a status code per cell: PAR_REGIME where
    alpha + delta_alpha reaches 0.5 or gamma_s + delta_r2 exceeds 1,
    PAR_NOISE where the prediction gain is too small to divide by (the
    ratio is not finite), PAR_OK elsewhere.  Only an ok cell's ratio is
    not NaN.  delta_r2 <= 0 raises :class:`DegenerateLeverError` and alpha
    outside (0, 1) :class:`DomainError`; valid mu and beta_norm are the
    caller's to check.
    """
    import numpy as np

    if d.delta_r2 <= 0.0:
        raise DegenerateLeverError("delta_r2 must be positive to form a ratio")
    gamma_s, alpha = (np.asarray(x, dtype=float)[()] for x in (gamma_s, alpha))
    mu, beta_norm, _ = _in_welfare_unit(mu, beta_norm)
    # The access step takes g by its own rule: one at or past 1/2 takes g(1/2), then is masked.
    g, g_up = (gaussian.at_distinct(gaussian.phi_of_quantile, a)
               for a in (alpha, np.minimum(alpha + d.delta_alpha, 0.5)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        par = _par(mu, beta_norm, gamma_s, alpha, d, g, g_up)
    status = np.where((alpha + d.delta_alpha >= 0.5) | (gamma_s + d.delta_r2 > 1.0),
                      PAR_REGIME, np.where(np.isfinite(par), PAR_OK, PAR_NOISE))
    return np.where(status == PAR_OK, par, np.nan), status


def par_linear_exact(p: LinearParams, alpha: float, d: LeverDelta) -> float:
    """Exact prediction-access ratio: :func:`par_linear_array` at one
    cell, in floats, with its statuses raised as errors."""
    check_alpha_half(alpha)
    if d.delta_r2 <= 0.0:
        raise DegenerateLeverError("delta_r2 must be positive to form a ratio")
    if not alpha + d.delta_alpha < 0.5:
        raise RegimeError(f"alpha + delta_alpha = {alpha + d.delta_alpha!r} must stay below 0.5")
    if p.gamma_s + d.delta_r2 > 1.0:
        raise DomainError(f"gamma_s + delta_r2 = {p.gamma_s + d.delta_r2!r} exceeds 1")
    mu, beta_norm, _ = _in_welfare_unit(p.mu, p.beta_norm)
    g, g_up = (gaussian.phi_of_quantile(a) for a in (alpha, alpha + d.delta_alpha))
    try:
        par = _par(mu, beta_norm, p.gamma_s, alpha, d, g, g_up)
    except ZeroDivisionError:
        par = math.nan
    if not math.isfinite(par):
        raise DegenerateLeverError("prediction gain V(gamma_s + delta_r2) - V(gamma_s) "
                                   "is not positive, or too small to divide by")
    return par


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
