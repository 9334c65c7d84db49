"""Value function and marginal analysis for the probit (binary-welfare) model.

A unit benefits (w = 1) when a latent Gaussian score crosses zero:
w = 1{gamma_s*z_s + gamma_t*z_t + m > 0}, where z_s is the observable
component, gamma_t = sqrt(1 - gamma_s^2), and the offset m is pinned by
the base rate b = Pr[w = 1] via m = quantile(b).  The optimal policy
treats the top alpha-quantile of z_s, giving

    V(alpha, gamma_s) = Pr(z_s >= T, gamma_s*z_s + gamma_t*z_t > -m)
                      = Phi_2(h, k; rho),

the bivariate-normal orthant probability with h = quantile(alpha),
k = m = quantile(b) and correlation rho = gamma_s.  It is Plackett's
integral (Plackett 1954, "A reduction formula for normal multivariate
integrals", Biometrika 41), with Phi(h) Phi(k) = alpha b:

    Phi_2(h, k; rho) = alpha b + (1/2 pi) int_0^asin(rho) exp(-(h^2 + u^2)/2) dtheta

with u = (k - h sin theta)/cos theta, taken by a 48-point Gauss-Legendre
rule in t = log((u + R)/(|h| + |k|)), R = sqrt(h^2 - k^2 + u^2), where
dtheta = sech(t) dt, over the range where the Gaussian in u is above
exp(-40.5) of its peak.  (In u itself the measure has a kink of width
sqrt(h^2 - k^2) at u = 0 that a fixed rule misses when rho is near 1.)
The core evaluates no Phi, and needs no branch at rho = 0: the range is
empty there, and the value is alpha b exactly.
The one numerical core, :func:`_value`, takes floats or arrays, and h and k
from its callers, which take them on the float path of the quantile (the C
library's log): :func:`value_probit` directly (k is the Monte Carlo kernel's
``mu_over_beta``), the array functions once per distinct value
(:func:`gaussian.at_distinct`), a PAR once for its three values.  So a
scalar call equals its grid cell bit for bit.  The derivative formulas below
are exact, independent cross-checks.  :class:`ProbitParams`,
:class:`LeverDelta` and the status codes ``PAR_OK``, ``PAR_REGIME`` and
``PAR_NOISE`` are defined in ``inputs`` (no NumPy) and importable from here.
"""

from __future__ import annotations

import math

import numpy as np

from . import gaussian
from .errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PreconditionError,
)
from .gaussian import SQRT_2PI, BoundPair, check_alpha_open, check_alpha_open_closed
from .inputs import (PAR_NOISE, PAR_OK, PAR_REGIME, LeverDelta, ProbitParams, _Record,
                     check_bounds_eps)

__all__ = [
    "ProbitParams",
    "CutoffResult",
    "MIN_DELTA",
    "GAIN_FLOOR",
    "BOUNDS_MAX_ALPHA",
    "BOUNDS_MAX_DELTA_R2",
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
# The PAR bounds are asymptotic in alpha and hold only below a smallness
# threshold the result leaves unspecified; these stand in for it.
BOUNDS_MAX_ALPHA = 0.01
BOUNDS_MAX_DELTA_R2 = 0.01


class CutoffResult(_Record):
    """Outcome of the access-is-cheaper cutoff test."""

    passes: bool
    margin: float
    degenerate: bool


def policy_threshold_probit(p: ProbitParams, alpha: float) -> float:
    """Standardized observable-score cutoff of the optimal policy."""
    check_alpha_open(alpha)
    return gaussian.upper_quantile(alpha)


# The 48-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, rounded from 40-digit values; the negative half mirrors them.
_GL_NODES = (
    0.9987710072524261, 0.9935301722663508, 0.9841245837228269, 0.9705915925462473,
    0.9529877031604309, 0.9313866907065543, 0.9058791367155696, 0.8765720202742479,
    0.8435882616243935, 0.8070662040294426, 0.7671590325157404, 0.7240341309238146,
    0.6778723796326639, 0.6288673967765136, 0.5772247260839727, 0.523160974722233,
    0.4669029047509584, 0.4086864819907167, 0.34875588629216075, 0.28736248735545555,
    0.22476379039468905, 0.1612223560688917, 0.0970046992094627, 0.03238017096286936)
_GL_WEIGHTS = (
    0.0031533460523058385, 0.0073275539012762625, 0.01147723457923454, 0.015579315722943849,
    0.01961616045735553, 0.02357076083932438, 0.027426509708356948, 0.03116722783279809,
    0.03477722256477044, 0.03824135106583071, 0.04154508294346475, 0.04467456085669428,
    0.04761665849249048, 0.05035903555385447, 0.05289018948519367, 0.055199503699984165,
    0.057277292100403214, 0.059114839698395635, 0.06070443916589388, 0.062039423159892665,
    0.06311419228625402, 0.06392423858464819, 0.06446616443595009, 0.06473769681268392)
_X = np.array(_GL_NODES + tuple(-x for x in _GL_NODES))
_W = np.array(_GL_WEIGHTS * 2) / (2.0 * math.pi)
# Nodes where exp(-u^2/2) is below exp(-U_CUT^2/2) of its peak in the range are
# left out, and cells are integrated BLOCK at a time.
U_CUT, BLOCK = 9.0, 4096


def _node_sum(lo, half, a, d2, top):
    """The integral in :func:`_value` over t in [lo, lo + 2 half],
    over 2 pi, by the 48-point rule.  Each cell's nodes are summed in node
    order, so its value depends neither on the shape nor on the block."""
    if half.size > BLOCK:
        cells = np.broadcast_arrays(lo, half, a, d2, top)
        flat = [x.ravel() for x in cells]
        sums = [_node_sum(*(x[i:i + BLOCK] for x in flat))
                for i in range(0, flat[0].size, BLOCK)]
        return np.concatenate(sums).reshape(cells[0].shape)
    t = np.multiply.outer(_X, half)  # the nodes on the first axis
    t += lo + half
    w = a * np.exp(t)
    u2 = w - d2 / w  # 2u
    f = np.exp(u2 * u2 * -0.125 + top)
    f /= np.cosh(t)
    f.T[...] *= _W  # the nodes on the last axis of f.T
    s = f[0]
    for row in f[1:]:  # in place and in node order
        s += row
    return half * s


def _value(b, rho, alpha, h, k):
    """V at h = quantile(alpha) and k = quantile(b), which the caller takes."""
    big, small = np.maximum(abs(h), abs(k)), np.minimum(abs(h), abs(k))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The integral is unchanged by swapping h and k or negating both, so
        # take |h| = big and k = small >= 0: u then runs monotonically from
        # small to u1, and t from 0 to t1 = -atanh(sign(hk) rho).
        sr = np.copysign(rho, h * k)
        u1 = (small - sr * big) / gaussian.conditional_sd(rho)
        # The cut on u about the point of the range nearest 0, as a range of t
        # (t(-u) = log(d2 / a^2) - t(u)).
        # (x + |x|)/2 and (x - |x|)/2 are max(x, 0) and min(x, 0), cheaper
        # than np.maximum on a NumPy scalar.
        cut = np.sqrt(np.minimum(small, 0.5 * (u1 + abs(u1))) ** 2 + U_CUT * U_CUT)
        a, d2 = big + small, (big - small) * (big + small)
        t1, t_cut = -np.arctanh(sr), np.log((cut + np.sqrt(d2 + cut * cut)) / a)
        lo = np.maximum(0.5 * (t1 - abs(t1)), np.log(d2 / (a * a)) - t_cut)
        half = 0.5 * (np.minimum(0.5 * (t1 + abs(t1)), t_cut) - lo)
        v = alpha * b + _node_sum(lo, half, a, d2, -0.5 * big * big)
        # Limits and analytic branches, patched only where they occur.
        edge = (big == 0.0) | (rho == 1.0) | (alpha == 1.0)
        if edge.any():
            v = np.where(big == 0.0, 0.25 + np.arcsin(rho) / (2.0 * math.pi), v)
            v = np.where(alpha == 1.0, b, v)
            v = np.where(rho == 1.0, np.minimum(alpha, b), v)
    return v


def value_probit_array(base_rate, gamma_s, alpha) -> np.ndarray | np.float64:
    """V(alpha, gamma_s) of the probit model at every element of the
    broadcast inputs (a NumPy scalar when all three are scalars), by :func:`_value`.

    Inputs are not validated: base_rate must lie in (0, 1), gamma_s in
    [0, 1] and alpha in (0, 1].  gamma_s = 1 and alpha = 1 take the
    analytic branches min(alpha, base_rate) and base_rate; at gamma_s = 0
    the integral's range is empty, so the value is alpha * base_rate.

    Against 40-digit values the relative error is below 3e-14 for alpha
    from 1e-30 to 0.9, base_rate from 1e-6 to 0.9 and gamma_s up to
    0.9999, alpha close to base_rate included, and below 3e-13 for alpha
    down to 1e-300, where the rounding of the quantile dominates it.
    """
    # [()] turns 0-d arrays into NumPy scalars, whose arithmetic is cheaper.
    b, rho, alpha = (np.asarray(x, dtype=float)[()] for x in (base_rate, gamma_s, alpha))
    h, k = (gaussian.at_distinct(gaussian._ndtri_float, x) for x in (alpha, b))
    return _value(b, rho, alpha, h, k)


def value_probit(p: ProbitParams, alpha: float) -> float:
    """Expected welfare of the optimal policy at access level alpha: :func:`_value` at one cell.

    gamma_s = 0 gives alpha * base_rate, gamma_s = 1 gives
    min(alpha, base_rate), and alpha = 1 gives base_rate, all exactly.
    """
    check_alpha_open_closed(alpha)
    return float(_value(p.base_rate, p.gamma_s, alpha, gaussian._ndtri_float(alpha),
                        p.mu_over_beta))


def dvalue_dalpha_probit(p: ProbitParams, alpha: float) -> float:
    """Marginal value of the access budget: the benefit probability of
    the marginal treated unit, Phi((gamma_s*T + m)/gamma_t)."""
    check_alpha_open(alpha)
    if p.gamma_s == 1.0:
        raise DomainError("gamma_s = 1 leaves no residual variance; the derivative "
                          "formula is degenerate")
    t = gaussian.upper_quantile(alpha)
    return gaussian.cdf((p.gamma_s * t + p.mu_over_beta) / p.gamma_t)


def dvalue_dgamma_probit(p: ProbitParams, alpha: float) -> float:
    """Marginal value of the prediction level gamma_s."""
    check_alpha_open(alpha)
    if not 0.0 < p.gamma_s < 1.0:
        raise DomainError(
            f"derivative requires gamma_s strictly inside (0, 1), got {p.gamma_s!r}"
        )
    t, m, gt = gaussian.upper_quantile(alpha), p.mu_over_beta, p.gamma_t
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
    and cells whose prediction gain is at most GAIN_FLOOR, or whose ratio is
    not finite, get PAR_NOISE; only a PAR_OK cell's ratio is not NaN.
    Deltas below MIN_DELTA raise :class:`DegenerateLeverError`; alpha in
    (0, 1) and a valid base_rate are the caller's to check.
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
    b, gamma_s, alpha = (np.asarray(x, dtype=float)[()] for x in (base_rate, gamma_s, alpha))
    # Each lever's step is taken by its own rule: one past 1 is evaluated at 1, then masked.
    alpha_up = np.minimum(alpha + d.delta_alpha, 1.0)
    h, k = (gaussian.at_distinct(gaussian._ndtri_float, x) for x in (alpha, b))
    v0 = _value(b, gamma_s, alpha, h, k)
    va = _value(b, gamma_s, alpha_up, gaussian.at_distinct(gaussian._ndtri_float, alpha_up), k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain = _value(b, np.minimum(gamma_s + d.delta_r2, 1.0), alpha, h, k) - v0
        par = (va - v0) / gain
    ok = (gain > GAIN_FLOOR) & np.isfinite(par)
    status = np.where((alpha + d.delta_alpha > 1.0) | (gamma_s + d.delta_r2 > 1.0),
                      PAR_REGIME, np.where(ok, PAR_OK, PAR_NOISE))
    return np.where(status == PAR_OK, par, np.nan), status


def par_probit_exact(p: ProbitParams, alpha: float, d: LeverDelta) -> float:
    """Exact prediction-access ratio from finite differences of the value
    function: :func:`par_probit_array` at one cell, with its statuses
    raised as errors.

    Deltas below MIN_DELTA are rejected, and so is a prediction gain at or
    below GAIN_FLOOR, where rounding in the two values it differences
    could dominate the ratio.
    """
    check_alpha_open(alpha)
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
) -> BoundPair:
    """Asymptotic sandwich around the exact prediction-access ratio.

    The underlying result is asymptotic in alpha: it only applies below
    an unspecified smallness threshold, for which BOUNDS_MAX_ALPHA and
    BOUNDS_MAX_DELTA_R2 stand in.  Violations of any checked hypothesis
    raise :class:`PreconditionError` naming it.
    """
    check_bounds_eps(alpha, eps)
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
    if alpha > BOUNDS_MAX_ALPHA:
        raise PreconditionError(
            f"requires alpha <= {BOUNDS_MAX_ALPHA!r} (smallness threshold), got {alpha!r}"
        )
    if d.delta_r2 > BOUNDS_MAX_DELTA_R2:
        raise PreconditionError(
            f"requires delta_r2 <= {BOUNDS_MAX_DELTA_R2!r} (smallness threshold), "
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
    try:
        if core == math.inf:  # alpha T underflows, and 0 * inf would make the bounds NaN
            raise OverflowError
        lower = 0.3 * prefactor * (core / 1.01) ** ((1.0 - eps) ** 2 / (gt * gt))
        upper = 3.0 * prefactor * core ** ((1.0 + eps_up) ** 2 / (gt * gt))
    except OverflowError as exc:
        raise NumericsError(
            f"the bounds overflow: 1/(sqrt(2 pi) alpha T) = {core:.6g} is raised to a power "
            f"of order 1/gamma_t^2 = {1.0 / (gt * gt):.6g}, past the largest double"
        ) from exc
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
    check_alpha_open(alpha)
    cr = cost_ratio_access_over_prediction
    if math.isnan(cr) or not cr > 0.0:
        raise DomainError(f"cost ratio must be positive, got {cr!r}")
    gt = p.gamma_t
    if gt == 0.0:
        # alpha^inf -> 0 for alpha < 1: the condition holds vacuously.
        return CutoffResult(passes=True, margin=0.0, degenerate=True)
    rhs = cr * alpha ** (1.0 / (gt * gt)) * p.base_rate
    return CutoffResult(passes=gt >= rhs, margin=gt - rhs, degenerate=False)
