"""Reference values for the benchmark's correctness checks.

Nothing here imports ``partarget``: every quantity is computed from the
model definitions with SciPy special functions, so an error in the
package's numerics cannot hide in the reference as well.

* Probit value: V(alpha, gamma_s) = Pr(Z_s >= T, gamma_s Z_s + gamma_t Z_t > -m)
  with T = Phi^-1(1 - alpha) and m = Phi^-1(b).  That is the bivariate
  normal orthant probability Phi_2(-T, m; rho = gamma_s), evaluated with
  Owen's T function (Owen 1956).  The formula needs -T != 0 and m != 0,
  so alpha = 0.5 and base rate 0.5 are excluded, as are gamma_s of 0 or 1.
* Linear value: V = alpha mu + gamma_s beta phi(T), with the prediction
  increment of the PAR in closed form so the ratio has no cancellation.
* PAR: finite differences of the values above, exactly as the paper
  defines the ratio.
* Allocation: exhaustive enumeration of every subset of atoms.

``self_check`` compares the probit and linear values against 40-digit
``mpmath`` quadrature on a few points; the benchmark runs it on start.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

__all__ = [
    "probit_value",
    "probit_par",
    "probit_prediction_gain",
    "probit_bounds",
    "linear_value",
    "linear_par",
    "linear_bounds",
    "linear_second_moment",
    "best_allocation_welfare",
    "self_check",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _bvn_cdf(h, k, rho):
    """Phi_2(h, k; rho) for nonzero h, k and |rho| < 1 (Owen 1956, eq. 2.1)."""
    h, k, rho = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (h, k, rho)))
    if np.any(h == 0.0) or np.any(k == 0.0) or np.any(np.abs(rho) >= 1.0):
        raise ValueError("Owen's-T form needs h != 0, k != 0 and |rho| < 1")
    s = np.sqrt(1.0 - rho * rho)
    a_h = (k - rho * h) / (h * s)
    a_k = (h - rho * k) / (k * s)
    beta = np.where(h * k < 0.0, 0.5, 0.0)
    return 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a_h) - owens_t(k, a_k) - beta


def probit_value(base_rate, gamma_s, alpha):
    """Optimal-policy welfare of the probit model, vectorized."""
    return _bvn_cdf(ndtri(alpha), ndtri(base_rate), gamma_s)


def probit_prediction_gain(base_rate, gamma_s, alpha, delta_r2):
    """V(alpha, gamma_s + delta_r2) - V(alpha, gamma_s): the PAR denominator."""
    return (probit_value(base_rate, np.add(gamma_s, delta_r2), alpha)
            - probit_value(base_rate, gamma_s, alpha))


def probit_par(base_rate, gamma_s, alpha, delta_alpha, delta_r2, value_rtol=0.0):
    """Finite-difference prediction-access ratio of the probit model, and the
    largest error in it that value errors of ``value_rtol`` relative could cause."""
    v0 = probit_value(base_rate, gamma_s, alpha)
    va = probit_value(base_rate, gamma_s, np.add(alpha, delta_alpha))
    vg = probit_value(base_rate, np.add(gamma_s, delta_r2), alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        par = (va - v0) / (vg - v0)
        return par, value_rtol * ((v0 + va) + par * (v0 + vg)) / np.abs(vg - v0)


def probit_bounds(base_rate, gamma_s, alpha, delta_alpha, delta_r2, eps=0.05):
    """The paper's asymptotic (lower, upper) sandwich around the probit PAR."""
    gt = math.sqrt(1.0 - gamma_s * gamma_s)
    t_alpha = -float(ndtri(alpha))
    t_b = -float(ndtri(base_rate))
    prefactor = (delta_alpha * gt / delta_r2) / (base_rate * t_b)
    core = _INV_SQRT_2PI / (alpha * t_alpha)
    eps_up = eps / (1.0 - eps)
    lower = 0.3 * prefactor * (core / 1.01) ** ((1.0 - eps) ** 2 / (gt * gt))
    upper = 3.0 * prefactor * core ** ((1.0 + eps_up) ** 2 / (gt * gt))
    return lower, upper


def _density_at_cutoff(alpha):
    t = ndtri(alpha)  # the density is symmetric, so T and -T give the same value
    return _INV_SQRT_2PI * np.exp(-0.5 * t * t)


def linear_value(mu, beta_norm, gamma_s, alpha):
    """Optimal-policy welfare of the linear model, vectorized."""
    return np.multiply(alpha, mu) + np.multiply(gamma_s, beta_norm) * _density_at_cutoff(alpha)


def linear_par(mu, beta_norm, gamma_s, alpha, delta_alpha, delta_r2):
    """Prediction-access ratio of the linear model.

    The prediction gain is delta_r2 * beta * g(alpha) exactly, because the
    value is linear in gamma_s.
    """
    g = _density_at_cutoff(alpha)
    numer = (np.multiply(delta_alpha, mu)
             + np.multiply(gamma_s, beta_norm) * (_density_at_cutoff(np.add(alpha, delta_alpha)) - g))
    return numer / (np.multiply(delta_r2, beta_norm) * g)


def linear_bounds(mu, beta_norm, gamma_s, alpha, delta_alpha, delta_r2):
    """The paper's factor-of-four sandwich around the linear PAR."""
    t = -float(ndtri(alpha))
    upper = (mu / (beta_norm * t) + gamma_s) * (delta_alpha / delta_r2) / alpha
    return 0.25 * upper, upper


def linear_second_moment(mu, beta_norm, gamma_s, alpha):
    """E[(w 1{treated})^2] for the linear model, for the Monte Carlo error."""
    t = -float(ndtri(alpha))
    g = float(_density_at_cutoff(alpha))
    s = gamma_s * beta_norm
    r2 = (1.0 - gamma_s * gamma_s) * beta_norm * beta_norm
    return s * s * (alpha + t * g) + 2.0 * s * mu * g + (mu * mu + r2) * alpha


def best_allocation_welfare(atoms, alpha):
    """Largest welfare over every subset of (mass, cond_mean) atoms within budget."""
    best = 0.0
    for size in range(1, len(atoms) + 1):
        for subset in combinations(atoms, size):
            if math.fsum(m for m, _ in subset) <= alpha:
                best = max(best, math.fsum(m * c for m, c in subset))
    return best


def self_check() -> list[str]:
    """Compare the reference against 40-digit mpmath; return the disagreements."""
    import mpmath as mp

    mp.mp.dps = 40
    problems = []

    def quantile(p):
        return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)

    for b, g, a in ((0.02, 0.2, 1e-4), (0.3, 0.9, 0.01), (0.1, 0.5, 0.2), (0.05, 0.7, 0.04)):
        t, m = -quantile(a), quantile(b)
        gt = mp.sqrt(1 - mp.mpf(g) ** 2)

        def integrand(z):
            return mp.npdf(z) * mp.ncdf((g * z + m) / gt)

        exact = mp.quad(integrand, [t, t + 2, t + 6, mp.inf])
        got = float(probit_value(b, g, a))
        rel = abs(got - float(exact)) / float(exact)
        if rel > 1e-11:
            problems.append(f"probit value b={b} gamma={g} alpha={a}: rel error {rel:.2e}")

    for mu, beta, g, a in ((1.0, 10.0, 0.3, 0.05), (0.7, 3.0, 0.9, 0.001)):
        t = -quantile(a)
        exact = a * mp.mpf(mu) + g * beta * mp.npdf(t)
        got = float(linear_value(mu, beta, g, a))
        rel = abs(got - float(exact)) / float(exact)
        if rel > 1e-13:
            problems.append(f"linear value mu={mu} gamma={g} alpha={a}: rel error {rel:.2e}")
    return problems
