"""Independent verification oracles for the closed forms.

Two kinds of ground truth are reached from here:

* Monte Carlo policy simulation for both welfare models, run on the
  NumPy kernel in ``_backend``: it draws only the treated samples, each
  block of them a pure function of (seed, block index), blocks run on one
  thread per usable CPU, and their partial sums are combined in block
  order, so fixed (seed, samples) gives bit-identical estimates with any
  number of threads.  The linear sums and second moment are taken in a
  power-of-two unit of mu and beta_norm, where they neither overflow nor
  underflow.  The standard error is checked in ``tests/test_oracle.py``.
  :class:`SimConfig` (the simulation size) is defined in ``inputs``.
* An exact allocator for finitely supported feature distributions: the
  greedy quantile policy plus an exhaustive brute-force optimum to check
  it against, defined without NumPy in ``inputs`` and importable from
  here.  With deterministic 0/1 policies on atoms the budget can fail to
  bind exactly, so greedy may fall short of brute force by at most
  (max conditional mean) * (largest atom mass); callers relying on
  equality should use instances whose treated prefix saturates exactly.
"""

from __future__ import annotations

import math

from . import gaussian
from ._backend import linear_sums, probit_sums
from .gaussian import check_alpha_half, check_alpha_open_closed
from .inputs import (MAX_SAMPLES, MIN_SAMPLES, Allocation, Atom, DiscreteDistribution,
                     LinearParams, ProbitParams, SimConfig, _Record, brute_force_allocate,
                     greedy_allocate)
from .linear import _in_welfare_unit

__all__ = [
    "MAX_SAMPLES",
    "MIN_SAMPLES",
    "SimConfig",
    "Estimate",
    "Atom",
    "DiscreteDistribution",
    "Allocation",
    "simulate_linear_value",
    "simulate_probit_value",
    "linear_second_moment",
    "greedy_allocate",
    "brute_force_allocate",
]

class Estimate(_Record):
    """A Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    samples: int

    def z_score(self, target: float) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.mean == target else math.copysign(math.inf, self.mean - target)
        return (self.mean - target) / self.std_error

    def within(self, target: float, n_se: float = 4.0) -> bool:
        return abs(self.mean - target) <= n_se * self.std_error


def _estimate(total: float, total_sq: float, n: int, unit: float = 1.0) -> Estimate:
    mean = total / n
    var = max(0.0, (total_sq - total * total / n) / (n - 1))
    return Estimate(mean=mean * unit, std_error=math.sqrt(var / n) * unit, samples=n)


def simulate_linear_value(p: LinearParams, alpha: float, cfg: SimConfig) -> Estimate:
    """Monte Carlo estimate of the linear model's optimal-policy welfare.

    Draws the observable and residual score components, applies the
    top-alpha threshold policy on the observable one, and averages the
    treated welfare.  Deterministic for fixed cfg.
    """
    check_alpha_half(alpha)
    mu, b, u = _in_welfare_unit(p.mu, p.beta_norm)  # the sums are taken in u, then scaled back
    return _estimate(*linear_sums(cfg.seed, cfg.samples, mu, p.gamma_s * b, p.gamma_t * b,
                                  gaussian.upper_quantile(alpha)), cfg.samples, u)


def simulate_probit_value(p: ProbitParams, alpha: float, cfg: SimConfig) -> Estimate:
    """Monte Carlo estimate of the probit model's optimal-policy welfare."""
    check_alpha_open_closed(alpha)
    return _estimate(*probit_sums(cfg.seed, cfg.samples, p.mu_over_beta, p.gamma_s, p.gamma_t,
                                  gaussian.upper_quantile(alpha)), cfg.samples)


def linear_second_moment(p: LinearParams, alpha: float) -> tuple[float, float]:
    """(m, u): m u^2, which may overflow, is the mean square of one sample of
    :func:`simulate_linear_value`.  In the welfare unit u, treated welfare a z_s + c z_t + mu
    on z_s >= T, with a = gamma_s beta_norm and c = gamma_t beta_norm, has
    a^2 (alpha + T g) + (c^2 + mu^2) alpha + 2 a mu g, where g is the density at T."""
    mu, b, u = _in_welfare_unit(p.mu, p.beta_norm)
    t, g = gaussian.upper_quantile(alpha), gaussian.phi_of_quantile(alpha)
    a, c = p.gamma_s * b, p.gamma_t * b
    return a * a * (alpha + t * g) + (c * c + mu * mu) * alpha + 2.0 * a * mu * g, u
