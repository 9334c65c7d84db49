"""Regenerate ``reference.json``: 40-digit normal CDFs, quantiles, linear
and probit values and PARs.

Nothing here imports ``partarget``, so the table shares no code with the
package.  Every number is computed at 40 significant digits:

* ``cdf``: Phi(x) = erfc(-x / sqrt(2)) / 2 from mpmath's ``ncdf``.
* ``quantile``: Phi^-1(p), the root of log Phi(x) = log p, with Phi from
  mpmath's complementary error function (p > 1/2 by symmetry, since 1 - p
  is exact for a double p > 1/2).
* ``linear_values``: the linear model's optimal-policy welfare from its
  defining integral,

      V(alpha, gamma_s) = alpha mu + gamma_s beta_norm int_T^inf z phi(z) dz,

  with T = Phi^-1(1 - alpha), the mean welfare of the treated top-alpha
  share of z_s.
* ``probit_values``: the probit model's optimal-policy welfare from its
  defining integral,

      V(alpha, gamma_s) = int_T^inf phi(z) Phi((gamma_s z + m) / gamma_t) dz,

  with m = Phi^-1(b) and gamma_t = sqrt(1 - gamma_s^2); gamma_s = 0 and
  gamma_s = 1 use their exact forms alpha b and min(alpha, b).  The
  integrand, divided by phi(max(T, 0)) so that mpmath's absolute error
  target is a relative one, is split on the 1/T scale of phi's decay past
  T and around the step of Phi.  A value row is kept only where it agrees
  with the same quadrature at 60 digits to AGREE.
* ``linear_pars`` and ``probit_pars``: the exact finite-difference ratio
  [V(alpha + da) - V(alpha)] / [V(gamma_s + dr) - V(gamma_s)] of such values.

Run from the repository root (takes about six minutes):

    python tests/data/make_reference.py > tests/data/reference.json
"""

from __future__ import annotations

import itertools
import json

import mpmath as mp

DIGITS = 40

CDF_XS = (-38.0, -37.5, -37.2, -36.0, -33.3, -30.0, -25.5, -20.0, -15.0, -10.0, -7.5,
          -7.0710678118654755, -7.07, -5.0, -2.5, -1.0, -0.3, -1e-9, 0.0, 1e-9, 0.3, 1.0,
          2.5, 5.0, 7.5, 8.3)

QUANTILE_PS = (1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1e-6, 1e-3, 0.02425,
               0.1, 0.3, 0.4999, 0.5, 0.5001, 0.7, 0.9, 0.97575, 0.999,
               1 - 1e-6, 1 - 1e-8, 1 - 1e-10)

LINEAR_PARAMS = ((0.5, 10.0), (2.0, 1.0))  # (mu, beta_norm)
LINEAR_GAMMAS = (0.0, 0.3, 0.9, 1.0)
LINEAR_ALPHAS = (1e-10, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.49)
LINEAR_PAR_CELLS = tuple(itertools.product(
    LINEAR_PARAMS, (0.0, 0.3, 0.8), (1e-4, 1e-3, 0.01, 0.1, 0.3)))
LINEAR_PAR_DELTAS = ((1e-3, 1e-3), (0.01, 0.01), (1e-5, 0.1))

BASE_RATES = (0.01, 0.1, 0.3, 0.5, 0.8)
GAMMAS = (0.0, 0.3, 0.76, 0.8, 0.83, 1.0)
ALPHAS = (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9)
# Correlations near 1, a base rate and an alpha of 1e-6 (alpha = b included)
# and alpha = 1e-30, each crossed with the other axes.
HIGH_GAMMAS = (0.9, 0.95, 0.99, 0.999, 0.9999)
TINY_BASE_RATE, TINY_ALPHA = 1e-6, 1e-30
# Cells with quantile(alpha) = quantile(b) * ratio / gamma_s: as gamma_s -> 1
# and the ratio -> 1, the range of Plackett's integral in its variable
# u = (k - h sin theta)/cos theta reaches u = 0, where its measure has a kink.
KINK_CELLS = tuple(itertools.product((1e-6, 0.1, 0.3), (0.999, 0.9999),
                                     (1.0001, 1.01, 1 / 1.0001, 1 / 1.01)))
AGREE = 1e-20

# Cells of probit grid sweeps where an earlier adaptive quadrature missed its
# 1e-10 tolerance by two orders of magnitude, with the deltas of those sweeps.
FOUND_PARS = (
    (0.0188425893079745, 0.8333019896642532, 0.002947387774811539,
     1.6075487775286366e-05, 0.00124549076742362),
    (0.018447, 0.826765, 0.00022868, 1.8292698231926223e-05, 0.001929986972075834),
)
# (base rate, gamma_s, alpha) x (delta_alpha, delta_r2).  A row is kept only
# when its prediction gain is well above the package's 1e-9 floor and both
# differences are at least CONDITION times the value: a ratio of differences
# of double-precision values cannot be trusted to 1e-9 beyond that.  Linear
# rows use the same CONDITION.
PAR_CELLS = tuple(itertools.product(
    (0.02, 0.1, 0.5), (0.0, 0.3, 0.8), (1e-4, 1e-3, 0.01, 0.5)))
PAR_DELTAS = ((1e-3, 1e-3), (1.5e-5, 1.5e-3))
MIN_GAIN = 1e-8
CONDITION = 1e-3


def quantile(p) -> mp.mpf:
    """Phi^-1(p) at the working precision."""
    p = mp.mpf(p)
    if p > 0.5:
        return -quantile(1 - p)
    if p == 0.5:
        return mp.mpf(0)
    log_p = mp.log(p)
    x0 = -mp.sqrt(-2 * log_p) if p < 0.1 else mp.mpf(-0.5)
    return mp.findroot(lambda x: mp.log(mp.ncdf(x)) - log_p, (x0, x0 + mp.mpf("0.01")))


def linear_value(mu: float, beta_norm: float, gamma_s: float, alpha: float) -> mp.mpf:
    """V(alpha, gamma_s) of the linear model at the working precision."""
    t = -quantile(alpha)
    tail = mp.quad(lambda z: z * mp.npdf(z), [t, t + 1, t + 3, t + 8, mp.inf])
    return mp.mpf(alpha) * mu + mp.mpf(gamma_s) * beta_norm * tail


def linear_par(mu, beta_norm, gamma_s, alpha, delta_alpha, delta_r2) -> tuple[mp.mpf, bool]:
    """The exact linear ratio, and whether it is well conditioned enough to keep."""
    base = linear_value(mu, beta_norm, gamma_s, alpha)
    gain = linear_value(mu, beta_norm, gamma_s + delta_r2, alpha) - base
    access = linear_value(mu, beta_norm, gamma_s, alpha + delta_alpha) - base
    keep = min(gain, access) >= CONDITION * base
    return access / gain, keep


def value(b: float, gamma_s: float, alpha: float) -> mp.mpf:
    """V(alpha, gamma_s) of the probit model at the working precision."""
    b, g, a = mp.mpf(b), mp.mpf(gamma_s), mp.mpf(alpha)
    if g == 0:
        return a * b
    if g == 1:
        return min(a, b)
    t, m = -quantile(a), quantile(b)
    gt = mp.sqrt(1 - g * g)

    top = max(t, 0)

    def integrand(z):
        return mp.exp((top - z) * (top + z) / 2) * mp.ncdf((g * z + m) / gt)

    # phi falls by e^-j over j / T past T, and Phi((gamma_s z + m) / gamma_t)
    # steps up over a width gamma_t / gamma_s around -m / gamma_s;
    # breakpoints there keep the quadrature accurate as alpha -> 0 and as
    # gamma_s -> 1.
    step, width, scale = -m / g, gt / g, 1 / max(t, 1)
    points = {t + j * scale for j in (0, 1, 3, 8, 20, 45)}
    points.update(step + j * width for j in (-8, -3, -1, 0, 1, 3, 8))
    return mp.npdf(top) * mp.quad(integrand, sorted(p for p in points if p >= t) + [mp.inf])


def par(b, gamma_s, alpha, delta_alpha, delta_r2) -> tuple[mp.mpf, bool]:
    """The exact probit ratio, and whether it is well conditioned enough to keep."""
    base = value(b, gamma_s, alpha)
    gain = value(b, gamma_s + delta_r2, alpha) - base
    access = value(b, gamma_s, alpha + delta_alpha) - base
    keep = gain > MIN_GAIN and min(gain, access) >= CONDITION * base
    return access / gain, keep


def value_row(b: float, gamma_s: float, alpha: float) -> dict | None:
    """A probit value row, or None where 60 digits do not confirm it."""
    v = value(b, gamma_s, alpha)
    with mp.workdps(60):
        if abs(value(b, gamma_s, alpha) / v - 1) > AGREE:
            return None
    return {"base_rate": b, "gamma_s": gamma_s, "alpha": alpha, "value": _digits(v)}


def _digits(x: mp.mpf) -> str:
    return mp.nstr(x, 30, min_fixed=0, max_fixed=0)


def build() -> dict:
    mp.mp.dps = DIGITS
    cdfs = [{"x": x, "cdf": _digits(mp.ncdf(x))} for x in CDF_XS]
    quantiles = [{"p": p, "quantile": _digits(quantile(p))} for p in QUANTILE_PS]
    linear_values = [
        {"mu": mu, "beta_norm": beta, "gamma_s": g, "alpha": a,
         "value": _digits(linear_value(mu, beta, g, a))}
        for (mu, beta), g, a in itertools.product(LINEAR_PARAMS, LINEAR_GAMMAS, LINEAR_ALPHAS)
    ]
    linear_pars = []
    for ((mu, beta), g, a), (da, dr) in itertools.product(LINEAR_PAR_CELLS, LINEAR_PAR_DELTAS):
        if a + da >= 0.5 or g + dr > 1:
            continue
        ratio, keep = linear_par(mu, beta, g, a, da, dr)
        if keep:
            linear_pars.append({"mu": mu, "beta_norm": beta, "gamma_s": g, "alpha": a,
                                "delta_alpha": da, "delta_r2": dr, "par": _digits(ratio)})
    cells = list(itertools.product(BASE_RATES, GAMMAS, ALPHAS))
    cells += [(b, g, a) for b, g, a, _, _ in FOUND_PARS]
    cells += itertools.product(BASE_RATES, HIGH_GAMMAS, ALPHAS)
    cells += itertools.product((TINY_BASE_RATE,), GAMMAS + HIGH_GAMMAS, ALPHAS)
    cells += itertools.product(BASE_RATES, GAMMAS + HIGH_GAMMAS, (TINY_ALPHA,))
    cells += [(b, g, float(mp.ncdf(quantile(b) * ratio / g))) for b, g, ratio in KINK_CELLS]
    values = [row for row in itertools.starmap(value_row, cells) if row is not None]
    pars = []
    cells = [(*cell, *d) for cell in PAR_CELLS for d in PAR_DELTAS]
    for row in cells + list(FOUND_PARS):
        ratio, keep = par(*row)
        if keep:
            b, g, a, da, dr = row
            pars.append({"base_rate": b, "gamma_s": g, "alpha": a, "delta_alpha": da,
                         "delta_r2": dr, "par": _digits(ratio)})
    return {"digits": DIGITS, "cdf": cdfs, "quantile": quantiles, "linear_values": linear_values,
            "linear_pars": linear_pars, "probit_values": values, "probit_pars": pars}


if __name__ == "__main__":
    print(json.dumps(build(), indent=1))
