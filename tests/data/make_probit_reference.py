"""Regenerate ``probit_reference.json``: 40-digit probit values and PARs.

Every value is an mpmath quadrature, at 40 significant digits, of the
integral that defines the probit model's optimal-policy welfare,

    V(alpha, gamma_s) = int_T^inf phi(z) Phi((gamma_s z + m) / gamma_t) dz,

with T = Phi^-1(1 - alpha), m = Phi^-1(b) and gamma_t = sqrt(1 - gamma_s^2);
gamma_s = 0 and gamma_s = 1 use their exact forms alpha b and min(alpha, b).
Nothing here imports ``partarget``, so the table shares no code with the
package's closed form.  A PAR row holds the exact finite-difference ratio
[V(alpha + da) - V(alpha)] / [V(gamma_s + dr) - V(gamma_s)] of such values.

Run from the repository root (takes about a minute):

    python tests/data/make_probit_reference.py > tests/data/probit_reference.json
"""

from __future__ import annotations

import itertools
import json

import mpmath as mp

DIGITS = 40

BASE_RATES = (0.01, 0.1, 0.3, 0.5, 0.8)
GAMMAS = (0.0, 0.3, 0.76, 0.8, 0.83, 1.0)
ALPHAS = (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9)

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
# of double-precision values cannot be trusted to 1e-9 beyond that.
PAR_CELLS = tuple(itertools.product(
    (0.02, 0.1, 0.5), (0.0, 0.3, 0.8), (1e-4, 1e-3, 0.01, 0.5)))
PAR_DELTAS = ((1e-3, 1e-3), (1.5e-5, 1.5e-3))
MIN_GAIN = 1e-8
CONDITION = 1e-3


def quantile(p) -> mp.mpf:
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def value(b: float, gamma_s: float, alpha: float) -> mp.mpf:
    """V(alpha, gamma_s) of the probit model at the working precision."""
    b, g, a = mp.mpf(b), mp.mpf(gamma_s), mp.mpf(alpha)
    if g == 0:
        return a * b
    if g == 1:
        return min(a, b)
    t, m = -quantile(a), quantile(b)
    gt = mp.sqrt(1 - g * g)

    def integrand(z):
        return mp.npdf(z) * mp.ncdf((g * z + m) / gt)

    # The integrand steps up over a width gamma_t / gamma_s around -m / gamma_s;
    # breakpoints there keep the quadrature accurate as gamma_s -> 1.
    step, width = -m / g, gt / g
    points = {t, t + 1, t + 3, t + 8}
    points.update(step + j * width for j in (-8, -3, -1, 0, 1, 3, 8))
    return mp.quad(integrand, sorted(p for p in points if p >= t) + [mp.inf])


def par(b, gamma_s, alpha, delta_alpha, delta_r2) -> tuple[mp.mpf, bool]:
    """The exact ratio, and whether it is well conditioned enough to keep."""
    base = value(b, gamma_s, alpha)
    gain = value(b, gamma_s + delta_r2, alpha) - base
    access = value(b, gamma_s, alpha + delta_alpha) - base
    keep = gain > MIN_GAIN and min(gain, access) >= CONDITION * base
    return access / gain, keep


def _digits(x: mp.mpf) -> str:
    return mp.nstr(x, 30, min_fixed=0, max_fixed=0)


def build() -> dict:
    mp.mp.dps = DIGITS
    values = [
        {"base_rate": b, "gamma_s": g, "alpha": a, "value": _digits(value(b, g, a))}
        for b, g, a in itertools.product(BASE_RATES, GAMMAS, ALPHAS)
    ]
    for b, g, a, _, _ in FOUND_PARS:
        values.append({"base_rate": b, "gamma_s": g, "alpha": a,
                       "value": _digits(value(b, g, a))})
    pars = []
    cells = [(*cell, *d) for cell in PAR_CELLS for d in PAR_DELTAS]
    for row in cells + list(FOUND_PARS):
        ratio, keep = par(*row)
        if keep:
            b, g, a, da, dr = row
            pars.append({"base_rate": b, "gamma_s": g, "alpha": a, "delta_alpha": da,
                         "delta_r2": dr, "par": _digits(ratio)})
    return {"digits": DIGITS, "values": values, "pars": pars}


if __name__ == "__main__":
    print(json.dumps(build(), indent=1))
