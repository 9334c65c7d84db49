"""Standard-normal special functions used throughout the package.

Everything here is pure and stateless, and scalar except ``ndtri``,
:func:`at_distinct` (below) and :func:`conditional_sd`, the gamma_t of
both models.  The four ``check_alpha_*`` domain checks live in
``inputs`` and are importable from here.  The quantile is the one primitive the rest of the
package leans on (thresholds, closed forms and the Monte Carlo sampler
all use it), and it meets a tight round-trip contract:

    |cdf(quantile(p)) - p| <= 1e-12   for p in [1e-10, 1 - 1e-10].

Implementation notes
--------------------
* The float functions use the standard library alone, and NumPy is
  imported only by the functions that take arrays, so the linear model's
  value, PAR and bounds run without it.  No module of the package
  imports scipy.
* ``cdf`` and ``sf`` share one ``_phi`` (``sf`` at -t, never
  ``1 - cdf``), and the Monte Carlo kernel's treated share is ``sf``:
  erfc from the C library, within about 1e-14 relative of a 40-digit
  reference down to the smallest normal doubles
  (``tests/data/reference.json``).
  The probit core needs no Phi: Phi(quantile(alpha)) is alpha.
* ``quantile`` is Wichura's AS 241 as CPython's ``statistics.NormalDist``
  runs it, with the C library's log in the tails; ``pdf`` takes the C
  library's exp.  ``ndtri``, the Monte Carlo kernel's quantile, runs the
  same coefficient table and Horner helper on arrays, as NumPy loops on
  each branch's elements, in batches, with ``np.log`` in the tails: the
  two differ only where the two logs do, by at most 4 ulps (both are
  within about 6 ulps of a 40-digit reference).  A model's functions of
  alpha alone (the probit quantiles, the linear g(alpha)) take the float
  path at every element of an array through :func:`at_distinct`, once
  per distinct value, so a grid cell equals its scalar call bit for bit.
* ``upper_quantile(alpha)`` returns the (1 - alpha) quantile without ever
  forming ``1 - alpha``, so it stays accurate for alpha down to the
  smallest normal doubles.

All functions reject NaN inputs explicitly instead of propagating them.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericsError, PreconditionError
from .inputs import (_Record, _reject_nan, check_alpha_closed, check_alpha_half,
                     check_alpha_open, check_alpha_open_closed)

__all__ = [
    "BoundPair",
    "at_distinct",
    "conditional_sd",
    "pdf",
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
SQRT2 = 1.4142135623730951


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_SQRT2_HI = _SPLIT * SQRT2 - (_SPLIT * SQRT2 - SQRT2)
_SQRT2_LO = SQRT2 - _SQRT2_HI
_SQRT2_ERR = -9.667293313452913e-17  # sqrt(2) - SQRT2


def _phi(x: float) -> float:
    """Phi(x) = erfc(-x / sqrt(2)) / 2 from the C library's erfc.  The
    rounding error d of z = -x/sqrt(2) shifts erfc(z) by a relative
    d (2z + 1/z), up to 2e-13 near x = -37; for 5 < z < 28 (erfc(z) > 0)
    that shift is taken out, with d exact by Dekker's product."""
    z = -x / SQRT2
    if not 5.0 < z < 28.0:
        return 0.5 * math.erfc(z)
    c = _SPLIT * z
    z_hi = c - (c - z)
    z_lo = z - z_hi
    p = z * SQRT2
    p_err = ((z_hi * _SQRT2_HI - p) + z_hi * _SQRT2_LO + z_lo * _SQRT2_HI) + z_lo * _SQRT2_LO
    d = ((-x - p) - p_err - z * _SQRT2_ERR) / SQRT2
    return 0.5 * math.erfc(z) * (1.0 - d * (2.0 * z + 1.0 / z))


# Wichura's AS 241 (Appl. Statist. 37, 1988) as in CPython's statistics module: numerator
# and denominator coefficients, highest power first, in r = 0.180625 - q^2 (q = p - 1/2,
# |q| <= 0.425), and in r - 1.6 (r <= 5) or r - 5, r = sqrt(-log(min(p, 1 - p))).
_CENTRAL, _NEAR, _FAR = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)))


def _horner(coeffs, r, acc=None):
    """The polynomial with these coefficients at a float r, or at an array r into the array acc."""
    if acc is None:
        acc = coeffs[0] * r
    else:
        import numpy as np

        np.multiply(r, coeffs[0], out=acc)
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


def _ratio(branch, r, q=1.0, num=None, den=None):
    """q num(r) / den(r) for one branch of AS 241; at an array r, into the arrays num and den."""
    x = _horner(branch[0], r, num)
    x *= q
    x /= _horner(branch[1], r, den)
    return x


def _ndtri_float(p: float) -> float:
    """:func:`ndtri` at a float, with the C library's log in the tails."""
    if not 0.0 < p < 1.0:
        return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan
    q = p - 0.5
    if abs(q) <= 0.425:
        return _ratio(_CENTRAL, 0.180625 - q * q, q)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    x = _ratio(_NEAR, r - 1.6) if r <= 5.0 else _ratio(_FAR, r - 5.0)
    return -x if q < 0.0 else x


# Elements per pass of an array: its four float working arrays take 2 MB, under the 4 MB at
# which NumPy asks for huge pages, and passes of 2**14 elements or fewer measured slower.
_BATCH = 1 << 16


def _ndtri_batch(p, out, a, b, c, d, mask, sign):
    """AS 241 at a contiguous float array p of at most _BATCH elements, into out.

    a to d are float and mask and sign bool working arrays at least as long
    as p.  Only a batch whose elements all lie in the tails runs in place;
    otherwise each branch runs on its elements' integer-index gathers.
    Either way an element takes the float's IEEE steps, with np.log on
    contiguous data for its tail log, so its bits depend on neither the
    layout nor the batch.  The gathers take with mode="clip", which writes
    straight into out, where "raise" would copy.
    """
    import numpy as np

    m = p.size
    q = np.subtract(p, 0.5, out=a[:m])
    central = np.less_equal(np.abs(q, out=b[:m]), 0.425, out=mask[:m])
    n = np.count_nonzero(central)
    at = None  # the tails hold every element: p is read and out written in place
    if n:
        at = np.flatnonzero(central)
        q = np.take(q, at, out=b[:n], mode="clip")
        r = np.subtract(0.180625, np.multiply(q, q, out=c[:n]), out=c[:n])
        np.put(out, at, _ratio(_CENTRAL, r, q, a[:n], d[:n]), mode="clip")
        at = np.flatnonzero(np.logical_not(central, out=mask[:m]))
        p = np.take(p, at, out=a[:at.size], mode="clip")
    n = p.size
    neg = np.less(p, 0.5, out=sign[:n])  # the float's q = p - 0.5 < 0 exactly where p < 0.5
    r = np.minimum(p, np.subtract(1.0, p, out=b[:n]), out=b[:n])  # the float's p or 1 - p
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)  # inf at p = 0 or 1, NaN outside [0, 1]
    x = _ratio(_NEAR, np.subtract(r, 1.6, out=c[:n]), 1.0, out if at is None else a[:n], d[:n])
    far = np.less_equal(r, 5.0, out=mask[:n])
    if np.count_nonzero(far) < n:  # the far tail, p < 1.4e-11, is rare
        np.logical_not(far, out=far)
        f = np.flatnonzero(far)
        v = r.take(f)
        x[f] = np.where(v == math.inf, v, _ratio(_FAR, v - 5.0))
    np.negative(x, out=x, where=neg)
    if at is not None:
        np.put(out, at, x, mode="clip")


def ndtri(p):
    """Inverse standard normal CDF at every element of an array (a 0-d
    array at a scalar): -inf at 0, +inf at 1, NaN outside [0, 1].

    AS 241 as CPython's ``statistics.NormalDist`` runs it, with NumPy's
    log, whose elements take the same bits whatever the array's shape or
    layout.  It runs in batches of ``_BATCH`` elements through one set of
    working arrays made per call, so the only array of p's size made is
    the result.
    """
    import numpy as np

    p = np.asarray(p, dtype=float)
    flat = np.ravel(p)
    out = np.empty(p.shape)
    dest = out.reshape(-1)
    size = min(flat.size, _BATCH)
    work, masks = np.empty((4, size)), np.empty((2, size), bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _BATCH):
            _ndtri_batch(flat[lo:lo + _BATCH], dest[lo:lo + _BATCH], *work, *masks)
    return out


def at_distinct(f, x):
    """f, a function of a float, at every element of x, in x's shape (a
    NumPy scalar when x is a scalar), called once per distinct value (and
    once per NaN).  The distinct values are found by sorting, and each
    element's by bisection: np.unique would import numpy.ma, about 12 ms."""
    import numpy as np

    values = np.sort(x, axis=None)
    values = np.concatenate([values[:1], values[1:][values[1:] != values[:-1]]])
    return np.array([f(v) for v in values.tolist()])[np.searchsorted(values, x)]


class BoundPair(_Record):
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


def conditional_sd(rho):
    """sqrt(1 - rho^2), the standard deviation of one standard normal given
    another at correlation rho, formed as sqrt((1 - rho)(1 + rho)) so that
    it keeps its relative accuracy as rho approaches 1."""
    import numpy as np

    return np.sqrt((1.0 - rho) * (1.0 + rho))


def pdf(z: float) -> float:
    """Standard normal density at a finite z."""
    _reject_nan(z, "z")
    if math.isinf(z):
        raise DomainError("pdf requires a finite argument")
    z = float(z)
    return INV_SQRT_2PI * math.exp(-0.5 * z * z)


def cdf(t: float) -> float:
    """Standard normal CDF; +/-inf map to 1/0."""
    _reject_nan(t, "t")
    return _phi(float(t))


def sf(t: float) -> float:
    """Upper tail probability Pr(Z >= t), accurate for large t."""
    _reject_nan(t, "t")
    return _phi(-float(t))


def quantile(p: float) -> float:
    """Inverse standard normal CDF for p in the open unit interval."""
    if not 0.0 < p < 1.0:
        _reject_nan(p, "p")
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    return _ndtri_float(p)


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
