"""Input types and the checks a command runs before it computes anything:
the access-level domains, lever steps and costs, both models' parameters,
the simulation size, the grid spec, and discrete distributions with their
allocators.  Nothing here imports NumPy (``gamma_t`` and ``mu_over_beta``
load ``gaussian`` when read), so ``allocate`` and every refused record run
without it.  Each name is also importable from the module that uses it:
``grid``, ``linear``, ``probit``, ``gaussian`` or ``oracle``.

Every record type of the package derives from :class:`_Record`, a frozen
record base that costs about as much to define as a plain class.  Its
fields are the class's annotated names, in order, and class attributes
give their defaults.  A record is built from positional or keyword
arguments (a missing, unknown or repeated one raises TypeError), then
checked by the class's ``__post_init__`` if it has one.  It compares and
hashes by type and fields, prints as ``LeverDelta(delta_alpha=0.01,
delta_r2=0.02)``, and raises AttributeError on assignment or deletion.
It is not a tuple: it does not equal one, and cannot be indexed or unpacked.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import combinations, takewhile

from .errors import DomainError, RegimeError

__all__ = [
    "check_alpha_half", "check_alpha_open", "check_alpha_open_closed", "check_alpha_closed",
    "check_bounds_eps", "PAR_OK", "PAR_REGIME", "PAR_NOISE", "PAR_STATUSES",
    "LeverDelta", "CostModel", "cost_benefit", "MAX_CELLS", "Model", "MODELS", "MODEL_NAMES",
    "LinearParams", "ProbitParams", "model_params", "MIN_SAMPLES", "MAX_SAMPLES", "SimConfig",
    "GridSpec",
    "Atom", "DiscreteDistribution", "Allocation", "greedy_allocate", "brute_force_allocate",
]


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


# The four access-level domains of the models and oracles.  The linear closed form is exact
# up to alpha* = Phi(mu/(gamma_s beta_norm)) >= 1/2: its regime (0, 0.5) is a choice.
check_alpha_half = _alpha_check(
    lambda a: 0.0 < a < 0.5, "(0, 0.5)", RegimeError,
    " (above 0.5 the positivity constraint binds and the closed form does not apply)")
check_alpha_open = _alpha_check(lambda a: 0.0 < a < 1.0, "(0, 1)")
check_alpha_open_closed = _alpha_check(lambda a: 0.0 < a <= 1.0, "(0, 1]")
check_alpha_closed = _alpha_check(lambda a: 0.0 <= a <= 1.0, "[0, 1]")


def check_bounds_eps(alpha: float, eps: float) -> None:
    """The probit bounds' checks of alpha, in (0, 1), then of their slack eps, in (0, 0.1)."""
    check_alpha_open(alpha)
    if math.isnan(eps) or not 0.0 < eps < 0.1:
        raise DomainError(f"eps must lie in (0, 0.1), got {eps!r}")


_set = object.__setattr__


class _Record:
    """Base of the package's frozen records (see the module docstring).

    The methods are shared by every record; ``__init_subclass__`` reads
    each class's fields once, when the class is made.
    """

    _fields = ()
    _checked = False

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        i = 0
        for name in names:  # by index: a zip costs about a fifth more per record
            _set(self, name, args[i])
            i += 1
        if self._checked:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from arguments that are not all the fields by position."""
        names, defaults, what = cls._fields, vars(cls), cls.__qualname__ + "()"
        if len(args) > len(names):
            raise TypeError(f"{what} takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        bound = dict(zip(names, args))
        for name, val in kwargs.items():
            if name not in names:
                raise TypeError(f"{what} got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{what} got multiple values for argument {name!r}")
            bound[name] = val
        missing = [name for name in names if name not in bound and name not in defaults]
        if missing:
            raise TypeError(f"{what} missing required argument(s): "
                            f"{', '.join(map(repr, missing))}")
        return [bound[name] if name in bound else defaults[name] for name in names]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LeverDelta(_Record):
    """Proposed increments to the two policy levers.

    delta_alpha raises the access budget; delta_r2 raises the prediction
    level gamma_s.  A ratio of marginal gains needs delta_r2 > 0.
    """

    delta_alpha: float
    delta_r2: float

    def __post_init__(self) -> None:
        for name in ("delta_alpha", "delta_r2"):
            val = getattr(self, name)
            if math.isnan(val) or val < 0.0 or not math.isfinite(val):
                raise DomainError(f"{name} must be finite and >= 0, got {val!r}")


# Largest alpha_count * gamma_count a spec may ask for.  A sweep holds every
# cell in memory at once; 10**6 cells take about 0.5 GB with their output.
MAX_CELLS = 10**6


class CostModel(_Record):
    """Marginal costs of the two levers: raising access and raising
    prediction by their respective unit increments."""

    cost_access: float
    cost_prediction: float

    def __post_init__(self) -> None:
        for name in ("cost_access", "cost_prediction"):
            val = getattr(self, name)
            if math.isnan(val) or not val > 0.0 or math.isinf(val):
                raise DomainError(f"{name} must be finite and positive, got {val!r}")


def cost_benefit(par: float, cm: CostModel) -> float:
    """Cost-benefit ratio of expanding access: par * cost_prediction / cost_access.

    Above 1, access is the cost-efficient lever; below 1, prediction is.
    """
    if math.isnan(par) or not par > 0.0:
        raise DomainError(f"par must be positive, got {par!r}")
    cb = par * cm.cost_prediction / cm.cost_access
    if not math.isfinite(cb):
        raise DomainError(f"cost-benefit ratio of par {par!r} overflows")
    return cb


# One model's functions, each taking its model_params first: value(p, alpha),
# par(p, alpha, deltas), par_array(p, gamma_s, alpha, deltas) -> (par, status),
# bounds(p, alpha, deltas) (probit's also takes eps), simulate(p, alpha, SimConfig) -> Estimate,
# and second_moment(p, alpha) -> (m, u), with m * u**2 the mean square of one simulated sample.
Model = namedtuple("Model", "value par par_array bounds simulate second_moment")

# The package imports a module when it is first read from it (PEP 562), so each
# function imports its module, and NumPy if that needs it, at its first call.
_package = sys.modules[__package__]

MODELS = {
    "linear": Model(
        lambda p, a: _package.linear.value_linear(p, a),
        lambda p, a, d: _package.linear.par_linear_exact(p, a, d),
        lambda p, g, a, d: _package.linear.par_linear_array(p.mu, p.beta_norm, g, a, d),
        lambda p, a, d: _package.linear.par_linear_bounds(p, a, d),
        lambda p, a, cfg: _package.oracle.simulate_linear_value(p, a, cfg),
        lambda p, a: _package.oracle.linear_second_moment(p, a)),
    # A simulated probit sample is 0 or 1, so its mean square is the value, in the unit 1.
    "probit": Model(
        lambda p, a: _package.probit.value_probit(p, a),
        lambda p, a, d: _package.probit.par_probit_exact(p, a, d),
        lambda p, g, a, d: _package.probit.par_probit_array(p.base_rate, g, a, d),
        lambda p, a, d, *eps: _package.probit.par_probit_bounds(p, a, d, *eps),
        lambda p, a, cfg: _package.oracle.simulate_probit_value(p, a, cfg),
        lambda p, a: (_package.probit.value_probit(p, a), 1.0)),
}
# The CLI's --model choices.
MODEL_NAMES = tuple(MODELS)

# Per-cell status codes of a model's par_array, and the grid status each indexes: the ratio
# is defined, a lever step leaves the model's regime, the gain is too small to divide by.
PAR_OK, PAR_REGIME, PAR_NOISE = 0, 1, 2
PAR_STATUSES = ("ok", "skipped-regime", "skipped-degenerate")


class _ModelParams(_Record):
    """Base of the two models' parameters: every field is checked for NaN, then
    each field other than gamma_s for (0, ``_upper``), then gamma_s for [0, 1]."""

    _upper, _domain = math.inf, "be finite and positive"

    def __post_init__(self) -> None:
        for name in self._fields:
            _reject_nan(getattr(self, name), name)
        for name in self._fields:
            val = getattr(self, name)
            if name != "gamma_s" and not 0.0 < val < self._upper:
                raise DomainError(f"{name} must {self._domain}, got {val!r}")
        if not 0.0 <= self.gamma_s <= 1.0:
            raise DomainError(f"gamma_s must lie in [0, 1], got {self.gamma_s!r}")

    @property
    def gamma_t(self) -> float:
        from . import gaussian  # NumPy, loaded only when a model computes
        return float(gaussian.conditional_sd(self.gamma_s))

    def with_gamma_s(self, gamma_s: float):
        return type(self)(*(gamma_s if n == "gamma_s" else getattr(self, n) for n in self._fields))


class LinearParams(_ModelParams):
    """Population parameters of the linear welfare model.

    mu: mean welfare improvement; beta_norm: standard deviation of the
    welfare improvement; gamma_s: observable share of that deviation
    (the square root of the model's r squared).
    """

    mu: float
    beta_norm: float
    gamma_s: float


class ProbitParams(_ModelParams):
    """Population parameters of the probit welfare model.

    base_rate is Pr[w = 1]; gamma_s is the observable share of the latent
    score's standard deviation (square root of the latent r squared).
    """

    base_rate: float
    gamma_s: float

    _upper, _domain = 1.0, "lie in (0, 1)"

    @property
    def mu_over_beta(self) -> float:
        """Latent mean offset implied by the base rate: quantile(base_rate)."""
        from . import gaussian
        return gaussian.quantile(self.base_rate)


def model_params(model: str, gamma_s: float, mu: float | None = None,
                 beta_norm: float | None = None, base_rate: float | None = None):
    """The parameters of one model at gamma_s: LinearParams from mu and
    beta_norm, or ProbitParams from base_rate.  An unknown model, a missing
    parameter and a parameter of the other model raise DomainError."""
    if model == "linear":
        if base_rate is not None:
            raise DomainError("base_rate is only valid with the probit model")
        if mu is None or beta_norm is None:
            raise DomainError("linear model requires mu and beta_norm")
        return LinearParams(mu, beta_norm, gamma_s)
    if model == "probit":
        if mu is not None or beta_norm is not None:
            raise DomainError("mu/beta_norm are only valid with the linear model")
        if base_rate is None:
            raise DomainError("probit model requires base_rate")
        return ProbitParams(base_rate, gamma_s)
    raise DomainError(f"model must be {' or '.join(map(repr, MODEL_NAMES))}, got {model!r}")


MIN_SAMPLES = 10_000
# Ceiling on one simulation: measured at 1e8 samples, probit on two cores, one
# simulation takes about 0.08 s at alpha = 0.02 and 2.4 s at alpha = 1 (every
# sample is then treated), so 1e9 takes about 1 s and 25 s.
MAX_SAMPLES = 10**9


class SimConfig(_Record):
    """Simulation size, from MIN_SAMPLES to MAX_SAMPLES, and a 64-bit seed."""

    samples: int
    seed: int

    def __post_init__(self) -> None:
        from numbers import Integral  # here, so that import partarget.cli does not load it
        for name in ("samples", "seed"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, Integral):
                raise DomainError(f"{name} must be an integer, got {val!r}")
        if not MIN_SAMPLES <= self.samples <= MAX_SAMPLES:
            raise DomainError(f"samples must lie in [{MIN_SAMPLES}, {MAX_SAMPLES}], "
                              f"got {self.samples!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed!r}")


def _axis(lo: float, hi: float, n: int, spacing: str) -> tuple[float, ...]:
    """n points from lo to hi, evenly or geometrically spaced, ends exact."""
    if spacing == "log":
        ratio = hi / lo
        vals = [lo * ratio ** (i / (n - 1)) for i in range(n)]
    else:
        vals = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    vals[0], vals[-1] = float(lo), float(hi)
    return tuple(vals)


class GridSpec(_Record):
    """Full description of one grid sweep; echoed into every output."""

    model: str
    alpha_lo: float
    alpha_hi: float
    alpha_count: int
    gamma_lo: float
    gamma_hi: float
    gamma_count: int
    deltas: LeverDelta
    costs: CostModel
    mu: float | None = None
    beta_norm: float | None = None
    base_rate: float | None = None
    clip_lo: float = 0.5
    clip_hi: float = 2.0
    alpha_spacing: str = "log"

    def __post_init__(self) -> None:
        if self.alpha_count < 2 or self.gamma_count < 2:
            raise DomainError("each axis needs at least 2 cells")
        if self.alpha_count * self.gamma_count > MAX_CELLS:
            raise DomainError(f"grid has {self.alpha_count} x {self.gamma_count} cells; "
                              f"at most {MAX_CELLS} are allowed")
        if self.deltas.delta_alpha == 0.0:
            raise DomainError("delta_alpha must be positive for a grid: a zero access "
                              "step gives a zero PAR, which cannot be priced")
        if not 0.0 < self.alpha_lo <= self.alpha_hi < 1.0:
            raise DomainError(f"alpha range [{self.alpha_lo!r}, {self.alpha_hi!r}] "
                              "must lie in (0, 1)")
        if not 0.0 <= self.gamma_lo <= self.gamma_hi <= 1.0:
            raise DomainError(f"gamma range [{self.gamma_lo!r}, {self.gamma_hi!r}] "
                              "must lie in [0, 1]")
        ratio = self.costs.cost_prediction / self.costs.cost_access
        if not 0.0 < ratio < math.inf:
            raise DomainError(f"cost ratio cost_prediction / cost_access = {ratio!r} "
                              "must be finite and positive")
        if not self.clip_lo < self.clip_hi:
            raise DomainError("clip_lo must be strictly below clip_hi")
        if self.alpha_spacing not in ("log", "linear"):
            raise DomainError("alpha_spacing must be 'log' or 'linear', "
                              f"got {self.alpha_spacing!r}")
        # The model parameters are shared by every cell, so a bad one is
        # refused here rather than turning each cell into a skip.
        self.params()
        # What the axes and the JSON output cannot hold.
        for name, lo, hi in (("alpha", self.alpha_lo, self.alpha_hi),
                             ("gamma", self.gamma_lo, self.gamma_hi)):
            if lo == hi:
                raise DomainError(f"{name} range is degenerate with count >= 2")
        if self.alpha_spacing == "log" and not self.alpha_hi / self.alpha_lo < math.inf:
            raise DomainError(f"alpha range [{self.alpha_lo!r}, {self.alpha_hi!r}] is too "
                              "wide for log spacing: alpha_hi / alpha_lo overflows")
        if math.isinf(self.clip_lo) or math.isinf(self.clip_hi):
            raise DomainError(f"clip bounds [{self.clip_lo!r}, {self.clip_hi!r}] "
                              "must be finite")

    def params(self):
        """The model's parameters at gamma_lo (:func:`model_params`)."""
        return model_params(self.model, self.gamma_lo, self.mu, self.beta_norm,
                            self.base_rate)

    def alphas(self) -> tuple[float, ...]:
        return _axis(self.alpha_lo, self.alpha_hi, self.alpha_count, self.alpha_spacing)

    def gammas(self) -> tuple[float, ...]:
        return _axis(self.gamma_lo, self.gamma_hi, self.gamma_count, "linear")

    def to_dict(self) -> dict:
        """The fields in order, with deltas and costs flattened into theirs."""
        d = {}
        for name, val in zip(self._fields, self._values()):
            if isinstance(val, _Record):
                d.update(zip(val._fields, val._values()))
            else:
                d[name] = val
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """Build a spec from its :meth:`to_dict` form, as read from a JSON
        spec file or gathered from the ``grid`` flags.

        Types are checked strictly: a count must be an integer and every
        other numeric field a number, so booleans, strings and fractional
        counts are refused rather than coerced.  Unknown keys are ignored.
        """
        if not isinstance(d, dict):
            raise DomainError(f"grid spec must be a JSON object, got {type(d).__name__}")

        def required(name: str):
            if name not in d:
                raise DomainError(f"grid spec is missing field {name!r}")
            return d[name]

        def count(name: str) -> int:
            val = required(name)
            if isinstance(val, bool) or not isinstance(val, int):
                raise DomainError(f"grid spec field {name!r} must be an integer, got {val!r}")
            return val

        def number(name: str, default: float | None = None) -> float:
            val = required(name) if default is None else d.get(name, default)
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise DomainError(f"grid spec field {name!r} must be a number, got {val!r}")
            try:
                return float(val)
            except OverflowError as exc:
                raise DomainError(f"grid spec field {name!r} is out of range") from exc

        def optional(name: str) -> float | None:
            return None if d.get(name) is None else number(name)

        return cls(
            model=required("model"),
            alpha_lo=number("alpha_lo"),
            alpha_hi=number("alpha_hi"),
            alpha_count=count("alpha_count"),
            gamma_lo=number("gamma_lo"),
            gamma_hi=number("gamma_hi"),
            gamma_count=count("gamma_count"),
            deltas=LeverDelta(number("delta_alpha"), number("delta_r2")),
            costs=CostModel(number("cost_access"), number("cost_prediction")),
            mu=optional("mu"),
            beta_norm=optional("beta_norm"),
            base_rate=optional("base_rate"),
            clip_lo=number("clip_lo", cls.clip_lo),
            clip_hi=number("clip_hi", cls.clip_hi),
            alpha_spacing=d.get("alpha_spacing", cls.alpha_spacing),
        )


_MASS_TOL = 1e-12


class Atom(_Record):
    """One support point of a discrete feature distribution."""

    label: str
    mass: float
    cond_mean: float


class DiscreteDistribution(_Record):
    """A finitely supported feature distribution with conditional means."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise DomainError("distribution must have at least one atom")
        labels = [a.label for a in self.atoms]
        if len(set(labels)) != len(labels):
            raise DomainError("atom labels must be distinct")
        for a in self.atoms:
            if not a.mass > 0.0 or math.isnan(a.mass):
                raise DomainError(f"atom {a.label!r} has nonpositive mass {a.mass!r}")
            if math.isnan(a.cond_mean) or math.isinf(a.cond_mean):
                raise DomainError(f"atom {a.label!r} has non-finite mean")
        total = math.fsum(a.mass for a in self.atoms)
        if abs(total - 1.0) > _MASS_TOL:
            raise DomainError(f"atom masses sum to {total!r}, not 1")


class Allocation(_Record):
    """A deterministic 0/1 assignment over atoms and its total welfare."""

    treated: tuple[str, ...]
    treated_mass: float
    welfare: float


def greedy_allocate(dist: DiscreteDistribution, alpha: float) -> Allocation:
    """Quantile-threshold policy on a discrete distribution.

    Treats atoms in descending conditional mean (stable on ties) while
    the mean is positive and the running mass stays within alpha; stops
    at the first atom that would overflow the budget.
    """
    check_alpha_closed(alpha)
    ranked = sorted(dist.atoms, key=lambda a: -a.cond_mean)
    masses = [a.mass for a in takewhile(lambda a: a.cond_mean > 0.0, ranked)]
    # The exact prefix mass (so a budget equal to a prefix sum saturates)
    # grows with the prefix, so the longest prefix within alpha is a bisection.
    n = bisect_right(range(1, len(masses) + 1), alpha, key=lambda i: math.fsum(masses[:i]))
    return Allocation(
        treated=tuple(a.label for a in ranked[:n]),
        treated_mass=math.fsum(masses[:n]),
        welfare=math.fsum(a.mass * a.cond_mean for a in ranked[:n]),
    )


def brute_force_allocate(dist: DiscreteDistribution, alpha: float) -> Allocation:
    """Exhaustive optimum over all deterministic assignments (n <= 20)."""
    check_alpha_closed(alpha)
    n = len(dist.atoms)
    if n > 20:
        raise DomainError(f"brute force supports at most 20 atoms, got {n}")
    best = Allocation(treated=(), treated_mass=0.0, welfare=0.0)
    for size in range(1, n + 1):
        for subset in combinations(dist.atoms, size):
            mass = math.fsum(a.mass for a in subset)
            if mass > alpha:
                continue
            welfare = math.fsum(a.mass * a.cond_mean for a in subset)
            if welfare > best.welfare:
                best = Allocation(
                    treated=tuple(a.label for a in subset),
                    treated_mass=mass,
                    welfare=welfare,
                )
    return best
