"""Cost-benefit grid sweeps and indifference-contour extraction.

A sweep evaluates the exact finite-difference prediction-access ratio at
every (alpha, gamma_s) cell of a rectangular grid with one call of the
model's array core (``par_linear_array`` or ``par_probit_array``),
converts it to a cost-benefit ratio with the given lever costs, and clips
a copy for display, all as array operations.  Cells whose model
preconditions fail carry an explicit skip status, mapped from the core's
status codes, instead of fabricated numbers.  The indifference contour
(where the cost-benefit ratio crosses 1) is interpolated per alpha column.
The cells are one NumPy record array, which the contour search and the
serializers read column by column.

Everything is deterministic: cells are laid out in row-major order with
alpha as the outer axis, and serialization uses fixed formats, so two
sweeps of the same spec are byte-identical.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import DomainError, PartargetError
from .linear import (
    PAR_OK,
    PAR_REGIME,
    LeverDelta,
    LinearParams,
    par_linear_array,
)
from .probit import ProbitParams, par_probit_array

__all__ = [
    "CostModel",
    "MAX_CELLS",
    "GridSpec",
    "GridResult",
    "cost_benefit",
    "sweep_grid",
    "extract_indifference_contour",
    "serialize_grid",
]

STATUS_OK = "ok"
STATUS_SKIPPED_DEGENERATE = "skipped-degenerate"
STATUS_SKIPPED_REGIME = "skipped-regime"

CSV_HEADER = "alpha,gamma_s,par,cost_benefit,cost_benefit_clipped,status"

# Largest alpha_count * gamma_count a spec may ask for.  A sweep holds every
# cell in memory at once; 10**6 cells take about 0.5 GB with their output.
MAX_CELLS = 10**6


@dataclass(frozen=True)
class CostModel:
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


def _axis(name: str, lo: float, hi: float, n: int, spacing: str) -> tuple[float, ...]:
    """n points from lo to hi, evenly or geometrically spaced, ends exact."""
    if lo == hi:
        raise DomainError(f"{name} range is degenerate with count >= 2")
    if spacing == "log":
        ratio = hi / lo
        vals = [lo * ratio ** (i / (n - 1)) for i in range(n)]
    else:
        vals = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    vals[0], vals[-1] = lo, hi
    return tuple(vals)


@dataclass(frozen=True)
class GridSpec:
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
        if self.model not in ("linear", "probit"):
            raise DomainError(f"model must be 'linear' or 'probit', got {self.model!r}")
        if self.alpha_count < 2 or self.gamma_count < 2:
            raise DomainError("each axis needs at least 2 cells")
        if self.alpha_count * self.gamma_count > MAX_CELLS:
            raise DomainError(
                f"grid has {self.alpha_count} x {self.gamma_count} cells; "
                f"at most {MAX_CELLS} are allowed"
            )
        if self.deltas.delta_alpha == 0.0:
            raise DomainError(
                "delta_alpha must be positive for a grid: a zero access step "
                "gives a zero PAR, which cannot be priced"
            )
        if not 0.0 < self.alpha_lo <= self.alpha_hi < 1.0:
            raise DomainError(
                f"alpha range [{self.alpha_lo!r}, {self.alpha_hi!r}] must lie in (0, 1)"
            )
        if not 0.0 <= self.gamma_lo <= self.gamma_hi <= 1.0:
            raise DomainError(
                f"gamma range [{self.gamma_lo!r}, {self.gamma_hi!r}] must lie in [0, 1]"
            )
        ratio = self.costs.cost_prediction / self.costs.cost_access
        if not 0.0 < ratio < math.inf:
            raise DomainError(
                f"cost ratio cost_prediction / cost_access = {ratio!r} must be "
                "finite and positive"
            )
        if not self.clip_lo < self.clip_hi:
            raise DomainError("clip_lo must be strictly below clip_hi")
        if self.alpha_spacing not in ("log", "linear"):
            raise DomainError(
                f"alpha_spacing must be 'log' or 'linear', got {self.alpha_spacing!r}"
            )
        # The model parameters are shared by every cell, so a bad one is
        # refused here rather than turning each cell into a skip.
        if self.model == "linear":
            if self.mu is None or self.beta_norm is None:
                raise DomainError("linear model requires mu and beta_norm")
            LinearParams(self.mu, self.beta_norm, self.gamma_lo)
        else:
            if self.base_rate is None:
                raise DomainError("probit model requires base_rate")
            ProbitParams(self.base_rate, self.gamma_lo)

    def alphas(self) -> tuple[float, ...]:
        return _axis("alpha", self.alpha_lo, self.alpha_hi, self.alpha_count,
                     self.alpha_spacing)

    def gammas(self) -> tuple[float, ...]:
        return _axis("gamma", self.gamma_lo, self.gamma_hi, self.gamma_count, "linear")

    def to_dict(self) -> dict:
        """The fields in order, with deltas and costs flattened into theirs."""
        d = {}
        for f in fields(self):
            val = getattr(self, f.name)
            d.update(asdict(val) if is_dataclass(val) else {f.name: val})
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """Rebuild a spec from its :meth:`to_dict` form, as read from JSON.

        Types are checked strictly: a count must be an integer and every
        other numeric field a number, so booleans, strings and fractional
        counts are refused rather than coerced.
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
            clip_lo=number("clip_lo", 0.5),
            clip_hi=number("clip_hi", 2.0),
            alpha_spacing=d.get("alpha_spacing", "log"),
        )


@dataclass(frozen=True)
class GridResult:
    """Evaluated sweep and its interpolated indifference contour.

    ``cells`` is a NumPy record array with the fields of ``CSV_HEADER``, one
    record per cell in row-major order with alpha outermost, so
    ``cells.par`` is a column and ``cells[k].par`` one cell's value.
    Numeric fields are NaN where the status is a skip.
    """

    spec: GridSpec
    alphas: tuple[float, ...]
    gammas: tuple[float, ...]
    cells: np.recarray
    contour: tuple[tuple[float, float], ...] = ()


# Grid status of each par_*_array status code, indexed by the code
# (PAR_OK, PAR_REGIME, PAR_NOISE are 0, 1, 2).
_STATUSES = np.array([STATUS_OK, STATUS_SKIPPED_REGIME, STATUS_SKIPPED_DEGENERATE])


def sweep_grid(spec: GridSpec) -> GridResult:
    """Evaluate the exact PAR and cost-benefit ratio at every grid cell, each
    bit-equal to its scalar ``par_*_exact`` and :func:`cost_benefit` call.
    A lever step that leaves every ratio undefined raises its error."""
    alphas = spec.alphas()
    gammas = spec.gammas()
    axis_a = np.repeat(alphas, len(gammas))
    axis_g = np.tile(gammas, len(alphas))
    if spec.model == "linear":
        par, status = par_linear_array(spec.mu, spec.beta_norm, axis_g, axis_a, spec.deltas)
    else:
        par, status = par_probit_array(spec.base_rate, axis_g, axis_a, spec.deltas)
    with np.errstate(over="ignore"):
        cb = par * spec.costs.cost_prediction / spec.costs.cost_access
    # A ratio that is not positive, or whose price is not finite, cannot be
    # priced (cost_benefit refuses both).
    ok = (status == PAR_OK) & (par > 0.0) & np.isfinite(cb)
    status = np.where((status == PAR_OK) & ~ok, PAR_REGIME, status)
    if not ok.any():
        raise PartargetError(
            "every cell of the grid is infeasible for the chosen model; "
            "check the alpha/gamma ranges against the model's domain"
        )
    par, cb = np.where(ok, par, np.nan), np.where(ok, cb, np.nan)
    clipped = np.minimum(np.maximum(cb, spec.clip_lo), spec.clip_hi)
    cells = np.rec.fromarrays([axis_a, axis_g, par, cb, clipped, _STATUSES[status]],
                              names=CSV_HEADER)
    return GridResult(spec, alphas, gammas, cells, _contour(cells, len(alphas), len(gammas)))


def extract_indifference_contour(g: GridResult) -> tuple[tuple[float, float], ...]:
    """Interpolated (alpha, gamma_s) points where cost_benefit crosses 1.

    Within each alpha column, adjacent ok cells bracketing 1 contribute a
    linearly interpolated gamma_s, an ok cell at exactly 1 its own gamma_s
    (if its upper neighbour is ok or it is the last).  Points are in
    row-major order.  An empty tuple is a valid result.
    """
    return _contour(g.cells, len(g.alphas), len(g.gammas))


def _contour(cells: np.recarray, n_alpha: int, n_gamma: int) -> tuple:
    if n_alpha < 2 or n_gamma < 2:
        raise DomainError("contour extraction needs at least 2 cells per axis")
    shape = (n_alpha, n_gamma)
    d = np.where(cells.status == STATUS_OK, cells.cost_benefit - 1.0, np.nan).reshape(shape)
    gs = cells.gamma_s.reshape(shape)
    # Each cell's upper neighbour along gamma_s.  The last column gets a
    # finite 0, so that only its exact hit counts; a skipped neighbour's NaN
    # rules out both a hit and a crossing.
    d_hi = np.pad(d[:, 1:], ((0, 0), (0, 1)))
    g_hi = np.pad(gs[:, 1:], ((0, 0), (0, 1)))
    with np.errstate(over="ignore"):
        cross = d * d_hi < 0.0
        i, j = np.nonzero(cross | ((d == 0.0) & ~np.isnan(d_hi)))
        a, b, lo, hi = d[i, j], d_hi[i, j], gs[i, j], g_hi[i, j]
        # A hit gets frac = 0 and so lo itself.
        frac = np.divide(a, a - b, out=np.zeros_like(a), where=cross[i, j])
        gamma = lo + frac * (hi - lo)
    return tuple(zip(cells.alpha.reshape(shape)[i, j].tolist(), gamma.tolist()))


def _json_number(x: float) -> str:
    """A float as json.dumps writes it, with null for NaN."""
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
_JSON_CELL = ('%s    {\n      "alpha": %s,\n      "gamma_s": %s,\n      "par": %s,\n'
              '      "cost_benefit": %s,\n      "cost_benefit_clipped": %s,\n'
              '      "status": "%s"\n    }')


def serialize_grid(g: GridResult, format: str) -> bytes:
    """Render a grid as CSV (cells only) or JSON (cells, contour, spec echo).

    The JSON equals ``json.dumps(doc, indent=2, allow_nan=False)`` plus a
    newline, but its fixed-schema cells are written directly, not as dicts.
    """
    if format not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    out = io.BytesIO()
    # One row of Python floats and a status string per cell, in cell order.
    rows = zip(*(g.cells[name].tolist() for name in g.cells.dtype.names))
    if format == "csv":
        out.write(CSV_HEADER.encode("utf-8") + b"\n")
        for row in rows:
            out.write((_CSV_ROW % row).encode("utf-8"))
    else:
        doc = {"spec": g.spec.to_dict(), "alphas": list(g.alphas),
               "gammas": list(g.gammas), "cells": [],
               "contour": [[a, gm] for a, gm in g.contour]}
        head, _, tail = json.dumps(doc, indent=2, allow_nan=False).partition('"cells": []')
        out.write(head.encode("utf-8") + b'"cells": [\n')
        sep = ""
        for *nums, status in rows:
            out.write((_JSON_CELL % (sep, *map(_json_number, nums), status)).encode("utf-8"))
            sep = ",\n"
        out.write(b"\n  ]" + tail.encode("utf-8") + b"\n")
    return out.getvalue()
