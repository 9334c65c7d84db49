"""Cost-benefit grid sweeps and indifference-contour extraction.

A sweep evaluates the exact finite-difference prediction-access ratio at
every (alpha, gamma_s) cell of a rectangular grid with one call of the
model's array core (``par_linear_array`` or ``par_probit_array``),
converts it to a cost-benefit ratio with the given lever costs, and clips
a copy for display, all as array operations.  Cells whose model
preconditions fail carry an explicit skip status, mapped from the core's
status codes, instead of fabricated numbers.  The indifference contour
(where the cost-benefit ratio crosses 1) is interpolated per alpha column.

Everything is deterministic: cells are laid out in row-major order with
alpha as the outer axis, and serialization uses fixed formats, so two
sweeps of the same spec are byte-identical.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, PartargetError
from .linear import (
    PAR_NOISE,
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
    "GridCell",
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
    return par * cm.cost_prediction / cm.cost_access


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
        return {
            "model": self.model,
            "alpha_lo": self.alpha_lo,
            "alpha_hi": self.alpha_hi,
            "alpha_count": self.alpha_count,
            "gamma_lo": self.gamma_lo,
            "gamma_hi": self.gamma_hi,
            "gamma_count": self.gamma_count,
            "delta_alpha": self.deltas.delta_alpha,
            "delta_r2": self.deltas.delta_r2,
            "cost_access": self.costs.cost_access,
            "cost_prediction": self.costs.cost_prediction,
            "mu": self.mu,
            "beta_norm": self.beta_norm,
            "base_rate": self.base_rate,
            "clip_lo": self.clip_lo,
            "clip_hi": self.clip_hi,
            "alpha_spacing": self.alpha_spacing,
        }

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


@dataclass(frozen=True, slots=True)
class GridCell:
    """One evaluated grid cell; numeric fields are NaN when skipped."""

    alpha: float
    gamma_s: float
    par: float
    cost_benefit: float
    cost_benefit_clipped: float
    status: str


@dataclass(frozen=True)
class GridResult:
    """Evaluated sweep: cells in row-major order with alpha outermost,
    plus the interpolated indifference contour."""

    spec: GridSpec
    alphas: tuple[float, ...]
    gammas: tuple[float, ...]
    cells: tuple[GridCell, ...]
    contour: tuple[tuple[float, float], ...] = field(default=())

    def cell(self, i_alpha: int, i_gamma: int) -> GridCell:
        return self.cells[i_alpha * len(self.gammas) + i_gamma]


# Grid status of each par_*_array status code.
_STATUSES = {PAR_OK: STATUS_OK, PAR_REGIME: STATUS_SKIPPED_REGIME,
             PAR_NOISE: STATUS_SKIPPED_DEGENERATE}


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
    # A ratio that is not positive cannot be priced (cost_benefit refuses it).
    status = np.where((status == PAR_OK) & ~(par > 0.0), PAR_REGIME, status)
    par = np.where(status == PAR_OK, par, np.nan)
    if not (status == PAR_OK).any():
        raise PartargetError(
            "every cell of the grid is infeasible for the chosen model; "
            "check the alpha/gamma ranges against the model's domain"
        )
    cb = par * spec.costs.cost_prediction / spec.costs.cost_access
    clipped = np.minimum(np.maximum(cb, spec.clip_lo), spec.clip_hi)
    # The cells share the axes' float objects rather than one copy each.
    cells = tuple(map(GridCell, (a for a in alphas for _ in gammas), gammas * len(alphas),
                      par.tolist(), cb.tolist(), clipped.tolist(),
                      map(_STATUSES.get, status.tolist())))
    result = GridResult(spec=spec, alphas=alphas, gammas=gammas, cells=cells)
    return replace(result, contour=extract_indifference_contour(result))


def extract_indifference_contour(g: GridResult) -> tuple[tuple[float, float], ...]:
    """Interpolated (alpha, gamma_s) points where cost_benefit crosses 1.

    Within each alpha column, adjacent ok cells bracketing 1 contribute a
    linearly interpolated gamma_s.  An empty tuple is a valid result.
    """
    if len(g.alphas) < 2 or len(g.gammas) < 2:
        raise DomainError("contour extraction needs at least 2 cells per axis")
    points: list[tuple[float, float]] = []
    for i, alpha in enumerate(g.alphas):
        for j in range(len(g.gammas) - 1):
            lo, hi = g.cell(i, j), g.cell(i, j + 1)
            if lo.status != STATUS_OK or hi.status != STATUS_OK:
                continue
            a, b = lo.cost_benefit - 1.0, hi.cost_benefit - 1.0
            if a == 0.0:
                points.append((alpha, lo.gamma_s))
            elif a * b < 0.0:
                frac = a / (a - b)
                points.append((alpha, lo.gamma_s + frac * (hi.gamma_s - lo.gamma_s)))
        last = g.cell(i, len(g.gammas) - 1)
        if last.status == STATUS_OK and last.cost_benefit == 1.0:
            points.append((alpha, last.gamma_s))
    return tuple(points)


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
    out = io.BytesIO()
    if format == "csv":
        out.write(CSV_HEADER.encode("utf-8") + b"\n")
        for c in g.cells:
            out.write((_CSV_ROW % (c.alpha, c.gamma_s, c.par, c.cost_benefit,
                                   c.cost_benefit_clipped, c.status)).encode("utf-8"))
    elif format == "json":
        doc = {"spec": g.spec.to_dict(), "alphas": list(g.alphas),
               "gammas": list(g.gammas), "cells": [],
               "contour": [[a, gm] for a, gm in g.contour]}
        head, _, tail = json.dumps(doc, indent=2, allow_nan=False).partition('"cells": []')
        out.write(head.encode("utf-8") + b'"cells": [\n')
        num, sep = _json_number, ""
        for c in g.cells:
            out.write((_JSON_CELL % (sep, num(c.alpha), num(c.gamma_s), num(c.par),
                                     num(c.cost_benefit), num(c.cost_benefit_clipped),
                                     c.status)).encode("utf-8"))
            sep = ",\n"
        out.write(b"\n  ]" + tail.encode("utf-8") + b"\n")
    else:
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    return out.getvalue()
