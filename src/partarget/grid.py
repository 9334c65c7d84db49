"""Cost-benefit grid sweeps and indifference-contour extraction.

A sweep evaluates the exact finite-difference prediction-access ratio at
every (alpha, gamma_s) cell of a rectangular grid, converts it to a
cost-benefit ratio with the given lever costs, and clips a copy for
display.  Cells whose model preconditions fail carry an explicit skip
status instead of fabricated numbers.  The indifference contour (where
the cost-benefit ratio crosses 1) is interpolated per alpha column.

Everything is deterministic: cells are evaluated in row-major order with
alpha as the outer axis, and serialization uses fixed formats, so two
sweeps of the same spec are byte-identical.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PartargetError,
)
from .linear import LeverDelta, LinearParams, par_linear_exact
from .probit import (
    PAR_NOISE,
    PAR_OK,
    PAR_REGIME,
    ProbitParams,
    par_probit_array,
)

__all__ = [
    "CostModel",
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
        n = self.alpha_count
        lo, hi = self.alpha_lo, self.alpha_hi
        if lo == hi:
            raise DomainError("alpha range is degenerate with count >= 2")
        if self.alpha_spacing == "log":
            ratio = hi / lo
            vals = [lo * ratio ** (i / (n - 1)) for i in range(n)]
        else:
            vals = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        vals[0], vals[-1] = lo, hi
        return tuple(vals)

    def gammas(self) -> tuple[float, ...]:
        n = self.gamma_count
        lo, hi = self.gamma_lo, self.gamma_hi
        if lo == hi:
            raise DomainError("gamma range is degenerate with count >= 2")
        vals = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        vals[0], vals[-1] = lo, hi
        return tuple(vals)

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


@dataclass(frozen=True)
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


def _skipped(alpha: float, gamma: float, status: str) -> GridCell:
    return GridCell(alpha, gamma, math.nan, math.nan, math.nan, status)


def _priced_cell(spec: GridSpec, alpha: float, gamma: float, par: float) -> GridCell:
    try:
        cb = cost_benefit(par, spec.costs)
    except DomainError:
        return _skipped(alpha, gamma, STATUS_SKIPPED_REGIME)
    clipped = min(max(cb, spec.clip_lo), spec.clip_hi)
    return GridCell(alpha, gamma, par, cb, clipped, STATUS_OK)


def _linear_cell(spec: GridSpec, alpha: float, gamma: float) -> GridCell:
    try:
        p = LinearParams(spec.mu, spec.beta_norm, gamma)
        par = par_linear_exact(p, alpha, spec.deltas)
    except (DegenerateLeverError, NumericsError):
        return _skipped(alpha, gamma, STATUS_SKIPPED_DEGENERATE)
    except DomainError:
        return _skipped(alpha, gamma, STATUS_SKIPPED_REGIME)
    return _priced_cell(spec, alpha, gamma, par)


_PROBIT_SKIPS = {PAR_REGIME: STATUS_SKIPPED_REGIME, PAR_NOISE: STATUS_SKIPPED_DEGENERATE}


def _probit_cells(
    spec: GridSpec, alphas: tuple[float, ...], gammas: tuple[float, ...]
) -> list[GridCell]:
    """Every probit cell from one array evaluation of the ratio, with the
    statuses that par_probit_exact's errors would give cell by cell."""
    axis_a = [a for a in alphas for _ in gammas]
    axis_g = [g for _ in alphas for g in gammas]
    try:
        par, status = par_probit_array(spec.base_rate, axis_g, axis_a, spec.deltas)
    except DegenerateLeverError:
        return [_skipped(a, g, STATUS_SKIPPED_DEGENERATE) for a, g in zip(axis_a, axis_g)]
    except DomainError:
        return [_skipped(a, g, STATUS_SKIPPED_REGIME) for a, g in zip(axis_a, axis_g)]
    return [
        _priced_cell(spec, a, g, r) if st == PAR_OK else _skipped(a, g, _PROBIT_SKIPS[st])
        for a, g, r, st in zip(axis_a, axis_g, par.tolist(), status.tolist())
    ]


def sweep_grid(spec: GridSpec) -> GridResult:
    """Evaluate the exact PAR and cost-benefit ratio at every grid cell."""
    alphas = spec.alphas()
    gammas = spec.gammas()
    if spec.model == "linear":
        cells = tuple(
            _linear_cell(spec, alpha, gamma) for alpha in alphas for gamma in gammas
        )
    else:
        cells = tuple(_probit_cells(spec, alphas, gammas))
    if all(c.status != STATUS_OK for c in cells):
        raise PartargetError(
            "every cell of the grid is infeasible for the chosen model; "
            "check the alpha/gamma ranges against the model's domain"
        )
    result = GridResult(spec=spec, alphas=alphas, gammas=gammas, cells=cells)
    return GridResult(
        spec=spec,
        alphas=alphas,
        gammas=gammas,
        cells=cells,
        contour=extract_indifference_contour(result),
    )


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


def _fmt(x: float) -> str:
    return "%.17g" % x


def serialize_grid(g: GridResult, format: str) -> bytes:
    """Render a grid as CSV (cells only) or JSON (cells, contour, spec echo)."""
    if format == "csv":
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for c in g.cells:
            buf.write(
                f"{_fmt(c.alpha)},{_fmt(c.gamma_s)},{_fmt(c.par)},"
                f"{_fmt(c.cost_benefit)},{_fmt(c.cost_benefit_clipped)},{c.status}\n"
            )
        return buf.getvalue().encode("utf-8")
    if format == "json":
        def num(x: float) -> float | None:
            return None if math.isnan(x) else x

        doc = {
            "spec": g.spec.to_dict(),
            "alphas": list(g.alphas),
            "gammas": list(g.gammas),
            "cells": [
                {
                    "alpha": c.alpha,
                    "gamma_s": c.gamma_s,
                    "par": num(c.par),
                    "cost_benefit": num(c.cost_benefit),
                    "cost_benefit_clipped": num(c.cost_benefit_clipped),
                    "status": c.status,
                }
                for c in g.cells
            ],
            "contour": [[a, gm] for a, gm in g.contour],
        }
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")
    raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
