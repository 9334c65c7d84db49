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
serializers read column by column.  The spec, the lever costs and
:func:`model_params` are defined in ``inputs``, without NumPy, so no
refused spec loads NumPy; they are importable from here too.

Everything is deterministic: cells are laid out in row-major order with
alpha as the outer axis, and serialization uses fixed formats, so two
sweeps of the same spec are byte-identical.
"""

from __future__ import annotations

import io
from collections import namedtuple

import numpy as np

from . import linear, oracle, probit
from .errors import DomainError, PartargetError
from .inputs import MAX_CELLS, CostModel, GridSpec, _Record, cost_benefit, model_params
from .linear import PAR_OK, PAR_REGIME

__all__ = [
    "CostModel",
    "MAX_CELLS",
    "MODELS",
    "model_params",
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

# One model's functions, each taking its model_params first: value(p, alpha),
# par(p, alpha, deltas), par_array(p, gamma_s, alpha, deltas) -> (par, status),
# bounds(p, alpha, deltas) (probit's also takes eps), simulate(p, alpha, SimConfig) -> Estimate,
# and second_moment(p, alpha) -> (m, u), with m * u**2 the mean square of one simulated sample.
Model = namedtuple("Model", "value par par_array bounds simulate second_moment")


MODELS = {
    "linear": Model(
        linear.value_linear, linear.par_linear_exact,
        lambda p, g, a, d: linear.par_linear_array(p.mu, p.beta_norm, g, a, d),
        linear.par_linear_bounds, oracle.simulate_linear_value, oracle.linear_second_moment),
    # A simulated probit sample is 0 or 1, so its mean square is the value, in the unit 1.
    "probit": Model(
        probit.value_probit, probit.par_probit_exact,
        lambda p, g, a, d: probit.par_probit_array(p.base_rate, g, a, d),
        probit.par_probit_bounds, oracle.simulate_probit_value,
        lambda p, a: (probit.value_probit(p, a), 1.0)),
}


class GridResult(_Record):
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
    A lever step that leaves every ratio undefined raises its error; a cost
    ratio whose price overflows at every defined ratio raises DomainError."""
    alphas = spec.alphas()
    gammas = spec.gammas()
    axis_a = np.repeat(alphas, len(gammas))
    axis_g = np.tile(gammas, len(alphas))
    par, status = MODELS[spec.model].par_array(spec.params(), axis_g, axis_a, spec.deltas)
    with np.errstate(over="ignore"):
        cb = par * spec.costs.cost_prediction / spec.costs.cost_access
    # A ratio that is not positive, or whose price is not finite, cannot be
    # priced (cost_benefit refuses both); an ok ratio is finite.
    defined = (status == PAR_OK) & (par > 0.0)
    ok = defined & np.isfinite(cb)
    if not ok.any():
        if defined.any():
            ratio = spec.costs.cost_prediction / spec.costs.cost_access
            raise DomainError(
                f"cost ratio cost_prediction / cost_access = {ratio!r} prices no cell "
                "of the grid: its product with every defined PAR overflows"
            )
        raise PartargetError(
            "every cell of the grid is infeasible for the chosen model; "
            "check the alpha/gamma ranges against the model's domain"
        )
    status = np.where((status == PAR_OK) & ~ok, PAR_REGIME, status)
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


# The text around the six fields of a cell: before alpha, before each of the
# next five fields, and after status.
_CSV_KEYS = ("", ",", ",", ",", ",", ",", "\n")
_JSON_KEYS = ('    {\n      "alpha": ', ',\n      "gamma_s": ', ',\n      "par": ',
              ',\n      "cost_benefit": ', ',\n      "cost_benefit_clipped": ',
              ',\n      "status": "', '"\n    }')


def _write_cells(out: io.BytesIO, g: GridResult, number, null: str, keys: tuple,
                 sep: str) -> None:
    """Write the cells, ``sep`` between two, one alpha row per chunk.

    Each distinct number is formatted once: the axes up front, ``par`` and
    ``cost_benefit`` at ok cells only, and a clipped ratio is either its
    cell's ``cost_benefit`` or one of the two clip bounds.  A skipped cell's
    three numbers are ``null``, the format's text for NaN.
    """
    before_alpha, before_gamma, before_par, before_cb, before_clip, before_status, end = keys
    lo, hi = float(g.spec.clip_lo), float(g.spec.clip_hi)
    lo_text, hi_text = number(lo), number(hi)
    # gamma_s with the text around it, up to the par field, per column.
    columns = [before_gamma + number(x) + before_par for x in g.gammas]
    ok_end = before_status + STATUS_OK + end
    skipped = {s: f"{null}{before_cb}{null}{before_clip}{null}{before_status}{s}{end}"
               for s in (STATUS_SKIPPED_REGIME, STATUS_SKIPPED_DEGENERATE)}
    n = len(g.gammas)
    par, cb, status = g.cells["par"], g.cells["cost_benefit"], g.cells["status"]
    for i, alpha in enumerate(g.alphas):
        head = before_alpha + number(alpha)
        row = slice(i * n, (i + 1) * n)
        texts = []
        for column, s, p, c in zip(columns, status[row].tolist(), par[row].tolist(),
                                   cb[row].tolist()):
            if s == STATUS_OK:
                c_text = number(c)
                clip_text = c_text if lo <= c <= hi else lo_text if c < lo else hi_text
                texts.append(f"{head}{column}{number(p)}{before_cb}{c_text}"
                             f"{before_clip}{clip_text}{ok_end}")
            else:
                texts.append(f"{head}{column}{skipped[s]}")
        out.write(((sep if i else "") + sep.join(texts)).encode("utf-8"))


def serialize_grid(g: GridResult, format: str) -> bytes:
    """Render a grid as CSV (cells only) or JSON (cells, contour, spec echo).

    The CSV writes every number as ``%.17g``.  The JSON equals
    ``json.dumps(doc, indent=2, allow_nan=False)`` plus a newline, but its
    fixed-schema cells are written row by row, not as dicts.
    """
    if format not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    out = io.BytesIO()
    if format == "csv":
        out.write(CSV_HEADER.encode("utf-8") + b"\n")
        _write_cells(out, g, "%.17g".__mod__, "nan", _CSV_KEYS, "")
    else:
        import json  # only here, so the commands that reach MODELS do not load it
        doc = {"spec": g.spec.to_dict(), "alphas": list(g.alphas),
               "gammas": list(g.gammas), "cells": [],
               "contour": [[a, gm] for a, gm in g.contour]}
        head, _, tail = json.dumps(doc, indent=2, allow_nan=False).partition('"cells": []')
        out.write(head.encode("utf-8") + b'"cells": [\n')
        _write_cells(out, g, float.__repr__, "null", _JSON_KEYS, ",\n")
        out.write(b"\n  ]" + tail.encode("utf-8") + b"\n")
    return out.getvalue()
