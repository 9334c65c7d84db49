"""The benchmark's workloads: seeded inputs for the ``partarget`` CLI and
the checks each command's output must pass.

A workload is a function ``(rng, work_dir) -> list[Op]`` that builds one
round of operations.  Every round of a workload has the same commands in
the same order; only the seeded parameters change.  Checks compare the
output with :mod:`reference` (which shares no code with the package) or
with properties the method must have, never with stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

__all__ = ["Mismatch", "Op", "Outcome", "WORKLOADS", "ITEM"]

VALUE_RTOL = 1e-9     # linear closed forms agree with the reference to ~1e-13
# Probit values may be this far off, relative, and a probit PAR as far as
# value errors of this size could move it.  The package's values are meant to
# be within 1e-10, but at some cells they are up to 1e-8 off, on some seeds
# only (README.md, "Known faults"); a wrong method is off by far more.
PROBIT_VALUE_EPS = 1e-7
PRINTED_RTOL = 1e-5   # default output keeps 6 significant digits
MC_SIGMAS = 6.0       # Monte Carlo mean vs reference, in standard errors
PROBIT_SKIP_GAIN = 1e-9   # the package refuses a PAR whose denominator is below this
MC_SAMPLES = 10_000_000


class Mismatch(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    output: bytes        # the --out file when the command writes one, else stdout
    wall_s: float
    maxrss_kb: int
    spawned_at: float    # wall-clock time.time() just before the spawn


@dataclass
class Op:
    """One CLI invocation.  ``check`` raises Mismatch on a wrong output and
    may return the number of ok grid cells."""

    label: str
    argv: list[str]
    items: float
    check: Callable[[Outcome], int | None] | None = field(repr=False)
    out: Path | None = None
    ok_codes: tuple[int, ...] = (0,)
    usage_error: bool = False    # malformed input: must exit 2 with "error:"


def _f(x: float) -> str:
    return repr(float(x))


def _expect_close(what: str, got: float, want: float, rtol: float) -> None:
    if not abs(got - want) <= rtol * abs(want):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def _fields(text: bytes) -> dict[str, str]:
    out = {}
    for line in text.decode().splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


# ----------------------------------------------------------------- queries

def _expect_printed(what: str, got: str, want: float, tol: float = 0.0) -> None:
    """A 6-significant-digit output within rounding (plus ``tol``) of ``want``."""
    if not abs(float(got) - want) <= PRINTED_RTOL * abs(want) + tol:
        raise Mismatch(f"{what}: got {got.strip()}, reference {want!r}")


def _scalar_check(what: str, want: float, tol: float = 0.0):
    def check(res: Outcome) -> None:
        _expect_printed(what, res.stdout.decode(), want, tol)
    return check


def _bounds_check(what: str, exact: float, exact_tol: float, lower: float, upper: float):
    def check(res: Outcome) -> None:
        got = _fields(res.stdout)
        _expect_printed(f"{what} lower", got["lower"], lower)
        _expect_printed(f"{what} upper", got["upper"], upper)
        _expect_printed(f"{what} exact", got["exact"], exact, exact_tol)
        edge = PRINTED_RTOL * exact + exact_tol
        near_edge = min(abs(exact - lower), abs(exact - upper)) <= edge
        contained = "yes" if lower <= exact <= upper else "no"
        if got["contained"] != contained and not near_edge:
            raise Mismatch(f"{what} contained: got {got['contained']}, reference {contained}")
    return check


def _allocate_check(atoms: list[tuple[float, float]], alpha: float):
    by_label = {f"a{i}": atom for i, atom in enumerate(atoms)}

    def check(res: Outcome) -> None:
        got = _fields(res.stdout)
        treated = [] if got["treated"] == "(none)" else got["treated"].split(",")
        chosen = [by_label[label] for label in treated]
        mass = math.fsum(m for m, _ in chosen)
        welfare = math.fsum(m * c for m, c in chosen)
        if mass > alpha or float(got["treated_mass"]) != mass or float(got["welfare"]) != welfare:
            raise Mismatch(f"greedy allocation {treated} is inconsistent with its atoms")
        best = ref.best_allocation_welfare(atoms, alpha)
        brute = float(got["brute_force_welfare"])
        if brute != best:
            raise Mismatch(f"brute-force welfare {brute!r}, enumeration gives {best!r}")
        if welfare > brute:
            raise Mismatch(f"greedy welfare {welfare!r} exceeds brute force {brute!r}")
    return check


# Specs that must be refused with exit 2.  They do not depend on the seed.
_GOOD_SPEC = {
    "model": "linear", "mu": 1.0, "beta_norm": 10.0,
    "alpha_lo": 0.01, "alpha_hi": 0.04, "alpha_count": 3,
    "gamma_lo": 0.1, "gamma_hi": 0.9, "gamma_count": 3,
    "delta_alpha": 0.001, "delta_r2": 0.01, "cost_access": 1.0, "cost_prediction": 1.0,
}
MALFORMED_SPECS = {
    "spec_list": "[1, 2, 3]\n",
    "spec_non_numeric": json.dumps({**_GOOD_SPEC, "alpha_lo": "low"}),
    "spec_invalid_json": json.dumps(_GOOD_SPEC)[:-20],
    "spec_fractional_count": json.dumps({**_GOOD_SPEC, "alpha_count": 2.9}),
}


def cli_queries(rng: random.Random, work: Path) -> list[Op]:
    u = rng.uniform
    ops = []

    mu, beta, g_lin, a = u(0.5, 2.0), u(2.0, 15.0), u(0.1, 0.9), u(0.01, 0.45)
    lin = ["--model", "linear", "--mu", _f(mu), "--beta-norm", _f(beta), "--gamma-s", _f(g_lin)]
    ops.append(Op("value linear", ["value", *lin, "--alpha", _f(a)], 1,
                  _scalar_check("linear value", float(ref.linear_value(mu, beta, g_lin, a)))))

    b, g, a = u(0.02, 0.3), u(0.1, 0.9), u(0.001, 0.3)
    pro = ["--model", "probit", "--base-rate", _f(b), "--gamma-s", _f(g)]
    ops.append(Op("value probit", ["value", *pro, "--alpha", _f(a)], 1,
                  _scalar_check("probit value", float(ref.probit_value(b, g, a)))))

    a, da, dr = u(0.01, 0.4), u(0.001, 0.05), u(0.001, 0.02)
    ops.append(Op("par linear", ["par", *lin, "--alpha", _f(a), "--delta-alpha", _f(da),
                                 "--delta-r2", _f(dr)], 1,
                  _scalar_check("linear par", float(ref.linear_par(mu, beta, g_lin, a, da, dr)))))

    b, g, a, da, dr = u(0.02, 0.3), u(0.1, 0.8), u(0.002, 0.05), u(1e-4, 1e-3), u(1e-3, 1e-2)
    pro = ["--model", "probit", "--base-rate", _f(b), "--gamma-s", _f(g)]
    ops.append(Op("par probit", ["par", *pro, "--alpha", _f(a), "--delta-alpha", _f(da),
                                 "--delta-r2", _f(dr)], 1,
                  _scalar_check("probit par", *map(float, ref.probit_par(
                      b, g, a, da, dr, PROBIT_VALUE_EPS)))))

    a = u(0.005, 0.03)
    da, dr = u(0.1, 0.5) * a, u(0.001, 0.02)
    ops.append(Op("bounds linear", ["bounds", *lin, "--alpha", _f(a), "--delta-alpha", _f(da),
                                    "--delta-r2", _f(dr)], 1,
                  _bounds_check("linear bounds", float(ref.linear_par(mu, beta, g_lin, a, da, dr)),
                                0.0, *ref.linear_bounds(mu, beta, g_lin, a, da, dr))))

    b, g, a = u(0.02, 0.1), u(0.1, 0.8), u(0.001, 0.01)
    da, dr = u(0.1, 0.9) * a, u(1e-3, 1e-2)
    pro = ["--model", "probit", "--base-rate", _f(b), "--gamma-s", _f(g)]
    ops.append(Op("bounds probit", ["bounds", *pro, "--alpha", _f(a), "--delta-alpha", _f(da),
                                    "--delta-r2", _f(dr)], 1,
                  _bounds_check("probit bounds",
                                *map(float, ref.probit_par(b, g, a, da, dr, PROBIT_VALUE_EPS)),
                                *ref.probit_bounds(b, g, a, da, dr))))

    weights = [rng.randint(1, 20) for _ in range(12)]
    atoms = [(w / sum(weights), rng.gauss(0.5, 1.0)) for w in weights]
    dist = work / "atoms.csv"
    dist.write_text("label,mass,cond_mean\n" + "".join(
        f"a{i},{m!r},{c!r}\n" for i, (m, c) in enumerate(atoms)))
    a = u(0.2, 0.6)
    ops.append(Op("allocate", ["allocate", "--dist", str(dist), "--alpha", _f(a),
                               "--brute-force", "--machine"], 1, _allocate_check(atoms, a)))

    for name, text in MALFORMED_SPECS.items():
        path = work / f"{name}.json"
        path.write_text(text)
        ops.append(Op(f"grid {name}", ["grid", "--spec", str(path)], 1, None,
                      usage_error=True))
    return ops


# -------------------------------------------------------------------- grids

def _grid_check(spec: dict, expected_par, expected_status, state: dict | None = None):
    """Check a JSON grid document against the spec it was asked for.

    ``expected_par(alphas, gammas)`` gives the reference PAR per cell and
    the absolute tolerance of each, ``expected_status`` the status each cell
    must have (None: either).
    The parsed cells are left in ``state`` for the CSV of the same spec.
    """
    def check(res: Outcome) -> int:
        doc = json.loads(res.output)
        if doc["spec"] != spec:
            raise Mismatch(f"spec echo {doc['spec']} differs from the spec {spec}")
        alphas, gammas, cells = doc["alphas"], doc["gammas"], doc["cells"]
        if state is not None:
            state["cells"] = cells
        na, ng = spec["alpha_count"], spec["gamma_count"]
        if (len(alphas), len(gammas), len(cells)) != (na, ng, na * ng):
            raise Mismatch("grid shape differs from the spec")
        if (alphas[0], alphas[-1], gammas[0], gammas[-1]) != (
                spec["alpha_lo"], spec["alpha_hi"], spec["gamma_lo"], spec["gamma_hi"]):
            raise Mismatch("grid axes do not start and end at the spec's range")
        a_grid, g_grid = np.meshgrid(alphas, gammas, indexing="ij")
        want_par, par_tol = (x.ravel() for x in expected_par(a_grid, g_grid))
        want_status = expected_status(a_grid, g_grid).ravel()
        cp, ca = spec["cost_prediction"], spec["cost_access"]
        ok = 0
        for k, c in enumerate(cells):
            where = (f"{spec['model']} cell alpha={c['alpha']!r} gamma_s={c['gamma_s']!r}"
                     f" base_rate={spec['base_rate']!r}")
            if c["alpha"] != alphas[k // ng] or c["gamma_s"] != gammas[k % ng]:
                raise Mismatch(f"{where} is out of row-major order")
            if want_status[k] is not None and c["status"] != want_status[k]:
                raise Mismatch(f"{where}: status {c['status']}, expected {want_status[k]}")
            if c["status"] != "ok":
                if (c["par"], c["cost_benefit"], c["cost_benefit_clipped"]) != (None, None, None):
                    raise Mismatch(f"{where}: skipped cell carries numbers")
                continue
            ok += 1
            if not abs(c["par"] - want_par[k]) <= par_tol[k]:
                raise Mismatch(f"{where}: par {c['par']!r}, reference {want_par[k]!r} "
                               f"(tolerance {par_tol[k]:.3g})")
            cb = c["par"] * cp / ca
            if c["cost_benefit"] != cb:
                raise Mismatch(f"{where}: cost_benefit {c['cost_benefit']!r} != par*cp/ca {cb!r}")
            if c["cost_benefit_clipped"] != min(max(cb, spec["clip_lo"]), spec["clip_hi"]):
                raise Mismatch(f"{where}: clipped value is not the clamp of {cb!r}")
        _contour_check(doc["contour"], alphas, gammas, cells)
        return ok
    return check


def _contour_check(contour, alphas, gammas, cells) -> None:
    """Every contour point lies between two adjacent ok cells of its alpha
    column whose cost-benefit values bracket 1, one point per bracket."""
    ng = len(gammas)
    brackets = []
    for i, alpha in enumerate(alphas):
        column = cells[i * ng:(i + 1) * ng]
        for j in range(ng - 1):
            lo, hi = column[j], column[j + 1]
            if lo["status"] == hi["status"] == "ok":
                a, b = lo["cost_benefit"] - 1.0, hi["cost_benefit"] - 1.0
                if a == 0.0 or a * b < 0.0:
                    brackets.append((alpha, j))
        if column[-1]["status"] == "ok" and column[-1]["cost_benefit"] == 1.0:
            brackets.append((alpha, ng - 1))
    if not brackets:
        raise Mismatch("the sweep has no indifference contour; the inputs should give one")
    if len(contour) != len(brackets):
        raise Mismatch(f"{len(contour)} contour points for {len(brackets)} brackets of 1")
    for (alpha, gamma), (col_alpha, j) in zip(contour, brackets):
        hi = gammas[min(j + 1, ng - 1)]
        if alpha != col_alpha or not gammas[j] <= gamma <= hi:
            raise Mismatch(f"contour point ({alpha!r}, {gamma!r}) is outside its bracket")


def _csv_check(state: dict):
    """The CSV of a sweep agrees cell for cell with the JSON of the same spec."""
    def check(res: Outcome) -> int:
        rows = list(csv.reader(io.StringIO(res.output.decode())))
        if rows[0] != ["alpha", "gamma_s", "par", "cost_benefit", "cost_benefit_clipped", "status"]:
            raise Mismatch(f"unexpected CSV header {rows[0]}")
        cells = state["cells"]
        if len(rows) - 1 != len(cells):
            raise Mismatch(f"CSV has {len(rows) - 1} cells, JSON {len(cells)}")
        keys = ("alpha", "gamma_s", "par", "cost_benefit", "cost_benefit_clipped")
        for row, cell in zip(rows[1:], cells):
            numbers = [float(x) for x in row[:5]]
            want = [math.nan if cell[k] is None else cell[k] for k in keys]
            same = all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(numbers, want))
            if not same or row[5] != cell["status"]:
                raise Mismatch(f"CSV row {row} differs from JSON cell {cell}")
        return sum(c["status"] == "ok" for c in cells)
    return check


def _log_axis(lo: float, hi: float, n: int) -> np.ndarray:
    return lo * (hi / lo) ** (np.arange(n) / (n - 1))


PROBIT_BASE_RATES = (0.02, 0.06, 0.15, 0.3)
PROBIT_SIDE = 25


def probit_grid(rng: random.Random, work: Path) -> list[Op]:
    u = rng.uniform
    ops = []
    for i, base in enumerate(PROBIT_BASE_RATES):
        b = base * u(0.9, 1.1)
        spec = {
            "model": "probit", "alpha_lo": 1e-4 * u(1.0, 1.2), "alpha_hi": 0.05 * u(0.9, 1.0),
            "alpha_count": PROBIT_SIDE, "gamma_lo": 0.05 * u(1.0, 1.2),
            "gamma_hi": 0.95 * u(0.97, 1.0), "gamma_count": PROBIT_SIDE,
            "delta_alpha": 1e-5 * u(1.0, 2.0), "delta_r2": 1e-3 * u(1.0, 2.0),
            "cost_access": 1.0, "cost_prediction": 1.0, "mu": None, "beta_norm": None,
            "base_rate": b, "clip_lo": 0.5, "clip_hi": 2.0, "alpha_spacing": "log",
        }
        da, dr = spec["delta_alpha"], spec["delta_r2"]

        def par(a, g, b=b, da=da, dr=dr):
            return ref.probit_par(b, g, a, da, dr, PROBIT_VALUE_EPS)

        def status(a, g, b=b, dr=dr):
            gain = ref.probit_prediction_gain(b, g, a, dr)
            out = np.where(gain > PROBIT_SKIP_GAIN, "ok", "skipped-degenerate").astype(object)
            out[np.abs(np.log(gain.clip(1e-300) / PROBIT_SKIP_GAIN)) < math.log(2.0)] = None
            return out

        # Price prediction so that the median cell is indifferent: the
        # contour then crosses the middle of the sweep.
        a_grid, g_grid = np.meshgrid(
            _log_axis(spec["alpha_lo"], spec["alpha_hi"], PROBIT_SIDE),
            np.linspace(spec["gamma_lo"], spec["gamma_hi"], PROBIT_SIDE), indexing="ij")
        pars = par(a_grid, g_grid)[0][ref.probit_prediction_gain(b, g_grid, a_grid, dr) > 1e-8]
        spec["cost_prediction"] = float(1.0 / np.median(pars))

        out = work / f"probit_{i}.json"
        argv = ["grid", "--model", "probit", "--base-rate", _f(b)]
        for key in ("alpha_lo", "alpha_hi", "alpha_count", "gamma_lo", "gamma_hi",
                    "gamma_count", "delta_alpha", "delta_r2", "cost_access", "cost_prediction"):
            argv += ["--" + key.replace("_", "-"), str(spec[key])]
        argv += ["--format", "json", "--out", str(out)]
        ops.append(Op("grid probit", argv, PROBIT_SIDE ** 2,
                      _grid_check(spec, par, status), out=out))
    return ops


LINEAR_SIDE = 200


def linear_grid(rng: random.Random, work: Path) -> list[Op]:
    u = rng.uniform
    spec = {
        "model": "linear", "alpha_lo": 0.01 * u(0.8, 1.2), "alpha_hi": 0.7 * u(0.95, 1.05),
        "alpha_count": LINEAR_SIDE, "gamma_lo": 0.0, "gamma_hi": 0.98 * u(0.97, 1.0),
        "gamma_count": LINEAR_SIDE, "delta_alpha": 0.01 * u(0.8, 1.2),
        "delta_r2": 0.01 * u(0.8, 1.2), "cost_access": 1.0, "cost_prediction": 1.0,
        "mu": u(0.5, 2.0), "beta_norm": u(2.0, 15.0), "base_rate": None,
        "clip_lo": 0.5, "clip_hi": 2.0, "alpha_spacing": "linear",
    }
    mu, beta, da, dr = spec["mu"], spec["beta_norm"], spec["delta_alpha"], spec["delta_r2"]

    def par(a, g):
        want = ref.linear_par(mu, beta, g, a, da, dr)
        return want, VALUE_RTOL * np.abs(want)

    def status(a, g):
        return np.where(a + da >= 0.5, "skipped-regime", "ok").astype(object)

    a_grid, g_grid = np.meshgrid(
        np.linspace(spec["alpha_lo"], spec["alpha_hi"], LINEAR_SIDE),
        np.linspace(spec["gamma_lo"], spec["gamma_hi"], LINEAR_SIDE), indexing="ij")
    spec["cost_prediction"] = float(1.0 / np.median(par(a_grid, g_grid)[0][a_grid + da < 0.5]))

    spec_path = work / "linear_spec.json"
    spec_path.write_text(json.dumps(spec))
    out = work / "linear.json"
    state: dict = {}
    cells = LINEAR_SIDE ** 2
    return [
        Op("grid linear json", ["grid", "--spec", str(spec_path), "--format", "json",
                                "--out", str(out)], cells,
           _grid_check(spec, par, status, state), out=out),
        Op("grid linear csv", ["grid", "--spec", str(spec_path), "--format", "csv"], cells,
           _csv_check(state)),
    ]


# ---------------------------------------------------------------- verify

def _verify_check(value: float, value_rtol: float, se_ref: float):
    def check(res: Outcome) -> None:
        got = _fields(res.stdout)
        closed, mean, se = (float(got[k]) for k in ("closed_form", "mc_mean", "mc_std_error"))
        _expect_close("closed_form", closed, value, value_rtol)
        if not abs(mean - value) <= MC_SIGMAS * se_ref:
            raise Mismatch(f"mc_mean {mean!r} is {abs(mean - value) / se_ref:.1f} "
                           f"standard errors from {value!r}")
        # The estimated error is off by at most the relative error of the mean.
        if not abs(se / se_ref - 1.0) <= 0.01 + MC_SIGMAS * se_ref / value:
            raise Mismatch(f"mc_std_error {se!r}, reference {se_ref!r}")
        z = (mean - closed) / se
        _expect_close("z_score", float(got["z_score"]), z, 1e-9)
        passed = abs(z) <= 4.0
        if got["result"].startswith("pass") != passed or (res.code == 0) != passed:
            raise Mismatch(f"result {got['result']!r} with exit {res.code} for z = {z:.3f}")
    return check


def mc_verify(rng: random.Random, work: Path) -> list[Op]:
    u = rng.uniform
    n = MC_SAMPLES
    mu, beta, g, a = u(0.5, 2.0), u(2.0, 15.0), u(0.1, 0.9), u(0.02, 0.3)
    v = float(ref.linear_value(mu, beta, g, a))
    se = math.sqrt((ref.linear_second_moment(mu, beta, g, a) - v * v) / n)
    linear = Op("verify linear",
                ["verify", "--model", "linear", "--mu", _f(mu), "--beta-norm", _f(beta),
                 "--gamma-s", _f(g), "--alpha", _f(a), "--samples", str(n),
                 "--seed", str(rng.randrange(2**32)), "--machine"],
                n, _verify_check(v, VALUE_RTOL, se), ok_codes=(0, 1))
    b, g, a = u(0.05, 0.3), u(0.1, 0.9), u(0.02, 0.3)
    v = float(ref.probit_value(b, g, a))
    probit = Op("verify probit",
                ["verify", "--model", "probit", "--base-rate", _f(b), "--gamma-s", _f(g),
                 "--alpha", _f(a), "--samples", str(n), "--seed", str(rng.randrange(2**32)),
                 "--machine"],
                n, _verify_check(v, PROBIT_VALUE_EPS, math.sqrt(v * (1.0 - v) / n)),
                ok_codes=(0, 1))
    return [linear, probit]


WORKLOADS = {
    "cli_queries": cli_queries,
    "probit_grid": probit_grid,
    "linear_grid": linear_grid,
    "mc_verify": mc_verify,
}
# What one unit of work is in each workload, for the throughput metric.
ITEM = {"cli_queries": "queries", "probit_grid": "cells", "linear_grid": "cells",
        "mc_verify": "samples"}
