"""Tests for grid sweeps, contour extraction and serialization."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partarget.errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PartargetError,
)
from partarget.grid import (
    CSV_HEADER,
    MAX_CELLS,
    STATUS_OK,
    STATUS_SKIPPED_DEGENERATE,
    STATUS_SKIPPED_REGIME,
    CostModel,
    GridResult,
    GridSpec,
    cost_benefit,
    extract_indifference_contour,
    serialize_grid,
    sweep_grid,
)
from partarget.linear import LeverDelta, LinearParams, par_linear_exact
from partarget.probit import ProbitParams, par_probit_exact


def linear_spec(**overrides) -> GridSpec:
    base = dict(
        model="linear", alpha_lo=0.005, alpha_hi=0.03, alpha_count=4,
        gamma_lo=0.0, gamma_hi=0.9, gamma_count=4,
        deltas=LeverDelta(0.01, 0.01), costs=CostModel(1.0, 0.25),
        mu=1.0, beta_norm=10.0,
    )
    base.update(overrides)
    return GridSpec(**base)


def probit_spec(**overrides) -> GridSpec:
    base = dict(
        model="probit", alpha_lo=0.001, alpha_hi=0.01, alpha_count=4,
        gamma_lo=0.1, gamma_hi=0.9, gamma_count=4,
        deltas=LeverDelta(0.001, 0.001), costs=CostModel(1.0, 0.25),
        base_rate=0.1,
    )
    base.update(overrides)
    return GridSpec(**base)


class TestCostBenefit:
    def test_identity_cost_ratio(self):
        assert cost_benefit(3.7, CostModel(1.0, 1.0)) == 3.7

    def test_quarter_cost_ratio(self):
        assert cost_benefit(4.0, CostModel(1.0, 0.25)) == pytest.approx(1.0)

    def test_recomputation_through_value_function(self):
        from partarget.linear import value_linear
        p = LinearParams(1.0, 10.0, 0.3)
        alpha, d = 0.02, LeverDelta(0.01, 0.01)
        par = par_linear_exact(p, alpha, d)
        numer = value_linear(p, alpha + 0.01) - value_linear(p, alpha)
        denom = value_linear(p.with_gamma_s(0.31), alpha) - value_linear(p, alpha)
        assert cost_benefit(par, CostModel(2.0, 1.0)) == pytest.approx(
            (numer / denom) * 0.5, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            cost_benefit(0.0, CostModel(1.0, 1.0))
        with pytest.raises(DomainError):
            CostModel(0.0, 1.0)

    def test_overflowing_ratio_refused(self):
        with pytest.raises(DomainError, match="overflows"):
            cost_benefit(2.0, CostModel(1.0, 1e308))
        assert cost_benefit(1.5, CostModel(1.0, 1e308)) == 1.5e308


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            linear_spec(alpha_count=1)
        with pytest.raises(DomainError):
            linear_spec(clip_lo=2.0, clip_hi=0.5)
        with pytest.raises(DomainError):
            linear_spec(mu=None)
        with pytest.raises(DomainError):
            probit_spec(base_rate=None)
        with pytest.raises(DomainError):
            linear_spec(alpha_spacing="cubic")

    def test_cell_count_ceiling(self):
        # rejection only: a spec over the ceiling never reaches its axes
        with pytest.raises(DomainError, match=f"at most {MAX_CELLS}"):
            linear_spec(alpha_count=MAX_CELLS // 2 + 1, gamma_count=2)
        assert linear_spec(alpha_count=MAX_CELLS // 2, gamma_count=2).alpha_count

    def test_axis_spacing(self):
        spec = linear_spec(alpha_lo=0.001, alpha_hi=0.1, alpha_count=3)
        a = spec.alphas()
        assert a[0] == 0.001 and a[-1] == 0.1
        assert a[1] == pytest.approx(0.01, rel=1e-12)  # geometric midpoint
        lin = linear_spec(alpha_lo=0.001, alpha_hi=0.1, alpha_count=3,
                          alpha_spacing="linear").alphas()
        assert lin[1] == pytest.approx(0.0505, rel=1e-12)

    def test_dict_round_trip(self):
        spec = probit_spec()
        assert GridSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("costs", [CostModel(1e-300, 1e300), CostModel(1e300, 1e-300)],
                             ids=["overflow", "underflow"])
    def test_cost_ratio_must_be_finite_and_positive(self, costs):
        with pytest.raises(DomainError, match="cost ratio"):
            linear_spec(costs=costs)

    def test_missing_field_named(self):
        d = probit_spec().to_dict()
        del d["alpha_lo"]
        with pytest.raises(DomainError, match="alpha_lo"):
            GridSpec.from_dict(d)


class TestSweepGrid:
    def test_cells_reproducible_by_direct_calls(self):
        spec = linear_spec(alpha_count=2, gamma_count=2, gamma_lo=0.1)
        res = sweep_grid(spec)
        for c in res.cells:
            assert c.status == STATUS_OK
            p = LinearParams(1.0, 10.0, c.gamma_s)
            par = par_linear_exact(p, c.alpha, spec.deltas)
            assert c.par == par
            assert c.cost_benefit == cost_benefit(par, spec.costs)

    def test_probit_cells_reproducible(self):
        spec = probit_spec(alpha_count=2, gamma_count=2)
        res = sweep_grid(spec)
        for c in res.cells:
            assert c.status == STATUS_OK
            par = par_probit_exact(ProbitParams(0.1, c.gamma_s), c.alpha, spec.deltas)
            assert c.par == par

    def test_probit_small_alpha_clips_high(self):
        # far below the base rate the access lever dominates at both
        # figure cost ratios, so every ok cell clips to the top
        for cr in (0.25, 0.5):
            spec = probit_spec(alpha_hi=0.005, costs=CostModel(1.0, cr))
            res = sweep_grid(spec)
            for c in res.cells:
                assert c.status == STATUS_OK
                assert c.cost_benefit > 1.0
                assert c.cost_benefit_clipped == spec.clip_hi

    def test_clip_contract_and_idempotence(self):
        res = sweep_grid(linear_spec())
        for c in res.cells:
            if c.status == STATUS_OK:
                assert 0.5 <= c.cost_benefit_clipped <= 2.0
                reclipped = min(max(c.cost_benefit_clipped, 0.5), 2.0)
                assert reclipped == c.cost_benefit_clipped

    def test_skipped_cells_flagged_not_fabricated(self):
        spec = linear_spec(gamma_hi=1.0)  # gamma_s + delta_r2 > 1 at the top row
        res = sweep_grid(spec)
        skipped = [c for c in res.cells if c.gamma_s == 1.0]
        assert skipped and all(c.status == STATUS_SKIPPED_REGIME for c in skipped)
        assert all(math.isnan(c.par) for c in skipped)

    def test_whole_grid_infeasible(self):
        spec = linear_spec(alpha_lo=0.492, alpha_hi=0.499)  # alpha + delta >= 0.5
        with pytest.raises(PartargetError):
            sweep_grid(spec)

    def test_determinism(self):
        spec = probit_spec()
        assert serialize_grid(sweep_grid(spec), "json") == \
            serialize_grid(sweep_grid(spec), "json")


def reference_contour(g: GridResult) -> tuple[tuple[float, float], ...]:
    """The contour by a plain loop over adjacent cells of each alpha row."""
    n = len(g.gammas)
    ok = (g.cells.status == STATUS_OK).tolist()
    cb, gs = g.cells.cost_benefit.tolist(), g.cells.gamma_s.tolist()
    points = []
    for i, alpha in enumerate(g.alphas):
        for k in range(i * n, (i + 1) * n - 1):
            if not (ok[k] and ok[k + 1]):
                continue
            a, b = cb[k] - 1.0, cb[k + 1] - 1.0
            if a == 0.0:
                points.append((alpha, gs[k]))
            elif a * b < 0.0:
                frac = a / (a - b)
                points.append((alpha, gs[k] + frac * (gs[k + 1] - gs[k])))
        last = (i + 1) * n - 1
        if ok[last] and cb[last] == 1.0:
            points.append((alpha, gs[last]))
    return tuple(points)


class TestContour:
    def test_branches_match_reference_loop(self):
        nan = math.nan
        rows = [
            [0.5, 1.0, 1.5, 0.8, 1.0],  # exact hit mid-row, a crossing, last column at 1
            [nan, 0.5, 1.5, nan, 1.0],  # skips on either side of a crossing
            [1.0, nan, 1.2, 0.9, nan],  # a hit whose neighbour is skipped; a crossing down
            [1.0, 1.0, 0.9, 1e308, -1e308],  # consecutive hits; crossings that overflow
            [2.0, 3.0, 4.0, 5.0, 6.0],  # no crossing
            [0.3, 0.9, nan, 1.0, nan],  # no point: the hit's neighbour and the last are skipped
        ]
        alphas = tuple(0.01 * (i + 1) for i in range(len(rows)))
        gammas = (0.0, 0.1, 0.3, 0.7, 1.0)
        cb = np.array(rows).ravel()
        cells = np.rec.fromarrays(
            [np.repeat(alphas, len(gammas)), np.tile(gammas, len(alphas)), cb, cb, cb,
             np.where(np.isnan(cb), STATUS_SKIPPED_REGIME, STATUS_OK)], names=CSV_HEADER)
        g = GridResult(linear_spec(), alphas, gammas, cells)
        expected = reference_contour(g)
        assert repr(extract_indifference_contour(g)) == repr(expected)
        assert [p[1] for p in expected[:3]] == [0.1, pytest.approx(0.3 + 0.4 * 0.5 / 0.7), 1.0]
        assert len(expected) == 10 and {a for a, _ in expected} == set(alphas[:4])

    def test_all_above_one_gives_empty(self):
        spec = probit_spec(alpha_hi=0.005)
        res = sweep_grid(spec)
        assert res.contour == ()

    def test_linear_contour_monotone_in_alpha(self):
        spec = linear_spec(alpha_lo=0.005, alpha_hi=0.05, alpha_count=8,
                           gamma_lo=0.0, gamma_hi=0.9, gamma_count=30,
                           costs=CostModel(1.0, 0.5))
        res = sweep_grid(spec)
        assert len(res.contour) >= 3
        alphas = [a for a, _ in res.contour]
        gammas = [g for _, g in res.contour]
        assert alphas == sorted(alphas)
        assert all(g1 < g2 for g1, g2 in zip(gammas, gammas[1:]))

    def test_interpolation_brackets_one(self):
        spec = linear_spec(alpha_lo=0.005, alpha_hi=0.05, alpha_count=6,
                           gamma_lo=0.0, gamma_hi=0.9, gamma_count=12,
                           costs=CostModel(1.0, 0.5))
        res = sweep_grid(spec)
        recomputed = extract_indifference_contour(res)
        assert recomputed == res.contour
        for alpha, gamma in res.contour:
            par = par_linear_exact(LinearParams(1.0, 10.0, gamma), alpha, spec.deltas)
            # interpolated crossing should be near the true unit contour
            assert cost_benefit(par, spec.costs) == pytest.approx(1.0, abs=0.05)


class TestSerialize:
    def test_csv_shape_and_round_trip(self):
        spec = linear_spec(alpha_count=2, gamma_count=2, gamma_lo=0.1)
        res = sweep_grid(spec)
        text = serialize_grid(res, "csv").decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        rows = list(csv.DictReader(io.StringIO(text)))
        for row, cell in zip(rows, res.cells):
            assert float(row["alpha"]) == cell.alpha
            assert float(row["gamma_s"]) == cell.gamma_s
            assert float(row["par"]) == cell.par
            assert float(row["cost_benefit"]) == cell.cost_benefit
            assert row["status"] == cell.status

    def test_csv_ordering_alpha_outer(self):
        res = sweep_grid(linear_spec(alpha_count=3, gamma_count=2, gamma_lo=0.1))
        text = serialize_grid(res, "csv").decode("utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        alphas = [float(r["alpha"]) for r in rows]
        assert alphas == sorted(alphas)
        assert alphas[0] == alphas[1] and alphas[1] != alphas[2]

    def test_json_mirrors_fields(self):
        spec = probit_spec()
        res = sweep_grid(spec)
        doc = json.loads(serialize_grid(res, "json"))
        assert doc["spec"] == spec.to_dict()
        assert len(doc["cells"]) == len(res.cells)
        assert doc["cells"][0]["par"] == res.cells[0].par
        assert doc["contour"] == [list(p) for p in res.contour]

    def test_json_skipped_cells_are_null(self):
        res = sweep_grid(linear_spec(gamma_hi=1.0))
        doc = json.loads(serialize_grid(res, "json"))
        skipped = [c for c in doc["cells"] if c["status"] != STATUS_OK]
        assert skipped and all(c["par"] is None for c in skipped)

    def test_empty_contour_serializes(self):
        res = sweep_grid(probit_spec(alpha_hi=0.005))
        doc = json.loads(serialize_grid(res, "json"))
        assert doc["contour"] == []

    def test_json_equals_json_dumps(self):
        bare = sweep_grid(linear_spec(gamma_hi=1.0, costs=CostModel(1.0, 100.0)))
        assert bare.contour == () and any(c.status != STATUS_OK for c in bare.cells)
        for res in (bare, sweep_grid(linear_spec(gamma_hi=1.0)), sweep_grid(probit_spec())):
            def num(x):
                return None if math.isnan(x) else x

            doc = {
                "spec": res.spec.to_dict(),
                "alphas": list(res.alphas),
                "gammas": list(res.gammas),
                "cells": [{"alpha": c.alpha, "gamma_s": c.gamma_s, "par": num(c.par),
                           "cost_benefit": num(c.cost_benefit),
                           "cost_benefit_clipped": num(c.cost_benefit_clipped),
                           "status": c.status} for c in res.cells],
                "contour": [[a, g] for a, g in res.contour],
            }
            expected = (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")
            assert serialize_grid(res, "json") == expected

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            serialize_grid(sweep_grid(probit_spec()), "xml")


def _scalar_cell(spec: GridSpec, alpha: float, gamma: float):
    """Status, PAR and cost-benefit ratio of one cell from scalar calls."""
    try:
        if spec.model == "linear":
            p = LinearParams(spec.mu, spec.beta_norm, gamma)
            par = par_linear_exact(p, alpha, spec.deltas)
        else:
            par = par_probit_exact(ProbitParams(spec.base_rate, gamma), alpha, spec.deltas)
        return STATUS_OK, par, cost_benefit(par, spec.costs)
    except (DegenerateLeverError, NumericsError):
        return STATUS_SKIPPED_DEGENERATE, None, None
    except DomainError:
        return STATUS_SKIPPED_REGIME, None, None


@st.composite
def spec_fields(draw, model: str) -> dict:
    """GridSpec fields whose grids cross each model's regime edges: alpha +
    delta_alpha past 0.5 (linear) or 1 (probit), gamma_s + delta_r2 past 1,
    and a zero access step."""
    if model == "linear":
        alpha_lo = draw(st.floats(1e-6, 0.45))
        alpha_hi = draw(st.floats(alpha_lo * 1.01, 0.7))
        params = dict(mu=draw(st.floats(0.01, 100.0)), beta_norm=draw(st.floats(0.01, 100.0)))
    else:
        alpha_lo = draw(st.floats(1e-6, 0.9))
        alpha_hi = draw(st.floats(alpha_lo * 1.01, 0.999))
        params = dict(base_rate=draw(st.floats(0.001, 0.999)))
    gamma_lo = draw(st.sampled_from([0.0, 0.2, 0.7]))
    return dict(
        model=model,
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        alpha_count=draw(st.integers(2, 5)),
        gamma_lo=gamma_lo,
        gamma_hi=draw(st.sampled_from([gamma_lo + 0.1, 0.9, 1.0])),
        gamma_count=draw(st.integers(2, 5)),
        deltas=LeverDelta(draw(st.sampled_from([0.0, 1e-5, 1e-3, 0.05, 0.3])),
                          draw(st.sampled_from([1e-5, 1e-3, 0.05]))),
        costs=CostModel(1.0, draw(st.floats(0.1, 10.0))),
        alpha_spacing=draw(st.sampled_from(["log", "linear"])),
        **params,
    )


class TestSweepMatchesScalarCalls:
    # Grids with ok, regime-skipped and degenerate-skipped cells: the probit
    # prediction gain falls below its floor at tiny alpha, and the linear one
    # rounds to zero when mu dwarfs beta_norm.
    EXAMPLES = {
        "probit": dict(
            model="probit", alpha_lo=1e-6, alpha_hi=0.99, alpha_count=5,
            gamma_lo=0.0, gamma_hi=1.0, gamma_count=5,
            deltas=LeverDelta(0.05, 1e-5), costs=CostModel(1.0, 0.5), base_rate=0.02),
        "linear": dict(
            model="linear", alpha_lo=1e-6, alpha_hi=0.49, alpha_count=6,
            gamma_lo=0.0, gamma_hi=1.0, gamma_count=5,
            deltas=LeverDelta(0.05, 1e-5), costs=CostModel(1.0, 0.5),
            mu=1e6, beta_norm=1e-6),
    }

    @staticmethod
    def check(fields: dict) -> None:
        if fields["deltas"].delta_alpha == 0.0:
            with pytest.raises(DomainError, match="delta_alpha"):
                GridSpec(**fields)
            return
        spec = GridSpec(**fields)
        expected = [(a, g, *_scalar_cell(spec, a, g))
                    for a in spec.alphas() for g in spec.gammas()]
        if all(status != STATUS_OK for _, _, status, _, _ in expected):
            with pytest.raises(PartargetError):
                sweep_grid(spec)
            return
        res = sweep_grid(spec)
        assert repr(res.contour) == repr(reference_contour(res))
        cells = res.cells
        assert len(cells) == len(expected)
        for c, (alpha, gamma, status, par, cb) in zip(cells, expected):
            assert (c.alpha, c.gamma_s, c.status) == (alpha, gamma, status)
            if status == STATUS_OK:
                assert (c.par, c.cost_benefit) == (par, cb)
                assert c.cost_benefit_clipped == min(max(cb, spec.clip_lo), spec.clip_hi)
            else:
                assert math.isnan(c.par) and math.isnan(c.cost_benefit)
                assert math.isnan(c.cost_benefit_clipped)

    @pytest.mark.parametrize("model", ["linear", "probit"])
    def test_example_has_every_status(self, model):
        spec = GridSpec(**self.EXAMPLES[model])
        statuses = {c.status for c in sweep_grid(spec).cells}
        assert statuses == {STATUS_OK, STATUS_SKIPPED_REGIME, STATUS_SKIPPED_DEGENERATE}

    @pytest.mark.parametrize("model, deltas", [
        ("linear", LeverDelta(0.05, 1e-5)),
        ("probit", LeverDelta(0.05, 1e-5)),
        ("linear", LeverDelta(0.0, 1e-3)),
        ("probit", LeverDelta(0.0, 1e-3)),
        # alpha + 1e-20 rounds to alpha above alpha ~ 1e-4: a zero PAR, unpriced
        ("linear", LeverDelta(1e-20, 1e-3)),
    ], ids=["linear", "probit", "linear-zero-alpha-step", "probit-zero-alpha-step",
            "linear-rounded-alpha-step"])
    def test_examples_equal_scalar_calls(self, model, deltas):
        self.check({**self.EXAMPLES[model], "deltas": deltas})

    @pytest.mark.parametrize("model", ["linear", "probit"])
    def test_overflowing_price_skipped_like_scalar_call(self, model):
        # cost_prediction / cost_access = 1e308: cells with par above ~1.8 overflow
        self.check({**self.EXAMPLES[model], "costs": CostModel(1.0, 1e308)})

    @pytest.mark.parametrize("model", ["linear", "probit"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cells_equal_scalar_calls(self, model, data):
        self.check(data.draw(spec_fields(model)))

    @pytest.mark.parametrize("model, deltas", [
        ("linear", LeverDelta(0.01, 0.0)),
        ("probit", LeverDelta(1e-3, 0.0)),
        ("probit", LeverDelta(1e-3, 1e-6)),
        ("probit", LeverDelta(1e-6, 1e-3)),
    ], ids=["linear-zero-r2", "probit-zero-r2", "probit-small-r2", "probit-small-alpha"])
    def test_degenerate_lever_raises_like_scalar_call(self, model, deltas):
        spec = GridSpec(**{**self.EXAMPLES[model], "deltas": deltas})
        with pytest.raises(DegenerateLeverError) as from_grid:
            sweep_grid(spec)
        alpha, gamma = spec.alphas()[1], spec.gammas()[1]
        with pytest.raises(DegenerateLeverError) as from_scalar:
            if model == "linear":
                par_linear_exact(LinearParams(spec.mu, spec.beta_norm, gamma), alpha, deltas)
            else:
                par_probit_exact(ProbitParams(spec.base_rate, gamma), alpha, deltas)
        assert str(from_grid.value) == str(from_scalar.value)
