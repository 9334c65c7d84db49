"""Tests for the probit welfare model's closed-form value and derivatives."""

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from partarget import gaussian, oracle
from partarget.errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PartargetError,
    PreconditionError,
)
from partarget.grid import (
    STATUS_OK,
    STATUS_SKIPPED_DEGENERATE,
    STATUS_SKIPPED_REGIME,
    CostModel,
    GridSpec,
    cost_benefit,
    sweep_grid,
)
from partarget.linear import LeverDelta
from partarget.probit import (
    ProbitParams,
    dvalue_dalpha_probit,
    dvalue_dgamma_probit,
    par_probit_bounds,
    par_probit_exact,
    policy_threshold_probit,
    probit_cutoff_check,
    value_probit,
)

FIG_PARAMS = ProbitParams(base_rate=0.1, gamma_s=0.3)
DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "probit_reference.json").read_text())


class TestParams:
    def test_derived_quantities(self):
        p = ProbitParams(0.1, 0.6)
        assert p.mu_over_beta == pytest.approx(gaussian.quantile(0.1), rel=1e-14)
        assert p.mu_over_beta == pytest.approx(-gaussian.upper_quantile(0.1), rel=1e-14)
        assert p.gamma_t == pytest.approx(0.8, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            ProbitParams(0.0, 0.3)
        with pytest.raises(DomainError):
            ProbitParams(1.0, 0.3)
        with pytest.raises(DomainError):
            ProbitParams(0.1, -0.1)


class TestPolicyThreshold:
    def test_median(self):
        assert policy_threshold_probit(FIG_PARAMS, 0.5) == 0.0

    def test_matches_quantile(self):
        assert policy_threshold_probit(FIG_PARAMS, 0.05) == pytest.approx(
            gaussian.quantile(0.95), rel=1e-14)

    def test_symmetry(self):
        assert policy_threshold_probit(FIG_PARAMS, 0.95) == pytest.approx(
            -gaussian.quantile(0.95), abs=1e-12)


class TestValue:
    def test_boundary_identities_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 0.99))
            b = float(rng.uniform(0.01, 0.99))
            assert value_probit(ProbitParams(b, 0.0), alpha) == pytest.approx(
                alpha * b, abs=1e-10)
            assert value_probit(ProbitParams(b, float(rng.uniform(0.1, 0.9))),
                                1.0) == pytest.approx(b, abs=1e-10)
            assert value_probit(ProbitParams(b, 1.0), alpha) == pytest.approx(
                min(alpha, b), abs=1e-10)

    def test_against_independent_quadrature(self):
        # original semi-infinite form, integrated by an unrelated routine
        for alpha, gs, b in ((0.02, 0.3, 0.1), (0.2, 0.7, 0.4), (0.6, 0.5, 0.25)):
            p = ProbitParams(b, gs)
            m, gt = p.mu_over_beta, p.gamma_t
            t = gaussian.upper_quantile(alpha)
            ref, err = scipy_integrate.quad(
                lambda z: gaussian.cdf((gs * z + m) / gt) * gaussian.pdf(z),
                t, np.inf, epsabs=1e-13, epsrel=1e-12)
            assert err < 1e-9
            assert value_probit(p, alpha) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_against_monte_carlo(self):
        est = oracle.simulate_probit_value(
            FIG_PARAMS, 0.02, oracle.SimConfig(samples=2_000_000, seed=8))
        assert est.within(value_probit(FIG_PARAMS, 0.02), 4.0)

    def test_bounded_by_alpha_and_base_rate(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            p = ProbitParams(float(rng.uniform(0.05, 0.9)),
                             float(rng.uniform(0.05, 0.95)))
            alpha = float(rng.uniform(0.01, 0.99))
            v = value_probit(p, alpha)
            assert 0.0 < v <= min(alpha, p.base_rate) + 1e-10

    def test_monotone_in_alpha_and_gamma(self):
        vals = [value_probit(FIG_PARAMS, a) for a in np.linspace(0.01, 0.99, 15)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        gammas = np.linspace(0.05, 0.95, 10)
        vals_g = [value_probit(ProbitParams(0.1, float(g)), 0.05) for g in gammas]
        assert all(x < y for x, y in zip(vals_g, vals_g[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            value_probit(FIG_PARAMS, 0.0)
        with pytest.raises(DomainError):
            value_probit(FIG_PARAMS, 1.2)


class TestDvalueDalpha:
    def test_degenerate_predictor_gives_base_rate(self):
        p = ProbitParams(0.23, 0.0)
        for alpha in (0.1, 0.5, 0.9):
            assert dvalue_dalpha_probit(p, alpha) == pytest.approx(0.23, rel=1e-13)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for _ in range(30):
            p = ProbitParams(float(rng.uniform(0.2, 0.8)),
                             float(rng.uniform(0.2, 0.8)))
            alpha = float(rng.uniform(0.2, 0.8))
            fd = (value_probit(p, alpha + h) -
                  value_probit(p, alpha - h)) / (2 * h)
            assert dvalue_dalpha_probit(p, alpha) == pytest.approx(fd, rel=1e-5)

    def test_regime_lower_bound(self):
        p = ProbitParams(0.1, 0.5)
        alpha = 0.001
        # marginal treated unit already clears the benefit threshold
        assert p.gamma_s * gaussian.upper_quantile(2 * alpha) >= \
            gaussian.upper_quantile(p.base_rate)
        assert dvalue_dalpha_probit(p, alpha) >= 0.5

    def test_degenerate_variance(self):
        with pytest.raises(DomainError):
            dvalue_dalpha_probit(ProbitParams(0.1, 1.0), 0.05)


class TestDvalueDgamma:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(43)
        h = 1e-6
        for _ in range(100):
            p = ProbitParams(float(rng.uniform(0.2, 0.8)),
                             float(rng.uniform(0.2, 0.8)))
            alpha = float(rng.uniform(0.2, 0.8))
            fd = (value_probit(p.with_gamma_s(p.gamma_s + h), alpha) -
                  value_probit(p.with_gamma_s(p.gamma_s - h), alpha)) / (2 * h)
            assert dvalue_dgamma_probit(p, alpha) == pytest.approx(fd, rel=1e-5)

    def test_balanced_base_rate_simplification(self):
        p = ProbitParams(0.5, 0.6)
        alpha = 0.2
        t = gaussian.upper_quantile(alpha)
        expected = gaussian.pdf(0.0) * gaussian.pdf(t / p.gamma_t) / p.gamma_t
        assert dvalue_dgamma_probit(p, alpha) == pytest.approx(expected, rel=1e-13)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            p = ProbitParams(float(rng.uniform(0.01, 0.99)),
                             float(rng.uniform(0.01, 0.99)))
            assert dvalue_dgamma_probit(p, float(rng.uniform(0.01, 0.99))) > 0.0

    def test_boundary_rejected(self):
        for gs in (0.0, 1.0):
            with pytest.raises(DomainError):
                dvalue_dgamma_probit(ProbitParams(0.1, gs), 0.05)


class TestParExact:
    def test_zero_access_delta(self):
        assert par_probit_exact(FIG_PARAMS, 0.01, LeverDelta(0.0, 0.001)) == 0.0

    def test_first_order_consistency_with_derivatives(self):
        p = FIG_PARAMS
        alpha, delta = 0.005, 0.001
        d = LeverDelta(delta, delta)
        exact = par_probit_exact(p, alpha, d)
        mid_a = ProbitParams(p.base_rate, p.gamma_s + 0.5 * delta)
        approx = (delta * dvalue_dalpha_probit(p, alpha + 0.5 * delta)) / \
            (delta * dvalue_dgamma_probit(mid_a, alpha))
        assert exact == pytest.approx(approx, rel=0.05)

    def test_small_deltas_rejected(self):
        with pytest.raises(DegenerateLeverError):
            par_probit_exact(FIG_PARAMS, 0.01, LeverDelta(0.001, 1e-7))
        with pytest.raises(DegenerateLeverError):
            par_probit_exact(FIG_PARAMS, 0.01, LeverDelta(1e-7, 0.001))


class TestParBounds:
    def test_positive_and_ordered(self):
        pair = par_probit_bounds(ProbitParams(0.1, 0.5), 0.001,
                                 LeverDelta(0.001, 0.001), eps=0.05)
        assert 0.0 < pair.lower < pair.upper

    def test_scales_with_delta_ratio(self):
        p = ProbitParams(0.1, 0.5)
        pair1 = par_probit_bounds(p, 0.001, LeverDelta(0.0005, 0.001), eps=0.05)
        pair2 = par_probit_bounds(p, 0.001, LeverDelta(0.001, 0.001), eps=0.05)
        assert pair2.upper == pytest.approx(2.0 * pair1.upper, rel=1e-13)
        assert pair2.lower == pytest.approx(2.0 * pair1.lower, rel=1e-13)

    def test_hypothesis_violations_named(self):
        d = LeverDelta(0.001, 0.001)
        with pytest.raises(PreconditionError, match="base_rate"):
            par_probit_bounds(ProbitParams(0.2, 0.5), 0.001, d)
        with pytest.raises(PreconditionError, match="delta_alpha"):
            par_probit_bounds(ProbitParams(0.1, 0.5), 0.0005, d)
        with pytest.raises(PreconditionError, match="smallness"):
            par_probit_bounds(ProbitParams(0.1, 0.5), 0.05, LeverDelta(0.001, 0.001))
        with pytest.raises(PreconditionError, match="gamma_s"):
            par_probit_bounds(ProbitParams(0.1, 0.0), 0.001, d)
        with pytest.raises(DomainError):
            par_probit_bounds(ProbitParams(0.1, 0.5), 0.001, d, eps=0.5)

    def test_exponent_from_gamma_t(self):
        # doubling the core factor must scale the upper bound by 2^(1/gamma_t^2)
        p = ProbitParams(0.1, 0.6)
        assert 1.0 / (p.gamma_t ** 2) == pytest.approx(1.5625, rel=1e-12)


class TestCutoffCheck:
    def test_small_alpha_passes(self):
        res = probit_cutoff_check(ProbitParams(0.1, 0.9), 1e-8, 4.0)
        assert res.passes and not res.degenerate

    def test_direct_evaluation(self):
        p = ProbitParams(0.1, 0.05)
        res = probit_cutoff_check(p, 0.01, 4.0)
        rhs = 4.0 * 0.01 ** (1.0 / p.gamma_t ** 2) * 0.1
        assert res.passes
        assert res.margin == pytest.approx(p.gamma_t - rhs, rel=1e-12)

    def test_degenerate_flag(self):
        res = probit_cutoff_check(ProbitParams(0.1, 1.0), 0.01, 4.0)
        assert res.degenerate and res.passes


class TestAccessGainBounds:
    def test_regime_sandwich(self):
        # in the regime where the marginal unit is almost surely a
        # beneficiary, the access gain per unit of budget is in [1/2, 1]
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 200:
            b = float(rng.uniform(0.2, 0.6))
            gs = float(rng.uniform(0.5, 0.95))
            alpha = float(rng.uniform(1e-4, 0.05))
            if gs * gaussian.upper_quantile(2 * alpha) < gaussian.upper_quantile(b):
                continue
            delta = float(rng.uniform(1e-4, alpha))
            p = ProbitParams(b, gs)
            gain = value_probit(p, alpha + delta) - value_probit(p, alpha)
            assert 0.5 * delta <= gain * (1 + 1e-9)
            assert gain <= delta * (1 + 1e-9)
            checked += 1


class TestReferenceTable:
    """40-digit mpmath quadratures from tests/data/make_probit_reference.py."""

    def test_values(self):
        for row in REFERENCE["values"]:
            got = value_probit(ProbitParams(row["base_rate"], row["gamma_s"]), row["alpha"])
            assert got == pytest.approx(float(row["value"]), rel=1e-10, abs=0.0), row

    def test_pars(self):
        for row in REFERENCE["pars"]:
            got = par_probit_exact(ProbitParams(row["base_rate"], row["gamma_s"]),
                                   row["alpha"], LeverDelta(row["delta_alpha"], row["delta_r2"]))
            assert got == pytest.approx(float(row["par"]), rel=1e-9, abs=0.0), row

    def test_table_regenerates(self):
        mp = pytest.importorskip("mpmath")
        spec = importlib.util.spec_from_file_location(
            "make_probit_reference", DATA / "make_probit_reference.py")
        make = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make)
        with mp.workdps(REFERENCE["digits"]):
            for row in REFERENCE["values"][::53]:
                fresh = make.value(row["base_rate"], row["gamma_s"], row["alpha"])
                assert make._digits(fresh) == row["value"]
            row = REFERENCE["pars"][-1]
            ratio, keep = make.par(row["base_rate"], row["gamma_s"], row["alpha"],
                                   row["delta_alpha"], row["delta_r2"])
            assert keep and make._digits(ratio) == row["par"]


unit = st.floats(1e-6, 1.0 - 1e-6)
# Base rates stay at 1e-3 and above: when alpha and b are both below ~1e-4,
# V is a difference of terms of order min(alpha, b) and loses digits (see
# value_probit_array).
base_rates = st.floats(1e-3, 1.0 - 1e-3)
# Value tolerance: orderings and bounds hold to this relative slack.
RTOL = 1e-10


class TestValueProperties:
    @settings(max_examples=200, deadline=None)
    @given(base_rates, st.floats(0.0, 1.0), unit, unit)
    def test_monotone_in_alpha(self, b, gs, a1, a2):
        p = ProbitParams(b, gs)
        lo, hi = sorted((a1, a2))
        assert value_probit(p, lo) <= value_probit(p, hi) * (1.0 + RTOL)

    @settings(max_examples=200, deadline=None)
    @given(base_rates, st.floats(0.0, 1.0), st.floats(0.0, 1.0), unit)
    def test_monotone_in_gamma(self, b, g1, g2, alpha):
        lo, hi = sorted((g1, g2))
        assert (value_probit(ProbitParams(b, lo), alpha)
                <= value_probit(ProbitParams(b, hi), alpha) * (1.0 + RTOL))

    @settings(max_examples=200, deadline=None)
    @given(base_rates, st.floats(0.0, 1.0), unit)
    def test_positive_and_below_alpha_and_base_rate(self, b, gs, alpha):
        v = value_probit(ProbitParams(b, gs), alpha)
        assert 0.0 < v <= min(alpha, b) * (1.0 + RTOL)

    @settings(max_examples=200, deadline=None)
    @given(unit, unit, st.floats(0.0, 1.0))
    def test_boundary_identities(self, b, alpha, gs):
        assert value_probit(ProbitParams(b, 0.0), alpha) == alpha * b
        assert value_probit(ProbitParams(b, 1.0), alpha) == min(alpha, b)
        assert value_probit(ProbitParams(b, gs), 1.0) == b


def _scalar_cell(spec: GridSpec, alpha: float, gamma: float):
    """Status, PAR and cost-benefit ratio of one cell from scalar calls."""
    try:
        par = par_probit_exact(ProbitParams(spec.base_rate, gamma), alpha, spec.deltas)
        return STATUS_OK, par, cost_benefit(par, spec.costs)
    except (DegenerateLeverError, NumericsError):
        return STATUS_SKIPPED_DEGENERATE, None, None
    except DomainError:
        return STATUS_SKIPPED_REGIME, None, None


@st.composite
def probit_specs(draw):
    alpha_lo = draw(st.floats(1e-6, 0.9))
    gamma_lo = draw(st.sampled_from([0.0, 0.2, 0.7]))
    return GridSpec(
        model="probit",
        alpha_lo=alpha_lo,
        alpha_hi=draw(st.floats(alpha_lo * 1.01, 0.999)),
        alpha_count=draw(st.integers(2, 5)),
        gamma_lo=gamma_lo,
        gamma_hi=draw(st.sampled_from([gamma_lo + 0.1, 0.9, 1.0])),
        gamma_count=draw(st.integers(2, 5)),
        deltas=LeverDelta(draw(st.sampled_from([1e-5, 1e-3, 0.05, 0.3])),
                          draw(st.sampled_from([1e-5, 1e-3, 0.05]))),
        costs=CostModel(1.0, draw(st.floats(0.1, 10.0))),
        base_rate=draw(st.floats(0.001, 0.999)),
        alpha_spacing=draw(st.sampled_from(["log", "linear"])),
    )


class TestSweepMatchesScalarCalls:
    EXAMPLE = GridSpec(
        model="probit", alpha_lo=1e-6, alpha_hi=0.99, alpha_count=5,
        gamma_lo=0.0, gamma_hi=1.0, gamma_count=5,
        deltas=LeverDelta(0.05, 1e-5), costs=CostModel(1.0, 0.5), base_rate=0.02)

    def test_example_has_both_skip_kinds(self):
        statuses = {c.status for c in sweep_grid(self.EXAMPLE).cells}
        assert statuses == {STATUS_OK, STATUS_SKIPPED_REGIME, STATUS_SKIPPED_DEGENERATE}

    @settings(max_examples=60, deadline=None)
    @example(EXAMPLE)
    # Steps that skip the whole grid: no access step, too small a prediction step.
    @example(replace(EXAMPLE, deltas=LeverDelta(0.0, 1e-3)))
    @example(replace(EXAMPLE, deltas=LeverDelta(1e-3, 1e-6)))
    @given(probit_specs())
    def test_cells_equal_scalar_calls(self, spec):
        expected = [(a, g, *_scalar_cell(spec, a, g))
                    for a in spec.alphas() for g in spec.gammas()]
        if all(status != STATUS_OK for _, _, status, _, _ in expected):
            with pytest.raises(PartargetError):
                sweep_grid(spec)
            return
        cells = sweep_grid(spec).cells
        assert len(cells) == len(expected)
        for c, (alpha, gamma, status, par, cb) in zip(cells, expected):
            assert (c.alpha, c.gamma_s, c.status) == (alpha, gamma, status)
            if status == STATUS_OK:
                assert (c.par, c.cost_benefit) == (par, cb)
                assert c.cost_benefit_clipped == min(max(cb, spec.clip_lo), spec.clip_hi)
            else:
                assert math.isnan(c.par) and math.isnan(c.cost_benefit)
