"""Tests for the probit welfare model's closed-form value and derivatives."""


import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy.stats import multivariate_normal

from partarget import gaussian, oracle, probit
from partarget.errors import (
    DegenerateLeverError,
    DomainError,
    NumericsError,
    PreconditionError,
)
from partarget.linear import LeverDelta
from partarget.probit import (
    MIN_DELTA,
    PAR_OK,
    ProbitParams,
    dvalue_dalpha_probit,
    dvalue_dgamma_probit,
    par_probit_array,
    par_probit_bounds,
    par_probit_exact,
    policy_threshold_probit,
    probit_cutoff_check,
    value_probit,
)

FIG_PARAMS = ProbitParams(base_rate=0.1, gamma_s=0.3)


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

    def test_cells_past_a_block_equal_scalar_calls(self):
        # more cells than the core integrates at once
        rng = np.random.default_rng(7)
        n = probit.BLOCK + 100
        b, g = rng.uniform(1e-6, 0.9, n), rng.uniform(0.0, 1.0, n)
        a = 10.0 ** rng.uniform(-30.0, -1e-3, n)
        want = [probit.value_probit_array(*cell) for cell in zip(b, g, a)]
        np.testing.assert_array_equal(probit.value_probit_array(b, g, a), want)

    def test_array_is_elementwise(self):
        # the analytic branches gamma_s = 0, gamma_s = 1 and alpha = 1 included
        bs = [1e-6, 0.1, 0.5, 0.9]
        gs = [0.0, 0.3, 0.9999, 1.0]
        alphas = [1e-30, 0.02, 0.5, 0.97, 1.0]
        b, g, a = np.meshgrid(bs, gs, alphas, indexing="ij")
        want = [[[probit.value_probit_array(x, y, z) for z in alphas] for y in gs] for x in bs]
        np.testing.assert_array_equal(probit.value_probit_array(b, g, a), want)
        np.testing.assert_array_equal(
            probit.value_probit_array(np.array(bs)[:, None, None], g[0], alphas), want)
        np.testing.assert_array_equal(probit.value_probit_array(bs[2], g[2], alphas), want[2])

    def test_symmetries_and_closed_forms(self):
        v = probit.value_probit_array
        for rho in (0.0, 0.1, 0.3, 0.5, 0.9, 0.9999, 1.0):
            # Phi_2(0, 0; rho) = 1/4 + asin(rho) / (2 pi)
            assert v(0.5, rho, 0.5) == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi),
                                                     rel=1e-14)
            for b, alpha in ((0.1, 0.02), (1e-3, 1e-4), (0.9, 0.8), (0.3, 0.3)):
                # Phi_2 is symmetric in h and k, and
                # Phi_2(-h, -k; rho) = 1 - Phi(h) - Phi(k) + Phi_2(h, k; rho)
                assert v(alpha, rho, b) == pytest.approx(v(b, rho, alpha), rel=1e-13)
                assert v(1 - b, rho, 1 - alpha) == pytest.approx(
                    1 - alpha - b + v(b, rho, alpha), rel=0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.0, 0.999), st.floats(1e-6, 1.0 - 1e-6))
    def test_agrees_with_scipy(self, b, gs, alpha):
        # scipy's bivariate normal CDF (Genz's algorithm) as a second oracle
        cov = [[1.0, gs], [gs, 1.0]]
        want = multivariate_normal([0.0, 0.0], cov, abseps=1e-14, releps=1e-14).cdf(
            [gaussian.quantile(alpha), gaussian.quantile(b)])
        assert value_probit(ProbitParams(b, gs), alpha) == pytest.approx(
            float(want), rel=1e-9, abs=1e-14)

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


class TestQuantilesTakenOnce:
    """A probit value takes h = quantile(alpha) and k = quantile(b) once, and
    a PAR takes h, h at alpha + delta_alpha, and k once for its three values."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"quantile": 0, "at_distinct": 0}
        quantile, at_distinct = gaussian._ndtri_float, gaussian.at_distinct

        def counting_quantile(p):
            counts["quantile"] += 1
            return quantile(p)

        def counting_at_distinct(f, x):
            counts["at_distinct"] += 1
            return at_distinct(f, x)

        monkeypatch.setattr(gaussian, "_ndtri_float", counting_quantile)
        monkeypatch.setattr(gaussian, "at_distinct", counting_at_distinct)
        return counts

    def test_scalar_value_takes_the_float_path_directly(self, calls):
        value_probit(FIG_PARAMS, 0.02)
        assert calls == {"quantile": 2, "at_distinct": 0}

    def test_scalar_par_takes_three_quantiles(self, calls):
        par_probit_exact(FIG_PARAMS, 0.02, LeverDelta(0.001, 0.01))
        assert calls == {"quantile": 3, "at_distinct": 3}

    def test_sweep_takes_each_distinct_quantile_once(self, calls):
        from partarget.grid import GridSpec, sweep_grid
        from partarget.inputs import CostModel
        spec = GridSpec(model="probit", base_rate=0.1, alpha_lo=1e-3, alpha_hi=0.3,
                        alpha_count=25, gamma_lo=0.01, gamma_hi=0.9, gamma_count=25,
                        deltas=LeverDelta(1e-3, 1e-3), costs=CostModel(1.0, 1.0))
        g = sweep_grid(spec)
        assert not np.any(g.cells["status"] == "skipped-regime")
        # 25 alphas, 25 alphas + delta_alpha and one base rate
        assert calls["quantile"] == 51

    # Each lever's step is taken by its own rule.  The last gamma row steps past
    # 1, and its access steps are taken at alpha + delta_alpha all the same: 25
    # alphas, 25 steps and one base rate.  Alpha = 0.5 + 0.02 i steps past 1
    # from i = 13, and those 12 steps take the one quantile at 1: 25 alphas, 13
    # steps below 1, 1 itself and one base rate.
    @pytest.mark.parametrize("fields, skipped, quantiles", [
        (dict(alpha_lo=1e-3, alpha_hi=0.3, gamma_hi=1.0, deltas=LeverDelta(1e-3, 1e-3)), 25, 51),
        (dict(alpha_lo=0.5, alpha_hi=0.98, alpha_spacing="linear", gamma_hi=0.9,
              deltas=LeverDelta(0.25, 1e-3)), 12 * 25, 40),
    ], ids=["prediction-step-past-1", "access-step-past-1"])
    def test_each_step_takes_its_own_quantiles(self, calls, fields, skipped, quantiles):
        from partarget.grid import GridSpec, sweep_grid
        from partarget.inputs import CostModel
        spec = GridSpec(model="probit", base_rate=0.1, alpha_count=25, gamma_lo=0.01,
                        gamma_count=25, costs=CostModel(1.0, 1.0), **fields)
        g = sweep_grid(spec)
        assert np.sum(g.cells["status"] == "skipped-regime") == skipped
        assert calls["quantile"] == quantiles


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

    def test_smallness_thresholds_are_constants(self):
        assert list(inspect.signature(par_probit_bounds).parameters) == ["p", "alpha", "d",
                                                                         "eps"]
        p, d = ProbitParams(0.1, 0.5), LeverDelta(0.001, 0.001)
        par_probit_bounds(p, probit.BOUNDS_MAX_ALPHA, d)
        with pytest.raises(PreconditionError, match="smallness"):
            par_probit_bounds(p, np.nextafter(probit.BOUNDS_MAX_ALPHA, 1.0), d)
        par_probit_bounds(p, 0.005, LeverDelta(0.001, probit.BOUNDS_MAX_DELTA_R2))
        with pytest.raises(PreconditionError, match="smallness"):
            par_probit_bounds(p, 0.005, LeverDelta(0.001, np.nextafter(
                probit.BOUNDS_MAX_DELTA_R2, 1.0)))

    def test_overflow_near_gamma_one(self):
        # the core factor ~129 is raised to a power ~500 = 1/gamma_t^2
        with pytest.raises(NumericsError, match="overflow"):
            par_probit_bounds(ProbitParams(0.05, 0.999), 0.001, LeverDelta(1e-4, 1e-3))

    def test_overflow_at_vanishing_alpha(self):
        # the core factor is inf, and times a zero access step it would be NaN
        with pytest.raises(NumericsError, match="overflow"):
            par_probit_bounds(ProbitParams(0.05, 0.3), 5e-324, LeverDelta(0.0, 1e-3))

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


class TestGaussLegendreRule:
    """The committed 48-point rule of the value core."""

    NODES = probit._GL_NODES + tuple(-x for x in probit._GL_NODES)
    WEIGHTS = probit._GL_WEIGHTS * 2

    def test_matches_numpy(self):
        # the nodes within 1 ulp of numpy's; numpy's weights are up to 1.3e-12
        # off the committed ones, which are rounded from 40-digit values
        x, w = np.polynomial.legendre.leggauss(48)
        order = np.argsort(self.NODES)
        assert np.all(np.abs(np.array(self.NODES)[order] - x) <= np.spacing(np.abs(x)))
        np.testing.assert_allclose(np.array(self.WEIGHTS)[order], w, rtol=2e-12, atol=0.0)

    def test_exact_below_degree_96(self):
        for k in range(48):
            moment = math.fsum(w * x ** (2 * k) for x, w in zip(self.NODES, self.WEIGHTS))
            assert moment == pytest.approx(2.0 / (2 * k + 1), rel=2e-15)


class TestReferenceTable:
    """40-digit mpmath quadratures from tests/data/make_reference.py."""

    def test_values(self, reference):
        for row in reference["probit_values"]:
            got = value_probit(ProbitParams(row["base_rate"], row["gamma_s"]), row["alpha"])
            assert got == pytest.approx(float(row["value"]), rel=1e-13, abs=0.0), row

    def test_pars(self, reference):
        for row in reference["probit_pars"]:
            got = par_probit_exact(ProbitParams(row["base_rate"], row["gamma_s"]),
                                   row["alpha"], LeverDelta(row["delta_alpha"], row["delta_r2"]))
            assert got == pytest.approx(float(row["par"]), rel=1e-9, abs=0.0), row

    def test_table_regenerates(self, reference, make_reference):
        make = make_reference
        with make.mp.workdps(reference["digits"]):
            for row in reference["probit_values"][::53]:
                fresh = make.value(row["base_rate"], row["gamma_s"], row["alpha"])
                assert make._digits(fresh) == row["value"]
            row = reference["probit_pars"][-1]
            ratio, keep = make.par(row["base_rate"], row["gamma_s"], row["alpha"],
                                   row["delta_alpha"], row["delta_r2"])
            assert keep and make._digits(ratio) == row["par"]


unit = st.floats(1e-6, 1.0 - 1e-6)
# Base rates as small as the smallest alphas: the value keeps its relative
# accuracy when alpha and b are both small (the reference rows at b = 1e-6).
base_rates = unit
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
        # Plackett's integral is non-negative for gamma_s >= 0
        assert alpha * b <= v

    @settings(max_examples=200, deadline=None)
    @given(unit, unit, st.floats(0.0, 1.0))
    # down to the smallest subnormal, where gamma_s = 0 is alpha * b with no branch
    @example(5e-324, 5e-324, 0.5)
    @example(1e-310, 0.5, 0.3)
    @example(0.5, 1e-310, 0.9999)
    @example(2.2250738585072014e-308, 2.2250738585072014e-308, 0.7)
    @example(0.5, 0.5, 0.0)
    @example(math.nextafter(1.0, 0.0), 5e-324, 0.1)
    @example(5e-324, math.nextafter(1.0, 0.0), 0.1)
    @example(math.nextafter(1.0, 0.0), math.nextafter(1.0, 0.0), 0.99)
    def test_boundary_identities(self, b, alpha, gs):
        assert value_probit(ProbitParams(b, 0.0), alpha) == alpha * b
        assert value_probit(ProbitParams(b, 1.0), alpha) == min(alpha, b)
        assert value_probit(ProbitParams(b, gs), 1.0) == b


class TestParProperties:
    @settings(max_examples=200, deadline=None)
    @given(base_rates,
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           st.lists(unit, min_size=1, max_size=8),
           st.floats(MIN_DELTA, 0.5), st.floats(MIN_DELTA, 0.5))
    def test_positive_wherever_ok(self, b, gammas, alphas, delta_alpha, delta_r2):
        g = np.array(gammas)[:, None]
        a = np.array(alphas)[None, :]
        par, status = par_probit_array(b, g, a, LeverDelta(delta_alpha, delta_r2))
        ok = status == PAR_OK
        assert np.all(par[ok] > 0.0)
        assert np.all(np.isnan(par[~ok]))
