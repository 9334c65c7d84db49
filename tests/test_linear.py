"""Tests for the linear welfare model's closed forms and bounds."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partarget import gaussian, oracle
from partarget.errors import (
    DegenerateLeverError,
    DomainError,
    PartargetError,
    PreconditionError,
    RegimeError,
)
from partarget.grid import serialize_grid, sweep_grid
from partarget.inputs import CostModel, GridSpec, SimConfig
from partarget.linear import (
    LeverDelta,
    LinearParams,
    linear_indifference_gamma,
    par_linear_bounds,
    par_linear_exact,
    policy_threshold_linear,
    quality_gain_linear,
    random_to_optimal_ratio,
    random_value,
    value_linear,
)

FIG_PARAMS = LinearParams(mu=1.0, beta_norm=10.0, gamma_s=0.3)


def random_bound_instance(rng):
    """Draw (params, alpha, deltas) satisfying every bound hypothesis."""
    gamma_s = float(rng.uniform(0.01, 0.95))
    alpha = float(rng.uniform(1e-4, 0.04))
    delta_alpha = float(rng.uniform(0.0, min(4.0 * alpha, 0.0499 - alpha)))
    delta_r2 = float(rng.uniform(1e-4, min(0.99, 1.0 - gamma_s)))
    p = LinearParams(
        mu=float(rng.uniform(0.1, 3.0)),
        beta_norm=float(rng.uniform(0.5, 20.0)),
        gamma_s=gamma_s,
    )
    return p, alpha, LeverDelta(delta_alpha, delta_r2)


class TestParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            LinearParams(0.0, 10.0, 0.3)
        with pytest.raises(DomainError):
            LinearParams(1.0, -1.0, 0.3)
        with pytest.raises(DomainError):
            LinearParams(1.0, 10.0, 1.2)
        with pytest.raises(DomainError):
            LeverDelta(-0.01, 0.01)

    def test_gamma_t(self):
        assert LinearParams(1, 1, 0.6).gamma_t == pytest.approx(0.8)


class TestPolicyThreshold:
    def test_vanishes_near_half(self):
        assert abs(policy_threshold_linear(FIG_PARAMS, 0.4999999)) < 1e-5

    def test_degenerate_predictor(self):
        assert policy_threshold_linear(FIG_PARAMS.with_gamma_s(0.0), 0.1) == 0.0

    def test_matches_quantile(self):
        expected = 3.0 * gaussian.quantile(0.95)
        assert policy_threshold_linear(FIG_PARAMS, 0.05) == pytest.approx(expected,
                                                                          rel=1e-14)

    def test_regime_rejected(self):
        with pytest.raises(RegimeError):
            policy_threshold_linear(FIG_PARAMS, 0.6)


class TestValue:
    def test_reduces_to_random_value(self):
        p = LinearParams(1.0, 10.0, 0.0)
        assert value_linear(p, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_near_half_limit(self):
        v = value_linear(FIG_PARAMS, 0.5 - 1e-12)
        assert v == pytest.approx(0.5 + 3.0 / math.sqrt(2 * math.pi), abs=1e-9)

    @given(st.floats(0.01, 100.0), st.floats(1e-12, 0.4999))
    def test_density_is_phi_of_quantile(self, mu, alpha):
        # the core's g(alpha) and the scalar one share one density
        p = LinearParams(mu, 1.0, 1.0)
        assert value_linear(p, alpha) == alpha * mu + gaussian.phi_of_quantile(alpha)

    def test_against_monte_carlo(self):
        est = oracle.simulate_linear_value(
            FIG_PARAMS, 0.05, oracle.SimConfig(samples=1_000_000, seed=42))
        assert est.within(value_linear(FIG_PARAMS, 0.05), 4.0)

    def test_monotonicity(self):
        alphas = np.linspace(0.01, 0.49, 25)
        vals = [value_linear(FIG_PARAMS, float(a)) for a in alphas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for lo, hi in ((0.0, 0.2), (0.2, 0.9)):
            assert value_linear(FIG_PARAMS.with_gamma_s(lo), 0.1) < \
                value_linear(FIG_PARAMS.with_gamma_s(hi), 0.1)
        assert value_linear(LinearParams(1, 10, 0.3), 0.1) < \
            value_linear(LinearParams(2, 10, 0.3), 0.1)
        assert value_linear(LinearParams(1, 10, 0.3), 0.1) < \
            value_linear(LinearParams(1, 11, 0.3), 0.1)


class TestRandomValue:
    def test_trivials(self):
        assert random_value(FIG_PARAMS, 0.0) == 0.0
        assert random_value(LinearParams(2, 1, 0), 0.25) == 0.5

    def test_never_beats_optimal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, alpha, _ = random_bound_instance(rng)
            assert random_value(p, alpha) <= value_linear(p, alpha) + 1e-15


class TestRandomToOptimalRatio:
    def test_prediction_worthless_limit(self):
        p = LinearParams(1.0, 1e-9, 0.3)
        assert random_to_optimal_ratio(p, 0.1) > 1 - 1e-6

    def test_definitional_consistency(self):
        p = LinearParams(1.0, 10.0, 0.3)
        expected = random_value(p, 0.1) / value_linear(p.with_gamma_s(1.0), 0.1)
        assert random_to_optimal_ratio(p, 0.1) == pytest.approx(expected, rel=1e-13)

    def test_independent_formula_path(self):
        p = LinearParams(1.0, 1.0, 0.5)
        alpha = 0.25
        t = gaussian.quantile(1 - alpha)
        expected = 1.0 / (1.0 + (1.0 / 1.0) * gaussian.pdf(t) / alpha)
        assert random_to_optimal_ratio(p, alpha) == pytest.approx(expected, rel=1e-13)


class TestParExact:
    def test_zero_access_delta(self):
        assert par_linear_exact(FIG_PARAMS, 0.02, LeverDelta(0.0, 0.01)) == 0.0

    def test_inside_analytic_bounds(self):
        d = LeverDelta(0.01, 0.01)
        exact = par_linear_exact(FIG_PARAMS, 0.02, d)
        assert par_linear_bounds(FIG_PARAMS, 0.02, d).contains(exact)

    def test_against_monte_carlo_corners(self):
        # common-random-number PAR estimates across seeds vs the closed form
        p = FIG_PARAMS.with_gamma_s(0.1)
        alpha, d = 0.01, LeverDelta(0.01, 0.01)
        estimates = []
        for seed in range(10):
            cfg = oracle.SimConfig(samples=1_000_000, seed=seed)
            base = oracle.simulate_linear_value(p, alpha, cfg).mean
            up_a = oracle.simulate_linear_value(p, alpha + d.delta_alpha, cfg).mean
            up_g = oracle.simulate_linear_value(
                p.with_gamma_s(p.gamma_s + d.delta_r2), alpha, cfg).mean
            estimates.append((up_a - base) / (up_g - base))
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
        assert abs(par_linear_exact(p, alpha, d) - mean) <= 4 * se

    def test_degenerate_lever(self):
        with pytest.raises(DegenerateLeverError):
            par_linear_exact(FIG_PARAMS, 0.02, LeverDelta(0.01, 0.0))

    @pytest.mark.parametrize("alpha", [1e-310, 5e-324])
    def test_ratio_that_overflows_is_degenerate(self, alpha):
        # a positive prediction gain of order alpha * T, too small to divide by
        p = LinearParams(1.0, 10.0, 0.3)
        with pytest.raises(DegenerateLeverError, match="too small to divide by"):
            par_linear_exact(p, alpha, LeverDelta(0.01, 0.01))

    @pytest.mark.parametrize("k", [-1060, -600, 600, 1000])
    def test_scale_is_exact(self, k):
        # The PAR does not depend on the scale of (mu, beta_norm), and it is
        # taken in a power-of-two unit of them, so (1, 10) * 2**k gives the
        # bits of (1, 10), in a scalar call and in a grid, even where mu is
        # subnormal (k = -1060).
        d = LeverDelta(0.01, 0.01)

        def at(k):
            p = LinearParams(math.ldexp(1.0, k), math.ldexp(10.0, k), 0.3)
            grid = sweep_grid(GridSpec(
                model="linear", mu=p.mu, beta_norm=p.beta_norm, alpha_lo=0.001, alpha_hi=0.45,
                alpha_count=6, gamma_lo=0.0, gamma_hi=1.0, gamma_count=6, deltas=d,
                costs=CostModel(1.0, 0.5)))
            return par_linear_exact(p, 0.05, d), serialize_grid(grid, "csv"), grid.contour

        assert at(k) == at(0)

    @pytest.mark.parametrize("mu, beta_norm", [(1e6, 1e-6), (1e3, 1e-3), (1.0, 10.0)])
    def test_matches_50_digit_ratio(self, mu, beta_norm):
        # alpha * mu dwarfs the prediction gain gamma_s * beta_norm * g(alpha)
        # in the first rows, where a difference of two values loses its digits.
        mp = pytest.importorskip("mpmath")
        gamma_s, alpha, d = 0.5, 0.01, LeverDelta(0.01, 0.01)
        with mp.workdps(50):
            def value(g, a):
                t = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(a) - 1)
                return mp.mpf(a) * mu + mp.mpf(g) * beta_norm * mp.npdf(t)

            v0 = value(gamma_s, alpha)
            want = ((value(gamma_s, alpha + d.delta_alpha) - v0)
                    / (value(mp.mpf(gamma_s) + d.delta_r2, alpha) - v0))
        got = par_linear_exact(LinearParams(mu, beta_norm, gamma_s), alpha, d)
        assert got == pytest.approx(float(want), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 1.0),
           st.floats(1e-6, 0.5), st.floats(1e-6, 0.5), st.floats(1e-6, 1.0))
    def test_positive_inside_regime(self, mu, beta_norm, gamma_s, alpha,
                                    delta_alpha, delta_r2):
        p = LinearParams(mu, beta_norm, gamma_s)
        try:
            par = par_linear_exact(p, alpha, LeverDelta(delta_alpha, delta_r2))
        except PartargetError:
            assume(False)  # outside the regime: the error names why
        assert par > 0.0


class TestParBounds:
    def test_structural_factor_four(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p, alpha, d = random_bound_instance(rng)
            pair = par_linear_bounds(p, alpha, d)
            assert pair.upper == pytest.approx(4.0 * pair.lower, rel=1e-14)

    def test_containment_500_random_instances(self):
        rng = np.random.default_rng(2026)
        checked = 0
        while checked < 500:
            p, alpha, d = random_bound_instance(rng)
            if d.delta_alpha == 0.0 or d.delta_r2 == 0.0:
                continue
            pair = par_linear_bounds(p, alpha, d)
            exact = par_linear_exact(p, alpha, d)
            assert pair.contains(exact), (p, alpha, d, pair, exact)
            checked += 1

    def test_scales_with_delta_alpha(self):
        d1 = LeverDelta(0.005, 0.01)
        d2 = LeverDelta(0.015, 0.01)
        p1 = par_linear_bounds(FIG_PARAMS, 0.01, d1)
        p2 = par_linear_bounds(FIG_PARAMS, 0.01, d2)
        assert p2.upper == pytest.approx(3.0 * p1.upper, rel=1e-13)
        assert p2.lower == pytest.approx(3.0 * p1.lower, rel=1e-13)

    def test_hypothesis_violations_named(self):
        d = LeverDelta(0.01, 0.01)
        with pytest.raises(PreconditionError, match="gamma_s"):
            par_linear_bounds(FIG_PARAMS.with_gamma_s(0.0), 0.02, d)
        with pytest.raises(PreconditionError, match="alpha \\+ delta_alpha"):
            par_linear_bounds(FIG_PARAMS, 0.045, d)
        with pytest.raises(PreconditionError, match="4\\*alpha"):
            par_linear_bounds(FIG_PARAMS, 0.002, LeverDelta(0.01, 0.01))


class TestQualityGain:
    def test_product(self):
        assert quality_gain_linear(FIG_PARAMS, 0.1, 1.0) == pytest.approx(0.1)
        assert quality_gain_linear(FIG_PARAMS, 0.05, 0.2) == pytest.approx(0.01)

    def test_matches_value_difference(self):
        delta_mu = 0.7
        bumped = LinearParams(FIG_PARAMS.mu + delta_mu, FIG_PARAMS.beta_norm,
                              FIG_PARAMS.gamma_s)
        diff = value_linear(bumped, 0.12) - value_linear(FIG_PARAMS, 0.12)
        assert quality_gain_linear(FIG_PARAMS, 0.12, delta_mu) == pytest.approx(
            diff, rel=1e-12)


class TestIndifferenceGamma:
    def test_free_access_clamps_to_zero(self):
        d = LeverDelta(0.01, 0.01)
        assert linear_indifference_gamma(0.02, 1e-12, d, FIG_PARAMS) == 0.0

    def test_slope_is_cost_ratio(self):
        # with equal deltas, threshold + correction is linear in alpha;
        # beta_norm is large so the correction never triggers the 0 clamp
        d = LeverDelta(0.01, 0.01)
        cr = 2.0
        p = LinearParams(1.0, 100.0, 0.3)
        pts = []
        for alpha in (0.01, 0.02, 0.03, 0.04):
            t = gaussian.upper_quantile(alpha)
            raw = linear_indifference_gamma(alpha, cr, d, p) + \
                p.mu / (p.beta_norm * t)
            pts.append((alpha, raw))
        slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])]
        for s in slopes:
            assert s == pytest.approx(cr, rel=1e-12)

    def test_above_threshold_access_wins_exactly(self):
        # the threshold approximates the exact indifference contour; a
        # margin of 0.05 above it must put the exact cost-benefit over 1
        alpha, cr = 0.02, 2.0
        d = LeverDelta(0.01, 0.01)
        gamma = linear_indifference_gamma(alpha, cr, d, FIG_PARAMS) + 0.05
        p = FIG_PARAMS.with_gamma_s(gamma)
        exact = par_linear_exact(p, alpha, d)
        assert exact / cr > 1.0
        # the analytic upper bound agrees; the /4 lower bound is too
        # loose to certify this margin and is not asserted here
        assert par_linear_bounds(p, alpha, d).upper / cr > 1.0


class TestScale:
    # m * 2**e with m < 2**8 and e >= -4, so x * 2**k is exact for every k >= -1060;
    # below 2**23, so it stays finite up to k = 1000.
    SCALES = st.builds(math.ldexp, st.integers(1, 255), st.integers(-4, 15))

    @settings(max_examples=20, deadline=None)
    @given(SCALES, SCALES, st.floats(0.01, 0.95), st.floats(1e-4, 0.02),
           st.floats(1.0, 1e4), st.integers(-1060, 1000))
    # beta_norm * T underflows at the first and overflows at the second in raw units
    @example(1.0, 1.0, 0.3, 0.01, 100.0, -1060)
    @example(1.0, 255 * 2.0 ** 15, 0.3, 0.01, 100.0, 1000)
    def test_every_function_at_every_scale(self, mu, beta_norm, gamma_s, alpha, cr, k):
        # At (mu, beta_norm) * 2**k the outputs that do not depend on the scale
        # keep their bits, and the others are scaled by exactly 2**k wherever
        # that is a normal double.
        d = LeverDelta(alpha, 0.01)

        def outputs(k):
            p = LinearParams(math.ldexp(mu, k), math.ldexp(beta_norm, k), gamma_s)
            est = oracle.simulate_linear_value(p, alpha, SimConfig(samples=10_000, seed=1))
            return ((par_linear_exact(p, alpha, d), par_linear_bounds(p, alpha, d),
                     linear_indifference_gamma(alpha, cr, d, p),
                     random_to_optimal_ratio(p, alpha)),
                    (value_linear(p, alpha), policy_threshold_linear(p, alpha),
                     est.mean, est.std_error))

        free, scaled = outputs(k)
        free0, scaled0 = outputs(0)
        assert free == free0
        for x, x0 in zip(scaled, scaled0):
            want = x0 * 2.0 ** k
            if sys.float_info.min <= want < math.inf:
                assert x == want


class TestSandwiches:
    def test_access_gain_sandwich(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 300:
            p, alpha, d = random_bound_instance(rng)
            if d.delta_alpha == 0.0:
                continue
            t = gaussian.upper_quantile(alpha)
            gain = value_linear(p, alpha + d.delta_alpha) - value_linear(p, alpha)
            lo = d.delta_alpha * (p.mu + 0.5 * p.gamma_s * p.beta_norm * t)
            hi = d.delta_alpha * (p.mu + p.gamma_s * p.beta_norm * t)
            assert lo <= gain * (1 + 1e-12) and gain <= hi * (1 + 1e-12)
            checked += 1

    def test_prediction_gain_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            alpha = float(rng.uniform(1e-4, 0.0499))
            gamma_s = float(rng.uniform(0.0, 0.9))
            delta_r2 = float(rng.uniform(1e-4, 1.0 - gamma_s))
            p = LinearParams(1.0, float(rng.uniform(0.5, 20.0)), gamma_s)
            t = gaussian.upper_quantile(alpha)
            f = gaussian.phi_of_quantile_slack(alpha)
            gain = value_linear(p.with_gamma_s(gamma_s + delta_r2), alpha) - \
                value_linear(p, alpha)
            lo = delta_r2 * p.beta_norm * alpha * t
            hi = lo * (1.0 + f)
            assert lo <= gain * (1 + 1e-12) and gain <= hi * (1 + 1e-12)

    def test_density_at_cutoff_increment_bounds(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            alpha = float(rng.uniform(1e-4, 0.04))
            delta = float(rng.uniform(0.0, min(4.0 * alpha, 0.0499 - alpha)))
            if delta == 0.0:
                continue
            t = gaussian.upper_quantile(alpha)
            inc = gaussian.phi_of_quantile(alpha + delta) - gaussian.phi_of_quantile(alpha)
            assert 0.5 * t * delta <= inc * (1 + 1e-12)
            assert inc <= t * delta * (1 + 1e-12)
            checked += 1


class TestReferenceTable:
    """40-digit mpmath integrals from tests/data/make_reference.py."""

    def test_values(self, reference):
        for row in reference["linear_values"]:
            p = LinearParams(row["mu"], row["beta_norm"], row["gamma_s"])
            got = value_linear(p, row["alpha"])
            assert got == pytest.approx(float(row["value"]), rel=1e-13, abs=0.0), row

    def test_pars(self, reference):
        for row in reference["linear_pars"]:
            p = LinearParams(row["mu"], row["beta_norm"], row["gamma_s"])
            got = par_linear_exact(p, row["alpha"], LeverDelta(row["delta_alpha"], row["delta_r2"]))
            assert got == pytest.approx(float(row["par"]), rel=1e-9, abs=0.0), row

    def test_table_regenerates(self, reference, make_reference):
        make = make_reference
        with make.mp.workdps(reference["digits"]):
            for row in reference["linear_values"][::11]:
                fresh = make.linear_value(row["mu"], row["beta_norm"], row["gamma_s"],
                                          row["alpha"])
                assert make._digits(fresh) == row["value"]
            row = reference["linear_pars"][-1]
            ratio, keep = make.linear_par(row["mu"], row["beta_norm"], row["gamma_s"],
                                          row["alpha"], row["delta_alpha"], row["delta_r2"])
            assert keep and make._digits(ratio) == row["par"]
