"""Tests for the standard-normal special functions."""

import math
import sys
from decimal import Decimal, getcontext
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy.special import ndtr, ndtri

from partarget import gaussian
from partarget.errors import DomainError, NumericsError, PreconditionError, RegimeError
from partarget.gaussian import BoundPair


def high_precision_pdf(z: float) -> float:
    """Density via a 50-digit Decimal exponential series; independent of math.exp."""
    getcontext().prec = 50
    x = Decimal(-z) * Decimal(z) / 2
    term = Decimal(1)
    total = Decimal(1)
    for k in range(1, 200):
        term *= x / k
        total += term
        if abs(term) < Decimal(10) ** -45:
            break
    inv_sqrt_2pi = Decimal(1) / (2 * Decimal(math.pi)).sqrt()
    return float(total * inv_sqrt_2pi)


def quantile_points() -> np.ndarray:
    """200,000 points in [1e-9, 1 - 1e-9]: 100,000 uniform and 50,000
    log-uniform toward each end."""
    rng = np.random.default_rng(20261019)
    tail = 10.0 ** -rng.uniform(1, 9, 100_000)
    return np.concatenate([rng.uniform(1e-9, 1 - 1e-9, 100_000), tail[:50_000],
                           1.0 - tail[50_000:]])


def assert_float_path_but_logs(p: np.ndarray, got: np.ndarray) -> None:
    """got, ndtri at the array p, equals the float path at each element of p
    but where the tail's log of p takes different bits from the C library
    and from NumPy, and there it is within 4 ulps of it."""
    p, got = p.ravel(), got.ravel()
    want = np.array([gaussian._ndtri_float(x) for x in p.tolist()])
    s = np.minimum(p, 1.0 - p)
    tail = (np.abs(p - 0.5) > 0.425) & (s > 0.0)
    logs_differ = np.zeros(p.shape, bool)
    logs_differ[tail] = np.log(s[tail]) != [math.log(x) for x in s[tail].tolist()]
    np.testing.assert_array_equal(got[~logs_differ], want[~logs_differ])
    d = logs_differ
    assert (np.abs(got[d] - want[d]) <= 4 * np.spacing(np.abs(want[d]))).all()


class TestPdf:
    def test_at_zero(self):
        assert gaussian.pdf(0.0) == 0.3989422804014327

    def test_symmetry(self):
        assert gaussian.pdf(1.0) == gaussian.pdf(-1.0)

    def test_against_high_precision_series(self):
        z = 1.6448536269514722
        assert gaussian.pdf(z) == pytest.approx(high_precision_pdf(z), rel=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            gaussian.pdf(math.inf)
        with pytest.raises(DomainError):
            gaussian.pdf(math.nan)


class TestCdf:
    def test_at_zero(self):
        assert gaussian.cdf(0.0) == 0.5

    def test_infinities(self):
        assert gaussian.cdf(math.inf) == 1.0
        assert gaussian.cdf(-math.inf) == 0.0
        assert gaussian.sf(math.inf) == 0.0
        assert gaussian.sf(-math.inf) == 1.0

    @given(st.floats(allow_nan=False))
    @example(-37.5)
    @example(8.3)
    def test_agrees_with_scipy(self, t):
        # scipy.special.ndtr as a second oracle, within its own error (up to
        # 2e-13 relative far in the lower tail, see the reference rows)
        assert gaussian.cdf(t) == pytest.approx(float(ndtr(t)), rel=5e-13, abs=1e-300)
        assert gaussian.sf(t) == pytest.approx(float(ndtr(-t)), rel=5e-13, abs=1e-300)

    def test_against_independent_quadrature(self):
        ref, err = scipy_integrate.quad(gaussian.pdf, -np.inf, 1.0, epsabs=1e-14)
        assert err < 1e-8
        assert gaussian.cdf(1.0) == pytest.approx(ref, abs=1e-12)

    def test_reflection(self):
        for t in (0.3, 1.7, 4.2):
            assert gaussian.cdf(-t) == pytest.approx(1.0 - gaussian.cdf(t), abs=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            gaussian.cdf(math.nan)

    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert gaussian.cdf(lo) <= gaussian.cdf(hi)


class TestQuantile:
    def test_median(self):
        assert gaussian.quantile(0.5) == 0.0

    def test_antisymmetry(self):
        for p in (0.01, 0.2, 0.4):
            assert gaussian.quantile(p) == pytest.approx(-gaussian.quantile(1 - p),
                                                         abs=1e-14)

    def test_against_bisection(self):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gaussian.cdf(mid) < 0.95:
                lo = mid
            else:
                hi = mid
        assert gaussian.quantile(0.95) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_round_trip_log_grid(self):
        for p in np.geomspace(1e-10, 0.5, 60):
            assert abs(gaussian.cdf(gaussian.quantile(p)) - p) <= 1e-12
        for q in np.geomspace(1e-10, 0.5, 60):
            p = 1.0 - q
            assert abs(gaussian.cdf(gaussian.quantile(p)) - p) <= 1e-12

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                gaussian.quantile(p)

    # AS 241 is within about 6 ulps of the true quantile (against 40-digit
    # mpmath on the 200,000 points of quantile_points(), 5.41 ulps the worst
    # of the uniform ones, near p = 0.689, and 4.88 and 4.75 ulps toward 0
    # and 1; scipy's ndtri reached 4.05), so two results may invert by up to
    # twice that where the true gap is smaller.
    QUANTILE_ULPS = 6

    # Two ulps apart at p = 1e-9 the true quantiles differ by ~7e-17, far
    # below the ulp of 6, so both round to the same double.
    @example(a=1.0000000000000003e-09, b=1e-09)
    # Adjacent doubles whose quantiles invert by 1 ulp.
    @example(a=0.14689086943743204, b=0.14689086943743207)
    @given(st.floats(1e-9, 1 - 1e-9), st.floats(1e-9, 1 - 1e-9))
    @settings(max_examples=200)
    def test_strictly_increasing(self, a, b):
        """Non-decreasing up to the quantile's accuracy for every pair, and
        strictly increasing wherever the true gap, at least (hi - lo) over
        the larger pdf of the pair, exceeds that accuracy."""
        if a != b:
            lo, hi = min(a, b), max(a, b)
            q_lo, q_hi = gaussian.quantile(lo), gaussian.quantile(hi)
            tol = 2 * self.QUANTILE_ULPS * max(math.ulp(q_lo), math.ulp(q_hi))
            assert q_lo <= q_hi + tol
            if (hi - lo) / max(gaussian.pdf(q_lo), gaussian.pdf(q_hi)) > tol:
                assert q_lo < q_hi

    def test_array_is_elementwise(self):
        # An element's bits depend neither on the array's layout nor on its
        # shape, though np.log's last bit could depend on the layout in the
        # tails.  The array equals the
        # float path but where the two logs differ, and there it stays within
        # test_matches_cpython_as241's bound.
        rng = np.random.default_rng(20261018)
        edge = 0.075 + rng.integers(-64, 64, 2000) * 2.0**-56
        lower = 0.075 * 10.0 ** -rng.uniform(0, 300, 10_000)
        upper = 1.0 - 0.075 * 10.0 ** -rng.uniform(0, 14, 10_000)
        p = np.concatenate([rng.random(20_000), 10.0 ** -rng.uniform(0, 300, 5_000),
                            1.0 - 10.0 ** -rng.uniform(0, 16, 5_000), edge, 1.0 - edge,
                            lower, upper,
                            [0.0, 1.0, 0.5, 5e-324, 1e-310, math.nan, -1.0, 2.0, math.inf]])
        want = gaussian.ndtri(p)
        assert_float_path_but_logs(p, want)
        np.testing.assert_array_equal(gaussian.ndtri(p[::-7]), want[::-7])
        n = p.size // 40 * 40
        grid = want[:n].reshape(-1, 40)
        fortran = np.asfortranarray(p[:n].reshape(-1, 40))
        np.testing.assert_array_equal(gaussian.ndtri(fortran), grid)
        np.testing.assert_array_equal(gaussian.ndtri(fortran[::-3, 1::2]), grid[::-3, 1::2])
        # A float, a 0-d array and a NumPy scalar take the array path, as a
        # one-element array, central or tail, and give a 0-d array.
        for x, w in zip(p[::97].tolist(), want[::97].tolist()):
            one = gaussian.ndtri(np.array([x]))[0]
            for scalar in (x, np.array(x), np.float64(x)):
                got = gaussian.ndtri(scalar)
                assert type(got) is np.ndarray and got.shape == ()
                assert got.tobytes() == np.float64(one).tobytes() == np.float64(w).tobytes()
        # Arrays that leave a branch empty or give it every element: all
        # central (gathered as in a mixed array), all in the near tail and
        # all in the far tail (p < 1.4e-11), which run on the array itself,
        # and no central element among the limits, out-of-range values and
        # one of each tail.
        near = 0.075 * 10.0 ** -rng.uniform(0, 9.5, 1000)
        far = 10.0 ** -rng.uniform(11, 300, 1000)
        for a in (rng.uniform(0.08, 0.92, 1000), np.concatenate([near, 1.0 - near]),
                  np.concatenate([far, 1.0 - 10.0 ** -rng.uniform(11, 15.5, 100)]),
                  np.array([0.0, 1.0, math.nan, -1.0, 2.0, math.inf, -math.inf, 1e-300, 0.01]),
                  np.array([0.0, 1.0, math.nan, -1.0, 2.0])):
            got = gaussian.ndtri(a)
            assert_float_path_but_logs(a, got)
            np.testing.assert_array_equal(got, [gaussian.ndtri(np.array([x]))[0] for x in a])

    @pytest.mark.parametrize("size", [1, 625, 70_000])
    def test_all_central_is_the_float_path(self, size):
        # 70,000 elements span more than one batch of _BATCH
        p = np.random.default_rng(size).uniform(0.08, 0.92, size)
        want = np.array([gaussian._ndtri_float(x) for x in p.tolist()])
        assert gaussian.ndtri(p).tobytes() == want.tobytes()

    def test_batches_take_the_same_bits(self, monkeypatch):
        # in batches that hold every mix of branches: all central, all tail,
        # both, and the far tail (p < 1.4e-11)
        rng = np.random.default_rng(20261019)
        special = [0.0, 1.0, math.nan, -1.0, 2.0, math.inf, -math.inf, 5e-324, 1.0 - 2.0**-53]
        p = np.concatenate([rng.uniform(0.08, 0.92, 600), 0.075 * 10.0 ** -rng.uniform(0, 9.5, 300),
                            1.0 - 0.075 * 10.0 ** -rng.uniform(0, 14, 300),
                            10.0 ** -rng.uniform(11, 300, 300), rng.random(2000), special])
        want = gaussian.ndtri(p)  # one batch
        assert_float_path_but_logs(p, want)
        monkeypatch.setattr(gaussian, "_BATCH", 2**8)
        grid = (p[:3497].reshape(-1, 13), want[:3497].reshape(-1, 13))
        for a, w in ((p, want), (p[::-1].copy(), want[::-1]), grid):
            assert gaussian.ndtri(a).tobytes() == w.tobytes()

    def test_limits(self):
        assert gaussian.ndtri(0.0) == -math.inf and gaussian.ndtri(1.0) == math.inf
        assert math.isnan(gaussian.ndtri(1.5)) and math.isnan(gaussian.ndtri(math.nan))

    def test_matches_cpython_as241(self):
        # statistics.NormalDist.inv_cdf is CPython's own transcription of the
        # same AS 241 coefficients, with the C library's log for the tails, as
        # the float path takes it.  The array path takes NumPy's log: where
        # the two logs differ in the last bit, the steps after the log carry
        # that to a few ulps (4 at p = 0.0305 on these points).
        p = quantile_points()
        want = [NormalDist().inv_cdf(x) for x in p.tolist()]
        assert [gaussian.quantile(x) for x in p.tolist()] == want
        assert_float_path_but_logs(p, gaussian.ndtri(p))

    @given(st.floats(1e-300, 1.0, exclude_max=True))
    def test_agrees_with_scipy(self, p):
        # scipy.special.ndtri as a second oracle: both are within a few ulps
        assert gaussian.quantile(p) == pytest.approx(float(ndtri(p)), rel=3e-15, abs=1e-300)


class TestAtDistinct:
    @staticmethod
    def counting(f):
        """f, and the list of the arguments it has been called with."""
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        return counted, calls

    @pytest.mark.parametrize("x", [
        np.array(0.3), np.float64(0.3), 0.3, np.array([0.3, 0.1, 0.3, 0.2, 0.1]),
        np.array([[0.4, 0.1, 0.4], [0.1, 0.9, 0.4]]),
        np.asfortranarray(np.array([[0.4, 0.1, 0.4], [0.1, 0.9, 0.4]])),
        np.array([[0.4, 0.1, 0.4], [0.1, 0.9, 0.4]])[::-1, ::2],
        np.array([0.3, math.nan, 0.3, 0.0]),
    ], ids=["0-d", "numpy-scalar", "float", "1-d", "2-d", "fortran", "strided", "nan"])
    def test_elementwise_once_per_distinct_value(self, x):
        f, calls = self.counting(gaussian._ndtri_float)
        got = gaussian.at_distinct(f, x)
        want = np.array([gaussian._ndtri_float(v) for v in np.ravel(x).tolist()])
        assert got.shape == np.shape(x) and got.dtype == np.float64
        assert got.tobytes() == want.reshape(np.shape(x)).tobytes()
        if not np.ndim(x):
            assert type(got) is np.float64
        # every value once, NaN included, in ascending order (NaN last)
        distinct = sorted({v for v in np.ravel(x).tolist() if not math.isnan(v)})
        assert calls[:len(distinct)] == distinct
        assert len(calls) == len(distinct) + int(np.isnan(x).any())

    def test_float_path_of_each_element(self):
        # an element's bits are the float function's, whatever its neighbours
        rng = np.random.default_rng(33)
        alpha = rng.choice(10.0 ** -rng.uniform(0, 12, 50), (40, 30))
        f, calls = self.counting(gaussian.phi_of_quantile)
        got = gaussian.at_distinct(f, alpha)
        assert len(calls) == np.unique(alpha).size
        for a, g in zip(alpha.ravel().tolist(), got.ravel().tolist()):
            assert g == gaussian.phi_of_quantile(a)


class TestUpperQuantile:
    def test_matches_complement(self):
        for alpha in (0.4, 0.1, 0.01):
            assert gaussian.upper_quantile(alpha) == pytest.approx(
                gaussian.quantile(1 - alpha), abs=1e-12)

    def test_deep_tail_no_cancellation(self):
        # round-trip through the survival function instead of 1 - alpha
        for alpha in (1e-12, 1e-30, 1e-100):
            t = gaussian.upper_quantile(alpha)
            assert gaussian.sf(t) == pytest.approx(alpha, rel=1e-9)

    def test_treat_everyone_limit(self):
        assert gaussian.upper_quantile(1.0) == -math.inf


class TestMillsConditionalMean:
    def test_half_normal(self):
        assert gaussian.mills_conditional_mean(0, 1, 0) == pytest.approx(
            0.7978845608028654, abs=1e-15)

    def test_unconditional(self):
        assert gaussian.mills_conditional_mean(2.5, 3.0, -math.inf) == 2.5

    def test_against_rejection_sampling(self):
        rng = np.random.default_rng(20260823)
        draws = rng.standard_normal(4_000_000)
        kept = draws[draws > 1.5]
        se = kept.std(ddof=1) / math.sqrt(len(kept))
        assert abs(gaussian.mills_conditional_mean(0, 1, 1.5) - kept.mean()) <= 4 * se

    def test_exceeds_threshold(self):
        for a in (-2.0, 0.0, 3.0, 8.0):
            assert gaussian.mills_conditional_mean(0, 1, a) > a

    def test_underflow_is_reported(self):
        with pytest.raises(NumericsError):
            gaussian.mills_conditional_mean(0, 1, 60.0)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            gaussian.mills_conditional_mean(0, 0, 1)


class TestTailBounds:
    def test_sandwich_at_two(self):
        pair = gaussian.tail_bounds(2.0)
        assert pair.contains(1.0 - gaussian.cdf(2.0))

    def test_lower_vanishes_at_one(self):
        assert gaussian.tail_bounds(1.0).lower == 0.0

    def test_relative_width(self):
        pair = gaussian.tail_bounds(10.0)
        assert (pair.upper - pair.lower) / pair.upper == pytest.approx(0.01, rel=1e-12)

    def test_containment_over_range(self):
        for t in np.linspace(1.01, 12.0, 200):
            assert gaussian.tail_bounds(float(t)).contains(gaussian.sf(float(t)))

    def test_domain(self):
        for t in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                gaussian.tail_bounds(t)


class TestPhiOfQuantile:
    def test_at_half(self):
        assert gaussian.phi_of_quantile(0.5) == 0.3989422804014327

    def test_sandwich(self):
        for alpha in (0.05, 0.01):
            g = gaussian.phi_of_quantile(alpha)
            t = gaussian.upper_quantile(alpha)
            f = gaussian.phi_of_quantile_slack(alpha)
            assert alpha * t <= g <= alpha * t * (1.0 + f)

    def test_slack_below_one(self):
        assert gaussian.phi_of_quantile_slack(0.01) < 1.0

    def test_matches_composition(self):
        for alpha in (0.3, 0.07, 0.001):
            expected = gaussian.pdf(gaussian.quantile(1 - alpha))
            assert gaussian.phi_of_quantile(alpha) == pytest.approx(expected, rel=1e-13)


class TestKPhiOfQuantileBounds:
    def test_k_one_contains_g(self):
        alpha = 1e-6
        pair = gaussian.k_phi_of_quantile_bounds(1.0, alpha, 0.05)
        assert pair.contains(gaussian.phi_of_quantile(alpha))

    def test_containment_small_alpha(self):
        for k, alpha, eps in ((2.0, 1e-6, 0.05), (1.5, 1e-24, 0.01), (0.7, 1e-6, 0.05)):
            pair = gaussian.k_phi_of_quantile_bounds(k, alpha, eps)
            direct = gaussian.pdf(k * gaussian.upper_quantile(alpha))
            assert pair.contains(direct), (k, alpha, eps, pair, direct)

    def test_precondition_rejected_when_sandwich_fails(self):
        # eps = 0.05 requires alpha far below 1e-3; the check must say so
        with pytest.raises(PreconditionError):
            gaussian.k_phi_of_quantile_bounds(2.0, 1e-3, 0.05)
        with pytest.raises(PreconditionError):
            gaussian.k_phi_of_quantile_bounds(1.5, 1e-4, 0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian.k_phi_of_quantile_bounds(0.0, 1e-6, 0.05)
        with pytest.raises(DomainError):
            gaussian.k_phi_of_quantile_bounds(1.0, 1e-6, -0.1)


class TestIdentities:
    def test_quantile_derivative_identity(self):
        # d/d_alpha quantile(1 - alpha) = -1 / g(alpha)
        h = 1e-6
        for alpha in np.linspace(0.001, 0.999, 40):
            alpha = float(alpha)
            fd = (gaussian.quantile(1 - (alpha + h)) -
                  gaussian.quantile(1 - (alpha - h))) / (2 * h)
            target = -1.0 / gaussian.phi_of_quantile(alpha)
            assert fd == pytest.approx(target, rel=1e-5)

    def test_phi_of_quantile_derivative_identity(self):
        # d/d_alpha g(alpha) = quantile(1 - alpha)
        h = 1e-6
        for alpha in np.linspace(0.001, 0.999, 40):
            alpha = float(alpha)
            fd = (gaussian.phi_of_quantile(alpha + h) -
                  gaussian.phi_of_quantile(alpha - h)) / (2 * h)
            target = gaussian.quantile(1 - alpha)
            assert fd == pytest.approx(target, rel=1e-5, abs=1e-8)

    def test_quantile_asymptotics(self):
        ratios = []
        for alpha in (1e-4, 1e-6, 1e-8):
            ratios.append(gaussian.upper_quantile(alpha) /
                          math.sqrt(2.0 * math.log(1.0 / alpha)))
        assert all(0.8 <= r <= 1.05 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2] < 1.0

    def test_pdf_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            gs = float(rng.uniform(0.01, 0.99))
            m = float(rng.uniform(-3, 3))
            zs = float(rng.uniform(-5, 5))
            gt = math.sqrt(1 - gs * gs)
            lhs = gaussian.pdf((gs * zs + m) / gt) * gaussian.pdf(zs)
            rhs = gaussian.pdf(m) * gaussian.pdf((zs + m * gs) / gt)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAlphaDomains:
    @pytest.mark.parametrize("check, inside, outside", [
        (gaussian.check_alpha_half, [5e-324, 0.25, np.nextafter(0.5, 0.0)],
         [0.0, 0.5, -1e-5, math.inf]),
        (gaussian.check_alpha_open, [5e-324, 0.5, np.nextafter(1.0, 0.0)],
         [0.0, 1.0, -math.inf]),
        (gaussian.check_alpha_open_closed, [5e-324, 1.0], [0.0, np.nextafter(1.0, 2.0)]),
        (gaussian.check_alpha_closed, [0.0, 0.5, 1.0], [-5e-324, np.nextafter(1.0, 2.0)]),
    ], ids=["(0, 0.5)", "(0, 1)", "(0, 1]", "[0, 1]"])
    def test_domain(self, check, inside, outside):
        for alpha in inside:
            check(alpha)
        for alpha in outside:
            with pytest.raises(DomainError, match="alpha must lie in"):
                check(alpha)
        with pytest.raises(DomainError, match="alpha is NaN"):
            check(math.nan)

    def test_linear_regime_is_a_regime_error(self):
        with pytest.raises(RegimeError, match="positivity"):
            gaussian.check_alpha_half(0.5)


class TestConditionalSd:
    def test_full_accuracy_near_one(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for rho in (0.0, 0.3, 0.6, 0.99, 1.0 - 1e-9, 1.0 - 2**-52, 1.0):
            exact = float(mpmath.sqrt(1 - mpmath.mpf(rho) ** 2))
            assert gaussian.conditional_sd(rho) == pytest.approx(exact, rel=2e-16, abs=0.0)

    def test_is_both_models_gamma_t(self):
        from partarget.linear import LinearParams
        from partarget.probit import ProbitParams
        for g in (0.0, 0.6, 0.999999999, 1.0):
            gt = float(gaussian.conditional_sd(g))
            assert LinearParams(1.0, 1.0, g).gamma_t == gt == ProbitParams(0.1, g).gamma_t


class TestBoundPair:
    def test_rejects_inverted(self):
        with pytest.raises(DomainError):
            BoundPair(2.0, 1.0)

    def test_contains_and_width(self):
        pair = BoundPair(1.0, 3.0)
        assert pair.contains(2.0) and not pair.contains(3.5)
        assert pair.width == 2.0


class TestReferenceTable:
    """40-digit mpmath CDFs and quantiles from tests/data/make_reference.py."""

    def test_quantiles(self, reference):
        for row in reference["quantile"]:
            got = gaussian.quantile(row["p"])
            assert got == pytest.approx(float(row["quantile"]), rel=1e-15, abs=0.0), row

    def test_cdf(self, reference):
        # within 1e-13 relative wherever Phi is a normal double, and within
        # ten subnormal steps below that
        for row in reference["cdf"]:
            want = float(row["cdf"])
            tol = dict(rel=1e-13, abs=0.0) if want >= sys.float_info.min else dict(abs=5e-323)
            assert gaussian.cdf(row["x"]) == pytest.approx(want, **tol), row
            assert gaussian.sf(-row["x"]) == pytest.approx(want, **tol), row

    def test_table_regenerates(self, reference, make_reference):
        make = make_reference
        with make.mp.workdps(reference["digits"]):
            for row in reference["quantile"][::4]:
                assert make._digits(make.quantile(row["p"])) == row["quantile"]
            for row in reference["cdf"][::5]:
                assert make._digits(make.mp.ncdf(row["x"])) == row["cdf"]
