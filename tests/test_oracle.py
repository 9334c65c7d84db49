"""Tests for the Monte Carlo and discrete-allocation oracles."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from partarget import oracle
from partarget.errors import DomainError, NumericsError, RegimeError
from partarget.linear import LinearParams, value_linear
from partarget.oracle import (
    MAX_SAMPLES,
    Allocation,
    Atom,
    DiscreteDistribution,
    Estimate,
    SimConfig,
    brute_force_allocate,
    greedy_allocate,
    simulate_linear_value,
    simulate_probit_value,
)
from partarget.probit import ProbitParams, value_probit


def make_distribution(rng, n: int) -> DiscreteDistribution:
    """Random distribution with masses that sum to 1 exactly enough."""
    raw = rng.uniform(0.05, 1.0, size=n)
    masses = raw / raw.sum()
    masses[-1] = 1.0 - math.fsum(float(m) for m in masses[:-1])
    atoms = tuple(
        Atom(label=f"a{i}", mass=float(masses[i]),
             cond_mean=float(rng.uniform(-1.0, 2.0)))
        for i in range(n)
    )
    return DiscreteDistribution(atoms)


class TestLinearSecondMoment:
    @pytest.mark.parametrize("mu, beta, gamma_s, alpha", [
        (1.0, 10.0, 0.3, 0.05), (1.0, 1.0, 0.3, 1e-6), (0.5, 3.0, 0.99, 0.3), (2.0, 1.0, 0.0, 0.01),
    ])
    def test_matches_quadrature(self, mu, beta, gamma_s, alpha):
        from scipy import integrate
        from scipy.special import ndtri
        p = LinearParams(mu, beta, gamma_s)
        a, c, t = gamma_s * beta, p.gamma_t * beta, -float(ndtri(alpha))
        # E[x^2 1{z_s >= T}] with x = a z_s + c z_t + mu, integrated over z_s.
        want, _ = integrate.quad(
            lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi) * ((a * z + mu) ** 2 + c * c),
            t, math.inf, epsabs=0.0, epsrel=1e-13)
        m, u = oracle.linear_second_moment(p, alpha)  # the mean square in the welfare unit u
        assert m * u * u == pytest.approx(want, rel=1e-11)


class TestSharedAlphaChecks:
    """The oracles refuse alpha with the checks of the closed forms they test."""

    @pytest.mark.parametrize("call, alpha, error, domain", [
        (lambda a: simulate_linear_value(LinearParams(1, 1, 0.3), a, SimConfig(10_000, 1)),
         0.5, RegimeError, "(0, 0.5)"),
        (lambda a: simulate_probit_value(ProbitParams(0.1, 0.3), a, SimConfig(10_000, 1)),
         0.0, DomainError, "(0, 1]"),
        (lambda a: greedy_allocate(DiscreteDistribution((Atom("a", 1.0, 1.0),)), a),
         1.5, DomainError, "[0, 1]"),
        (lambda a: brute_force_allocate(DiscreteDistribution((Atom("a", 1.0, 1.0),)), a),
         -0.5, DomainError, "[0, 1]"),
    ], ids=["simulate-linear", "simulate-probit", "greedy", "brute-force"])
    def test_domain(self, call, alpha, error, domain):
        with pytest.raises(error, match=f"alpha must lie in {re.escape(domain)}"):
            call(alpha)


class TestConfigTypes:
    def test_sim_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(samples=100, seed=0)
        with pytest.raises(DomainError):
            SimConfig(samples=100000, seed=-1)

    def test_sample_ceiling_and_integer_types(self):
        # construction only: no simulation of these sizes ever runs
        SimConfig(samples=MAX_SAMPLES, seed=0)
        SimConfig(samples=np.int64(100_000), seed=np.uint64(2**64 - 1))
        for bad in (MAX_SAMPLES + 1, 10**14, True, 1e6, "100000", None):
            with pytest.raises(DomainError, match="samples"):
                SimConfig(samples=bad, seed=0)
        for bad in (True, 1.0, "1"):
            with pytest.raises(DomainError, match="seed"):
                SimConfig(samples=100_000, seed=bad)

    def test_estimate_helpers(self):
        est = Estimate(mean=1.0, std_error=0.1, samples=100000)
        assert est.z_score(0.8) == pytest.approx(2.0)
        assert est.within(1.3, 4.0) and not est.within(1.5, 4.0)
        exact = Estimate(mean=1.0, std_error=0.0, samples=100000)
        # with no spread, the sign of the infinite score is the sign of mean - target
        assert [exact.z_score(t) for t in (1.0, 0.8, 1.2)] == [0.0, math.inf, -math.inf]

    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            DiscreteDistribution(())
        with pytest.raises(DomainError):
            DiscreteDistribution((Atom("a", 0.6, 1.0), Atom("a", 0.4, 1.0)))
        with pytest.raises(DomainError):
            DiscreteDistribution((Atom("a", 0.6, 1.0), Atom("b", 0.5, 1.0)))


class TestSimulateLinear:
    def test_degenerate_predictor_hits_random_value(self):
        p = LinearParams(1.0, 10.0, 0.0)
        est = simulate_linear_value(p, 0.3, SimConfig(samples=200_000, seed=5))
        assert est.within(0.3, 4.0)

    def test_deterministic_for_fixed_seed(self):
        p = LinearParams(1.0, 10.0, 0.3)
        cfg = SimConfig(samples=100_000, seed=77)
        a = simulate_linear_value(p, 0.05, cfg)
        b = simulate_linear_value(p, 0.05, cfg)
        assert a == b

    def test_distinct_seeds_differ(self):
        p = LinearParams(1.0, 10.0, 0.3)
        a = simulate_linear_value(p, 0.05, SimConfig(samples=100_000, seed=1))
        b = simulate_linear_value(p, 0.05, SimConfig(samples=100_000, seed=2))
        assert a.mean != b.mean

    @pytest.mark.parametrize("k", [-900, 900])
    def test_scale_is_exact(self, k):
        # The sums are taken in a power-of-two unit of (mu, beta_norm), so
        # scaling both by 2**k scales the mean and standard error by 2**k
        # exactly: at 2**-900 the raw sum of squares would underflow to 0,
        # and at 2**900 overflow.
        cfg = SimConfig(samples=100_000, seed=1)
        base = simulate_linear_value(LinearParams(1.0, 10.0, 0.3), 0.05, cfg)
        scaled = LinearParams(math.ldexp(1.0, k), math.ldexp(10.0, k), 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_linear_value(scaled, 0.05, cfg)
        assert (est.mean, est.std_error) == (math.ldexp(base.mean, k),
                                             math.ldexp(base.std_error, k))
        assert est.std_error > 0.0

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            simulate_linear_value(LinearParams(1, 1, 0.3), 0.6,
                                  SimConfig(samples=100_000, seed=0))


class TestSimulateProbit:
    def test_degenerate_predictor(self):
        est = simulate_probit_value(ProbitParams(0.1, 0.0), 0.5,
                                    SimConfig(samples=500_000, seed=9))
        assert est.within(0.05, 4.0)

    def test_treat_everyone(self):
        est = simulate_probit_value(ProbitParams(0.1, 0.4), 1.0,
                                    SimConfig(samples=500_000, seed=10))
        assert est.within(0.1, 4.0)

    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(samples=100_000, seed=123)
        a = simulate_probit_value(ProbitParams(0.1, 0.3), 0.02, cfg)
        b = simulate_probit_value(ProbitParams(0.1, 0.3), 0.02, cfg)
        assert a == b


class TestStandardErrorCalibration:
    """Over fixed seeds, z = (estimate - closed form) / standard error at
    MIN_SAMPLES should be close to N(0, 1): its mean within 4 standard
    errors of 0, and its variance inside the chi-square band of a 1e-6
    false-alarm rate.  A standard error off by a factor of 2 either way
    fails the variance band.  Half of the seeds differ only in their high 32
    bits and half only in their low 32, so a stream that ignores either half
    of the seed repeats one run 200 times and fails a band too."""

    SEEDS = [k << 32 for k in range(1, 201)] + list(range(1, 201))

    def check(self, z):
        from scipy.special import chdtri  # the chi-square upper-tail quantile
        n = len(z)
        dof = n - 1
        assert abs(np.mean(z)) <= 4.0 / math.sqrt(n)
        assert chdtri(dof, 1.0 - 5e-7) / dof <= np.var(z, ddof=1) <= chdtri(dof, 5e-7) / dof

    @pytest.mark.parametrize("mu, beta_norm, gamma_s, alpha", [
        (1.0, 10.0, 0.3, 0.05), (0.5, 3.0, 0.8, 0.2), (2.0, 1.0, 0.5, 0.4),
    ])
    def test_linear(self, mu, beta_norm, gamma_s, alpha):
        p = LinearParams(mu, beta_norm, gamma_s)
        value = value_linear(p, alpha)
        ests = [simulate_linear_value(p, alpha, SimConfig(oracle.MIN_SAMPLES, seed))
                for seed in self.SEEDS]
        self.check([(e.mean - value) / e.std_error for e in ests])

    # alpha * base rate is at least 0.05: 500 or more hits a run, so z is not discrete
    @pytest.mark.parametrize("base_rate, gamma_s, alpha", [
        (0.3, 0.5, 0.2), (0.5, 0.3, 0.1), (0.1, 0.9, 0.5),
    ])
    def test_probit(self, base_rate, gamma_s, alpha):
        p = ProbitParams(base_rate, gamma_s)
        value = value_probit(p, alpha)
        ests = [simulate_probit_value(p, alpha, SimConfig(oracle.MIN_SAMPLES, seed))
                for seed in self.SEEDS]
        self.check([(e.mean - value) / e.std_error for e in ests])


def sequential_allocate(dist: DiscreteDistribution, alpha: float) -> Allocation:
    """The greedy rule atom by atom, with the running prefix mass kept exactly."""
    treated, mass = [], Fraction(0)
    for atom in sorted(dist.atoms, key=lambda a: -a.cond_mean):
        if atom.cond_mean <= 0.0 or float(mass + Fraction(atom.mass)) > alpha:
            break
        treated.append(atom)
        mass += Fraction(atom.mass)
    return Allocation(treated=tuple(a.label for a in treated), treated_mass=float(mass),
                      welfare=math.fsum(a.mass * a.cond_mean for a in treated))


def prefix_budgets(dist: DiscreteDistribution, k: int) -> list[float]:
    """The mass of the first k atoms in rank order, and the doubles on either side."""
    ranked = sorted(dist.atoms, key=lambda a: -a.cond_mean)
    mass = math.fsum(a.mass for a in ranked[:k])
    return [math.nextafter(mass, 0.0), mass, math.nextafter(mass, 2.0)]


class TestGreedyAllocate:
    def test_equals_the_sequential_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            dist = make_distribution(rng, n)
            if rng.random() < 0.5:  # tied means, which keep their input order
                dist = DiscreteDistribution(tuple(
                    Atom(a.label, a.mass, float(np.round(a.cond_mean))) for a in dist.atoms))
            budgets = [0.0, 1.0, float(rng.uniform())]
            budgets += prefix_budgets(dist, int(rng.integers(0, n + 1)))
            for alpha in budgets:
                alpha = min(alpha, 1.0)
                assert greedy_allocate(dist, alpha) == sequential_allocate(dist, alpha)

    def test_hundred_thousand_atoms(self):
        rng = np.random.default_rng(43)
        dist = make_distribution(rng, 100_000)
        below, mass, _ = prefix_budgets(dist, 20_000)
        saturated = greedy_allocate(dist, mass)
        assert len(saturated.treated) == 20_000
        assert saturated == sequential_allocate(dist, mass)
        assert greedy_allocate(dist, below) == sequential_allocate(dist, below)

    def test_all_negative_means(self):
        dist = DiscreteDistribution((Atom("a", 0.5, -1.0), Atom("b", 0.5, -0.1)))
        alloc = greedy_allocate(dist, 1.0)
        assert alloc == Allocation(treated=(), treated_mass=0.0, welfare=0.0)

    def test_unconstrained_treats_all_positive(self):
        dist = DiscreteDistribution((Atom("a", 0.25, 2.0), Atom("b", 0.75, 0.5)))
        alloc = greedy_allocate(dist, 1.0)
        assert set(alloc.treated) == {"a", "b"}
        assert alloc.welfare == pytest.approx(0.25 * 2.0 + 0.75 * 0.5)

    def test_greedy_order_property(self):
        # no untreated positive-mean atom strictly beats a treated one
        # unless treating it would overflow the budget
        rng = np.random.default_rng(31)
        for _ in range(100):
            dist = make_distribution(rng, 8)
            alpha = float(rng.uniform(0.1, 0.9))
            alloc = greedy_allocate(dist, alpha)
            treated = set(alloc.treated)
            if not treated:
                continue
            min_treated_mean = min(a.cond_mean for a in dist.atoms
                                   if a.label in treated)
            for atom in dist.atoms:
                if atom.label in treated or atom.cond_mean <= 0.0:
                    continue
                if atom.cond_mean > min_treated_mean:
                    assert alloc.treated_mass + atom.mass > alpha

    def test_matches_brute_force_on_eight_atoms(self):
        rng = np.random.default_rng(37)
        dist = make_distribution(rng, 8)
        # budget set to the exact prefix mass so greedy saturates
        ranked = sorted(dist.atoms, key=lambda a: -a.cond_mean)
        positive = [a for a in ranked if a.cond_mean > 0]
        alpha = math.fsum(a.mass for a in positive[:3])
        assert greedy_allocate(dist, alpha).welfare == pytest.approx(
            brute_force_allocate(dist, alpha).welfare, rel=1e-12)


class TestBruteForce:
    def test_single_atom_infeasible(self):
        dist = DiscreteDistribution((Atom("a", 0.5, 1.0), Atom("pad", 0.5, -5.0)))
        assert brute_force_allocate(dist, 0.4).welfare == 0.0

    def test_single_atom_feasible(self):
        dist = DiscreteDistribution((Atom("a", 0.5, 1.0), Atom("pad", 0.5, -5.0)))
        assert brute_force_allocate(dist, 0.5).welfare == pytest.approx(0.5)

    def test_size_limit(self):
        atoms = tuple(Atom(f"a{i}", 1.0 / 32, 1.0) for i in range(32))
        with pytest.raises(DomainError):
            brute_force_allocate(DiscreteDistribution(atoms), 0.5)

    def test_dominates_greedy_with_bounded_gap(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            dist = make_distribution(rng, n)
            alpha = float(rng.uniform(0.05, 1.0))
            g = greedy_allocate(dist, alpha)
            bf = brute_force_allocate(dist, alpha)
            assert g.treated_mass <= alpha + 1e-12
            assert bf.treated_mass <= alpha + 1e-12
            assert g.welfare <= bf.welfare + 1e-12
            max_mean = max(a.cond_mean for a in dist.atoms)
            max_mass = max(a.mass for a in dist.atoms)
            if max_mean > 0:
                assert bf.welfare - g.welfare <= max_mean * max_mass + 1e-12

    def test_equals_greedy_on_saturating_instances(self):
        rng = np.random.default_rng(53)
        count = 0
        while count < 500:
            n = int(rng.integers(2, 13))
            dist = make_distribution(rng, n)
            ranked = sorted(dist.atoms, key=lambda a: -a.cond_mean)
            positive = [a for a in ranked if a.cond_mean > 0]
            if not positive:
                continue
            k = int(rng.integers(1, len(positive) + 1))
            alpha = min(1.0, math.fsum(a.mass for a in positive[:k]))
            g = greedy_allocate(dist, alpha)
            bf = brute_force_allocate(dist, alpha)
            assert g.welfare == pytest.approx(bf.welfare, rel=1e-12, abs=1e-15)
            count += 1
