"""Tests of the Monte Carlo kernel: the sums against a replay of each
block's Generator calls, the treated samples it draws, and determinism
across runs and worker counts."""

import math
import sys

import numpy as np
import pytest

from partarget import _backend, gaussian
from partarget._backend import BACKEND, linear_sums, probit_sums

ARGS_LINEAR = dict(seed=99, n=300_000, mu=1.0, s_scale=3.0,
                   t_scale=math.sqrt(91.0), threshold=1.6448536269514722)
ARGS_PROBIT = dict(seed=99, n=300_000, m=-1.2815515655446004, gamma_s=0.3,
                   gamma_t=math.sqrt(0.91), threshold=2.053748910631823)

# upper quantiles of alpha = 0.02, 0.5, 0.9 and 1: the treated share runs
# from a thin tail to every sample
THRESHOLDS = [2.053748910631823, 0.0, -1.2815515655446004, -math.inf]


def _replay(seed: int, n: int, threshold: float):
    """Each block's z_s and z_t, from the Generator calls the kernel makes."""
    p = gaussian.sf(threshold)
    for j, start in enumerate(range(0, n, _backend._BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        h = rng.binomial(min(_backend._BLOCK, n - start), p)
        zs = -gaussian.ndtri(p * (1.0 - rng.random(h)))
        yield zs, rng.standard_normal(h)


class TestNumpyKernel:
    def test_backend_name(self):
        assert BACKEND == "numpy"

    def test_bit_reproducible(self):
        a = linear_sums(**ARGS_LINEAR)
        b = linear_sums(**ARGS_LINEAR)
        assert a == b
        assert linear_sums(**{**ARGS_LINEAR, "seed": 100}) != a

    def test_probit_sums_are_counts(self):
        s, sq = probit_sums(**ARGS_PROBIT)
        assert s == sq and s == int(s)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_linear_equals_replay(self, threshold):
        args = {**ARGS_LINEAR, "threshold": threshold}
        parts = []
        for zs, zt in _replay(args["seed"], args["n"], threshold):
            x = args["s_scale"] * zs + args["t_scale"] * zt + args["mu"]
            parts.append((float(x.sum()), float((x * x).sum())))
        assert len(parts) == 2  # a full block and a short one
        want = tuple(math.fsum(part[k] for part in parts) for k in (0, 1))
        assert linear_sums(**args) == want

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_probit_equals_replay(self, threshold):
        args = {**ARGS_PROBIT, "threshold": threshold}
        count = sum(np.count_nonzero(args["gamma_s"] * zs + args["gamma_t"] * zt + args["m"] > 0.0)
                    for zs, zt in _replay(args["seed"], args["n"], threshold))
        assert count > 0
        assert probit_sums(**args) == (float(count), float(count))

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_every_treated_sample_is_past_the_threshold(self, threshold):
        # each block's (samples below the threshold, samples drawn); at -inf
        # every sample is treated
        def sums(zs, zt):
            assert zs.size == zt.size
            return float(np.count_nonzero(~(zs >= threshold))), float(zs.size)

        below, drawn = _backend._treated_sums(5, 300_000, threshold, sums)
        assert below == 0.0
        if threshold == -math.inf:
            assert drawn == 300_000
        else:
            p = gaussian.sf(threshold)
            assert abs(drawn - 300_000 * p) < 5.0 * math.sqrt(300_000 * p * (1.0 - p))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_identical_for_any_worker_count(self, monkeypatch, cpus):
        # n / block = 19 blocks, more than any worker count tried
        monkeypatch.setattr(_backend, "_BLOCK", 2**14)
        want_linear = linear_sums(**ARGS_LINEAR)
        want_probit = probit_sums(**ARGS_PROBIT)
        monkeypatch.setattr(_backend, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(3):
                assert linear_sums(**ARGS_LINEAR) == want_linear
                assert probit_sums(**ARGS_PROBIT) == want_probit
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_is_raised(self, monkeypatch):
        monkeypatch.setattr(_backend, "_BLOCK", 2**14)
        monkeypatch.setattr(_backend, "_usable_cpus", lambda: 3)

        def block(j, count):
            if j == 5:
                raise ZeroDivisionError("block 5")
            return 1.0, 1.0

        with pytest.raises(ZeroDivisionError, match="block 5"):
            _backend._block_sums(block, 40 * 2**14)


# n spans twelve blocks and a short thirteenth; the sums are pinned with ==.
GOLDEN_N = 3 * 2**20 + 12_345


@pytest.mark.parametrize("alpha, linear, probit", [
    (0.02, (523212.5840159509, 10205189.620682374), (17817.0, 17817.0)),
    (0.3, (4249906.934707623, 107829700.20051213), (158850.0, 158850.0)),
])
def test_golden_sums(alpha, linear, probit):
    threshold = gaussian.upper_quantile(alpha)
    assert linear_sums(2026, GOLDEN_N, 1.0, 3.0, math.sqrt(91.0), threshold) == linear
    assert probit_sums(2026, GOLDEN_N, -1.2815515655446004, 0.3, math.sqrt(0.91),
                       threshold) == probit
