"""Tests of the Monte Carlo kernel: the splitmix uniform stream, the sums
against a reference that draws both normals for every sample, and
determinism across block sizes and worker counts."""

import math
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from partarget import _backend, gaussian
from partarget._backend import BACKEND, linear_sums, probit_sums

ARGS_LINEAR = dict(seed=99, n=300_000, mu=1.0, s_scale=3.0,
                   t_scale=math.sqrt(91.0), threshold=1.6448536269514722)
ARGS_PROBIT = dict(seed=99, n=300_000, m=-1.2815515655446004, gamma_s=0.3,
                   gamma_t=math.sqrt(0.91), threshold=2.053748910631823)

# upper quantiles of alpha = 0.02, 0.5, 0.9 and 1: the treated share runs
# from a thin tail to every sample
THRESHOLDS = [2.053748910631823, 0.0, -1.2815515655446004, -math.inf]


def _splitmix(seed: int, counter: int) -> int:
    """splitmix64 output at one counter, in plain integer arithmetic."""
    mask = 2**64 - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _reference_normals(seed: int, n: int):
    """z_s and z_t of every sample, from counters 2i and 2i + 1."""
    counter = 2 * np.arange(n, dtype=np.uint64)
    return (ndtri(_backend._uniform(seed, counter)),
            ndtri(_backend._uniform(seed, counter + np.uint64(1))))


class TestUniformStream:
    def test_open_interval_and_determinism(self):
        idx = np.arange(0, 10_000, dtype=np.uint64)
        u1 = _backend._uniform(5, idx)
        u2 = _backend._uniform(5, idx)
        assert np.array_equal(u1, u2)
        assert u1.min() > 0.0 and u1.max() < 1.0
        assert abs(u1.mean() - 0.5) < 0.02

    def test_seed_changes_stream(self):
        idx = np.arange(0, 1000, dtype=np.uint64)
        assert not np.array_equal(_backend._uniform(1, idx), _backend._uniform(2, idx))

    def test_matches_integer_splitmix(self):
        seed = 2**64 - 3
        counters = [0, 1, 2, 12_345, 2**40 + 7, 2**64 - 2]
        got = _backend._uniform(seed, np.array(counters, dtype=np.uint64))
        want = [((_splitmix(seed, c) >> 11) + 0.5) * 2.0**-53 for c in counters]
        assert got.tolist() == want


class TestNumpyKernel:
    def test_backend_name(self):
        assert BACKEND == "numpy"

    def test_bit_reproducible(self):
        a = linear_sums(**ARGS_LINEAR)
        b = linear_sums(**ARGS_LINEAR)
        assert a == b

    def test_probit_sums_are_counts(self):
        s, sq = probit_sums(**ARGS_PROBIT)
        assert s == sq and s == int(s)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_probit_equals_full_draw_reference(self, monkeypatch, threshold):
        args = {**ARGS_PROBIT, "threshold": threshold}
        zs, zt = _reference_normals(args["seed"], args["n"])
        benefit = args["gamma_s"] * zs + args["gamma_t"] * zt + args["m"] > 0.0
        count = float(np.count_nonzero(benefit & (zs >= threshold)))
        assert count > 0
        assert probit_sums(**args) == (count, count)
        monkeypatch.setattr(_backend, "_BLOCK", 2**15)
        assert probit_sums(**args) == (count, count)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_linear_matches_full_draw_reference(self, threshold):
        args = {**ARGS_LINEAR, "threshold": threshold}
        zs, zt = _reference_normals(args["seed"], args["n"])
        w = args["s_scale"] * zs + args["t_scale"] * zt + args["mu"]
        x = np.where(zs >= threshold, w, 0.0)
        total, total_sq = linear_sums(**args)
        assert total == pytest.approx(math.fsum(x), rel=1e-12)
        assert total_sq == pytest.approx(math.fsum(x * x), rel=1e-12)

    def test_kernel_normals_are_the_scalar_quantile(self, monkeypatch):
        # the kernel's array quantiles equal gaussian.quantile at each
        # uniform bit for bit, for every treated sample of a fixed window
        # that spans two full chunks and ends in a short one
        monkeypatch.setattr(_backend, "_CHUNK", 2**12)
        start, count, threshold = 5 * 2**16 + 123, 2 * 2**12 + 1000, -0.5
        cut = _backend._cut(threshold)
        zs, zt = _backend._treated(7, start, count, threshold, cut,
                                    _backend._Buffers(count, cut))
        counter = 2 * np.arange(start, start + count, dtype=np.uint64)
        want_zs = [gaussian.quantile(u) for u in _backend._uniform(7, counter).tolist()]
        treated = [i for i, z in enumerate(want_zs) if z >= threshold]
        assert treated[-1] >= 2 * 2**12  # the short chunk has treated samples
        assert zs.tolist() == [want_zs[i] for i in treated]
        u_t = _backend._uniform(7, counter[treated] + np.uint64(1))
        assert zt.tolist() == [gaussian.quantile(u) for u in u_t.tolist()]

    def test_treated_is_the_same_for_any_chunk_size(self, monkeypatch):
        start, count, threshold = 3 * 2**20 + 5, 2**20 - 77, 1.0  # a short last chunk
        cut = _backend._cut(threshold)
        monkeypatch.setattr(_backend, "_CHUNK", 2**16)
        want = _backend._treated(11, start, count, threshold, cut, _backend._Buffers(count, cut))
        monkeypatch.setattr(_backend, "_CHUNK", 2**18)
        got = _backend._treated(11, start, count, threshold, cut, _backend._Buffers(count, cut))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_treated_is_the_same_for_any_cut_and_room(self, monkeypatch):
        # a cut of 0 keeps every bit, so z_s falls below the threshold at
        # most of them, and a buffer sized for a cut near 2**64 must grow:
        # with chunks of 64 counters, after chunks have kept bits
        start, count, threshold = 2**20 + 3, 2**18 + 5, 0.8
        cut = _backend._cut(threshold)
        want = _backend._treated(13, start, count, threshold, cut, _backend._Buffers(count, cut))
        everything = _backend._Buffers(count, np.uint64(0))
        got = [_backend._treated(13, start, count, threshold, np.uint64(0), everything)]
        monkeypatch.setattr(_backend, "_CHUNK", 64)
        small = _backend._Buffers(count, np.uint64(2**64 - 1))
        assert small.near.size < 100
        kept, fit = [], _backend._Buffers.fit
        monkeypatch.setattr(_backend._Buffers, "fit",
                            lambda buf, size, keep: (kept.append(keep), fit(buf, size, keep)))
        got.append(_backend._treated(13, start, count, threshold, cut, small))
        assert kept and kept[0] > 0  # the grown arrays start with the bits kept so far
        for zs, zt in got:
            assert zs.tobytes() == want[0].tobytes()
            assert zt.tobytes() == want[1].tobytes()

    def test_probit_block_size_invariance(self, monkeypatch):
        monkeypatch.setattr(_backend, "_BLOCK", ARGS_PROBIT["n"])
        want = probit_sums(**ARGS_PROBIT)
        monkeypatch.setattr(_backend, "_BLOCK", 2**16)
        assert probit_sums(**ARGS_PROBIT) == want

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

        def block(start, count, buf):
            if start == 5 * 2**14:
                raise ZeroDivisionError("block 5")
            return 1.0, 1.0

        with pytest.raises(ZeroDivisionError, match="block 5"):
            _backend._block_sums(block, 40 * 2**14, _backend._cut(0.0))


# Sums taken at the commit before the kernel reused its buffers, pinned
# with ==: n spans three blocks and a short fourth, whose last chunk is short.
GOLDEN_N = 3 * 2**20 + 12_345


@pytest.mark.parametrize("alpha, linear, probit", [
    (0.02, (518196.7027949412, 10015884.551505119), (17553.0, 17553.0)),
    (0.3, (4228119.314415478, 107274850.85268259), (157782.0, 157782.0)),
])
def test_golden_sums(alpha, linear, probit):
    threshold = gaussian.upper_quantile(alpha)
    assert linear_sums(2026, GOLDEN_N, 1.0, 3.0, math.sqrt(91.0), threshold) == linear
    assert probit_sums(2026, GOLDEN_N, -1.2815515655446004, 0.3, math.sqrt(0.91),
                       threshold) == probit
