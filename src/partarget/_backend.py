"""The Monte Carlo simulation kernel.

Sampling uses a counter-based splitmix64 stream: the uniform at counter c
is a pure function of (seed, c), and sample i takes its two normals,
z_s and z_t, from counters 2i and 2i + 1 by the inverse normal CDF
(``gaussian.ndtri``: AS 241 in NumPy array loops, each element equal to
``gaussian.quantile`` at its uniform).  A sample is treated iff
z_s >= threshold; untreated samples add exactly 0 to every sum, so z_t is
drawn only for treated ones.

The n samples are cut into blocks of ``_BLOCK`` consecutive indices.
Blocks are independent, so they run on a thread pool with one worker per
usable CPU: NumPy releases the GIL in its array loops, and chunks of
``_CHUNK`` counters make each loop long enough for the workers to overlap.
The per-block partial sums are combined in block order with ``math.fsum``,
so the sums are bit-identical for a fixed seed, whatever the number of
workers or the order in which blocks finish.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import gaussian

__all__ = ["BACKEND", "linear_sums", "probit_sums"]

BACKEND = "numpy"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0 ** -53

_BLOCK = 1 << 20
_CHUNK = 1 << 18  # counters per pass of the bit mixer


def _bits(seed: int, counter: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """The splitmix64 output at each counter, into out if given (tmp: scratch)."""
    z = np.add(counter, np.uint64(1), out=out)
    z *= _GOLDEN
    z += np.uint64(seed)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _unit(bits: np.ndarray) -> np.ndarray:
    """Open-interval uniforms (k + 1/2) / 2**53 from the top 53 bits."""
    u = (bits >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= _TWO_NEG53
    return u


def _uniform(seed: int, counter: np.ndarray) -> np.ndarray:
    """The uniform at each counter."""
    return _unit(_bits(seed, counter))


def _cut(threshold: float) -> np.uint64:
    """The splitmix64 output below which z_s < threshold for certain.

    z_s >= threshold can only hold where the uniform is above
    cdf(threshold) - 1e-9: a 1e-9 shift of the uniform moves z_s by at
    least 2.5e-9, far more than the error of ndtri (up to about 6 ulps,
    4e-14 at |z_s| < 38) or of cdf, so no uniform below the cut can round
    up to a z_s past the threshold.  It is computed once per call and
    shared by every block.
    """
    return np.uint64(int(max(0.0, gaussian.cdf(threshold) - 1e-9) * 2.0**53) << 11)


def _treated(seed: int, start: int, count: int, threshold: float, cut: np.uint64):
    """z_s and z_t of the treated samples among indices [start, start + count).

    The z_s stream is scanned in chunks through one set of buffers, and z_s is
    computed and tested only at the bits at or past ``cut`` (see :func:`_cut`).
    """
    size = min(_CHUNK, count)
    even = np.arange(2 * start, 2 * (start + size), 2, dtype=np.uint64)
    bits, tmp, above = np.empty_like(even), np.empty_like(even), np.empty(size, bool)
    zs_parts, zt_parts = [], []
    for lo in range(start, start + count, size):
        m = min(size, start + count - lo)  # the last chunk may be short
        b = _bits(seed, even[:m], bits[:m], tmp[:m])
        near = np.flatnonzero(np.greater_equal(b, cut, out=above[:m]))
        zs = gaussian.ndtri(_unit(b.take(near)))
        hit = zs >= threshold
        idx = (near[hit] + lo).astype(np.uint64)
        zs_parts.append(zs[hit])
        zt_parts.append(gaussian.ndtri(_uniform(seed, 2 * idx + 1)))
        even += np.uint64(2 * size)
    return np.concatenate(zs_parts), np.concatenate(zt_parts)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _block_sums(block_fn, n: int) -> tuple[float, float]:
    """Run block_fn(start, count) over the blocks of n samples; combine the
    (sum, sum of squares) pairs in block order."""
    jobs = [(start, min(_BLOCK, n - start)) for start in range(0, n, _BLOCK)]
    workers = min(_usable_cpus(), len(jobs))
    if workers <= 1:
        parts = [block_fn(*job) for job in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # its import (with logging) is slow
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda job: block_fn(*job), jobs))
    try:
        return math.fsum(p[0] for p in parts), math.fsum(p[1] for p in parts)
    except (OverflowError, ValueError):  # a total past the largest double, or inf - inf
        return math.nan, math.nan


def linear_sums(
    seed: int,
    n: int,
    mu: float,
    s_scale: float,
    t_scale: float,
    threshold: float,
) -> tuple[float, float]:
    """Sum and sum-of-squares of treated welfare over n linear-model draws.

    Sample i: w = s_scale*z_s + t_scale*z_t + mu, treated iff z_s >= threshold.
    Sums that overflow come back as inf or NaN, without a warning.
    """
    cut = _cut(threshold)

    def sums(start: int, count: int) -> tuple[float, float]:
        zs, zt = _treated(seed, start, count, threshold, cut)
        with np.errstate(over="ignore", invalid="ignore"):
            x = s_scale * zs + t_scale * zt + mu
            return float(x.sum()), float((x * x).sum())

    return _block_sums(sums, n)


def probit_sums(
    seed: int,
    n: int,
    m: float,
    gamma_s: float,
    gamma_t: float,
    threshold: float,
) -> tuple[float, float]:
    """Sum and sum-of-squares of treated benefit indicators over n draws.

    Sample i: w = 1{gamma_s*z_s + gamma_t*z_t + m > 0}, treated iff
    z_s >= threshold; the summand is w * treated, so both sums are the
    count of treated benefiting samples.
    """
    cut = _cut(threshold)

    def sums(start: int, count: int) -> tuple[float, float]:
        zs, zt = _treated(seed, start, count, threshold, cut)
        hits = float(np.count_nonzero(gamma_s * zs + gamma_t * zt + m > 0.0))
        return hits, hits

    return _block_sums(sums, n)
