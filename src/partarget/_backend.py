"""The Monte Carlo simulation kernel.

A sample is treated iff its observable normal z_s is at or past the
threshold, which happens with probability p = sf(threshold), and untreated
samples add exactly 0 to every sum, so only the treated samples are drawn.
The n samples are cut into blocks of ``_BLOCK``.  Block j draws from its own
``numpy.random.Generator``, seeded by ``SeedSequence(seed, spawn_key=(j,))``,
so it is a pure function of (seed, j): its treated count h ~ Binomial(count,
p), then z_s = -ndtri(p v) with v = 1 - U in (0, 1], the upper-tail quantile
of z_s given z_s >= threshold, then the residual normals z_t.

Blocks are independent, so one worker per usable CPU takes them in turn, on
plain threads of which the calling thread is one: NumPy releases the GIL in
its array loops and in the Generator's fills.  The per-block partial sums
are combined in block order with ``math.fsum``, so the sums are
bit-identical for a fixed (seed, n), whatever the number of workers or the
order in which blocks finish.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from . import gaussian

__all__ = ["BACKEND", "linear_sums", "probit_sums"]

BACKEND = "numpy"

# Samples per block: even at alpha = 1 no array of a block reaches the 4 MB at
# which NumPy asks for huge pages, which would take memory in 2 MB steps.
_BLOCK = 1 << 18


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _block_sums(block_fn, n: int) -> tuple[float, float]:
    """Run block_fn(j, count) over the blocks of n samples and combine the
    (sum, sum of squares) pairs in block order.

    One worker per usable CPU, capped at the number of blocks, takes blocks
    in turn; the calling thread is one of them.  A worker's exception stops
    the others taking blocks and is raised here.
    """
    counts = [min(_BLOCK, n - start) for start in range(0, n, _BLOCK)]
    parts = [None] * len(counts)
    todo = iter(range(len(counts)))
    lock = threading.Lock()
    failed = []

    def work():
        try:
            while True:
                with lock:
                    j = None if failed else next(todo, None)
                if j is None:
                    return
                parts[j] = block_fn(j, counts[j])
        except BaseException as exc:  # raised again in the calling thread
            with lock:
                failed.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), len(counts)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        raise failed[0]
    return math.fsum(p[0] for p in parts), math.fsum(p[1] for p in parts)


def _treated_sums(seed: int, n: int, threshold: float, sums) -> tuple[float, float]:
    """Run sums(z_s, z_t) on the treated samples of each block of n samples."""
    # numpy.random costs about 14 ms to import: here, so that only the Monte
    # Carlo commands pay it, and on the calling thread, before any worker starts.
    import numpy.random

    p = gaussian.sf(threshold)

    def block(j: int, count: int) -> tuple[float, float]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
        h = int(rng.binomial(count, p))
        v = np.subtract(1.0, rng.random(h))  # in (0, 1]
        v *= p
        zs = gaussian.ndtri(v)
        return sums(np.negative(zs, out=zs), rng.standard_normal(h))

    return _block_sums(block, n)


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
    The oracle passes scales in a power-of-two unit, where no sum overflows.
    """
    def sums(x, zt) -> tuple[float, float]:
        x *= s_scale  # x = s_scale*z_s + t_scale*z_t + mu, in place
        x += np.multiply(zt, t_scale, out=zt)
        x += mu
        total = float(x.sum())
        x *= x
        return total, float(x.sum())

    return _treated_sums(seed, n, threshold, sums)


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
    def sums(x, zt) -> tuple[float, float]:
        x *= gamma_s  # x = gamma_s*z_s + gamma_t*z_t + m, in place
        x += np.multiply(zt, gamma_t, out=zt)
        x += m
        hits = float(np.count_nonzero(x > 0.0))
        return hits, hits

    return _treated_sums(seed, n, threshold, sums)
