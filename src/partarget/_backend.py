"""The Monte Carlo simulation kernel.

Sampling uses a counter-based splitmix64 stream: the uniform at counter c
is a pure function of (seed, c), and sample i takes its two normals,
z_s and z_t, from counters 2i and 2i + 1 by the inverse normal CDF
(``gaussian.ndtri``, each element equal to ``gaussian.quantile`` at its
uniform).  A sample is treated iff z_s >= threshold; untreated samples add
exactly 0 to every sum, so z_t is drawn only for treated ones.

The n samples are cut into blocks of ``_BLOCK`` consecutive indices.
Blocks are independent, so one worker per usable CPU takes them in turn,
on plain threads of which the calling thread is one: NumPy releases the
GIL in its array loops.  A worker makes its arrays once per call and
reuses them for every block.  It scans the z_s bits in chunks of
``_CHUNK`` counters, whose arrays stay in a core's L2, and keeps those that
can reach the threshold, with their splitmix states, in arrays sized to
what a block keeps; ``ndtri`` runs on those in batches, into the worker's
arrays, where the sums are formed in place.  The per-block partial sums are
combined in block order with ``math.fsum``, so the sums are bit-identical
for a fixed seed, whatever the number of workers or the order in which
blocks finish.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from . import gaussian

__all__ = ["BACKEND", "linear_sums", "probit_sums"]

BACKEND = "numpy"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0 ** -53

_BLOCK = 1 << 20
_CHUNK = 1 << 16  # counters per pass of the bit mixer: its three arrays stay in a core's 2 MB L2
_WRAP = 2**64


def _mix(z, out, tmp):
    """splitmix64's output at each state z = (c + 1) golden + seed, into out (tmp: working space)."""
    np.bitwise_xor(z, np.right_shift(z, np.uint64(30), out=tmp), out=out)
    out *= _MIX1
    out ^= np.right_shift(out, np.uint64(27), out=tmp)
    out *= _MIX2
    out ^= np.right_shift(out, np.uint64(31), out=tmp)
    return out


def _unit(bits, out):
    """Open-interval uniforms (k + 1/2) / 2**53 from the top 53 bits, into out
    (bits is shifted in place)."""
    np.copyto(out, np.right_shift(bits, np.uint64(11), out=bits), casting="unsafe")
    out += 0.5
    out *= _TWO_NEG53
    return out


def _uniform(seed: int, counter: np.ndarray) -> np.ndarray:
    """The uniform at each counter."""
    z = np.add(counter, np.uint64(1))
    z *= _GOLDEN
    z += np.uint64(seed)
    return _unit(_mix(z, z, np.empty_like(z)), np.empty(z.shape))


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


class _Buffers:
    """One worker's arrays, made once per call and reused for each of its
    blocks: chunk-sized ones for the scan, and ones for the compacted stream
    sized to the bits a block can be expected to keep (see :meth:`fit`)."""

    def __init__(self, size: int, cut: np.uint64):
        chunk = min(_CHUNK, size)
        self.steps = np.arange(chunk, dtype=np.uint64)
        # 2j golden: the state of index start + j less that of start
        self.steps *= np.uint64(2 * int(_GOLDEN) % _WRAP)
        self.state, self.bits, self.tmp = np.empty((3, chunk), np.uint64)
        self.above = np.empty(chunk, bool)
        # A block keeps a binomial number of bits, at rate 1 - cut / 2**64.
        # Room for 64 past ten standard deviations above the mean is about
        # never short, and the scan makes more when it is.
        mean = size * (1.0 - int(cut) / _WRAP)
        self.fit(min(size, int(mean + 10.0 * math.sqrt(mean)) + 64), 0)

    def fit(self, size: int, keep: int):
        """Make room for size elements in the compacted-stream arrays, keeping
        the first keep of near and ctr.

        They are sized to what a block keeps, not to the block: NumPy asks
        for huge pages on arrays of 4 MB or more, so a block-sized array of
        which a block writes a few pages would take memory in 2 MB steps.
        """
        near, ctr = np.empty(size, np.uint64), np.empty(size, np.uint64)
        if keep:
            near[:keep], ctr[:keep] = self.near[:keep], self.ctr[:keep]
        self.near, self.ctr = near, ctr
        self.zt = near.view(np.float64)  # z_t is made once near is spent
        self.u, self.zs = np.empty(size), np.empty(size)
        self.flag = np.empty(size, bool)


def _scan(seed: int, start: int, count: int, cut: np.uint64, buf: _Buffers) -> int:
    """Put the z_s bits at or past cut among indices [start, start + count),
    and their splitmix states, at the front of buf.near and buf.ctr, in index
    order; return how many there are.

    The state of index i, (2i + 1) golden + seed, is kept as a running array
    and moved on by a chunk's worth after each pass.
    """
    size = buf.steps.size
    first = np.uint64(((2 * start + 1) * int(_GOLDEN) + seed) % _WRAP)
    state = np.add(buf.steps, first, out=buf.state)
    step = np.uint64(2 * size * int(_GOLDEN) % _WRAP)
    k = 0
    for lo in range(0, count, size):
        m = min(size, count - lo)  # the last chunk may be short
        s = state[:m]
        bits = _mix(s, buf.bits[:m], buf.tmp[:m])
        at = np.flatnonzero(np.greater_equal(bits, cut, out=buf.above[:m]))
        if k + at.size > buf.near.size:
            buf.fit(count, k)
        # mode="clip" takes straight into out; the default, "raise", takes through a copy
        np.take(bits, at, out=buf.near[k:k + at.size], mode="clip")
        np.take(s, at, out=buf.ctr[k:k + at.size], mode="clip")
        k += at.size
        state += step
    return k


def _treated(seed: int, start: int, count: int, threshold: float, cut: np.uint64,
             buf: _Buffers):
    """z_s and z_t of the treated samples among indices [start, start + count),
    as views of buf's arrays.

    z_s is computed only at the bits at or past ``cut`` (see :func:`_cut`),
    and z_t only where z_s >= threshold, from the state of counter 2i + 1:
    that of counter 2i plus golden.
    """
    k = _scan(seed, start, count, cut, buf)
    zs = gaussian.ndtri(_unit(buf.near[:k], buf.u[:k]), out=buf.zs[:k])
    ctr = buf.ctr[:k]
    hit = np.greater_equal(zs, threshold, out=buf.flag[:k])
    h = np.count_nonzero(hit)
    if h < k:  # a uniform within the cut's 1e-9 margin below the threshold: rare
        zs, ctr = buf.zs[:h], buf.ctr[:h]
        zs[:], ctr[:] = buf.zs[:k][hit], buf.ctr[:k][hit]
    ctr += _GOLDEN
    u = _unit(_mix(ctr, ctr, buf.near[:h]), buf.u[:h])
    return zs, gaussian.ndtri(u, out=buf.zt[:h])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _block_sums(block_fn, n: int, cut: np.uint64) -> tuple[float, float]:
    """Run block_fn(start, count, buffers) over the blocks of n samples and
    combine the (sum, sum of squares) pairs in block order.

    One worker per usable CPU, capped at the number of blocks, takes blocks
    in turn through its own buffers; the calling thread is one of them.  A
    worker's exception stops the others taking blocks and is raised here.
    """
    jobs = [(start, min(_BLOCK, n - start)) for start in range(0, n, _BLOCK)]
    parts = [None] * len(jobs)
    todo = iter(range(len(jobs)))
    lock = threading.Lock()
    failed = []

    def work():
        try:
            buf = _Buffers(jobs[0][1], cut)
            while True:
                with lock:
                    j = None if failed else next(todo, None)
                if j is None:
                    return
                parts[j] = block_fn(*jobs[j], buf)
        except BaseException as exc:  # raised again in the calling thread
            with lock:
                failed.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), len(jobs)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        raise failed[0]
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

    def sums(start: int, count: int, buf: _Buffers) -> tuple[float, float]:
        x, zt = _treated(seed, start, count, threshold, cut, buf)
        with np.errstate(over="ignore", invalid="ignore"):
            x *= s_scale  # x = s_scale*z_s + t_scale*z_t + mu, in place
            x += np.multiply(zt, t_scale, out=zt)
            x += mu
            total = float(x.sum())
            x *= x
            return total, float(x.sum())

    return _block_sums(sums, n, cut)


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

    def sums(start: int, count: int, buf: _Buffers) -> tuple[float, float]:
        x, zt = _treated(seed, start, count, threshold, cut, buf)
        x *= gamma_s  # x = gamma_s*z_s + gamma_t*z_t + m, in place
        x += np.multiply(zt, gamma_t, out=zt)
        x += m
        hits = float(np.count_nonzero(np.greater(x, 0.0, out=buf.flag[:x.size])))
        return hits, hits

    return _block_sums(sums, n, cut)
