"""Pointwise factoring and what it yields: P(k), Euler's totient, Lambda(n).

P(k) denotes the largest prime dividing k, with P(1) = 0. One pointwise
factorizer, ``_prime_factors``, serves P(k), phi(m) and the von Mangoldt
weight: trial division by primes up to 10**4, a deterministic primality check
on the cofactor, and Brent-cycle Pollard rho (with an input-derived seed, so
the output is reproducible) for composite cofactors. Bulk values of P over an
interval come from a segmented sieve that divides out every prime up to
sqrt(hi); a caller that needs only P(n) >= floor > sqrt(hi) gets them by
writing each prime in [floor, hi] onto its multiples.
"""

import functools
import math
import operator
import random

import numpy as np

from . import sieve

TRIAL_LIMIT = 10_000


@functools.cache
def _small_primes() -> list[int]:
    return sieve.primes_in(2, TRIAL_LIMIT).tolist()


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, Brent's cycle variant.

    Parameters are drawn from a generator seeded by n itself: identical
    inputs always factor the same way.
    """
    rng = random.Random(0x5EED ^ n)
    while True:
        y = rng.randrange(2, n - 1)
        c = rng.randrange(1, n - 1)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _rough_prime_factors(m: int) -> set[int]:
    """Distinct prime factors of m > 1 when every prime factor exceeds TRIAL_LIMIT."""
    if sieve.is_prime(m):
        return {m}
    d = _pollard_rho(m)
    return _rough_prime_factors(d) | _rough_prime_factors(m // d)


def _prime_factors(k: int) -> list[int]:
    """The distinct primes dividing k >= 1, ascending ([] for k = 1)."""
    out = []
    for p in _small_primes():
        if p * p > k:
            break
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
    if k > 1:
        # k is prime, or composite with every prime factor above TRIAL_LIMIT
        out.extend(sorted(_rough_prime_factors(k)))
    return out


def largest_prime_factor(k: int) -> int:
    """P(k): the largest prime dividing k, with P(1) = 0.

    Raises:
        TypeError: if k is not an integer.
        ValueError: if k < 1.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("largest_prime_factor requires k >= 1")
    return _prime_factors(k)[-1] if k > 1 else 0


def euler_phi(m: int) -> int:
    """Euler's totient: the count of 1 <= a <= m coprime to m."""
    m = operator.index(m)
    if m < 1:
        raise ValueError("euler_phi requires m >= 1")
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def mangoldt_weight(n: int) -> float:
    """Von Mangoldt Lambda(n): log p when n = p**j for prime p, else 0.0."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("mangoldt_weight requires n >= 1")
    primes = _prime_factors(n)
    return math.log(primes[0]) if len(primes) == 1 else 0.0


def lpf_table(lo: int, hi: int, *, floor: int = 0) -> np.ndarray:
    """P(n) for every n in [lo, hi], or 0 where P(n) < floor.

    Returns the int64 array ``a`` with ``a[n - lo] == P(n)``, or 0 where P(n)
    is below the floor (always 0 at n = 1). The default floor 0 gives the
    exact table. When floor > sqrt(hi), every n <= hi has at most one prime
    factor >= floor, and if one exists it is P(n): each prime Q >= floor
    that has a multiple in the window is then written onto its multiples
    m * Q <= hi, with no small-prime sieve and no division. That path is
    skipped for a window so narrow that those primes would span more than
    twice its width. Otherwise each segment of ``sieve.SEGMENT_LENGTH``
    entries divides out all primes up to sqrt(hi) (once per prime-power
    level, so multiplicities are exact); any cofactor left above 1 is itself
    prime and is the largest factor; entries below floor are then zeroed.

    Raises:
        ValueError: if lo < 1 or lo > hi.
    """
    if lo < 1:
        raise ValueError("interval endpoints must be positive")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    out = np.zeros(hi - lo + 1, dtype=np.int64)
    if floor > hi:
        return out
    root = math.isqrt(hi)
    if floor > root:
        most = hi // floor  # the largest cofactor m of m * Q <= hi with Q >= floor
        q_lo = max(floor, -(-lo // most))
        if hi - q_lo <= 2 * (hi - lo):
            primes = sieve.primes_in(q_lo, hi)
            for m in range(1, most + 1):
                first, last = np.searchsorted(primes, (-(-lo // m), hi // m + 1))
                out[m * primes[first:last] - lo] = primes[first:last]
            return out
    base = sieve.primes_in(1, root).tolist()
    for seg_lo in range(lo, hi + 1, sieve.SEGMENT_LENGTH):
        seg_hi = min(seg_lo + sieve.SEGMENT_LENGTH - 1, hi)
        lpf = out[seg_lo - lo : seg_hi - lo + 1]  # a view: the segment is written in place
        rem = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
        for p in base:
            first = ((seg_lo + p - 1) // p) * p
            if first > seg_hi:
                continue
            lpf[first - seg_lo :: p] = p
            power = p
            while power <= seg_hi:
                start = ((seg_lo + power - 1) // power) * power
                if start > seg_hi:
                    break
                rem[start - seg_lo :: power] //= p
                power *= p
        big = rem > 1
        lpf[big] = rem[big]
    if floor > 0:
        out[out < floor] = 0
    return out
