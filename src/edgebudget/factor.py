"""Pointwise factoring and what it yields: P(k), Euler's totient, Lambda(n).

P(k) denotes the largest prime dividing k, with P(1) = 0. One pointwise
factorizer, ``_prime_factors``, serves P(k), phi(m) and the von Mangoldt
weight: trial division by primes up to 10**4 (from 10**8 up, only by the
primes that divide gcd(k, their product)), a deterministic primality check
on the cofactor, and Brent-cycle Pollard rho (with an input-derived seed, so
the output is reproducible) for composite cofactors. Bulk values of P over an
interval come from a segmented sieve that divides out every prime up to
sqrt(hi), or, over a window too narrow to pay for those primes, from the
pointwise factorizer; a caller that needs only P(n) >= floor > sqrt(hi) gets
them by writing each prime in [floor, hi] onto its multiples.
"""

import functools
import math
import random

import numpy as np

from . import sieve

TRIAL_LIMIT = 10_000


@functools.cache
def _small_primes() -> list[int]:
    """The primes below TRIAL_LIMIT."""
    return sieve.primes_in(2, TRIAL_LIMIT).tolist()


@functools.cache
def _small_product() -> int:
    """The product of the primes below TRIAL_LIMIT. It takes about 0.7 ms to
    form, five times the sieve, so only a k that needs it pays for it."""
    return math.prod(_small_primes())


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
    # Below TRIAL_LIMIT**2 the loop divides k itself up to sqrt(k), which costs
    # less than a gcd with the product. From there up it divides only
    # g = gcd(k, product): squarefree, 1 for a k with no small factor, and
    # done at sqrt(g).
    m = k if k < TRIAL_LIMIT**2 else math.gcd(k, _small_product())
    out = []
    for p in _small_primes():
        if p * p > m:
            break
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
    if m > 1:
        out.append(m)  # prime: no prime up to its square root divides it
    if k >= TRIAL_LIMIT**2:
        for p in out:
            while k % p == 0:
                k //= p
        if k > 1:
            # k is prime, or composite with every prime factor above TRIAL_LIMIT
            out.extend(sorted(_rough_prime_factors(k)))
    return out


def largest_prime_factor(k: int) -> int:
    """P(k): the largest prime dividing k, with P(1) = 0.

    k is supported when what is left of it after dividing out every prime
    below TRIAL_LIMIT = 10**4 is below 2**64, the range of ``sieve.is_prime``:
    every k < 2**64 is, and so is 2**70, but 2**64 + 1 is not.

    Raises:
        TypeError: if k is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if k < 1, or what is left is 2**64 or more.
    """
    k = sieve.check_int(k, "largest_prime_factor", "k", 1)
    return _prime_factors(k)[-1] if k > 1 else 0


def euler_phi(m: int) -> int:
    """Euler's totient: the count of 1 <= a <= m coprime to m.

    Raises:
        TypeError: if m is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if m < 1, or m is outside ``largest_prime_factor``'s range.
    """
    m = sieve.check_int(m, "euler_phi", "m", 1)
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def mangoldt_weight(n: int) -> float:
    """Von Mangoldt Lambda(n): log p when n = p**j for prime p, else 0.0.

    Raises:
        TypeError: if n is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if n < 1, or n is outside ``largest_prime_factor``'s range.
    """
    n = sieve.check_int(n, "mangoldt_weight", "n", 1)
    primes = _prime_factors(n)
    return math.log(primes[0]) if len(primes) == 1 else 0.0


def _scatter(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """``lpf_table(lo, hi, floor=F)`` from ``primes``, the primes of [F, hi], F > sqrt(hi).

    Each n <= hi has at most one prime factor Q >= F, and if one exists it is
    P(n): each Q is written onto its multiples m * Q in [lo, hi]. A prime
    with no multiple there may be left out of ``primes``.
    """
    out = np.zeros(hi - lo + 1, dtype=np.int64)
    most = hi // int(primes[0]) if primes.size else 0  # the largest cofactor m of any m * Q <= hi
    for m in range(1, most + 1):
        # the primes in [ceil(lo / m), hi // m]; each bound fits in int64
        first, last = np.searchsorted(primes, (-(-lo // m) - 1, hi // m), side="right")
        out[m * primes[first:last] - lo] = primes[first:last]
    return out


def lpf_table(lo: int, hi: int, *, floor: int = 0) -> np.ndarray:
    """P(n) for every n in [lo, hi], or 0 where P(n) < floor.

    Returns the int64 array ``a`` with ``a[n - lo] == P(n)``, or 0 where P(n)
    is below the floor (always 0 at n = 1). The default floor 0 gives the
    exact table. When floor > sqrt(hi), ``_scatter`` writes the primes of
    [floor, hi] that have a multiple in the window onto their multiples.
    That path is skipped for a window so narrow that those primes would span
    more than twice its width. A window that ``sieve.is_narrow`` marks is
    not sieved: each entry is ``largest_prime_factor(n)``, so a few numbers
    near 2**63 take milliseconds and no base primes. Otherwise each segment
    of ``sieve.SEGMENT_LENGTH`` entries divides out all primes up to sqrt(hi)
    (once per prime-power level, so multiplicities are exact); any cofactor
    left above 1 is itself prime and is the largest factor. Either way,
    entries below floor are then zeroed.

    Raises:
        TypeError: if lo, hi or floor is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if lo < 1, hi < lo or hi >= 2**63, the int64 limit (``sieve.check_int``,
            lo first), before anything is allocated.
    """
    floor = sieve.check_int(floor)
    lo = sieve.check_int(lo, "lpf_table", "lo", 1, 2**63 - 1)
    hi = sieve.check_int(hi, "lpf_table", "hi", lo, 2**63 - 1)
    if floor > hi:
        return np.zeros(hi - lo + 1, dtype=np.int64)
    root = math.isqrt(hi)
    if floor > root:
        q_lo = max(floor, -(-lo // (hi // floor)))  # no prime in [floor, q_lo) has a multiple >= lo
        if hi - q_lo <= 2 * (hi - lo):
            return _scatter(lo, hi, sieve.primes_in(q_lo, hi))
    if sieve.is_narrow(lo, hi):
        pointwise = (largest_prime_factor(n) for n in range(lo, hi + 1))
        return np.array([p if p >= floor else 0 for p in pointwise], dtype=np.int64)
    out = np.zeros(hi - lo + 1, dtype=np.int64)
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
