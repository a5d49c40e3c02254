"""Prime generation and deterministic 64-bit primality.

The arithmetic substrate for everything else in the package: a segmented
sieve of Eratosthenes with bounded memory and a strong-pseudoprime test that
is deterministic over the full 64-bit range. Pointwise factoring, and with it
the von Mangoldt weight Lambda(n), lives in ``factor``.
"""

import math
import operator

import numpy as np

# integers per sieve segment; even, so every segment starts on an odd number
SEGMENT_LENGTH = 1 << 20

_U64_LIMIT = 1 << 64

# Strong-pseudoprime witness bases: testing against the first twelve primes is
# deterministic for every n < 3.3 * 10**24, which covers the 64-bit contract.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Runs Miller-Rabin with a fixed published witness set, so the answer is
    exact (no probabilistic error) over the supported range. n may be any
    integer type, numpy's included.

    Raises:
        TypeError: if n is not an integer.
        ValueError: if n is outside [0, 2**64).
    """
    n = operator.index(n)
    if n < 0 or n >= _U64_LIMIT:
        raise ValueError("is_prime supports 0 <= n < 2**64")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _dense_sieve(limit: int) -> np.ndarray:
    """Boolean primality flags for 0..limit via plain Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Every prime in [lo, hi]: an ascending int64 array, empty when there is none.

    Segmented sieving of the odd numbers: each segment spans
    ``SEGMENT_LENGTH`` integers and flags only its odd ones; 2 is added when
    it lies in [lo, hi]. Memory use is bounded by ``SEGMENT_LENGTH`` (plus
    the base primes up to sqrt(hi)), not by ``hi``, so intervals near 10**9
    are fine.

    Raises:
        ValueError: if lo < 1 or lo > hi.
    """
    if lo < 1:
        raise ValueError("interval endpoints must be positive")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    if hi < 2:
        return np.empty(0, dtype=np.int64)

    base = np.nonzero(_dense_sieve(math.isqrt(hi)))[0][1:].tolist()  # odd base primes
    chunks = [np.array([2], dtype=np.int64)] if lo <= 2 else []
    for seg_lo in range(max(lo, 3) | 1, hi + 1, SEGMENT_LENGTH):
        seg_hi = min(seg_lo + SEGMENT_LENGTH - 1, hi)
        mask = np.ones((seg_hi - seg_lo) // 2 + 1, dtype=bool)  # mask[i]: seg_lo + 2 i
        for p in base:
            first = max(p * p, ((seg_lo + p - 1) // p) * p)
            first += p * (first % 2 == 0)  # the first odd multiple
            if first > seg_hi:
                continue
            mask[(first - seg_lo) // 2 :: p] = False
        chunks.append(seg_lo + 2 * np.nonzero(mask)[0].astype(np.int64))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
