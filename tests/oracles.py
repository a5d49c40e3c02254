"""Brute-force references that the tests compare the package's kernels against.

One reference per piece of arithmetic, each written from its definition with
plain loops, and none calling the kernel it checks: the prime flags never
come from ``primes_in``, nor ``P(k)`` from ``largest_prime_factor``, nor the
discrepancy supremum from ``max_discrepancy``.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import fsum, gcd

from edgebudget import euler_phi, mangoldt_weight


def prime_flags(limit):
    """Primality flags for 0..limit (1 for a prime, else 0) by plain Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


def trial_division_is_prime(n: int) -> bool:
    """Whether n is prime, by trial division with 2 and the odd numbers up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_division_primes(k: int) -> list[int]:
    """The distinct prime factors of k >= 1, ascending."""
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return out + ([k] if k > 1 else [])


def trial_division_lpf(k: int) -> int:
    """P(k), the largest prime factor of k >= 1, with P(1) = 0."""
    primes = trial_division_primes(k)
    return primes[-1] if primes else 0


def exact_threshold(b: int, exponent: float) -> int:
    """The least integer t with t**den >= b**num, num/den being
    ``Fraction(exponent).limit_denominator(10**6)``, for b >= 1 and 0 < exponent <= 1:
    one step at a time on exact integer powers, down from a 30-digit decimal guess at
    b**(num/den) until t is refused, then up until it is accepted."""
    frac = Fraction(exponent).limit_denominator(10**6)
    num, den = frac.numerator, frac.denominator
    target = b**num
    with localcontext() as context:
        context.prec = 30
        t = int(Decimal(b) ** (Decimal(num) / den))
    while t**den >= target:
        t -= 1
    while t**den < target:
        t += 1
    return t


def prime_divisor_lists(limit, flags):
    """divs[m]: the prime divisors of m, ascending, for every m <= limit."""
    divs = [[] for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if flags[p]:
            for multiple in range(p, limit + 1, p):
                divs[multiple].append(p)
    return divs


def naive_edge_budget(n, flags, divs):
    """Fully naive f(n): every (k, p) split and every prime divisor q of r - 1.

    Returns the best score and the first (k, p, q, r) that reaches it.
    """
    best = 0
    best_quad = None
    for p in range(2, n - 2):
        if not flags[p]:
            continue
        for kp in range(p, n - 2, p):
            r = n - kp
            if not flags[r]:
                continue
            for q in divs[r - 1]:
                s = min(p * kp, kp * r, q * r)
                if s > best:
                    best = s
                    best_quad = (kp // p, p, q, r)
    return best, best_quad


def brute_force_sup(z, m):
    """Scan every integer y plus every left limit, pointwise Lambda values."""
    phi = euler_phi(m)
    residues = [0] if m == 1 else [a for a in range(1, m) if gcd(a, m) == 1]
    lam = [0.0] + [mangoldt_weight(n) for n in range(1, math.floor(z) + 1)]
    best = -1.0
    for a in residues:
        acc = 0.0
        prev = 0.0
        for y in range(1, math.floor(z) + 1):
            if y % m == a:
                acc = fsum([acc, lam[y]])
            best = max(best, abs(prev - y / phi), abs(acc - y / phi))
            prev = acc
        best = max(best, abs(acc - z / phi))
    return best
