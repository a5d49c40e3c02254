"""Prime generation and deterministic 64-bit primality.

The arithmetic substrate for everything else in the package: a segmented
sieve of Eratosthenes with bounded memory and a pointwise primality test that
is exact over the full 64-bit range. The test answers small n from the primes
below 100, and runs Miller-Rabin on the rest with the best-known base set
that is verified exact below n: at most seven bases, and one or two below
1373653. ``is_prime_triple`` tests three numbers at once, cheapest rejection
first, for ``witness.f_exact``'s candidates. ``has_small_factor``, one gcd,
is the test by which ``f_exact``'s walks pass members over; the triple test
does not repeat it. A window too narrow to pay for the base primes up to its
square root (``is_narrow``) is tested pointwise instead of sieved. Pointwise
factoring, and with it the von Mangoldt weight Lambda(n), lives in
``factor``.
"""

import bisect
import math
import operator

import numpy as np

# integers per sieve segment; even, so every segment starts on an odd number
SEGMENT_LENGTH = 1 << 20

_U64_LIMIT = 1 << 64

_SMALL_PRIMES = frozenset(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
)
# one gcd with this product does the trial division by every prime below 100
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# a composite below 100**2 has a prime factor below 100: there a gcd of 1 means prime
_GCD_EXACT_LIMIT = 10**4

# Best-known deterministic Miller-Rabin base sets (miller-rabin.appspot.com):
# each row's bases decide every n below its bound, the least odd composite
# that passes them all. A base is reduced mod n and a residue below 2 is
# skipped, the convention the sets were verified under. What they rest on is a
# published computation, checked against Feitsma's list of the base-2 strong
# pseudoprimes below 2**64: the same kind of evidence as the upper entries of
# OEIS A014233, whose psi_2 = 1373653 bounds the row of the prime bases 2, 3.
_MR_SETS = (
    (341531, (9345883071009581737,)),
    (1373653, (2, 3)),
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851,
     (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977, (2, 123635709730000, 9233062284813009, 43835965440333360,
                          761179012939631437, 1263739024124850375)),
    (_U64_LIMIT, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),  # Sinclair
)
_MR_BOUNDS = tuple(bound for bound, _ in _MR_SETS)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    n <= 100 is looked up among the primes below 100; a larger n sharing a
    factor with them is composite, and one below 10**4 that shares none is
    prime. Beyond that, Miller-Rabin runs with the best-known base set whose
    bound exceeds n (``_MR_SETS``): one base below 341531, two below 1373653,
    and at most seven up to 2**64. The answer is exact (no probabilistic
    error) over the supported range, on the published verification of those
    sets. n may be any integer type, numpy's included.

    Raises:
        TypeError: if n is not an integer.
        ValueError: if n is outside [0, 2**64).
    """
    n = operator.index(n)
    if n < 0 or n >= _U64_LIMIT:
        raise ValueError("is_prime supports 0 <= n < 2**64")
    if n <= 100:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if n < _GCD_EXACT_LIMIT:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_SETS[bisect.bisect_right(_MR_BOUNDS, n)][1]:
        a %= n
        if a < 2:
            continue
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


def has_small_factor(r: int, p: int, q: int) -> bool:
    """Whether r, p and q all exceed 100 and a prime below 100 divides one of
    them, by one gcd of r*p*q: then one of the three is composite."""
    return min(r, p, q) > 100 and math.gcd(r * p * q, _SMALL_PRODUCT) != 1


def is_prime_triple(r: int, p: int, q: int) -> bool:
    """``is_prime(r) and is_prime(p) and is_prime(q)``, cheapest rejection first.

    When all three exceed 100 and one reaches 10**4, a base-2 Fermat test
    of r, p and q; then ``is_prime`` of each, which decides. It repeats no
    ``has_small_factor`` test: ``witness.f_exact``'s walks pass over the
    members that test rejects before they are offered here.
    """
    if (min(r, p, q) > 100 and max(r, p, q) >= _GCD_EXACT_LIMIT
            and any(pow(2, x - 1, x) != 1 for x in (r, p, q))):
        return False
    return is_prime(r) and is_prime(p) and is_prime(q)


def check_int(value, fn: str = "", name: str = "", lo: float = -math.inf,
              hi: float = math.inf) -> int:
    """``fn``'s parameter ``name`` as an int in [lo, hi]: the one door of a scalar integer
    input. numpy's integers pass; a bool raises TypeError (True is an int, not a count)."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected an integer, not the bool {value}")
    value = operator.index(value)
    if value < lo:
        raise ValueError(f"{fn} requires {name} >= {lo}")
    if value > hi:
        raise ValueError(f"{fn} supports {name} <= {hi}")
    return value


def iter_primes(lo: int, hi: int):
    """The primes of [lo, hi] in ascending order, each tested by ``is_prime`` when asked for.

    2 comes first when it lies in [lo, hi]; after it only odd numbers are tested.
    """
    if lo <= 2 <= hi:
        yield 2
    for v in range(max(lo, 3) | 1, hi + 1, 2):
        if is_prime(v):
            yield v


def is_narrow(lo: int, hi: int) -> bool:
    """Whether [lo, hi] is narrower than sqrt(hi) / 64.

    Sieving such a window costs more in base primes up to sqrt(hi) than the
    window holds numbers, so its members are examined one by one instead:
    ``primes_in`` tests them with ``is_prime``, ``factor.lpf_table`` takes
    each P(n) from ``factor.largest_prime_factor``, and ``witness.build_rset``
    factors each r - 1 with it. Measured from
    lo = 1e8 to 1e14, the two ways cost the same at widths of sqrt(hi)/64
    to sqrt(hi)/16; at sqrt(hi) itself the pointwise way is 6 to 12 times
    slower.
    """
    return 64 * (hi - lo) < math.isqrt(hi)


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Every prime in [lo, hi]: an ascending int64 array, empty when there is none.

    Segmented sieving of the odd numbers: each segment spans
    ``SEGMENT_LENGTH`` integers and flags only its odd ones; 2 is added when
    it lies in [lo, hi]. The odd base primes up to sqrt(hi) come from
    ``primes_in`` itself. Memory use is bounded by ``SEGMENT_LENGTH`` (plus
    the base primes), not by ``hi``, so intervals near 10**9 are fine. A
    window that ``is_narrow`` is not sieved: ``iter_primes`` tests its odd
    numbers with ``is_prime``, so a window of a few thousand numbers near
    10**17 takes milliseconds, with no base primes at all.

    Raises:
        TypeError: if lo or hi is not an integer, or is a bool (``check_int``).
        ValueError: if lo < 1, hi < lo or hi >= 2**63, the int64 limit (``check_int``,
            lo first), before anything is allocated.
    """
    lo = check_int(lo, "primes_in", "lo", 1, 2**63 - 1)
    hi = check_int(hi, "primes_in", "hi", lo, 2**63 - 1)
    if is_narrow(lo, hi):
        return np.fromiter(iter_primes(lo, hi), dtype=np.int64)
    chunks = [np.array([2] if lo <= 2 <= hi else [], dtype=np.int64)]  # never empty, for concatenate
    root = math.isqrt(hi)
    base = primes_in(3, root).tolist() if root >= 3 else []  # the odd base primes
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
    return np.concatenate(chunks)
