"""Witness quadruples and the edge-budget function they certify.

A witness for n is a quadruple (k, p, q, r) with k >= 1, primes p, q, r,
n = k*p + r and r = 1 (mod q). Its score is min{p^2 k, p k r, q r}; the
edge budget f(n) is the maximum score over all witnesses, and a single
witness is a checkable lower-bound certificate for f(n).

Two constructive strategies find witnesses at scales where exhaustive
enumeration is hopeless:

* ``strategy_bv`` picks two distinct primes p, q near n**(1/4 - eps), solves
  a = n (mod p), a = 1 (mod q), and scans the progression a (mod pq) through
  [n/4, n/2] for a prime r. Near-quarter-power p and q push the score toward
  n**(5/4).
* ``strategy_smooth`` scans a precomputed set of primes r with a large prime
  in r - 1, looking for one where n - r also has a large prime factor; p and
  q are read off the two factorizations. Scores land near n**(1 + gamma).
  ``smooth_search`` runs it for one n over ascending windows of that set,
  so n up to 2**64 needs only the first few thousand candidates r.

All searches use fixed orders, so identical inputs yield identical witnesses.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import factor, sieve
from .util import compare_power, exact_int, power_floor


@dataclass(frozen=True)
class Witness:
    """A scored witness quadruple. ``validate`` ties it to a concrete n."""

    k: int
    p: int
    q: int
    r: int
    score: int


@dataclass(frozen=True, eq=False)
class RSet:
    """Primes r in an interval whose shifted value r - 1 is rough.

    ``members`` is the ascending int64 array of the primes r in [lo, hi]
    with P(r-1) > r**alpha, as ``build_rset`` makes it, and ``q`` the int64
    array with ``q[i] == P(members[i] - 1)``.
    """

    members: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return int(self.members.size)


def unchecked_score(k: int, p: int, q: int, r: int) -> int:
    """min{p^2 k, p k r, q r} with no checks; exact for Python ints of any size."""
    return min(p * p * k, p * k * r, q * r)


def prime_r_scores(n, r: np.ndarray, q: np.ndarray, lpf: np.ndarray, lo: int):
    """(p, scores) with p = P(n - r) for primes r < n and q = P(r-1).

    The int64 array form of ``unchecked_score`` with k p = n - r, shared by
    ``f_exact`` and the survey's smooth scan; p is read from ``lpf``, an
    ``lpf_table`` array that starts at ``lo`` and must cover every n - r.
    Each product is below n**2, so the scores are exact for
    n <= F_EXACT_MAX_N.
    """
    d = n - r
    p = lpf[d - lo]
    return p, np.minimum(np.minimum(p * d, d * r), q * r)


def validate(n: int, w: Witness) -> bool:
    """True iff w certifies n.

    Checks n = k*p + r, q | r - 1, primality of p, q, r, k >= 1, and that the
    stored score matches recomputation. Every field must be an integer or an
    exactly integral float; a bool is neither, as in ``edgebudget verify``.
    Never raises: malformed input is simply not a valid witness, and neither
    is a prime beyond the 2**64 range of ``sieve.is_prime``.
    """
    try:
        k, p, q, r, s = (exact_int(v) for v in (w.k, w.p, w.q, w.r, w.score))
    except (AttributeError, TypeError, ValueError, OverflowError):  # int(inf) overflows
        return False
    if k < 1 or p < 2 or q < 2 or r < 3:
        return False
    if n != k * p + r or (r - 1) % q != 0:
        return False
    try:
        if not (sieve.is_prime(p) and sieve.is_prime(q) and sieve.is_prime(r)):
            return False
    except ValueError:  # outside is_prime's range: primality cannot be certified
        return False
    return s == unchecked_score(k, p, q, r)


def witness_json(n: int, w: Witness, strategy: str) -> dict:
    """The serialized certificate: {n, k, p, q, r, score, strategy}."""
    return {
        "n": n,
        "k": w.k,
        "p": w.p,
        "q": w.q,
        "r": w.r,
        "score": w.score,
        "strategy": strategy,
    }


F_EXACT_MAX_N = math.isqrt(2**63 - 1)


def f_exact(n: int) -> tuple[int, Witness | None]:
    """The exact edge budget f(n) with one maximizing witness.

    For a prime r with d = n - r the score min{p*d, d*r, q*r} never decreases
    as the prime p | d or the prime q | r - 1 grows, so p = P(d), q = P(r-1)
    are optimal (tested against full enumeration of every p and q) and f(n)
    is the maximum of min{P(d)*d, d*r, P(r-1)*r} over primes 3 <= r <= n - 2.
    Returns (0, None) when no quadruple exists at all.

    The scan first reads P from a table of 1..n-1 that keeps only P(v) >= T,
    T = max(n // 64, isqrt(n - 1) + 1), and scores 0 where it is missing.
    Such a score is never above the true one, and equals it whenever the true
    score is >= T*n (then P(d) and P(r-1) are both >= T). So a best score
    >= T*n is f(n), reached at the same r: the certificate. Only when the
    best falls short (small n) does the scan run again on the exact table.

    Ties are broken deterministically: the first maximizer in ascending-p,
    then ascending-k order wins, recovered from the few maximizing r alone.
    Every product is below n**2, so n is supported up to
    F_EXACT_MAX_N = isqrt(2**63 - 1); a table holds n - 1 int64 entries.
    Every field of the witness is a Python int.

    Raises:
        ValueError: if n < 1 or n > F_EXACT_MAX_N.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("f_exact requires n >= 1")
    if n > F_EXACT_MAX_N:
        raise ValueError(f"f_exact supports n <= {F_EXACT_MAX_N}")
    if n < 5:
        return 0, None
    r = sieve.primes_in(3, n - 2)
    for floor in (max(n // 64, math.isqrt(n - 1) + 1), 0):
        lpf = factor.lpf_table(1, n - 1, floor=floor)  # lpf[v - 1] == P(v), or 0 where P(v) < floor
        _, scores = prime_r_scores(n, r, lpf[r - 2], lpf, 1)
        best = int(scores.max())
        if best >= floor * n:  # certified; always so on the exact table
            break
    p, k, top = min(_first_split(n, v, best, lpf) for v in r[scores == best].tolist())
    return best, Witness(k, p, int(lpf[top - 2]), top, best)


def _first_split(n: int, r: int, best: int, lpf: np.ndarray) -> tuple[int, int, int]:
    """(p, k, r) for the least prime p | n - r = k*p with p * (n - r) >= best.

    P of the shrinking cofactor yields the prime divisors of n - r in
    descending order, so the scan stops at the first one that falls short.
    A table with a floor reads 0 for every prime below it; each prime p with
    p * (n - r) >= best >= floor * n is above the floor, so the scan stops at
    the same place.
    """
    d = n - r
    p, m = 0, d
    while m > 1 and lpf[m - 1] * d >= best:
        p = int(lpf[m - 1])
        while m % p == 0:
            m //= p
    return p, d // p, r


def crt_pair(n: int, p: int, q: int) -> int:
    """The unique a in [0, pq) with a = n (mod p) and a = 1 (mod q).

    n, p, q may be any integer type, numpy's included; a is a Python int.

    Raises:
        TypeError: if n, p or q is not an integer.
        ValueError: if p == q.
    """
    n, p, q = map(operator.index, (n, p, q))
    if p == q:
        raise ValueError("crt_pair requires distinct primes")
    a = (n % p) * q * pow(q, -1, p) + p * pow(p, -1, q)
    return a % (p * q)


def _first_in_progression(a: int, modulus: int, lo: int) -> int:
    """Smallest value >= lo congruent to a mod modulus."""
    return a + ((lo - a + modulus - 1) // modulus) * modulus


def strategy_bv(n: int, eps: float = 0.05) -> Witness | None:
    """Witness search through primes in arithmetic progressions.

    Iterates ordered pairs of distinct primes p, q from
    [ceil(n**(1/4 - eps)), floor(2 n**(1/4 - eps))] (ascending p, then
    ascending q), skipping pairs where the combined residue a shares a factor
    with pq (the progression then holds at most one prime), and scans
    r = a (mod pq) upward through [ceil(n/4), floor(n/2)] for a prime.
    The first hit yields the witness (k = (n-r)/p, p, q, r), which always
    validates. Returns None when every pair fails, including when the prime
    interval holds fewer than two primes. The first pair nearly always
    succeeds, so p and q come on demand from ``sieve.iter_primes`` rather
    than from sieving all of the interval.

    n is supported below 2**65, where every r <= n/2 lies within the 2**64
    range of ``sieve.is_prime``.

    Raises:
        TypeError: if n is not an integer.
        ValueError: if eps is outside [0, 1/4), or n is outside [1, 2**65)
            (checked before any search).
    """
    n = operator.index(n)
    if not 0 <= eps < 0.25:
        raise ValueError("eps must lie in [0, 1/4)")
    if not 1 <= n < 2**65:
        raise ValueError(f"strategy_bv supports 1 <= n < 2**65, got n={n}")
    # width >= 1, so 1 <= ceil(width) <= floor(2 width)
    width = n ** (0.25 - eps)
    snapped = round(width)
    if abs(width - snapped) <= 1e-9 * width:
        width = float(snapped)
    lo = math.ceil(width)
    hi = math.floor(2 * width)
    r_lo = -(-n // 4)
    r_hi = n // 2
    for p in sieve.iter_primes(lo, hi):
        for q in sieve.iter_primes(lo, hi):
            if q == p:
                continue
            modulus = p * q
            a = crt_pair(n, p, q)
            if math.gcd(a, modulus) != 1:
                continue
            r = _first_in_progression(a, modulus, r_lo)
            while r <= r_hi:
                if r >= 3 and sieve.is_prime(r):
                    # k >= 1: n - r >= n/2 > 2 n**(1/4) >= p for n >= 7; no pair passes below 7
                    k = (n - r) // p
                    return Witness(k, p, q, r, unchecked_score(k, p, q, r))
                r += modulus
    return None


def build_rset(lo: int, hi: int, alpha: float) -> RSet:
    """The complete RSet over [lo, hi]: primes r with P(r-1) > r**alpha.

    One largest-prime-factor table over the shifted primes supplies every
    P(r-1); the threshold test is ``compare_power`` over the whole array.
    The table keeps only P(r-1) >= ``power_floor(lo, alpha)``, which every
    accepted value reaches, so a 0 below that floor is rejected as the true
    P(r-1) would be. When the floor exceeds sqrt(hi) (lo well above 1), the
    table is built from the large primes alone. A window that
    ``sieve.is_narrow`` has no table: each P(r-1) comes from
    ``factor.largest_prime_factor``. Either way the members are the same.

    Raises:
        ValueError: if alpha is outside (0, 1], or lo < 1, lo > hi or
            hi >= 2**63 (``sieve.check_window``).
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    primes = sieve.primes_in(lo, hi)
    if sieve.is_narrow(lo, hi):
        shifted = map(factor.largest_prime_factor, (primes - 1).tolist())
        q = np.fromiter(shifted, dtype=np.int64, count=primes.size)
    else:
        shifted_lo = max(1, lo - 1)
        shifted = factor.lpf_table(shifted_lo, max(1, hi - 1), floor=power_floor(lo, alpha))
        q = shifted[primes - 1 - shifted_lo]
    keep = compare_power(q, primes, alpha) > 0
    return RSet(primes[keep], q[keep])


def strategy_smooth(n: int, rset: RSet, gamma: float) -> Witness | None:
    """Witness search through rough shifted primes.

    Scans the RSet in increasing order for the first member r with
    P(n - r) >= n**gamma (the guarded ``compare_power`` test). On a hit,
    p = P(n-r), q = P(r-1) (stored in the RSet) and k = (n-r)/p form a
    witness that always validates. Returns None when no member qualifies:
    n is exceptional for this rset and gamma.

    Raises:
        TypeError: if n is not an integer.
        ValueError: if n < 1, gamma is outside (0, 1] or some member is >= n.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("strategy_smooth requires n >= 1")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if rset.members.size and rset.members[-1] >= n:
        raise ValueError("every rset member must lie below n")
    for r, q in zip(map(int, rset.members), map(int, rset.q)):
        d = n - r
        p = factor.largest_prime_factor(d)
        if compare_power(p, n, gamma) >= 0:
            k = d // p
            return Witness(k, p, q, r, unchecked_score(k, p, q, r))
    return None


def _rset_interval(h: int, c0: float) -> tuple[int, int]:
    """(lo, hi) = (max(1, ceil(c0 h)), floor(h/4)): where the smooth strategy
    takes its r for a height h; empty when lo > hi."""
    return max(1, math.ceil(c0 * h)), h // 4


# width of the first window that ``smooth_search`` builds; each next one is twice as wide
FIRST_WINDOW = 4096


def smooth_search(n: int, alpha: float, gamma: float, c0: float) -> Witness | None:
    """``strategy_smooth`` over the RSet of [ceil(c0 n), floor(n/4)], built a window at a time.

    The first window holds FIRST_WINDOW numbers and each next one twice as
    many; the search stops at the first window with a hit. A window's RSet
    is exactly the full RSet's members in that window, so the witness (or
    None) is the one ``strategy_smooth(n, build_rset(ceil(c0 n), n // 4,
    alpha), gamma)`` gives. A hit nearly always comes within the first
    window, which near 10**18 is tested pointwise in milliseconds; an n
    with no witness visits every window, at about the cost of one full
    build of the interval. n is supported below 2**64, the range of
    ``validate``.

    Raises:
        TypeError: if n is not an integer.
        ValueError: if n is outside [1, 2**64) (checked before anything is
            allocated), alpha or gamma is outside (0, 1], or c0 is outside
            (0, 1/4).
    """
    n = operator.index(n)
    if not 1 <= n < 2**64:
        raise ValueError(f"smooth_search supports 1 <= n < 2**64, got n={n}")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if not 0 < c0 < 0.25:
        raise ValueError("c0 must lie in (0, 1/4)")
    lo, hi = _rset_interval(n, c0)
    width = FIRST_WINDOW
    while lo <= hi:
        top = min(hi, lo + width - 1)
        w = strategy_smooth(n, build_rset(lo, top, alpha), gamma)
        if w is not None:
            return w
        lo, width = top + 1, 2 * width
    return None
