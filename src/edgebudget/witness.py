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
  in r - 1 for one where n - r also has one ("large" decided exactly by
  ``util.power_threshold``); p and q are those primes, and scores land near
  n**(1 + gamma). ``smooth_search`` runs it for one n over ascending windows
  of that set (``_rset_windows``), one number wide and then doubling up to
  ``sieve.SEGMENT_LENGTH``, so a witness near 2**64 takes milliseconds.

All searches use fixed orders, so identical inputs yield identical witnesses.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import factor, sieve
from .util import check_ranges, power_threshold


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

    def __len__(self) -> int:  # perfbench's trace counts build_rset's members with len()
        return int(self.members.size)


def unchecked_score(k: int, p: int, q: int, r: int) -> int:
    """min{p^2 k, p k r, q r} with no checks; exact for Python ints of any size."""
    return min(p * p * k, p * k * r, q * r)


def validate(n: int, w: Witness) -> bool:
    """True iff w certifies n.

    Checks n = k*p + r, q | r - 1, primality of p, q, r, k >= 1, and that the
    stored score matches recomputation. n and every field pass ``sieve.check_int``:
    a numpy integer is taken, and a float (even 4.0), a Fraction, a Decimal or a
    bool is refused, as in ``edgebudget verify``. Never raises: malformed input is
    simply not a valid witness, and neither is a prime beyond the 2**64 range of
    ``sieve.is_prime``.
    """
    try:
        n, k, p, q, r, s = map(sieve.check_int, (n, w.k, w.p, w.q, w.r, w.score))
        return (k >= 1 and p >= 2 and q >= 2 and r >= 3
                and n == k * p + r and (r - 1) % q == 0
                and sieve.is_prime(p) and sieve.is_prime(q) and sieve.is_prime(r)
                and s == unchecked_score(k, p, q, r))
    # a missing field, a non-integer, or a prime outside is_prime's range: not a certificate
    except (AttributeError, TypeError, ValueError):
        return False


def witness_json(n: int, w: Witness, strategy: str) -> dict:
    """The serialized certificate: {n, k, p, q, r, score, strategy}."""
    return {"n": n, **vars(w), "strategy": strategy}


def f_exact(n: int) -> tuple[int, Witness | None]:
    """The exact edge budget f(n) with one maximizing witness, for 1 <= n < 2**64.

    Write a witness as n - r = k*p and r - 1 = m*q. Over the progression of r
    that a pair (k, m) allows (r = n mod k, r = 1 mod m), the score of a prime
    triple (r, p, q) is env(r) = min(d*(d/k), d*r, r*((r-1)/m)) with d = n - r,
    which along the progression rises strictly and then falls, never to rise
    again. It never exceeds the pair's bound ceil(n**2 / (k + m + 2*isqrt(k*m))), which
    falls as k or m grows.

    The search reads one stream of candidates in descending key
    (``_candidates``): each pair (k, m), keyed by its bound, and each member
    of its progression that its walks keep, keyed by env, with a pair before
    its members. A pair's two walks (``_walk``) start at its peak, found by
    an integer bisection, one going down and one going up. The first prime
    triple in the stream scores f(n), and the search stops at the first key
    below it; a pair's bound can be that key, which is how the search knows
    that no later pair reaches f(n). A walk steps on a mod-30 wheel: it jumps
    over the members where 2, 3 or 5 divides r, p or q, and passes over those
    where a prime below 100 does (``sieve.has_small_factor``). Each member
    left is tested by ``sieve.is_prime_triple``: a base-2 Fermat test of r,
    p and q, then ``is_prime`` of each, which decides. A pair whose
    progression puts a small prime l into r, p or q at every member
    (``_obstruction``) offers only the r that make that member l itself.
    Every comparison is exact integer arithmetic, and nothing is allocated in
    proportion to n: at 10**18 + 7 the walks pass about 9300 members and
    test 117 triples. Returns (0, None) when no quadruple exists (n < 5).

    Ties are broken deterministically: every candidate with env = f(n) is
    tested, and the witness is the least (p, k, r) among the prime triples
    found, with the largest q; that q is P(r-1). Every field is a Python int.

    Raises:
        TypeError: if n is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if n < 1 or n >= 2**64.
    """
    n = sieve.check_int(n, "f_exact", "n", 1, 2**64 - 1)
    if n < 5:
        return 0, None
    best, tops = 0, []  # tops: (p, k, r, -q) of each prime triple found
    for env, r, k, m in _candidates(n):
        if env < best:
            break
        p, q = (n - r) // k, (r - 1) // m
        if r and sieve.is_prime_triple(r, p, q):  # r == 0: a pair's bound
            best = env
            tops.append((p, k, r, -q))
    p, k, r, minus_q = min(tops)
    return best, Witness(k, p, -minus_q, r, best)


def _candidates(n: int):
    """Every pair (k, m) and every member r its walks keep, as (key, r, k, m), in descending key.

    A pair comes as (bound, 0, k, m), before any of its members, and a member
    as (env, r, k, m); at equal keys a pair comes first. The stream never
    ends: each pair admits its successors (k, m + 1) and, when m == 1,
    (k + 1, 1), and a caller stops it when a key falls below what it needs.
    One heap holds the pairs not yet yielded and each walk's next member, as
    (-key, r, k, m, walk) with r = 0 and walk None for a pair. No two
    entries share (r, k, m), so the heap never compares two walks.
    """
    heap = [(-_pair_bound(n, 1, 1), 0, 1, 1, None)]
    while True:
        key, r, k, m, walk = heapq.heappop(heap)
        yield -key, r, k, m
        if walk is None:  # admit the pair
            heapq.heappush(heap, (-_pair_bound(n, k, m + 1), 0, k, m + 1, None))
            if m == 1:
                heapq.heappush(heap, (-_pair_bound(n, k + 1, 1), 0, k + 1, 1, None))
        for walk in _sides(n, k, m) if walk is None else [walk]:
            if r := next(walk, 0):
                heapq.heappush(heap, (-_env(n, k, m, r), r, k, m, walk))


def _pair_bound(n: int, k: int, m: int) -> int:
    """ceil(n**2 / (k + m + 2*isqrt(k*m))): at least n**2 / (sqrt k + sqrt m)**2 >= env."""
    return -(-n * n // (k + m + 2 * math.isqrt(k * m)))


def _env(n: int, k: int, m: int, r: int) -> int:
    """The score of r, p = (n-r)/k and q = (r-1)/m, were all three prime."""
    return unchecked_score(k, (n - r) // k, (r - 1) // m, r)


def _sides(n: int, k: int, m: int) -> list:
    """The walks of a pair (k, m): iterators of the members it offers.

    Its members are the r in [max(3, 2m + 1), n - 2k] (so p, q >= 2) with
    r = n (mod k) and r = 1 (mod m), none unless gcd(k, m) | n - 1. An
    obstructed pair offers each of its exceptions alone; any other walks
    down from its peak and up from the member above it.
    """
    g = math.gcd(k, m)
    if (n - 1) % g:
        return []
    step = k * m // g
    # r = n + k*t with k*t = 1 - n (mod m)
    t = (1 - n) // g * pow(k // g, -1, m // g) % (m // g)
    lo, hi = max(3, 2 * m + 1), n - 2 * k
    first = lo + (n + k * t - lo) % step
    if first > hi:
        return []
    last = first + (hi - first) // step * step
    exceptions = _obstruction(n, k, m, first, step)
    if exceptions is not None:
        return [iter((r,)) for r in {r for r in exceptions
                                     if first <= r <= last and (r - first) % step == 0}]
    # env(r + step) <= env(r) is false up to the peak and true from there on
    below, above = 0, (last - first) // step
    while below < above:
        mid = (below + above) // 2
        r = first + mid * step
        if _env(n, k, m, r + step) <= _env(n, k, m, r):
            above = mid
        else:
            below = mid + 1
    peak = first + below * step
    walks = [_walk(n, k, m, peak, -step, first)]
    if peak != last:
        walks.append(_walk(n, k, m, peak + step, step, last))
    return walks


def _gaps(n: int, k: int, m: int, last: int, step: int) -> list[int]:
    """A side's wheel: gaps[j % 30] members lead from last + j*step to the next
    one whose r, p and q are prime to 30. r, p and q mod 30 repeat every 30
    members, and some member is prime to 30 unless 2, 3 or 5 obstructs."""
    wheel = [math.gcd(r * ((n - r) // k) * ((r - 1) // m), 30) == 1
             for r in range(last, last + 30 * step, step)]
    gaps, gap = [0] * 30, 0
    for j in reversed(range(60)):  # twice round, so each gap wraps past 30
        gap = 0 if wheel[j % 30] else gap + 1
        gaps[j % 30] = gap
    return gaps


def _walk(n: int, k: int, m: int, r: int, step: int, last: int):
    """A side's members from r on, toward last, that may give a prime triple.

    A member off the side's wheel (``_gaps``, built when the walk starts) has
    r, p or q divisible by 2, 3 or 5. While r, p and q stay above 100 the
    walk jumps to the next wheel member: they are linear along the side, so
    their values at the jump's two ends bound every member passed over, and
    each of those is composite. The member landed on is passed over too when
    ``sieve.has_small_factor``. Near the progression's ends the walk steps
    one member at a time.
    """
    gaps = _gaps(n, k, m, last, step)
    while (last - r) * step >= 0:
        to = r + gaps[(r - last) // step % 30] * step
        # r, p and q all exceed 100 on [101 m + 1, n - 101 k]
        if (last - to) * step >= 0 and 101 * m < min(r, to) and max(r, to) <= n - 101 * k:
            r = to
        if not sieve.has_small_factor(r, (n - r) // k, (r - 1) // m):
            yield r
        r += step


def _obstruction(n: int, k: int, m: int, first: int, step: int) -> tuple[int, int, int] | None:
    """The only r that can give a prime triple, when a prime l divides r*p*q at every member.

    Then r, p or q is l itself: r is l, n - k*l or m*l + 1. Members l apart
    agree mod l in r, p and q, so l consecutive members decide. A prime
    l >= 5 that divides neither k nor m is never such an l: r, p and q then
    each vanish mod l at one residue of the member index, three of l.
    None when no prime obstructs.
    """
    for l in factor._prime_factors(6 * k * m):
        if all(r % l == 0 or (n - r) // k % l == 0 or (r - 1) // m % l == 0
               for r in range(first, first + l * step, step)):
            return l, n - k * l, m * l + 1
    return None


def crt_pair(n: int, p: int, q: int) -> int:
    """The unique a in [0, pq) with a = n (mod p) and a = 1 (mod q).

    n, p, q may be any integer type, numpy's included; a is a Python int.

    Raises:
        TypeError: if n, p or q is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if p == q.
    """
    n, p, q = map(sieve.check_int, (n, p, q))
    if p == q:
        raise ValueError("crt_pair requires distinct primes")
    a = (n % p) * q * pow(q, -1, p) + p * pow(p, -1, q)
    return a % (p * q)


def strategy_bv(n: int, eps: float = 0.05) -> Witness | None:
    """Witness search through primes in arithmetic progressions.

    Iterates ordered pairs of distinct primes p, q from
    [ceil(n**(1/4 - eps)), floor(2 n**(1/4 - eps))] (ascending p, then
    ascending q), skipping every p that divides n (the combined residue a then
    shares p with pq, and the progression holds at most one prime; as a = 1
    (mod q), no other pair's a shares a factor with pq), and scans
    r = a (mod pq) upward through [ceil(n/4), floor(n/2)] for a prime.
    The first hit yields the witness (k = (n-r)/p, p, q, r), which always
    validates. Returns None when every pair fails, including when the prime
    interval holds fewer than two primes. The first pair nearly always
    succeeds, so p and q come on demand from ``sieve.iter_primes`` rather
    than from sieving all of the interval.

    n is supported below 2**65, where every r <= n/2 lies within the 2**64
    range of ``sieve.is_prime``.

    Raises:
        TypeError: if n is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if n is outside [1, 2**65) (``sieve.check_int``), or eps is
            outside [0, 1/4); both checked before any search, n first.
    """
    n = sieve.check_int(n, "strategy_bv", "n", 1, 2**65 - 1)
    check_ranges(eps=eps)
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
        if n % p == 0:
            continue
        for q in sieve.iter_primes(lo, hi):
            if q == p:
                continue
            modulus = p * q
            a = crt_pair(n, p, q)
            # the least r >= r_lo with r = a (mod pq)
            r = a + (r_lo - a + modulus - 1) // modulus * modulus
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
    P(r-1); the test is ``q >= util.power_threshold(primes, alpha)``, the
    strict one, as no prime q | r - 1 has q**den == r**num and q = P(1) = 0
    is below every threshold. The table keeps only P(r-1) at or above the floor
    ``power_threshold(lo, alpha)``, which every accepted value reaches (the
    threshold never falls as r grows), so a 0 below that floor is rejected
    as the true P(r-1) would be. When the floor exceeds sqrt(hi) (lo well
    above 1), the table is built from the large primes alone. A window that
    ``sieve.is_narrow`` has no table: each P(r-1) comes from
    ``factor.largest_prime_factor``. Either way the members are the same.

    Raises:
        TypeError: if lo or hi is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if alpha is outside (0, 1], or lo < 1, hi < lo or hi >= 2**63, as
            ``sieve.primes_in`` words it.
    """
    check_ranges(alpha=alpha)
    primes = sieve.primes_in(lo, hi)
    if sieve.is_narrow(lo, hi):
        shifted = map(factor.largest_prime_factor, (primes - 1).tolist())
        q = np.fromiter(shifted, dtype=np.int64, count=primes.size)
    else:
        shifted_lo = max(1, lo - 1)
        floor = int(power_threshold([lo], alpha)[0])
        shifted = factor.lpf_table(shifted_lo, max(1, hi - 1), floor=floor)
        q = shifted[primes - 1 - shifted_lo]
    keep = q >= power_threshold(primes, alpha)
    return RSet(primes[keep], q[keep])


def strategy_smooth(n: int, rset: RSet, gamma: float) -> Witness | None:
    """Witness search through rough shifted primes.

    Scans the RSet in increasing order for the first member r with
    P(n - r) >= n**gamma, read as ``util.power_threshold(n, gamma)``. On a
    hit, p = P(n-r), q = P(r-1) (stored in the RSet) and k = (n-r)/p form a
    witness that always validates. Returns None when no member qualifies: n
    is exceptional for this rset and gamma. n is supported below 2**64.

    Raises:
        TypeError: if n is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if n is outside [1, 2**64), gamma outside (0, 1] or some member >= n
            (``sieve.check_int`` of the greatest).
    """
    n = sieve.check_int(n, "strategy_smooth", "n", 1, 2**64 - 1)
    check_ranges(gamma=gamma)
    if not rset.members.size:
        return None
    sieve.check_int(int(rset.members[-1]), "strategy_smooth", "each rset member", hi=n - 1)
    need = int(power_threshold([n], gamma)[0])
    for r, q in zip(map(int, rset.members), map(int, rset.q)):
        d = n - r
        p = factor.largest_prime_factor(d)
        if p >= need:
            k = d // p
            return Witness(k, p, q, r, unchecked_score(k, p, q, r))
    return None


def _rset_interval(h: int, c0: float) -> tuple[int, int]:
    """(lo, hi) = (max(1, math.ceil(c0 * h)), h // 4): where the smooth strategy
    takes its r for a height h; empty when lo > hi.

    lo is the ceiling of the float product c0 * h, rounded before the ceiling
    is taken, not the exact ceiling of c0's binary value times h. With
    c0 = 0.05 that keeps r = h/20 for every h < 2**53 divisible by 20 (so in
    the survey's RSet), which the exact ceiling would drop, as float 0.05
    lies just above 1/20. Above 2**53, where h is rounded too, lo can land
    on either side: 4 below the exact ceiling at 10**18 + 7 and 2 above it
    at 2**64 - 59.
    """
    return max(1, math.ceil(c0 * h)), h // 4


def _rset_windows(lo: int, hi: int, alpha: float):
    """``build_rset`` over ascending windows that partition [lo, hi]; none when lo > hi.

    The first window holds one number and each next one twice as many, up to
    ``sieve.SEGMENT_LENGTH`` (read at each step). A window's RSet is exactly
    the full RSet's members in it, so the windows' members and q, concatenated,
    are ``build_rset(lo, hi, alpha)``'s, while a reader holds one window's
    tables at a time. This is the one loop over an RSet interval.
    """
    width = 1
    while lo <= hi:
        top = min(hi, lo + width - 1)
        yield build_rset(lo, top, alpha)
        lo, width = top + 1, min(2 * width, sieve.SEGMENT_LENGTH)


def smooth_search(n: int, alpha: float, gamma: float, c0: float) -> Witness | None:
    """``strategy_smooth`` over the RSet of ``_rset_interval(n, c0)``, read window by window.

    The interval is [max(1, math.ceil(c0 * n)), n // 4], its lower end the
    ceiling of a float product (``_rset_interval``). Its windows come from
    ``_rset_windows``: one number wide, then doubling up to
    ``sieve.SEGMENT_LENGTH`` = 2**20 numbers. The search stops at the first
    window with a hit, so the witness (or None) is the one ``strategy_smooth(n,
    build_rset(*_rset_interval(n, c0), alpha), gamma)`` gives. A hit near
    10**18 typically lies within a few hundred numbers of the lower end. An n
    with no witness visits every window: it holds one window's tables at a
    time, but its time still grows with the interval. n is supported below
    2**64, the range of ``validate``.

    Raises:
        TypeError: if n is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if n is outside [1, 2**64) (``sieve.check_int``, before
            anything is allocated), alpha or gamma is outside (0, 1], or c0 is
            outside (0, 1/4).
    """
    n = sieve.check_int(n, "smooth_search", "n", 1, 2**64 - 1)
    check_ranges(alpha=alpha, gamma=gamma, c0=c0)
    windows = _rset_windows(*_rset_interval(n, c0), alpha)
    hits = (strategy_smooth(n, rset, gamma) for rset in windows)
    return next((w for w in hits if w is not None), None)
