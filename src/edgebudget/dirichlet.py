"""Chebyshev psi over arithmetic progressions and its worst-case discrepancy.

psi(y; m, a) sums the von Mangoldt weight over n <= y with n = a (mod m).
Between prime-power jumps, psi(y; m, a) - y/phi(m) is linear in y, so its
supremum over real y in (0, z] is attained only at a jump, at the left limit
of a jump, or at the endpoint z; ``max_discrepancy`` evaluates exactly that
candidate set. ``bv_sum`` averages the per-modulus suprema over
m <= sqrt(z)/(log z)**B, the empirical form of the Bombieri-Vinogradov
average.

Every psi value is an exact sum rounded once to a double. Each weight
``math.log(p)`` is a double of at least log 2 > 1/2, hence a multiple of
2**-53, so log p * 2**53 is an integer below 2**58. The per-z jump table
holds it once, as two int64 limbs hi * 2**32 + lo with lo < 2**32. ``psi``
sums one class's limbs; ``max_discrepancy`` takes the limbs' running sums in
class order, restarted at each class start, and rounds each once: those are
the post-jump values, from which the left limits and class totals are read
off. ``bv_sum`` adds the suprema with ``math.fsum``. Reported values are
therefore bit-reproducible. The limbs stay exact for z <= MAX_Z = 2**31:
any run of jumps, one class or all of them, has fewer than 2**31 terms, so
its low-limb sum stays below 2**63, and weighs at most psi(z) < 2**32
(psi(z) < 1.04 z), so its high-limb sum, with the low limb's carry, stays
below 2**53.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import factor, sieve
from .util import log_each

MAX_Z = 2**31
_SCALE = 2.0**53  # log p * _SCALE is an integer below 2**58
_LIMB = 32
_MASK = (1 << _LIMB) - 1


@dataclass(frozen=True)
class DiscrepancyRecord:
    """Worst-case psi discrepancy for one modulus.

    Attributes:
        m: The modulus.
        worst_a: Residue class (coprime to m; 0 by convention at m = 1)
            attaining the supremum.
        worst_y: Point in (0, z] where it is attained; with is_left_limit
            set, the supremum is the limit from below at worst_y.
        sup_value: sup over real y <= z and coprime a of |psi(y;m,a) - y/phi(m)|.
        is_left_limit: Whether worst_y is approached from below.
    """

    m: int
    worst_a: int
    worst_y: float
    sup_value: float
    is_left_limit: bool


@dataclass(frozen=True)
class PrimePowerJumps:
    """All prime powers j <= z, ascending, with their von Mangoldt weights.

    Every array is read-only: the table is cached per floor(z) and shared by
    every caller. ``len`` counts the jumps.

    Attributes:
        j: The prime powers (int64).
        hi, lo: The integer ``math.log(p) * 2**53`` for the prime p under
            each j, as hi * 2**32 + lo with lo < 2**32 (int64 limbs, the
            exact fixed-point weights).
    """

    j: np.ndarray
    hi: np.ndarray
    lo: np.ndarray

    def __len__(self) -> int:
        return self.j.size


@lru_cache(maxsize=4)
def _jumps_upto(top: int) -> PrimePowerJumps:
    primes = sieve.primes_in(2, top) if top >= 2 else np.zeros(0, dtype=np.int64)
    logs = log_each(primes)
    weights = (logs * _SCALE).astype(np.int64)  # exact: each log is a multiple of 2**-53
    powers = [primes]  # powers[k][i] == primes[i] ** (k + 1), while that is <= top
    while powers[-1].size:
        prev = powers[-1]
        n = np.count_nonzero(prev <= top // primes[: prev.size])  # a prefix, as primes ascend
        powers.append(prev[:n] * primes[:n])
    j = np.concatenate(powers)
    order = np.argsort(j)
    fixed = np.concatenate([weights[: part.size] for part in powers])[order]
    arrays = (j[order], fixed >> _LIMB, fixed & _MASK)
    for array in arrays:
        array.flags.writeable = False
    return PrimePowerJumps(*arrays)


def prime_power_jumps(z: float) -> PrimePowerJumps:
    """The read-only table of all prime powers j <= z and their weights."""
    return _jumps_upto(math.floor(z))


def _check_z(z: float, name: str = "z") -> None:
    if z > MAX_Z:
        raise ValueError(f"{name} must be at most {MAX_Z} for exact fixed-point sums")


def _fixed_to_float(hi, lo):
    """round((hi * 2**32 + lo) * 2**-53) for int64 limb sums hi, lo >= 0.

    Carrying lo into hi leaves hi < 2**53 and lo < 2**32 (see MAX_Z), so both
    scaled terms are exact doubles and the one addition is the only rounding.
    """
    return (hi + (lo >> _LIMB)) * 2.0 ** (_LIMB - 53) + (lo & _MASK) * 2.0**-53


def psi(y: float, m: int, a: int) -> float:
    """Chebyshev psi(y; m, a): sum of Lambda(n) over n <= y, n = a (mod m).

    With m = 1 the single admissible residue is a = 0 and the classical
    psi(y) is returned. m and a may be any integer type, numpy's included.

    Raises:
        TypeError: if m or a is not an integer.
        ValueError: if m < 1, y <= 0, y > MAX_Z, or a is outside [0, m).
    """
    m, a = operator.index(m), operator.index(a)
    if m < 1:
        raise ValueError("modulus must be positive")
    if not y > 0:  # NaN fails too
        raise ValueError("y must be positive")
    if a < 0 or a >= m:
        raise ValueError("residue must satisfy 0 <= a < m")
    _check_z(y, "y")
    jumps = prime_power_jumps(y)
    # every j <= MAX_Z, so a larger modulus leaves j as it is and need not fit in int64
    chosen = jumps.j % min(m, MAX_Z + 1) == a
    return float(_fixed_to_float(jumps.hi[chosen].sum(), jumps.lo[chosen].sum()))


def max_discrepancy(z: float, m: int) -> DiscrepancyRecord:
    """Exact supremum of |psi(y;m,a) - y/phi(m)| over real y in (0, z].

    Stable-sorts the jumps by residue class and takes one exact prefix sum
    per class; each jump in a class coprime to m contributes its left limit
    and its post-jump value, and the endpoint y = z closes the final piece.
    A coprime class that holds no jump contributes only its endpoint value
    z/phi(m), with phi(m) from ``factor.euler_phi``. The record is the first
    maximal candidate in the order classes ascending, then candidates in
    increasing y, left limit before post-jump value, the endpoint last; so
    it is deterministic. m may be any integer type, numpy's included; the
    record's m is a Python int. Memory is linear in the number of jumps,
    whatever m is: only the classes that hold a jump get arrays. The shared
    jump table is read-only.

    Raises:
        TypeError: if m is not an integer.
        ValueError: if m is outside [1, MAX_Z] (checked before anything is
            allocated), z < 1, or z > MAX_Z.
    """
    m = operator.index(m)
    if not 1 <= m <= MAX_Z:
        raise ValueError(f"m must satisfy 1 <= m <= {MAX_Z}")
    if not z >= 1:  # NaN fails too
        raise ValueError("z must be at least 1")
    _check_z(z)
    jumps = prime_power_jumps(z)
    cls = (jumps.j % m).astype(np.min_scalar_type(m - 1))
    order = np.argsort(cls, kind="stable")
    # the classes that hold a jump: residues, first sorted index and size
    sorted_cls = cls[order]
    change = np.empty(order.size, dtype=bool)
    change[:1] = True
    np.not_equal(sorted_cls[1:], sorted_cls[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    residues = sorted_cls[starts].astype(np.int64)
    counts = np.diff(starts, append=order.size)
    ends = starts + counts

    def class_prefix(limb):
        """Exact running sum of limb in sorted order, restarted at each class."""
        total = np.zeros(limb.size + 1, dtype=np.int64)
        np.cumsum(limb[order], out=total[1:])
        return total[1:] - np.repeat(total[starts], counts)

    post = _fixed_to_float(class_prefix(jumps.hi), class_prefix(jumps.lo))
    left = np.roll(post, 1)  # the previous post-jump value in the class, 0 at its start
    left[starts] = 0.0

    coprime = np.gcd(residues, m) == 1  # class 0 is coprime when m = 1
    phi = factor.euler_phi(m)
    inv_phi = 1.0 / phi
    j = jumps.j[order]
    target = j * inv_phi
    v_left, v_post = np.abs(left - target), np.abs(post - target)
    v_end = np.abs(post[ends - 1] - z * inv_phi)
    # the few jumps outside coprime classes are powers of primes dividing m
    masked = np.flatnonzero(np.repeat(~coprime, counts))
    v_left[masked] = v_post[masked] = -1.0
    v_end[~coprime] = -1.0
    # every coprime class without a jump ends at |0 - z/phi(m)|
    v_empty = z * inv_phi if np.count_nonzero(coprime) < phi else -1.0
    sup = max(v_left.max(initial=0.0), v_post.max(initial=0.0), v_end.max(initial=-1.0), v_empty)
    # visit position: 2 per earlier jump, 1 per earlier endpoint (a class's residue)
    picks = []
    for values, is_left, offset in ((v_left, True, 0), (v_post, False, 1)):
        for i in np.flatnonzero(values == sup)[:1].tolist():
            a = int(residues[np.searchsorted(starts, i, side="right") - 1])
            picks.append((2 * i + offset + a, a, float(j[i]), is_left))
    for c in np.flatnonzero(v_end == sup)[:1].tolist():
        a = int(residues[c])
        picks.append((2 * int(ends[c]) + a, a, float(z), False))
    if v_empty == sup:
        a = _first_empty_coprime(residues, m)
        picks.append((2 * int(np.searchsorted(sorted_cls, a)) + a, a, float(z), False))
    _, worst_a, worst_y, is_left = min(picks)
    return DiscrepancyRecord(m, worst_a, worst_y, float(sup), is_left)


def _first_empty_coprime(residues: np.ndarray, m: int) -> int:
    """The least a in [0, m) coprime to m that is not among ``residues``; one must exist."""
    block = 2 * residues.size + 64
    for lo in range(0, m, block):
        a = np.arange(lo, min(m, lo + block), dtype=np.int64)
        free = np.flatnonzero((np.gcd(a, m) == 1) & ~np.isin(a, residues))
        if free.size:
            return int(a[free[0]])
    raise AssertionError("unreachable: every coprime class holds a jump")


def bv_cutoff(z: float, B: float) -> int:
    """The largest modulus ``bv_sum`` averages over: floor(sqrt(z) / (log z)**B).

    0 when (log z)**B overflows a double: with z >= 3 the quotient is then below 1.
    """
    try:
        return math.floor(math.sqrt(z) / math.log(z) ** B)
    except OverflowError:
        return 0


def bv_sum(z: float, B: float) -> float:
    """Sum of per-modulus worst-case discrepancies for m up to the cutoff.

    The cutoff is ``bv_cutoff(z, B)``; when it falls below 1 the sum
    is empty and 0 is returned. The suprema are added with ``math.fsum``,
    the correctly rounded sum, so the result is independent of their order.

    Raises:
        ValueError: if z < 3, z > MAX_Z, or B is negative or not finite.
    """
    if not z >= 3:  # NaN fails too
        raise ValueError("bv_sum requires z >= 3")
    if not 0 <= B < math.inf:
        raise ValueError("B must be finite and nonnegative")
    _check_z(z)
    cutoff = bv_cutoff(z, B)
    return math.fsum(max_discrepancy(z, m).sup_value for m in range(1, cutoff + 1))
