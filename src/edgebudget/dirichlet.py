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
2**-53, so the sums are taken exactly in fixed point (two int64 limbs) and
rounded at the end; ``bv_sum`` adds the suprema with ``math.fsum``. Reported
values are therefore bit-reproducible. The limbs stay exact for
z <= MAX_Z = 2**31: fewer than 2**31 jumps keep the low-limb sums below
2**63, and psi(z) < 2**32 (psi(z) < 1.04 z) keeps the rounded high part
below 2**53.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sieve
from .util import fmt9

MAX_Z = 2**31
_SCALE = 2.0**53  # log p * _SCALE is an integer below 2**58
_LIMB = 32
_MASK = (1 << _LIMB) - 1


DISCREPANCY_CSV_HEADER = "m,worst_a,worst_y,sup_value,is_left_limit"


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

    def csv_row(self) -> str:
        flag = 1 if self.is_left_limit else 0
        return f"{self.m},{self.worst_a},{fmt9(self.worst_y)},{fmt9(self.sup_value)},{flag}"


@lru_cache(maxsize=4)
def _jumps_upto(top: int) -> np.ndarray:
    primes = sieve.primes_in(2, top) if top >= 2 else np.zeros(0, dtype=np.int64)
    logs = np.fromiter(map(math.log, primes.tolist()), dtype=np.float64, count=primes.size)
    powers = [primes]  # powers[k][i] == primes[i] ** (k + 1), while that is <= top
    while powers[-1].size:
        prev = powers[-1]
        n = np.count_nonzero(prev <= top // primes[: prev.size])  # a prefix, as primes ascend
        powers.append(prev[:n] * primes[:n])
    j = np.concatenate(powers)
    order = np.argsort(j)
    jumps = np.empty(j.size, dtype=[("j", np.int64), ("log_p", np.float64)])
    jumps["j"] = j[order]
    jumps["log_p"] = np.concatenate([logs[: part.size] for part in powers])[order]
    return jumps


def prime_power_jumps(z: float) -> np.ndarray:
    """All prime powers j <= z, ascending, as a structured array with fields
    ``j`` (int64) and ``log_p`` (float64, ``math.log`` of the prime under j)."""
    return _jumps_upto(math.floor(z))


def _check_z(z: float, name: str = "z") -> None:
    if z > MAX_Z:
        raise ValueError(f"{name} must be at most {MAX_Z} for exact fixed-point sums")


def _fixed_to_float(hi, lo):
    """round((hi * 2**32 + lo) * 2**-53) for int64 limb sums hi, lo >= 0.

    Carrying lo into hi leaves hi < 2**53 and lo < 2**32 (see MAX_Z), both
    exact as doubles, so the one addition is the only rounding.
    """
    hi = hi + (lo >> _LIMB)
    lo = lo & _MASK
    return (hi.astype(np.float64) * 2.0**_LIMB + lo) / _SCALE


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
    fixed = (jumps["log_p"][jumps["j"] % min(m, MAX_Z + 1) == a] * _SCALE).astype(np.int64)
    return float(_fixed_to_float(np.sum(fixed >> _LIMB), np.sum(fixed & _MASK)))


def max_discrepancy(z: float, m: int) -> DiscrepancyRecord:
    """Exact supremum of |psi(y;m,a) - y/phi(m)| over real y in (0, z].

    Stable-sorts the jumps by residue class and takes each coprime class's
    exact prefix sums: each class jump contributes its left limit and its
    post-jump value, and the endpoint y = z closes the final piece. The
    record is the first maximal candidate in the order classes ascending,
    then candidates in increasing y, left limit before post-jump value, the
    endpoint last; so it is deterministic. m may be any integer type,
    numpy's included; the record's m is a Python int.

    Raises:
        TypeError: if m is not an integer.
        ValueError: if m < 1, z < 1, or z > MAX_Z.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    if not z >= 1:  # NaN fails too
        raise ValueError("z must be at least 1")
    _check_z(z)
    jumps = prime_power_jumps(z)
    coprime = np.gcd(np.arange(m), m) == 1  # only class 0 when m = 1
    residues = np.flatnonzero(coprime)
    inv_phi = 1.0 / residues.size  # residues.size == phi(m)
    cls = jumps["j"] % m
    keep = np.flatnonzero(coprime[cls])
    order = keep[np.argsort(cls[keep].astype(np.min_scalar_type(m - 1)), kind="stable")]
    j, fixed = jumps["j"][order], (jumps["log_p"][order] * _SCALE).astype(np.int64)
    counts = np.bincount(cls[order], minlength=m)[residues]
    ends = np.cumsum(counts)
    starts = ends - counts
    rank = np.repeat(np.arange(residues.size), counts)  # class rank of each jump
    hi = np.concatenate(([0], np.cumsum(fixed >> _LIMB)))
    lo = np.concatenate(([0], np.cumsum(fixed & _MASK)))

    def psi_between(upto, since):
        return _fixed_to_float(hi[upto] - hi[since], lo[upto] - lo[since])

    first = starts[rank]
    left = psi_between(np.arange(j.size), first)
    post = psi_between(np.arange(1, j.size + 1), first)
    totals = psi_between(ends, starts)

    target = j * inv_phi
    v_left = np.abs(left - target)
    v_post = np.abs(post - target)
    v_end = np.abs(totals - z * inv_phi)
    sup = max(v_left.max(initial=0.0), v_post.max(initial=0.0), v_end.max())
    # visit position: 2 per earlier jump, 1 per earlier endpoint
    picks = []
    for values, is_left, offset in ((v_left, True, 0), (v_post, False, 1)):
        for i in np.flatnonzero(values == sup)[:1].tolist():
            picks.append((2 * i + offset + int(rank[i]), int(residues[rank[i]]), float(j[i]), is_left))
    for c in np.flatnonzero(v_end == sup)[:1].tolist():
        picks.append((2 * int(ends[c]) + c, int(residues[c]), float(z), False))
    _, worst_a, worst_y, is_left = min(picks)
    return DiscrepancyRecord(m, worst_a, worst_y, float(sup), is_left)


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
