"""Chebyshev psi over arithmetic progressions and its worst-case discrepancy.

psi(y; m, a) sums the von Mangoldt weight over n <= y with n = a (mod m).
Between prime-power jumps, psi(y; m, a) - y/phi(m) is linear in y, so its
supremum over real y in (0, z] is attained only at a jump, at the left limit
of a jump, or at the endpoint z; ``max_discrepancy`` evaluates exactly that
candidate set. ``bv_sum`` averages the per-modulus suprema over
m <= sqrt(z)/(log z)**B, the empirical form of the Bombieri-Vinogradov
average.

All accumulation is double precision with compensated (Neumaier) summation
in a fixed order, so reported values are bit-reproducible.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from . import factor, sieve
from .util import RunningSum, fmt9, neumaier_sum, pmap

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
def _jumps_upto(top: int) -> tuple[tuple[int, float], ...]:
    if top < 2:
        return ()
    out = []
    for p in sieve.primes_in(2, top):
        lg = math.log(p)
        j = p
        while j <= top:
            out.append((j, lg))
            j *= p
    out.sort()
    return tuple(out)


def prime_power_jumps(z: float) -> tuple[tuple[int, float], ...]:
    """All (prime power j <= z, log p) pairs, ascending in j."""
    return _jumps_upto(math.floor(z))


def psi(y: float, m: int, a: int) -> float:
    """Chebyshev psi(y; m, a): sum of Lambda(n) over n <= y, n = a (mod m).

    With m = 1 the single admissible residue is a = 0 and the classical
    psi(y) is returned.

    Raises:
        ValueError: if m < 1, y <= 0, or a is outside [0, m).
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if y <= 0:
        raise ValueError("y must be positive")
    if a < 0 or a >= m:
        raise ValueError("residue must satisfy 0 <= a < m")
    acc = RunningSum()
    for j, lg in prime_power_jumps(y):
        if j % m == a:
            acc.add(lg)
    return acc.value


def max_discrepancy(z: float, m: int) -> DiscrepancyRecord:
    """Exact supremum of |psi(y;m,a) - y/phi(m)| over real y in (0, z].

    One pass over the prime powers up to z per coprime residue class:
    each class jump contributes its left limit and its post-jump value, and
    the endpoint y = z closes the final piece. Classes are visited in
    increasing a and candidates in increasing y; the first strict maximum
    wins, so the record is deterministic.

    Raises:
        ValueError: if m < 1 or z < 1.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if z < 1:
        raise ValueError("z must be at least 1")
    inv_phi = 1.0 / factor.euler_phi(m)
    residues = [0] if m == 1 else [a for a in range(1, m) if math.gcd(a, m) == 1]
    by_class: dict[int, list[tuple[int, float]]] = {a: [] for a in residues}
    for j, lg in prime_power_jumps(z):
        c = j % m
        if c in by_class:
            by_class[c].append((j, lg))

    sup = -1.0
    worst_a = residues[0]
    worst_y = float(z)
    left = False
    for a in residues:
        acc = RunningSum()
        for j, lg in by_class[a]:
            target = j * inv_phi
            v = abs(acc.value - target)
            if v > sup:
                sup, worst_a, worst_y, left = v, a, float(j), True
            acc.add(lg)
            v = abs(acc.value - target)
            if v > sup:
                sup, worst_a, worst_y, left = v, a, float(j), False
        v = abs(acc.value - z * inv_phi)
        if v > sup:
            sup, worst_a, worst_y, left = v, a, float(z), False
    return DiscrepancyRecord(m, worst_a, worst_y, sup, left)


def _sup_for_modulus(args: tuple[float, int]) -> float:
    z, m = args
    return max_discrepancy(z, m).sup_value


def bv_cutoff(z: float, B: float) -> int:
    """The largest modulus ``bv_sum`` averages over: floor(sqrt(z) / (log z)**B)."""
    return math.floor(math.sqrt(z) / math.log(z) ** B)


def bv_sum(z: float, B: float, workers: int = 1) -> float:
    """Sum of per-modulus worst-case discrepancies for m up to the cutoff.

    The cutoff is ``bv_cutoff(z, B)``; when it falls below 1 the sum
    is empty and 0 is returned. Moduli may be evaluated in parallel; the
    reduction is always performed in ascending m with compensated summation,
    so the result does not depend on the worker count.

    Raises:
        ValueError: if z < 3 or B < 0.
    """
    if z < 3:
        raise ValueError("bv_sum requires z >= 3")
    if B < 0:
        raise ValueError("B must be nonnegative")
    cutoff = bv_cutoff(z, B)
    if cutoff < 1:
        return 0.0
    sups = pmap(_sup_for_modulus, [(z, m) for m in range(1, cutoff + 1)], workers)
    return neumaier_sum(sups)
