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
2**-53, so log p * 2**53 is an integer below 2**58. The one kept jump table
holds it once, as one int64 word per jump. Only the sums split it, into two
limbs hi * 2**32 + lo with lo < 2**32: ``psi`` sums one class's limbs. Per
modulus, one kernel sorts the keys class << b | index in place (uint32
unless m * 2**b passes 2**32), gathers the weights in that order, casts
their two uint32 halves into (n, 2) limb pairs, writes at each class start
each limb minus the previous class's total (``np.add.reduceat``), and sums
both limbs with one cumsum in place: every partial sum is then a running
sum within one class, and rounded once it is a post-jump value. A jump's
left limit is the post-jump value before it in its class, and a class's
total its last post-jump value. The kernel allocates nothing
per jump: it writes into a workspace of five int64 words per jump;
``max_discrepancy`` makes one for its modulus, and ``bv_sum`` one for all of
its moduli, whose suprema it adds with ``math.fsum``. Reported values are
therefore bit-reproducible. The limbs stay exact for z <= MAX_Z = 2**31: one
class holds fewer than 2**31 jumps, so its low-limb sum stays below 2**63,
and weighs at most psi(z) < 2**32 (psi(z) < 1.04 z), so its high-limb sum,
with the low limb's carry, stays below 2**53. The carry runs only where a
class sums more than 2**21 jumps (z above about 3.5e7): up to 2**21 low limbs,
each below 2**32, sum to at most 2**53 - 2**21, an exact double, so
hi * 2**-21 + lo * 2**-53 adds two exact terms and rounds once, to the double
that the carried limbs give.
"""

import math
import sys
from dataclasses import dataclass

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

    Every array is read-only and shared by every caller. ``len`` counts the jumps.

    Attributes:
        j: The prime powers (int64).
        w: The integer ``math.log(p) * 2**53`` below 2**58 for the prime p
            under each j (int64, the exact fixed-point weights).
    """

    j: np.ndarray
    w: np.ndarray

    def __len__(self) -> int:
        return self.j.size


def _jumps_upto(top: int) -> PrimePowerJumps:
    """The table for floor(z) = top, built from the sorted primes up to top.

    The few higher powers p**k (k >= 2, p <= sqrt(top)) are listed in one
    loop, sorted and inserted among the primes, each weight beside its j; no
    array longer than the primes is sorted. The peak is ``log_each``'s, 48
    bytes per jump under ``tracemalloc``.
    """
    primes = sieve.primes_in(2, top) if top >= 2 else np.zeros(0, dtype=np.int64)
    # exact: each log is a multiple of 2**-53
    weights = (log_each(primes) * _SCALE).astype(np.int64)
    extra = []  # (p**k, index of p) for every p**k <= top with k >= 2
    for i, p in enumerate(primes[: np.searchsorted(primes, math.isqrt(top), side="right")].tolist()):
        power = p * p
        while power <= top:
            extra.append((power, i))
            power *= p
    extra.sort()
    powers, base = np.array(extra, dtype=np.int64).reshape(-1, 2).T
    at = np.searchsorted(primes, powers)  # no prime is a power; a shared position keeps order
    j = np.insert(primes, at, powers)
    w = np.insert(weights, at, weights[base])
    j.flags.writeable = w.flags.writeable = False
    return PrimePowerJumps(j, w)


_kept = -math.inf, None  # (top, table): the one table, for the largest floor(z) asked for


def prime_power_jumps(z: float) -> PrimePowerJumps:
    """The read-only table of all prime powers j <= z and their weights: a view of
    the kept table's prefix, as j ascends and each weight depends only on its prime."""
    global _kept
    top = math.floor(z)
    if top > _kept[0]:
        _kept = -math.inf, None  # drop the kept table before building the larger one
        _kept = top, _jumps_upto(top)
    table = _kept[1]
    n = np.searchsorted(table.j, top, side="right")
    return PrimePowerJumps(table.j[:n], table.w[:n])


def _check_z(z: float, name: str = "z") -> None:
    if z > MAX_Z:
        raise ValueError(f"{name} must be at most {MAX_Z} for exact fixed-point sums")


def _fixed_to_float(hi, lo, out, terms):
    """Write round((hi * 2**32 + lo) * 2**-53) into out, for int64 limb sums hi, lo >= 0.

    hi and lo are int64 arrays of out's shape, such as the two columns of one
    (n, 2) array, and out is a float64 array apart from both; hi and lo are
    spent. Each entry of lo sums at most terms low limbs, each below 2**32.
    Each product goes into words already spent, out's and then hi's, never
    into its own operand's, which numpy would first copy whole.

    Every hi stays below 2**53 (see MAX_Z). Up to 2**21 terms, every lo is at
    most 2**53 - 2**21, so both scaled terms are exact doubles and the one
    addition is the only rounding. Beyond that a lo may reach 2**53 and lose
    bits as a double: only then is lo carried into hi first, which leaves
    lo < 2**32 and the same exact value.
    """
    if terms > 2 ** (53 - _LIMB):
        carry = out.view(np.int64)
        np.right_shift(lo, _LIMB, out=carry)
        hi += carry
        lo &= _MASK
    np.multiply(hi, 2.0 ** (_LIMB - 53), out=out)
    out += np.multiply(lo, 2.0**-53, out=hi.view(np.float64))
    return out


def psi(y: float, m: int, a: int) -> float:
    """Chebyshev psi(y; m, a): sum of Lambda(n) over n <= y, n = a (mod m).

    With m = 1 the single admissible residue is a = 0 and the classical
    psi(y) is returned. m and a may be any integer type, numpy's included.

    Raises:
        TypeError: if m or a is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if m < 1 or a is outside [0, m) (``sieve.check_int``, m first),
            or y <= 0 or y > MAX_Z.
    """
    m = sieve.check_int(m, "psi", "m", 1)
    a = sieve.check_int(a, "psi", "a", 0, m - 1)
    if not y > 0:  # NaN fails too
        raise ValueError("y must be positive")
    _check_z(y, "y")
    jumps = prime_power_jumps(y)
    # every j <= MAX_Z, so a larger modulus leaves j as it is and need not fit in int64
    w = jumps.w[jumps.j % min(m, MAX_Z + 1) == a]
    limbs = (w >> _LIMB).sum(keepdims=True), (w & _MASK).sum(keepdims=True)
    return float(_fixed_to_float(*limbs, np.empty(1), w.size)[0])


def max_discrepancy(z: float, m: int) -> DiscrepancyRecord:
    """Exact supremum of |psi(y;m,a) - y/phi(m)| over real y in (0, z].

    Stable-sorts the jumps by residue class and takes one exact running sum
    per class; each jump in a class coprime to m contributes its left limit
    and its post-jump value, and the endpoint y = z closes the final piece.
    A coprime class that holds no jump contributes only its endpoint value
    z/phi(m), with phi(m) from ``factor.euler_phi``. The record is the first
    maximal candidate in the order classes ascending, then candidates in
    increasing y, left limit before post-jump value, the endpoint last; so
    it is deterministic. m may be any integer type, numpy's included; the
    record's m is a Python int. Memory is linear in the number of jumps,
    whatever m is: five int64 words per jump (the workspace), and arrays
    only for the classes that hold a jump. The shared jump table is
    read-only.

    Raises:
        TypeError: if m is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if m is outside [1, MAX_Z] (``sieve.check_int``, before
            anything is allocated), z < 1, or z > MAX_Z.
    """
    m = sieve.check_int(m, "max_discrepancy", "m", 1, MAX_Z)
    if not z >= 1:  # NaN fails too
        raise ValueError("z must be at least 1")
    _check_z(z)
    jumps = prime_power_jumps(z)
    return _discrepancy(jumps, z, m, _workspace(jumps))


def _workspace(jumps: PrimePowerJumps) -> np.ndarray:
    """``_discrepancy``'s buffers: five int64 rows, one word per jump. The last row's two
    uint32 halves hold the indices 0..n-1 and the jumps, each below 2**32 (see MAX_Z)."""
    n = len(jumps)
    work = np.empty((5, n), dtype=np.int64)
    index, j = work[4].view(np.uint32).reshape(2, n)
    for lo in range(0, n, 4096):  # 0..n-1, a block at a time: no temporary of n words
        index[lo : lo + 4096] = np.arange(lo, min(lo + 4096, n))
    j[:] = jumps.j
    return work


def _discrepancy(jumps: PrimePowerJumps, z: float, m: int, work: np.ndarray) -> DiscrepancyRecord:
    """``max_discrepancy``'s record for a checked z and m, computed in ``work``.

    work is ``_workspace(jumps)``. Every jump-sized step writes into its rows
    through ``out=``, and a row whose integers are spent is read again as
    another dtype through a view; only the per-class arrays are allocated, so
    one workspace serves any number of moduli. Row 4's uint32 halves feed the
    class and key passes, which run in uint32 (the keys widen to uint64 only
    when m * 2**b passes 2**32), and row 0 takes the jumps in class order as
    uint32. Rows 1-2 hold the limbs as one block of (n, 2) pairs, summed down
    both columns by one cumsum. Each jump's two candidates are one-sided: its
    post-jump value minus its target j/phi(m), and its target minus its left
    limit, read from the post-jump values shifted by one.
    """
    n = len(jumps)
    index, j32 = work[4].view(np.uint32).reshape(2, n)
    spare = work[3]
    # the unique keys class << b | index, each class j - (j // m) * m: numpy divides by a
    # scalar in SIMD, but not remainder; the keys are uint32 unless m * 2**b passes 2**32
    b = (n - 1).bit_length()
    key = spare.view(np.uint64 if (m - 1) << b >= 2**32 else np.uint32)[:n]
    cls = work[0].view(np.uint32)[:n]
    np.subtract(j32, np.multiply(np.floor_divide(j32, m, out=cls), m, out=cls), out=cls)
    np.bitwise_or(np.left_shift(cls, b, out=key, dtype=key.dtype), index, out=key)
    key.sort()  # in place; the keys are unique, so this is the stable class order
    order = np.bitwise_and(key, (1 << b) - 1, out=work[1], casting="unsafe")
    # mode="clip" lets take write straight into out; every index is in range
    j = np.take(j32, order, out=cls, mode="clip")  # the jumps in class order
    sorted_cls = np.right_shift(key, b, out=key)
    # the first sorted index of each class that holds a jump
    change = work[2].view(bool)[:n]
    change[:1] = True
    np.not_equal(sorted_cls[1:], sorted_cls[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    # the weights in class order; their uint32 halves, cast to int64 in one pass, are the
    # limb pairs. Each column's running sum restarts at each class start: a start first
    # takes off the previous class's total, so every partial sum is one class's
    w = np.take(jumps.w, order, out=spare, mode="clip")
    limbs = work[1:3].reshape(n, 2)
    limbs[...] = w.view(np.uint32).reshape(n, 2)
    lo, hi = limbs.T if sys.byteorder == "little" else limbs.T[::-1]
    if starts.size > 1:
        for prefix in (hi, lo):
            prefix[starts[1:]] -= np.add.reduceat(prefix, starts)[:-1]
    np.cumsum(limbs, axis=0, out=limbs)
    # the carry runs only if a class sums more than 2**21 jumps
    post = _fixed_to_float(hi, lo, spare.view(np.float64), np.diff(starts, append=n).max(initial=0))
    phi = factor.euler_phi(m)
    inv_phi = 1.0 / phi
    target = np.multiply(j, inv_phi, out=work[1].view(np.float64))

    # each class's residue and end; made after the casts above, so that their buffers
    # meet no per-class array but starts
    residues, ends = j[starts] % m, np.append(starts, n)[1:]
    primes = np.array(factor._prime_factors(m), dtype=np.int64)
    coprime = (residues % primes[:, None] != 0).all(axis=0)  # class 0 is coprime when m = 1
    # The one-sided values, with no abs, keep the supremum and the record. Between jumps a
    # class's psi(y) - y/phi(m) falls, so a post-jump value below its target is beaten by
    # the class's next left limit (the same psi, a larger target), or tied by the endpoint
    # when the jump lies at z, with the same record (a, z, not a left limit); a left limit
    # above its target is beaten by the class's previous post-jump value (the same psi, a
    # smaller target). A class's first left limit, 0, lies below its target.
    v_end = np.abs(post[ends - 1] - z * inv_phi)
    v_post = np.subtract(post, target, out=work[2].view(np.float64))
    first = target[starts]
    v_left = target  # minus the post-jump value before it in its class
    np.subtract(target[1:], post[:-1], out=v_left[1:])
    v_left[starts] = first  # minus 0 at a class start
    # the few jumps outside coprime classes are powers of primes dividing m
    for c in np.flatnonzero(~coprime).tolist():
        v_left[starts[c] : ends[c]] = v_post[starts[c] : ends[c]] = -math.inf
    v_end[~coprime] = -math.inf
    # every coprime class without a jump ends at |0 - z/phi(m)|
    v_empty = z * inv_phi if np.count_nonzero(coprime) < phi else -math.inf
    # a pick is (-value, a, y, kind), kind 0 a left limit, 1 a post-jump value, 2 the endpoint:
    # from each kind's first maximal entry (argmax), the least pick is the first maximal
    # candidate in the order the docstring gives
    picks = []
    for values, kind in ((v_left, 0), (v_post, 1), (v_end, 2)):
        if values.size:
            i = int(values.argmax())
            a, y = (residues[i], z) if kind == 2 else (j[i] % m, j[i])
            picks.append((-values[i], int(a), float(y), kind))
    if not picks or v_empty >= -min(picks)[0]:
        picks.append((-v_empty, _first_empty_coprime(residues, m, primes), float(z), 2))
    sup, worst_a, worst_y, kind = min(picks)
    return DiscrepancyRecord(m, worst_a, worst_y, -float(sup), kind == 0)


def _first_empty_coprime(residues: np.ndarray, m: int, primes: np.ndarray) -> int:
    """The least a in [0, m) coprime to m, whose prime factors are ``primes``, that is not
    among ``residues``; one must exist."""
    block = 2 * residues.size + 64
    for lo in range(0, m, block):
        a = np.arange(lo, min(m, lo + block), dtype=np.int64)
        free = np.flatnonzero((a % primes[:, None] != 0).all(axis=0) & ~np.isin(a, residues))
        if free.size:
            return int(a[free[0]])
    raise AssertionError("unreachable: every coprime class holds a jump")


def bv_cutoff(z: float, B: float) -> int:
    """The largest modulus ``bv_sum`` averages over: floor(sqrt(z) / (log z)**B).

    0 when (log z)**B overflows a double: with z >= 3 the quotient is then below 1.

    Raises:
        ValueError: if z < 3, z > MAX_Z, or B is negative or not finite.
    """
    if not z >= 3:  # NaN fails too
        raise ValueError("bv_sum requires z >= 3")
    if not 0 <= B < math.inf:
        raise ValueError("B must be finite and nonnegative")
    _check_z(z)
    try:
        return math.floor(math.sqrt(z) / math.log(z) ** B)
    except OverflowError:
        return 0


def bv_sum(z: float, B: float) -> float:
    """Sum of per-modulus worst-case discrepancies for m up to the cutoff.

    The cutoff and the checks on z and B are ``bv_cutoff``'s; a cutoff below
    1 gives the empty sum 0, before the jump table is built. Every modulus
    runs ``max_discrepancy``'s kernel, all of them in one workspace. The
    suprema are added with ``math.fsum``, the correctly rounded sum, so the
    result is independent of their order.

    Raises:
        ValueError: if z < 3, z > MAX_Z, or B is negative or not finite.
    """
    cutoff = bv_cutoff(z, B)
    if cutoff < 1:
        return 0.0
    jumps = prime_power_jumps(z)
    work = _workspace(jumps)
    return math.fsum(_discrepancy(jumps, z, m, work).sup_value for m in range(1, cutoff + 1))
