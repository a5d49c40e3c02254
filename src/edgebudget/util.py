"""Shared numeric plumbing: the strategy parameters' ranges, exact integer
thresholds of real powers, per-element ``math.log`` and 9-significant-digit serialization."""

import math
from fractions import Fraction

import numpy as np

# each strategy parameter's interval, as its message prints it, and a test that is False for NaN
_RANGES = {"alpha": ("(0, 1]", lambda v: 0 < v <= 1),
           "gamma": ("(0, 1]", lambda v: 0 < v <= 1),
           "c0": ("(0, 1/4)", lambda v: 0 < v < 0.25),
           "eps": ("[0, 1/4)", lambda v: 0 <= v < 0.25)}


def check_ranges(**values: float) -> None:
    """Raise ValueError "<name> must lie in <interval>" for the first named value out of range."""
    for name, value in values.items():
        interval, inside = _RANGES[name]
        if not inside(value):
            raise ValueError(f"{name} must lie in {interval}")


_MARGIN = 2.0**-45  # power_threshold's relative bracket margin, 256 ulps of 1.0


def power_threshold(bases, exponent: float) -> np.ndarray:
    """For each base 1 <= b < 2**64, the least integer t with t**den >= b**num,
    num/den being ``Fraction(exponent).limit_denominator(10**6)``, 0 < exponent
    <= 1: the one rule behind every test P >= b**exponent. The dtype is numpy's
    for the bases (int64, or uint64 from 2**63); t never falls as b grows.

    tc = exp(y log b), y = float(num/den), brackets t. With u = 2**-53, float(b)
    and y are rounded (u), np.log and np.exp lie within 1 ulp of the rounded
    result (numpy's umath-validation-set-log.csv and -exp.csv), so within 3u,
    and the product rounds by u; as (num/den) log b < 44.4, tc's exponent is
    within 1.02u + 44.4 * 5.01u < 224u of (num/den) log b, and tc within a
    relative 227u of b**(num/den). So with _MARGIN = 256u, ceil(tc*(1 -
    _MARGIN)) - 1 is refused and min(b, ceil(tc*(1 + _MARGIN))) accepted.
    Where they are not adjacent, bisection settles t, deciding each
    mid**den >= b**num exactly (_at_least).

    Raises:
        TypeError: if the bases are not read as int64 or uint64: a float such as
            4.5 or 5.0, or a list mixing 2**63 with a small int (float64), or 2**64.
    """
    bases = np.asarray(bases)
    if bases.dtype not in (np.int64, np.uint64):
        raise TypeError(f"power_threshold takes int64 or uint64 bases, not {bases.dtype}")
    frac = Fraction(exponent).limit_denominator(1_000_000)
    tc = np.exp(float(frac) * np.log(bases.astype(np.float64)))
    lo = np.ceil(tc * (1 - _MARGIN)).astype(bases.dtype) - 1
    top = np.ceil(tc * (1 + _MARGIN))
    hi = bases.copy()
    below = top < hi  # cast only what lies below b, never past the integer limit
    hi[below] = top[below]
    for i in np.flatnonzero(hi - lo > 1).tolist():
        b, low, high = int(bases[i]), int(lo[i]), int(hi[i])
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if _at_least(mid, b, frac) else (mid, high)
        hi[i] = high
    return hi


def _power_bounds(x: int, k: int, bits: int) -> tuple[int, int, int]:
    """(low, high, shift) with low * 2**shift <= x**k <= high * 2**shift: square-and-multiply,
    each step cut to ``bits`` bits, low rounded down and high up; exact when x**k < 2**bits."""
    low = high = 1
    shift = 0
    for digit in bin(k)[2:]:
        low, high, shift = low * low, high * high, 2 * shift
        if digit == "1":
            low, high = low * x, high * x
        cut = max(0, high.bit_length() - bits)
        low, high, shift = low >> cut, -(-high >> cut), shift + cut
    return low, high, shift


def _at_least(t: int, b: int, frac: Fraction) -> bool:
    """Whether t**den >= b**num, num/den = frac, from ``_power_bounds`` of both sides, not powers
    of millions of bits: at 128 bits, and twice as many while they overlap (exact at full width)."""
    bits = 128
    while True:
        t_low, t_high, t_shift = _power_bounds(t, frac.denominator, bits)
        b_low, b_high, b_shift = _power_bounds(b, frac.numerator, bits)
        s = min(t_shift, b_shift)
        if t_low << (t_shift - s) >= b_high << (b_shift - s):
            return True
        if t_high << (t_shift - s) < b_low << (b_shift - s):
            return False
        bits *= 2


def log_each(values: np.ndarray) -> np.ndarray:
    """math.log of each int64 value, as float64.

    Not np.log: its SIMD loops can differ from math.log in the last bit,
    which would move a serialized ninth digit. int64 to float64 rounds as
    Python's int to float does, so each entry equals math.log of the int;
    and as ``math.log(v, b)`` is math.log(v) / math.log(b), one division,
    ``log_each(v) / log_each(b)`` is ``math.log(v, b)`` of each pair.
    """
    floats = values.astype(np.float64).tolist()
    return np.fromiter(map(math.log, floats), dtype=np.float64, count=len(floats))


def round9(x: float) -> float:
    """Round to 9 significant digits (platform-stable serialized floats)."""
    return float(f"{x:.9g}")


def fmt9(x: float) -> str:
    """Render a float with 9 significant digits."""
    return f"{x:.9g}"
