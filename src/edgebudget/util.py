"""Shared numeric plumbing: exact integer inputs, the strategy parameters' ranges, guarded
real-exponent comparisons and their thresholds, per-element ``math.log`` and 9-significant-digit
serialization."""

import math
from fractions import Fraction

import numpy as np

# relative width of the band in which compare_power's log test defers to exact powers
GUARD = 1e-12


def exact_int(value) -> int:
    """value as an int, when it is an integer or an exactly integral float.

    Raises:
        TypeError: if int() cannot convert value.
        ValueError: if value is a bool (int(True) is 1, but a flag is not a
            count), or not integral.
        OverflowError: if value is an infinite float.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{value!r} is a bool, not an integer")
    out = int(value)
    if out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


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


def compare_power(value, base, exponent: float):
    """Sign of ``value - base**exponent`` for integers value >= 0, base >= 1.

    Works elementwise: value and base may be integers or integer arrays of
    any shape, broadcast together. Two scalars give an int, anything else an
    int8 array of signs in the shape the two broadcast to, at least 1-d.

    Compares logarithms in double precision; entries whose two sides land
    inside the relative band ``GUARD`` are settled exactly with integer powers,
    treating the exponent as a small-denominator fraction. This keeps
    threshold tests like P(r-1) > r**alpha stable at boundary values.
    """
    values, bases = np.broadcast_arrays(np.atleast_1d(value), np.atleast_1d(base))
    fvalues = values.astype(np.float64)
    lhs = np.log(np.maximum(fvalues, 1.0))  # value <= 0 is decided below, without log(0)
    rhs = exponent * np.log(bases.astype(np.float64))
    band = GUARD * np.maximum(1.0, np.abs(rhs))
    sign = (lhs > rhs + band).astype(np.int8) - (lhs < rhs - band)
    sign[fvalues <= 0] = -1
    inside = np.flatnonzero(sign == 0)
    if inside.size:
        frac = Fraction(exponent).limit_denominator(1_000_000)
        for i in inside.tolist():
            left = int(values.flat[i]) ** frac.denominator
            right = int(bases.flat[i]) ** frac.numerator
            sign.flat[i] = (left > right) - (left < right)
    if np.ndim(value) == 0 and np.ndim(base) == 0:
        return int(sign[0])
    return sign


def power_threshold(bases, exponent: float) -> np.ndarray:
    """For each int64 base b >= 1, the least integer t with
    ``compare_power(t, b, exponent) >= 0``, as int64; 0 < exponent <= 1.

    t never falls as b grows, so the threshold of the least base is a floor
    for every larger one. compare_power accepts a value v only where
    log(v) >= exponent*log(b) - band - rounding, and refuses it only where
    log(v) <= exponent*log(b) + band + rounding, with band = GUARD *
    max(1, exponent*log(b)) < 5e-11 (GUARD = 1e-12) for b < 2**63 and
    rounding a few ulps of numbers below 64: every accepted v exceeds
    b**exponent * (1 - 1e-10), and every refused v lies below b**exponent *
    (1 + 1e-10). With y the float b**exponent, the 1e-9 margins below also
    cover y's rounding, so ceil(y*(1 - 1e-9)) - 1 is refused and
    min(b, floor(y*(1 + 1e-9)) + 1) accepted (b >= b**exponent). compare_power
    rises with the value, and bisection between the two finds t; where y lies
    farther than 1e-9*y from every integer they are adjacent, and no
    comparison is made.
    """
    bases = np.asarray(bases, dtype=np.int64)
    y = bases**exponent
    lo = np.ceil(y * (1 - 1e-9)).astype(np.int64) - 1
    top = np.floor(y * (1 + 1e-9)) + 1
    hi = bases.copy()
    below = top < hi  # cast only what lies below b, never past the int64 limit
    hi[below] = top[below]
    rows = np.flatnonzero(hi - lo > 1)
    while rows.size:
        mid = lo[rows] + (hi[rows] - lo[rows]) // 2
        ok = compare_power(mid, bases[rows], exponent) >= 0
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok]
        rows = rows[hi[rows] - lo[rows] > 1]
    return hi


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
