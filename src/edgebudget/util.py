"""Shared numeric plumbing: exact integer inputs, the strategy parameters' ranges, guarded
real-exponent comparisons, per-element ``math.log`` and 9-significant-digit serialization."""

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


def power_floor(base: int, exponent: float) -> int:
    """An integer no larger than any value that ``compare_power`` finds
    >= b**exponent, for any b >= base.

    Both of its paths need log(value) >= exponent*log(b) - band - rounding,
    where band = GUARD * max(1, exponent*log(b)) < 5e-11 (GUARD = 1e-12)
    for b < 2**63 and 0 < exponent <= 1, and rounding is a few ulps of
    numbers below 64. So every such value exceeds b**exponent * (1 - 1e-10);
    the 1e-9 margin below also covers the rounding of ``base ** exponent``.
    """
    return math.floor(base**exponent * (1 - 1e-9))


def log_each(values: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
    """math.log of each int64 value, as float64; with ``base``, an int64
    array of the same length, ``math.log(value, b)`` of each pair.

    Not np.log: its SIMD loops can differ from math.log in the last bit,
    which would move a serialized ninth digit. int64 to float64 rounds as
    Python's int to float does, so each entry equals math.log of the int,
    and ``math.log(v, b)`` is math.log(v) / math.log(b), one division.
    """
    floats = values.astype(np.float64).tolist()
    if base is None:
        logs = map(math.log, floats)
    else:
        logs = map(math.log, floats, base.astype(np.float64).tolist())
    return np.fromiter(logs, dtype=np.float64, count=len(floats))


def round9(x: float) -> float:
    """Round to 9 significant digits (platform-stable serialized floats)."""
    return float(f"{x:.9g}")


def fmt9(x: float) -> str:
    """Render a float with 9 significant digits."""
    return f"{x:.9g}"
