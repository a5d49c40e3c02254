"""Shared numeric plumbing: guarded real-exponent comparisons and
9-significant-digit serialization."""

from fractions import Fraction

import numpy as np


def compare_power(value, base, exponent: float, guard: float = 1e-12):
    """Sign of ``value - base**exponent`` for integers value >= 0, base >= 1.

    Works elementwise: value and base may be integers or integer arrays
    (broadcast together). Two scalars give an int, anything else a 1-d int8
    array of signs.

    Compares logarithms in double precision; entries whose two sides land
    inside a relative guard band are settled exactly with integer powers,
    treating the exponent as a small-denominator fraction. This keeps
    threshold tests like P(r-1) > r**alpha stable at boundary values.
    """
    values, bases = np.broadcast_arrays(np.atleast_1d(value), np.atleast_1d(base))
    fvalues = values.astype(np.float64)
    lhs = np.log(np.maximum(fvalues, 1.0))  # value <= 0 is decided below, without log(0)
    rhs = exponent * np.log(bases.astype(np.float64))
    band = guard * np.maximum(1.0, np.abs(rhs))
    sign = (lhs > rhs + band).astype(np.int8) - (lhs < rhs - band)
    sign[fvalues <= 0] = -1
    inside = np.flatnonzero(sign == 0)
    if inside.size:
        frac = Fraction(exponent).limit_denominator(1_000_000)
        for i in inside.tolist():
            left = int(values[i]) ** frac.denominator
            right = int(bases[i]) ** frac.numerator
            sign[i] = (left > right) - (left < right)
    if np.ndim(value) == 0 and np.ndim(base) == 0:
        return int(sign[0])
    return sign


def round9(x: float) -> float:
    """Round to 9 significant digits (platform-stable serialized floats)."""
    return float(f"{x:.9g}")


def fmt9(x: float) -> str:
    """Render a float with 9 significant digits."""
    return f"{x:.9g}"
