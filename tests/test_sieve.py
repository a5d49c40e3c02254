import math
import random

import numpy as np
import pytest

from edgebudget import is_prime, mangoldt_weight, primes_in, sieve


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (2861, True),
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (2**61 - 1, True),
        (2**64 - 59, True),  # largest prime below 2**64
        (2**64 - 58, False),
    ],
)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


def test_is_prime_agrees_with_trial_division_to_1e5():
    for n in range(100_001):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_primes_in_examples():
    assert primes_in(10, 20).tolist() == [11, 13, 17, 19]
    assert primes_in(1, 1).tolist() == []
    assert primes_in(10, 20).dtype == primes_in(1, 1).dtype == primes_in(4, 4).dtype == np.int64
    assert primes_in(90, 97).tolist() == [97]


def test_primes_in_rejects_empty_interval():
    with pytest.raises(ValueError):
        primes_in(20, 10)
    with pytest.raises(ValueError):
        primes_in(0, 10)


def test_primes_in_matches_is_prime_filter():
    rng = random.Random(71)
    intervals = [(1, 1000), (2, 2)] + [
        tuple(sorted((rng.randrange(1, 10**5), rng.randrange(1, 10**5)))) for _ in range(20)
    ]
    for lo, hi in intervals:
        got = primes_in(lo, hi).tolist()
        assert got == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)


def test_primes_in_segmentation_is_invisible(monkeypatch):
    whole = primes_in(1, 50_000).tolist()
    monkeypatch.setattr(sieve, "SEGMENT_LENGTH", 1024)
    segmented = primes_in(1, 50_000).tolist()
    assert whole == segmented


def test_primes_in_parity_and_segment_edges(monkeypatch):
    # segments of 8 and more (even, read at call time) start on odd numbers
    # whatever the parity of lo; 2 appears exactly when lo <= 2 <= hi
    for segment_length in (8, 10, 14):
        monkeypatch.setattr(sieve, "SEGMENT_LENGTH", segment_length)
        for lo in range(1, 40):
            for hi in (lo, lo + 1, lo + 7, lo + 8, lo + 9, lo + 100):
                got = primes_in(lo, hi).tolist()
                assert got == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi, segment_length)
        assert primes_in(2, 2).tolist() == [2]
    monkeypatch.undo()
    assert primes_in(2, 2).tolist() == [2]
    assert primes_in(3, 4).tolist() == [3]
    assert primes_in(4, 4).tolist() == []


def test_primes_in_high_window():
    # a narrow window near 1e9 only needs base primes up to sqrt(hi)
    window = primes_in(999_999_000, 10**9).tolist()
    assert window == [n for n in range(999_999_000, 10**9 + 1) if is_prime(n)]
    assert len(window) > 0


def test_mangoldt_examples():
    assert mangoldt_weight(1) == 0.0
    assert mangoldt_weight(8) == pytest.approx(math.log(2), abs=1e-12)
    assert mangoldt_weight(6) == 0.0
    assert mangoldt_weight(49) == pytest.approx(math.log(7), abs=1e-12)
    assert mangoldt_weight(97) == pytest.approx(math.log(97), abs=1e-12)
    # both factors lie above the trial-division bound, so the cofactor is rough
    assert mangoldt_weight(10007**2) == math.log(10007)
    assert mangoldt_weight(10007 * 10009) == 0.0
    with pytest.raises(ValueError):
        mangoldt_weight(0)


@pytest.mark.parametrize("y", [1, 2, 10, 100, 1234, 10_000])
def test_chebyshev_identity(y):
    # sum of Lambda(n) up to y equals sum over primes of (count of powers <= y) * log p
    direct = math.fsum(mangoldt_weight(n) for n in range(1, y + 1))
    by_primes = 0.0
    for p in range(2, y + 1):
        if trial_division_is_prime(p):
            j = 0
            power = p
            while power <= y:
                j += 1
                power *= p
            by_primes += j * math.log(p)
    assert direct == pytest.approx(by_primes, abs=1e-9)
