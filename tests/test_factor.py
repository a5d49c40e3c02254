import math
import random

import numpy as np
import pytest

from edgebudget import euler_phi, largest_prime_factor, lpf_table, sieve


def trial_division_lpf(k: int) -> int:
    if k == 1:
        return 0
    best = 0
    d = 2
    while d * d <= k:
        while k % d == 0:
            best = d
            k //= d
        d += 1
    return max(best, k if k > 1 else 0)


def trial_division_primes(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return out + ([k] if k > 1 else [])


def test_lpf_and_phi_match_trial_division_oracle():
    for k in range(1, 20_001):
        primes = trial_division_primes(k)
        phi = k
        for p in primes:
            phi = phi // p * (p - 1)
        assert largest_prime_factor(k) == (primes[-1] if primes else 0), k
        assert euler_phi(k) == phi, k


def test_lpf_examples():
    assert largest_prime_factor(1) == 0
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(1024) == 2
    with pytest.raises(ValueError):
        largest_prime_factor(0)


def test_lpf_agrees_with_trial_division_to_1e5():
    for k in range(1, 100_001):
        assert largest_prime_factor(k) == trial_division_lpf(k), k


def test_lpf_large_cofactors():
    # prime cofactor above the trial bound
    assert largest_prime_factor(2 * 999_999_937) == 999_999_937
    # semiprime cofactor: forces the rho path
    p1, p2 = 2_147_483_629, 2_147_483_647
    assert largest_prime_factor(p1 * p2) == p2
    assert largest_prime_factor(6 * p1 * p1) == p1
    # determinism of the rho path
    assert largest_prime_factor(p1 * p2) == largest_prime_factor(p1 * p2)


def test_lpf_table_examples():
    assert lpf_table(90, 96).tolist() == [5, 13, 23, 31, 47, 19, 3]
    assert lpf_table(1, 1).tolist() == [0]
    assert lpf_table(97, 97).tolist() == [97]
    with pytest.raises(ValueError):
        lpf_table(5, 4)
    with pytest.raises(ValueError):
        lpf_table(0, 4)


def test_lpf_table_matches_pointwise():
    rng = random.Random(29)
    intervals = [(1, 3000)]
    for _ in range(6):
        lo = rng.randrange(1, 10**6 - 2000)
        intervals.append((lo, lo + rng.randrange(1, 2000)))
    intervals.append((10**6 - 500, 10**6))
    for lo, hi in intervals:
        table = lpf_table(lo, hi)
        for n in range(lo, hi + 1):
            assert table[n - lo] == largest_prime_factor(n), n


def test_lpf_table_segmentation_is_invisible(monkeypatch):
    whole = lpf_table(1, 20_000).tolist()
    monkeypatch.setattr(sieve, "SEGMENT_LENGTH", 700)
    assert lpf_table(1, 20_000).tolist() == whole
    assert lpf_table(9_000, 20_000).tolist() == whole[9_000 - 1 :]


def test_lpf_table_high_window():
    # bulk sieving near 1e9 agrees with the pointwise trial-division/rho path
    lo, hi = 10**9 - 1000, 10**9
    table = lpf_table(lo, hi)
    for n in range(lo, hi + 1):
        assert table[n - lo] == largest_prime_factor(n), n


def test_lpf_table_floor_is_keyword_only():
    # a stale positional third argument must not silently become the floor
    with pytest.raises(TypeError):
        lpf_table(1, 20, 8)
    assert lpf_table(1, 20, floor=8).tolist() == [v if v >= 8 else 0 for v in lpf_table(1, 20).tolist()]


def test_lpf_table_floor_matches_truncated_full_table():
    rng = random.Random(41)
    windows = [(1, 1), (1, 2), (1, 100), (1, 30_000), (1, 10**6)]  # lo = 1
    for _ in range(4):
        hi = rng.randrange(10**4, 2 * 10**6)
        windows.append((rng.randrange(hi // 3, hi), hi))  # wide high windows
        windows.append((hi - rng.randrange(0, 300), hi))  # narrow high windows
    for lo, hi in windows:
        full = lpf_table(lo, hi)
        root = math.isqrt(hi)
        floors = [0, 1, 2, root, root + 1, root + 2, hi // 64, hi, hi + 1, hi + 50]
        floors.append(int(full[rng.randrange(full.size)]))  # a P(n) present in the window
        floors += [rng.randrange(1, hi + 2) for _ in range(3)]
        for floor in floors:
            table = lpf_table(lo, hi, floor=floor)
            expected = np.where(full >= floor, full, 0)
            assert table.dtype == np.int64
            assert np.array_equal(table, expected), (lo, hi, floor)


def test_lpf_table_floor_keeps_the_boundary_prime():
    # 821 = P(21346) lies exactly at the floor and must be kept (>=, not >)
    assert lpf_table(20_174, 100_874, floor=821)[21_346 - 20_174] == 821
    assert lpf_table(20_174, 100_874, floor=822)[21_346 - 20_174] == 0
    assert lpf_table(1, 21_346, floor=821)[21_346 - 1] == 821


def test_factor_table_indexing():
    table = lpf_table(10, 20)
    assert table[10 - 10] == 5 and table[20 - 10] == 5


def test_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    assert euler_phi(10007 * 10009) == 10006 * 10008  # rough cofactor: Pollard rho
    with pytest.raises(ValueError):
        euler_phi(0)


def test_phi_matches_gcd_count():
    for m in range(1, 200):
        assert euler_phi(m) == sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1), m


def test_phi_multiplicative_on_coprime_pairs():
    rng = random.Random(500)
    checked = 0
    while checked < 500:
        m = rng.randrange(1, 10**4)
        n = rng.randrange(1, 10**4)
        if math.gcd(m, n) != 1:
            continue
        assert euler_phi(m * n) == euler_phi(m) * euler_phi(n), (m, n)
        checked += 1
