import math
import random

import numpy as np
import pytest

from edgebudget import euler_phi, factor, largest_prime_factor, lpf_table, sieve
from oracles import trial_division_lpf, trial_division_primes


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
    # the range: what is left after the primes below 10**4 must be below 2**64
    assert largest_prime_factor(2**70) == 2
    with pytest.raises(ValueError, match=r"2\*\*64"):
        largest_prime_factor(2**64 + 1)  # 274177 * 67280421310721


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


def random_prime(rng, lo, hi):
    """The first prime at or after a seeded start in [lo, hi], wrapping to lo."""
    p = rng.randrange(lo, hi + 1)
    while not sieve.is_prime(p):
        p = p + 1 if p < hi else lo
    return p


def test_prime_factors_in_every_decade_to_2_64():
    # From TRIAL_LIMIT**2 up, trial division runs only on the gcd of k with the
    # product of the small primes. Per decade: a seeded k of small primes only,
    # of primes above TRIAL_LIMIT only (one, and two), of both, and a random k
    # checked against plain trial division.
    rng = random.Random(14)
    trial = factor.TRIAL_LIMIT
    small = sieve.primes_in(2, trial).tolist()
    for e in range(1, 20):
        lo, hi = 10**e, min(10 ** (e + 1), 2**64) - 1
        cases = []
        k, primes = 1, set()
        while k < lo:
            p = rng.choice([p for p in small if p <= hi // k])
            k, primes = k * p, primes | {p}
        cases.append((k, primes))
        if hi > trial:
            p = random_prime(rng, max(lo, trial + 1), hi)
            cases.append((p, {p}))
        if math.isqrt(hi) > trial:
            p = random_prime(rng, trial + 1, math.isqrt(hi))
            q = random_prime(rng, max(trial + 1, -(-lo // p)), hi // p)
            cases.append((p * q, {p, q}))
        if hi > 4 * trial:
            s = rng.choice([s for s in (2, 6, 7**3, 2**20, 9973, 2 * 3 * 9973) if s <= hi // (2 * trial)])
            r = random_prime(rng, max(trial + 1, -(-lo // s)), hi // s)
            cases.append((s * r, set(trial_division_primes(s)) | {r}))
        if hi < 10**10:
            k = rng.randrange(lo, hi + 1)
            cases.append((k, set(trial_division_primes(k))))
        for k, primes in cases:
            assert lo <= k <= hi, (e, k)
            assert factor._prime_factors(k) == sorted(primes), k
            assert largest_prime_factor(k) == max(primes), k
    # at the gate: a k just below it, its first k, and a rough square above it
    for k in (trial**2 - 1, trial**2, 10_007**2):
        assert factor._prime_factors(k) == trial_division_primes(k), k


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


def test_lpf_table_refuses_windows_beyond_int64():
    for lo, hi in ((2**63 - 10, 2**63 + 10), (2**63 - 10, 2**63)):
        with pytest.raises(ValueError, match=f"^lpf_table supports hi <= {2**63 - 1}$"):
            lpf_table(lo, hi)
    # the top of the range, through the large-prime path: only primes reach the floor 2**62
    lo, hi = 2**63 - 100, 2**63 - 1
    want = [n if sieve.is_prime(n) else 0 for n in range(lo, hi + 1)]
    assert lpf_table(lo, hi, floor=2**62).tolist() == want and any(want)


def test_lpf_table_factors_a_narrow_window_pointwise(monkeypatch):
    # 11 numbers are far fewer than the base primes up to sqrt(hi) (about 1e9 at
    # 10**18), so the window is not sieved. factor's trial-division primes come
    # from primes_in once per process, so that cache is filled before the spy goes in
    factor._small_primes()
    calls = []
    monkeypatch.setattr(sieve, "primes_in", lambda *args: calls.append(args) or np.zeros(0, np.int64))
    for lo in (10**18, 2**63 - 11):
        want = [largest_prime_factor(n) for n in range(lo, lo + 11)]
        for floor in (0, 10**12):
            got = lpf_table(lo, lo + 10, floor=floor).tolist()
            assert calls == [], (lo, floor)
            assert got == [p if p >= floor else 0 for p in want], (lo, floor)


def test_lpf_table_floor_is_keyword_only():
    # a stale positional third argument must not silently become the floor
    with pytest.raises(TypeError):
        lpf_table(1, 20, 8)
    assert lpf_table(1, 20, floor=8).tolist() == [v if v >= 8 else 0 for v in lpf_table(1, 20).tolist()]


def test_lpf_table_floor_is_an_integer():
    # refused at the door: 11.5 used to fail deep inside primes_in, while 5.5
    # (the sieve path), 200.5 (above hi) and True gave a table
    for floor in (11.5, 5.5, 200.5, 11.0, "11", True, np.True_):
        with pytest.raises(TypeError):
            lpf_table(1, 100, floor=floor)
    # and so are the window's ends: (1.0, 10) used to fail only inside np.zeros
    for lo, hi in ((1.0, 10), (1.5, 100), (1, 100.0)):
        with pytest.raises(TypeError):
            lpf_table(lo, hi)
    assert lpf_table(np.int64(90), np.uint64(96)).tolist() == lpf_table(90, 96).tolist()
    # numpy ints, as the kernels hand them out, on the scatter path (floor > 10) and the sieve path
    for lo, hi, floor in ((1, 100, 11), (50, 100, 7), (10**6, 10**6 + 500, 2000)):
        for wrapped in (np.int64(floor), np.int32(floor)):
            got = lpf_table(lo, hi, floor=wrapped)
            assert got.dtype == np.int64
            assert got.tolist() == lpf_table(lo, hi, floor=floor).tolist(), (lo, hi, wrapped)


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


def test_scatter_matches_floored_table():
    # the large-prime kernel on its own, fed the primes of [floor, hi]
    rng = random.Random(43)
    windows = []
    for _ in range(4):
        hi = rng.randrange(10**4, 2 * 10**6)
        windows += [(1, hi), (rng.randrange(2, hi // 2), hi), (hi - rng.randrange(0, 300), hi)]
    for lo, hi in windows:
        for floor in (math.isqrt(hi) + 1, math.isqrt(hi) + 2, hi // 64):
            table = factor._scatter(lo, hi, sieve.primes_in(floor, hi))
            assert table.dtype == np.int64
            assert np.array_equal(table, lpf_table(lo, hi, floor=floor)), (lo, hi, floor)


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
    assert euler_phi(2**70) == 2**69
    with pytest.raises(ValueError, match=r"2\*\*64"):
        euler_phi(2**64 + 1)


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
