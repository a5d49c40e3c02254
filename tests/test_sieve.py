import math
import random
import tracemalloc

import numpy as np
import pytest

from edgebudget import is_prime, mangoldt_weight, primes_in, sieve
from oracles import prime_flags, trial_division_is_prime


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


def test_is_prime_takes_uint64_to_the_top_of_its_range():
    assert is_prime(np.uint64(2**64 - 59)) is True
    assert is_prime(np.uint64(3825123056546413051)) is False  # psi_9, below


TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin for odd n > 2: True iff n passes every base. A base is taken
    mod n, and a residue below 2 is skipped, as the best-known sets are verified."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        if a % n < 2:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def twelve_base_is_prime(n: int) -> bool:
    """Trial division by the first twelve primes, then Miller-Rabin with all twelve as
    bases: exact below psi_12 (about 3.18e23, OEIS A014233), so on all of is_prime's range."""
    if n < 2:
        return False
    for p in TWELVE_BASES:
        if n % p == 0:
            return n == p
    return strong_probable_prime(n, TWELVE_BASES)


# OEIS A014233: psi_k, the least odd composite that is a strong probable prime
# to each of the first k prime bases, with its prime factors (psi_8 = psi_7).
PSI = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
}


# The bounds of sieve._MR_SETS below 2**64 (miller-rabin.appspot.com), with
# their prime factors: each is the least odd composite that is a strong
# probable prime to every base of its own row.
MR_BOUNDS = {
    341531: (239, 1429),
    1373653: (829, 1657),
    350269456337: (197279, 1775503),
    55245642489451: (3716371, 14865481),
    7999252175582851: (9227, 894923, 968731),
    585226005592931977: (382500329, 1530001313),
}


@pytest.mark.parametrize("k", sorted(PSI))
def test_each_tier_bound_is_a_rejected_strong_pseudoprime(k):
    # the bound is tight: psi_k is composite and passes the first k prime bases,
    # so those k bases would not decide psi_k itself; is_prime refuses it
    psi, factors = PSI[k]
    assert math.prod(factors) == psi and all(trial_division_is_prime(f) for f in factors)
    assert strong_probable_prime(psi, TWELVE_BASES[:k])
    assert is_prime(psi) is False


def test_is_prime_agrees_with_dense_sieve_below_2e6():
    # covers the small-prime lookup (97, 100, 101) and the gcd-only range
    # around its end (9409 = 97**2, 10**4, 10201 = 101**2)
    limit = 2 * 10**6
    assert [is_prime(n) for n in range(limit)] == list(prime_flags(limit - 1))


def test_is_prime_agrees_with_twelve_bases_on_seeded_n():
    # half uniform on [0, 2**64), half with a uniform bit length, so that
    # every row of sieve._MR_SETS is reached
    rng = random.Random(2047)
    ns = [rng.randrange(1 << 64) for _ in range(50_000)]
    ns += [rng.randrange(1 << rng.randrange(1, 65)) for _ in range(50_000)]
    for n in ns:
        assert is_prime(n) == twelve_base_is_prime(n), n


def test_is_prime_agrees_with_twelve_bases_around_each_tier_bound():
    for bound in [*(psi for psi, _ in PSI.values()), *MR_BOUNDS]:
        for n in range(bound - 500, bound + 501):
            assert is_prime(n) == twelve_base_is_prime(n), n


def test_base_sets_are_chosen_by_their_bounds():
    assert sieve._MR_BOUNDS == (*MR_BOUNDS, 2**64)


@pytest.mark.parametrize("row", range(len(MR_BOUNDS)))
def test_each_base_set_bound_is_a_rejected_strong_pseudoprime(row):
    # the bound is tight: its own set would call it prime, so is_prime must
    # use the next row's set there
    bound, bases = sieve._MR_SETS[row]
    factors = MR_BOUNDS[bound]
    assert math.prod(factors) == bound and all(trial_division_is_prime(f) for f in factors)
    assert strong_probable_prime(bound, bases)
    assert is_prime(bound) is False


def test_is_prime_skips_a_base_that_is_zero_mod_n():
    # 98207 is prime and divides the one base below 341531, so no base is left
    (base,) = sieve._MR_SETS[0][1]
    assert base % 98207 == 0 and trial_division_is_prime(98207)
    assert is_prime(98207) is True


def carmichael_numbers() -> list[int]:
    """The Carmichael numbers below 10**5, and Chernick's (6k+1)(12k+1)(18k+1) below 2**64."""
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
             52633, 62745, 63973, 75361]
    top = 240_000  # (6k+1)(12k+1)(18k+1) < 2**64
    flags = prime_flags(18 * top + 1)
    chernick = [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, top)
        if flags[6 * k + 1] and flags[12 * k + 1] and flags[18 * k + 1]
    ]
    return small + [n for n in chernick if n < 1 << 64]


def test_is_prime_rejects_carmichael_numbers():
    numbers = carmichael_numbers()
    assert len(numbers) > 100 and max(numbers) > 3825123056546413051
    for n in numbers:
        assert pow(2, n - 1, n) == 1  # a Fermat pseudoprime: base 2 alone is fooled
        assert is_prime(n) is False and twelve_base_is_prime(n) is False, n


def test_is_prime_triple_is_three_is_prime_calls():
    # values up to 100 and the gcd-only range take is_prime alone; a Carmichael
    # number free of the primes below 100 passes both filters, so is_prime decides
    rng = random.Random(31)
    carmichael = [n for n in carmichael_numbers() if math.gcd(n, sieve._SMALL_PRODUCT) == 1]
    pool = [*range(103), 9409, 9973, 10007, 10403, 2**61 - 1, 2**64 - 59, *carmichael[:20]]
    pool += [rng.randrange(1 << rng.randrange(7, 64)) | 1 for _ in range(40)]
    pool += [next(sieve.iter_primes(v, v + 2000)) for v in pool[-40:]]  # as many primes
    for _ in range(20_000):
        r, p, q = (rng.choice(pool) for _ in range(3))
        assert sieve.is_prime_triple(r, p, q) == (is_prime(r) and is_prime(p) and is_prime(q))
    big = [n for n in pool if n > 100 and is_prime(n)]
    for n in carmichael[:20]:
        assert sieve.is_prime_triple(n, big[0], big[-1]) is False
        assert sieve.is_prime_triple(big[0], big[-1], n) is False


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
    # a non-integer end is refused at the door, where (1.5, 100) used to give the primes to 100
    for lo, hi in ((1.5, 100), (1.0, 100), (1, 100.0), (1, "100")):
        with pytest.raises(TypeError):
            primes_in(lo, hi)
    # numpy ints, as the kernels hand them out, are integers
    assert primes_in(np.int64(10), np.int32(20)).tolist() == [11, 13, 17, 19]


def test_primes_in_refuses_windows_beyond_int64():
    # int64 holds every value below 2**63; check_int refuses an end before anything is allocated
    for lo, hi, name in ((2**63 - 100, 2**63 + 100, "hi"), (2**63 - 100, 2**63, "hi"),
                         (2**63, 2**64, "lo")):
        with pytest.raises(ValueError, match=f"^primes_in supports {name} <= {2**63 - 1}$"):
            primes_in(lo, hi)
    lo, hi = 2**63 - 100, 2**63 - 1
    assert primes_in(lo, hi).tolist() == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_iter_primes_tests_only_two_and_odd_numbers(monkeypatch):
    tested = []

    def counting(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(sieve, "is_prime", counting)
    for lo, hi in ((1, 1), (1, 2), (2, 2), (2, 3), (4, 4), (1, 100), (90, 97), (10**12, 10**12 + 200)):
        tested.clear()
        assert list(sieve.iter_primes(lo, hi)) == [n for n in range(lo, hi + 1) if is_prime(n)]
        assert all(n % 2 for n in tested), (lo, hi)


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


def windows_across_the_criterion(lo):
    """[lo, hi] just narrow enough for pointwise tests, and one a little too wide."""
    hi = lo
    while sieve.is_narrow(lo, hi + 1):
        hi += 1
    assert sieve.is_narrow(lo, hi) and not sieve.is_narrow(lo, hi + 8)
    return (lo, hi), (lo, hi + 8)


@pytest.mark.parametrize("lo", [10**6, 10**9, 10**12])
def test_primes_in_narrow_and_sieved_windows_agree(monkeypatch, lo):
    for window in windows_across_the_criterion(lo):
        natural = primes_in(*window).tolist()
        forced = not sieve.is_narrow(*window)
        monkeypatch.setattr(sieve, "is_narrow", lambda lo, hi, forced=forced: forced)
        assert primes_in(*window).tolist() == natural, window
        monkeypatch.undo()
    # either side of the criterion at the small end, where 2 is in range
    for forced in (True, False):
        monkeypatch.setattr(sieve, "is_narrow", lambda lo, hi, forced=forced: forced)
        assert primes_in(1, 200).tolist() == [n for n in range(1, 201) if is_prime(n)]
        assert primes_in(2, 2).tolist() == [2] and primes_in(4, 4).tolist() == []
        assert primes_in(1, 1).tolist() == [] and primes_in(1, 1).dtype == np.int64
        monkeypatch.undo()


def test_primes_in_narrow_window_near_5e16_sieves_nothing():
    # sieving needs the 12M base primes below sqrt(5e16); a narrow window tests its odd numbers
    lo = 5 * 10**16
    assert sieve.is_narrow(lo, lo + 4095)
    tracemalloc.start()
    try:
        window = primes_in(lo, lo + 4095)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window.tolist() == [n for n in range(lo, lo + 4096) if is_prime(n)]
    assert window.dtype == np.int64 and window.size > 50
    assert peak < 1 << 20


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
