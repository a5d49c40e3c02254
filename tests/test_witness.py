import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from edgebudget import (
    RSet,
    SurveyConfig,
    Witness,
    build_rset,
    crt_pair,
    euler_phi,
    f_exact,
    is_prime,
    largest_prime_factor,
    lpf_table,
    mangoldt_weight,
    primes_in,
    smooth_search,
    strategy_bv,
    strategy_smooth,
    survey_range,
    validate,
    witness_json,
)
from edgebudget import factor, sieve
from edgebudget.util import compare_power, power_floor
from edgebudget.witness import unchecked_score


def simple_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


def prime_divisor_lists(limit, flags):
    divs = [[] for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if flags[p]:
            for multiple in range(p, limit + 1, p):
                divs[multiple].append(p)
    return divs


def naive_edge_budget(n, flags, divs):
    """Fully naive: every (k, p) split and every prime divisor q of r - 1."""
    best = 0
    best_quad = None
    for p in range(2, n - 2):
        if not flags[p]:
            continue
        for kp in range(p, n - 2, p):
            r = n - kp
            if not flags[r]:
                continue
            for q in divs[r - 1]:
                s = min(p * kp, kp * r, q * r)
                if s > best:
                    best = s
                    best_quad = (kp // p, p, q, r)
    return best, best_quad


def naive_first_maximizer(n, value, flags, divs):
    """The first (p, k), ascending, whose score with q = P(r-1) equals value."""
    for p in range(2, n - 2):
        if not flags[p]:
            continue
        for kp in range(p, n - 2, p):
            r = n - kp
            if flags[r]:
                q = divs[r - 1][-1]
                if min(p * kp, kp * r, q * r) == value:
                    return Witness(kp // p, p, q, r, value)
    return None


def test_score_examples():
    assert unchecked_score(1, 5, 2, 5) == 10
    assert unchecked_score(2, 2, 2, 5) == 8
    assert unchecked_score(1, 2, 2, 3) == 4


def test_score_rejects_bad_quadruples():
    # k < 1, p = 4 and r = 9 fail however consistent n and the score are
    for k, p, q, r in ((0, 2, 2, 3), (1, 4, 2, 3), (1, 2, 2, 9)):
        assert not validate(k * p + r, Witness(k, p, q, r, unchecked_score(k, p, q, r)))


def test_validate_examples():
    assert validate(10, Witness(1, 5, 2, 5, 10)) is True
    assert validate(10, Witness(1, 5, 3, 5, 10)) is False  # 5 != 1 (mod 3)
    assert validate(10, Witness(2, 2, 2, 6, 8)) is False  # 6 not prime
    assert validate(10, Witness(1, 5, 2, 5, 11)) is False  # wrong stored score
    assert validate(11, Witness(1, 5, 2, 5, 10)) is False  # n mismatch
    assert validate(10, Witness(1.5, 5, 2, 2.5, 10)) is False  # non-integral
    assert validate(10, Witness(1.0, 5.0, 2.0, 5.0, 10.0)) is True  # exact floats coerce
    # p beyond is_prime's 2**64 range: not certifiable, and validate never raises
    assert validate(2**64 + 16, Witness(1, 2**64 + 13, 2, 3, 6)) is False
    assert validate(10, Witness(1, float("inf"), 2, 5, 10)) is False  # int(inf) overflows
    # a bool is not an integer here, as in ``edgebudget verify``: True would pass as k = 1
    assert validate(7, Witness(True, 2, 2, 5, 4)) is False
    assert validate(7, Witness(np.bool_(True), 2, 2, 5, 4)) is False
    assert validate(7, Witness(1, 2, 2, 5, 4)) is True


def test_f_exact_small_values():
    assert f_exact(1) == (0, None)
    assert f_exact(4) == (0, None)
    value, w = f_exact(9)
    assert value == 8 and w == Witness(2, 2, 2, 5, 8)
    value, w = f_exact(10)
    assert value == 10 and w == Witness(1, 5, 2, 5, 10)
    with pytest.raises(ValueError):
        f_exact(0)
    with pytest.raises(ValueError):
        f_exact(3_037_000_500)  # n**2 would overflow int64


def test_f_exact_matches_naive_all_q_enumeration():
    limit = 100_000
    flags = simple_sieve(limit)
    divs = prime_divisor_lists(limit, flags)
    rng = random.Random(2)
    for n in [*range(1, 401), *(rng.randrange(10_000, limit) for _ in range(3))]:
        value, w = f_exact(n)
        expected, _ = naive_edge_budget(n, flags, divs)
        assert value == expected, n
        assert w == naive_first_maximizer(n, value, flags, divs), n
        if value:
            assert validate(n, w), n


def full_table_reference(n):
    """f(n) and its first (p, k) maximizer from the exact table of 1..n-1."""
    lpf = lpf_table(1, n - 1)
    r = np.flatnonzero(lpf[2 : n - 2] == np.arange(3, n - 1)) + 3
    d = n - r
    scores = np.minimum(np.minimum(lpf[d - 1] * d, d * r), lpf[r - 2] * r)
    best = int(scores.max())
    splits = []
    for top in r[scores == best].tolist():
        d, q, m, divisors = n - top, int(lpf[top - 2]), n - top, []
        while m > 1:  # the prime divisors of d, read off the table
            divisors.append(int(lpf[m - 1]))
            while m % divisors[-1] == 0:
                m //= divisors[-1]
        p = min(p for p in divisors if unchecked_score(d // p, p, q, top) == best)
        splits.append((p, d // p, q, top))
    p, k, q, top = min(splits)
    return best, Witness(k, p, q, top, best)


def test_f_exact_matches_full_table_reference(monkeypatch):
    floors = []
    real = factor.lpf_table

    def recording(lo, hi, *args, **kwargs):
        floors.append(kwargs.get("floor", 0))
        return real(lo, hi, *args, **kwargs)

    monkeypatch.setattr(factor, "lpf_table", recording)
    rng = random.Random(6)
    seeded = [rng.randrange(10**5, 12 * 10**5) for _ in range(6)]
    seeded = [n | 1 for n in seeded[:3]] + [n & ~1 for n in seeded[3:]]  # both parities
    certified, fallback = [], []
    for n in [*range(900, 1101), *seeded]:
        floors.clear()
        assert f_exact(n) == full_table_reference(n), n
        if floors == [max(n // 64, math.isqrt(n - 1) + 1)]:
            certified.append(n)
        else:
            assert floors[1:] == [0], (n, floors)
            fallback.append(n)
    assert len(certified) > 100
    assert fallback and max(fallback) == 959  # only small n need the exact table


def test_f_exact_returns_python_ints():
    value, w = f_exact(np.int64(10))
    assert (value, w) == (10, Witness(1, 5, 2, 5, 10))
    assert all(type(v) is int for v in (value, w.k, w.p, w.q, w.r, w.score))
    assert json.loads(json.dumps(witness_json(10, w, "exact")))["k"] == 1
    value, w = f_exact(np.int64(100_003))  # the certified path
    assert all(type(v) is int for v in (value, w.k, w.p, w.q, w.r, w.score))


def strategy_smooth_at(n):
    return strategy_smooth(n, build_rset(3000, 15000, 0.677), 0.677)


@pytest.mark.parametrize(
    "func, value",
    [
        (is_prime, 1_000_003),
        (largest_prime_factor, 1_000_003),
        (euler_phi, 10**6),
        (mangoldt_weight, 1_000_003),
        (f_exact, 1000),
        (strategy_bv, 60_000),
        (strategy_smooth_at, 60_000),
        (survey_range, 300),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_numpy_ints_give_the_int_result(func, value):
    # numpy ints are the package's own interchange type: primes_in and every
    # table hand them out, so each entry point must take them like an int
    want, got = func(value), func(np.int64(value))
    if func is survey_range:
        assert got.to_json() == want.to_json()
        return
    assert got == want and type(got) is type(want)
    witness = got[1] if func is f_exact else got
    if func in (f_exact, strategy_bv, strategy_smooth_at):
        assert all(type(v) is int for v in vars(witness).values())
        doc = json.loads(json.dumps(witness_json(value, witness, "smooth")))
        assert Witness(doc["k"], doc["p"], doc["q"], doc["r"], doc["score"]) == witness
        assert validate(value, witness)


def test_non_integers_are_type_errors():
    with pytest.raises(TypeError):
        is_prime(1.5)
    with pytest.raises(TypeError):
        survey_range(300.0)


def test_f_exact_is_deterministic():
    assert f_exact(1234) == f_exact(1234)


def test_score_monotone_in_q():
    # only the q*r branch depends on q, so larger prime divisors of r - 1
    # can never lower the score
    flags = simple_sieve(10_000)
    divs = prime_divisor_lists(9_999, flags)
    primes = [r for r in range(3, 10_000) if flags[r]]
    for r in primes[:: 37]:
        for k, p in ((1, 2), (3, 5), (10, 13)):
            scores = [min(p * p * k, p * k * r, q * r) for q in divs[r - 1]]
            assert scores == sorted(scores), (k, p, r)


def test_crt_pair_examples():
    assert crt_pair(10, 3, 7) == 1
    assert crt_pair(11, 3, 5) == 11
    with pytest.raises(ValueError):
        crt_pair(10, 7, 7)


def test_crt_pair_takes_elements_of_primes_in():
    primes = primes_in(5, 20)  # np.int64 elements: 5, 7, 11, 13, 17, 19
    for p in primes:
        for q in primes:
            if p != q:
                a = crt_pair(np.int64(100), p, q)
                assert a == crt_pair(100, int(p), int(q)) and type(a) is int
                assert a % p == 100 % p and a % q == 1
    with pytest.raises(TypeError):
        crt_pair(100, 7.0, 11)


def test_crt_pair_divisibility_property():
    for t in (1, 2, 9, 40):
        a = crt_pair(5 * t, 5, 11)
        assert a % 5 == 0
        assert a % 11 == 1


def test_strategy_bv_worked_example():
    w = strategy_bv(10_000, 0.0)
    assert w == Witness(649, 11, 13, 2861, 37193)
    assert validate(10_000, w)


def test_strategy_bv_small_n_has_no_pairs():
    assert strategy_bv(2, 0.0) is None
    assert strategy_bv(5, 0.0) is None
    # [n**0.2, 2 n**0.2] = [6, 10] holds a single prime
    assert strategy_bv(5000, 0.05) is None


def test_strategy_bv_witnesses_validate():
    for n in (911, 10_000, 123_457, 999_983):
        w = strategy_bv(n, 0.05)
        assert w is not None and validate(n, w), n
    assert strategy_bv(123_457, 0.05) == strategy_bv(123_457, 0.05)


def oracle_bv(n, eps, flags):
    """Independent re-derivation of the search: trial-division primality,
    scan-based residue combination, modular stepping from the range floor."""
    import math as _math

    width = n ** (0.25 - eps)
    snapped = round(width)
    if snapped >= 1 and abs(width - snapped) <= 1e-9 * width:
        width = float(snapped)
    lo, hi = _math.ceil(width), _math.floor(2 * width)
    if hi < lo:
        return None
    ps = [v for v in range(lo, hi + 1) if flags[v]]
    if len(ps) < 2:
        return None
    r_lo, r_hi = -(-n // 4), n // 2
    for p in ps:
        for q in ps:
            if p == q:
                continue
            modulus = p * q
            a = next(x for x in range(modulus) if x % p == n % p and x % q == 1)
            if _math.gcd(a, modulus) != 1:
                continue
            r = r_lo + ((a - r_lo) % modulus)
            while r <= r_hi:
                if r >= 3 and flags[r]:
                    kp = n - r
                    if kp < p:
                        break
                    return Witness(kp // p, p, q, r, min(p * kp, kp * r, q * r))
                r += modulus
    return None


def test_strategy_bv_matches_independent_search():
    import random

    flags = simple_sieve(30_000)
    rng = random.Random(314)
    ns = [100, 911, 10_000, 59_049] + [rng.randrange(50, 60_000) for _ in range(60)]
    for n in ns:
        for eps in (0.0, 0.05, 0.1):
            assert strategy_bv(n, eps) == oracle_bv(n, eps, flags), (n, eps)


def sieved_strategy_bv(n, eps):
    """strategy_bv as it was with p and q from a sieve of all of [lo, hi]."""
    width = n ** (0.25 - eps)
    snapped = round(width)
    if snapped >= 1 and abs(width - snapped) <= 1e-9 * width:
        width = float(snapped)
    lo, hi = math.ceil(width), math.floor(2 * width)
    if hi < lo or lo < 1:
        return None
    ps = primes_in(lo, hi).tolist()
    if len(ps) < 2:
        return None
    r_lo, r_hi = -(-n // 4), n // 2
    for p in ps:
        for q in ps:
            if q == p:
                continue
            modulus = p * q
            a = crt_pair(n, p, q)
            if math.gcd(a, modulus) != 1:
                continue
            r = a + ((r_lo - a + modulus - 1) // modulus) * modulus
            while r <= r_hi:
                if r >= 3 and is_prime(r):
                    k = (n - r) // p
                    if k < 1:
                        break
                    return Witness(k, p, q, r, unchecked_score(k, p, q, r))
                r += modulus
    return None


def test_strategy_bv_matches_the_sieved_search():
    rng = random.Random(1013)
    ns = [rng.randrange(10**e, 10 ** (e + 1)) for e in range(1, 19) for _ in range(6)]
    # every small n: among them the None cases whose [lo, hi] holds fewer
    # than two primes, such as n = 100 at eps = 0.2 ([2, 2])
    ns += range(1, 3000)
    nones = 0
    for eps in (0.0, 0.05, 0.2):
        for n in ns:
            w = strategy_bv(n, eps)
            assert w == sieved_strategy_bv(n, eps), (n, eps)
            nones += w is None
    assert nones > 1000 and strategy_bv(100, 0.2) is None


def test_strategy_bv_rejects_bad_eps():
    with pytest.raises(ValueError):
        strategy_bv(100, 0.25)
    with pytest.raises(ValueError):
        strategy_bv(100, -0.01)


def test_strategy_bv_supports_n_below_2_65():
    # below 2**65 every r <= n/2 is within is_prime's 2**64 range
    n = 2**65 - 1
    w = strategy_bv(n)
    assert w is not None and w.r < 2**64 and validate(n, w)
    for n in (0, 2**65, 2**66 + 1):
        with pytest.raises(ValueError, match=f"n={n}"):
            strategy_bv(n)


def test_build_rset_examples():
    rset = build_rset(5, 25, 0.5)
    assert [field.name for field in dataclasses.fields(rset)] == ["members", "q"]
    assert rset.members.dtype == rset.q.dtype == np.int64 and len(rset) == 3
    assert rset.members.tolist() == [7, 11, 23] and rset.q.tolist() == [3, 5, 11]
    assert build_rset(1, 25, 0.5).members.tolist() == [3, 7, 11, 23]
    assert 13 not in build_rset(1, 25, 0.677).members
    with pytest.raises(ValueError):
        build_rset(5, 4, 0.5)
    with pytest.raises(ValueError):
        build_rset(1, 25, 0.0)
    with pytest.raises(ValueError, match="int64 limit"):
        build_rset(2**63, 2**63 + 100, 0.5)


def test_build_rset_matches_pointwise_definition():
    from edgebudget import is_prime, largest_prime_factor

    lo, hi, alpha = 2, 5000, 0.62
    members = build_rset(lo, hi, alpha).members.tolist()
    expected = [
        r
        for r in range(lo, hi + 1)
        if is_prime(r) and largest_prime_factor(r - 1) > r**alpha
    ]
    assert members == expected


def test_build_rset_with_a_floor_above_sqrt_hi():
    # [20175, 5 * 20175] is a survey-shaped window: its floor 821 exceeds
    # sqrt(hi), so the table holds only the large primes; and 821 = P(21346)
    # with 21347 prime sits exactly at the floor
    lo, hi, alpha = 20_175, 100_875, 0.677
    floor = power_floor(lo, alpha)
    assert floor == 821 and floor * floor > hi
    assert is_prime(21_347) and largest_prime_factor(21_346) == floor
    rset = build_rset(lo, hi, alpha)
    expected = [
        r
        for r in range(lo, hi + 1)
        if is_prime(r) and compare_power(largest_prime_factor(r - 1), r, alpha) > 0
    ]
    assert rset.members.tolist() == expected
    assert rset.q.tolist() == [largest_prime_factor(r - 1) for r in expected]
    assert 21_347 not in rset.members


def test_power_floor_is_below_every_accepted_value():
    rng = random.Random(17)
    cases = [(q * q, 0.5) for q in (2, 3, 97, 10007)] + [(2, 1.0), (1, 0.677), (4, 0.75)]
    cases += [(rng.randrange(1, 10**12), rng.choice((0.5, 0.62, 0.677, 0.9, 1.0))) for _ in range(300)]
    for base, exponent in cases:
        floor = power_floor(base, exponent)
        # nothing below the floor is accepted at base, nor at any larger base
        assert compare_power(floor - 1, base, exponent) < 0, (base, exponent)
        assert compare_power(floor - 1, base + 1, exponent) < 0, (base, exponent)
        # and the margin is small: the floor is within 1e-8 of base**exponent
        assert floor >= base**exponent * (1 - 1e-8) - 1, (base, exponent)
    # an exact power: Q is accepted at Q**2 (compare_power gives 0), and Q >= the floor
    assert compare_power(10007, 10007**2, 0.5) == 0 and power_floor(10007**2, 0.5) <= 10007


def test_compare_power_guard_band():
    assert compare_power(8, 4, 1.5) == 0  # 4**1.5 == 8 exactly
    assert compare_power(9, 4, 1.5) == 1
    assert compare_power(7, 4, 1.5) == -1
    assert compare_power(2**30, 2, 30.0) == 0
    assert compare_power(2**30 + 1, 2, 30.0) == 1
    assert compare_power(0, 5, 0.5) == -1


def test_strategy_smooth_worked_example():
    rset = build_rset(5, 25, 0.5)
    w = strategy_smooth(100, rset, 0.5)
    assert w == Witness(3, 31, 3, 7, 21)
    assert validate(100, w)


def test_strategy_smooth_empty_rset():
    empty = np.zeros(0, dtype=np.int64)
    assert strategy_smooth(100, RSet(empty, empty), 0.5) is None


def test_strategy_smooth_rejects_members_at_or_above_n():
    rset = build_rset(5, 25, 0.5)
    with pytest.raises(ValueError):
        strategy_smooth(10, rset, 0.5)
    with pytest.raises(ValueError):
        strategy_smooth(100, rset, 1.5)


def test_strategy_scores_never_exceed_exact_budget():
    rset = build_rset(3, 75, 0.5)
    for n in range(80, 300):
        value, _ = f_exact(n)
        for w in (strategy_bv(n, 0.05), strategy_smooth(n, rset, 0.5)):
            if w is not None:
                assert validate(n, w), n
                assert w.score <= value, n


@pytest.mark.parametrize("lo", [10**6, 10**9, 10**12])
def test_build_rset_narrow_and_sieved_windows_agree(monkeypatch, lo):
    # the pointwise path factors every r - 1; the sieved one reads a table with a floor
    hi = lo
    while sieve.is_narrow(lo, hi + 1):
        hi += 1
    for window in ((lo, hi), (lo, hi + 8)):
        natural = build_rset(*window, 0.677)
        forced = not sieve.is_narrow(*window)
        monkeypatch.setattr(sieve, "is_narrow", lambda lo, hi, forced=forced: forced)
        other = build_rset(*window, 0.677)
        monkeypatch.undo()
        assert natural.members.size > 0, window
        assert other.members.tolist() == natural.members.tolist(), window
        assert other.q.tolist() == natural.q.tolist(), window


def full_rset_witness(n, **knobs):
    """strategy_smooth on the RSet of the whole interval [ceil(c0 n), n // 4]; None
    when that interval is empty."""
    config = SurveyConfig(**knobs)
    lo, hi = max(1, math.ceil(config.c0 * n)), n // 4
    if lo > hi:
        return None
    return strategy_smooth(n, build_rset(lo, hi, config.alpha), config.gamma)


def search(n, **knobs):
    """smooth_search under the survey's default knobs, or the ones given."""
    config = SurveyConfig(**knobs)
    return smooth_search(n, config.alpha, config.gamma, config.c0)


# alpha = 0.99 leaves every n below 3000 without a witness, so every window is visited
@pytest.mark.parametrize(
    "alpha,c0,some_hit",
    [(0.677, 0.05, True), (0.99, 0.05, False), (0.677, 0.2499, True)],
    ids=["default", "alpha", "c0"],
)
def test_smooth_search_equals_the_full_rset_below_3000(alpha, c0, some_hit):
    found = 0
    for n in range(1, 3000):
        want = full_rset_witness(n, alpha=alpha, c0=c0)
        assert search(n, alpha=alpha, c0=c0) == want, n
        found += want is not None
    assert (found > 0) == some_hit and found < 2999


def test_smooth_search_equals_the_full_rset_on_seeded_n():
    rng = random.Random(12)
    ns = [rng.randint(10**4, 12 * 10**6) for _ in range(12)]
    ns += [rng.randint(10**4, 10**5) for _ in range(30)]
    for n in ns:
        w = search(n)
        assert w == full_rset_witness(n), n
        assert w is None or validate(n, w), n


def test_smooth_search_holds_a_window_not_the_interval():
    # the full RSet over [ceil(n/20), n/4] at n = 1e9 + 7 holds 3.78M members
    tracemalloc.start()
    try:
        w = search(10**9 + 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validate(10**9 + 7, w)
    assert peak < 4 << 20


def test_smooth_search_certifies_up_to_the_top_of_the_range():
    for n in (10**18 + 7, 2**64 - 1):
        w = search(n)
        assert validate(n, w) and all(type(v) is int for v in dataclasses.astuple(w)), n
        assert math.ceil(0.05 * n) <= w.r <= n // 4


@pytest.mark.parametrize("n", [2**64, 10**30, 0, -5])
def test_smooth_search_rejects_n_outside_the_range_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n={n}"):
            smooth_search(n, 0.677, 0.677, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_smooth_search_checks_its_parameters():
    assert search(np.int64(60_000)) == search(60_000)
    assert search(3) is None  # [1, 0] is empty
    for knobs, message in (
        ((0.0, 0.677, 0.05), "alpha"),
        ((0.677, 1.5, 0.05), "gamma"),
        ((0.677, 0.677, 0.25), "c0"),
        ((0.677, 0.677, 0.0), "c0"),
    ):
        with pytest.raises(ValueError, match=message):
            smooth_search(100, *knobs)
    with pytest.raises(TypeError):
        smooth_search(100.0, 0.677, 0.677, 0.05)
