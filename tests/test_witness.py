import random

import pytest

from edgebudget import (
    RSet,
    Witness,
    build_rset,
    crt_pair,
    f_exact,
    make_witness,
    score,
    strategy_bv,
    strategy_smooth,
    validate,
)
from edgebudget.util import compare_power


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
    assert score(1, 5, 2, 5) == 10
    assert score(2, 2, 2, 5) == 8
    assert score(1, 2, 2, 3) == 4


def test_score_rejects_bad_quadruples():
    with pytest.raises(ValueError):
        score(0, 2, 2, 3)
    with pytest.raises(ValueError):
        score(1, 4, 2, 3)
    with pytest.raises(ValueError):
        score(1, 2, 2, 9)


def test_make_witness_fills_score():
    assert make_witness(2, 2, 2, 5) == Witness(2, 2, 2, 5, 8)


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


def test_strategy_bv_rejects_bad_eps():
    with pytest.raises(ValueError):
        strategy_bv(100, 0.25)
    with pytest.raises(ValueError):
        strategy_bv(100, -0.01)


def test_build_rset_examples():
    assert build_rset(5, 25, 0.5).members == [7, 11, 23]
    assert build_rset(1, 25, 0.5).members == [3, 7, 11, 23]
    assert 13 not in build_rset(1, 25, 0.677).members
    with pytest.raises(ValueError):
        build_rset(5, 4, 0.5)
    with pytest.raises(ValueError):
        build_rset(1, 25, 0.0)


def test_build_rset_matches_pointwise_definition():
    from edgebudget import is_prime, largest_prime_factor

    lo, hi, alpha = 2, 5000, 0.62
    members = build_rset(lo, hi, alpha).members
    expected = [
        r
        for r in range(lo, hi + 1)
        if is_prime(r) and largest_prime_factor(r - 1) > r**alpha
    ]
    assert members == expected


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
    assert strategy_smooth(100, RSet(0.5, (5, 25), []), 0.5) is None


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
