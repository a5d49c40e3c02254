import argparse
import builtins
import dataclasses
import json
import math
import random
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from edgebudget import (
    PRESETS,
    RSet,
    SurveyConfig,
    Witness,
    bs_max_pdiff,
    build_rset,
    crt_pair,
    euler_phi,
    f_exact,
    is_prime,
    largest_prime_factor,
    lpf_table,
    mangoldt_weight,
    max_discrepancy,
    primes_in,
    psi,
    rset_density,
    smooth_search,
    strategy_bv,
    strategy_smooth,
    survey_range,
    validate,
    witness_json,
)
from edgebudget import cli, factor, sieve, witness
from edgebudget.dirichlet import MAX_Z
from edgebudget.survey import SCAN_MAX_N
from edgebudget.util import power_threshold
from edgebudget.witness import unchecked_score
from oracles import exact_threshold, naive_edge_budget, prime_divisor_lists, prime_flags


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
    # an exactly integral float, Fraction or Decimal is not an integer either, as in verify
    assert validate(10.0, Witness(1, 5, 2, 5, 10)) is False
    assert validate(10, Witness(1.0, 5.0, 2.0, 5.0, 10.0)) is False
    assert validate(10, Witness(Fraction(1), Decimal(5), 2, 5, 10)) is False
    # p beyond is_prime's 2**64 range: not certifiable, and validate never raises
    assert validate(2**64 + 16, Witness(1, 2**64 + 13, 2, 3, 6)) is False
    assert validate(10, Witness(1, float("inf"), 2, 5, 10)) is False
    # a bool is not an integer here, as in ``edgebudget verify``: True would pass as k = 1
    assert validate(7, Witness(True, 2, 2, 5, 4)) is False
    assert validate(7, Witness(np.bool_(True), 2, 2, 5, 4)) is False
    assert validate(7, Witness(1, 2, 2, 5, 4)) is True
    assert validate(10, (1, 5, 2, 5, 10)) is False  # not a Witness: no fields to read
    assert validate(np.int64(10), Witness(1, 5, 2, 5, 10)) is True
    assert validate(np.int64(11), Witness(1, 5, 2, 5, 10)) is False  # a bool, not numpy's


def test_f_exact_small_values():
    assert f_exact(1) == (0, None)
    assert f_exact(4) == (0, None)
    value, w = f_exact(9)
    assert value == 8 and w == Witness(2, 2, 2, 5, 8)
    value, w = f_exact(10)
    assert value == 10 and w == Witness(1, 5, 2, 5, 10)
    with pytest.raises(ValueError):
        f_exact(0)
    with pytest.raises(ValueError, match="n <= 18446744073709551615"):
        f_exact(2**64)  # beyond is_prime's range
    n = 3_037_000_500  # one past the int64 scan's limit: the search has none
    value, w = f_exact(n)
    assert value == w.score > 0 and validate(n, w)


def test_f_exact_at_large_n():
    # the values at 10**18 + 7 and 2**64 - 1 agree with two independent searches:
    # best-first on Fraction keys, and an outward scan over the pairs (k, m).
    # n mod 12 picks the search's first pair, and these n cover every first
    # pair: 10**12 + 7 and 10**18 + 7 are 11 mod 12 (pair (4, 6)), 10**18 + 8,
    # + 9 and + 10 are 0, 1 and 2 ((1, 2), (2, 2) and (3, 2)), 2**64 - 59 is
    # 5 ((2, 6)) and 2**64 - 1 is 3 ((2, 4))
    expected = {
        10**12 + 7: Witness(4, 112372434487, 91751710343, 550510262059,
                            50510256130140427812676),
        10**18 + 7: Witness(4, 112372435695788251, 91751709536141167, 550510257216847003,
                            50510257216816262010574640918556004),
        10**18 + 8: Witness(1, 414213562373169289, 292893218813415359, 585786437626830719,
                            171572875253766417888723359327613121),
        10**18 + 9: Witness(2, 250000000000014631, 249999999999985373, 499999999999970747,
                            124999999999985373250000000427883631),
        10**18 + 10: Witness(3, 183503419072248089, 224744871391627871, 449489742783255743,
                             101020514433615311101957105092455763),
        2**64 - 59: Witness(6, 1949127854270297273, 3375988474043883959, 6751976948087767919,
                            22794596353753999220412869398747419174),
        2**64 - 1: Witness(2, 3820445788478014361, 2701463124188380723, 10805852496753522893,
                           29191612045398586118499081527380391639),
    }
    for n, want in expected.items():
        assert f_exact(n) == (want.score, want) and validate(n, want), n


def test_f_exact_matches_naive_all_q_enumeration(naive_to_2000):
    limit = 100_000
    flags = prime_flags(limit)
    divs = prime_divisor_lists(limit, flags)
    rng = random.Random(2)
    expected = dict(naive_to_2000[0])  # the oracle's f(n) for every n <= 2000
    for n in (rng.randrange(10_000, limit) for _ in range(3)):
        expected[n] = naive_edge_budget(n, flags, divs)[0]
    for n, want in expected.items():
        value, w = f_exact(n)
        assert value == want, n
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


def test_f_exact_matches_full_table_reference():
    rng = random.Random(6)
    seeded = [rng.randrange(10**5, 3 * 10**6) for _ in range(8)]
    seeded = [n | 1 for n in seeded[:4]] + [n & ~1 for n in seeded[4:]]  # both parities
    for n in [*range(5, 5001), *seeded]:
        assert f_exact(n) == full_table_reference(n), n


def test_f_exact_builds_no_table(monkeypatch):
    # the search tests its candidates one by one: no sieve, no table of P, and
    # no P(n - r) or P(r - 1) after the search, since the witness is a popped
    # triple; _obstruction's factorization of 6km is the only factoring it does.
    # factor's trial-division primes come from primes_in once per process, so
    # that cache is filled before the spies go in
    calls = []
    factor._small_primes()
    monkeypatch.setattr(sieve, "primes_in", lambda *args: calls.append(("primes_in", args)))
    monkeypatch.setattr(factor, "lpf_table", lambda *args, **kw: calls.append(("lpf_table", args)))
    monkeypatch.setattr(factor, "largest_prime_factor", lambda *args: calls.append(("lpf", args)))
    for n in (10, 100_003, 999_983, 10**12 + 7):
        assert f_exact(n)[0] > 0
    assert calls == []


def test_f_exact_proves_few_triples(monkeypatch):
    # the walk passes over the members whose r*p*q has a prime factor below
    # 100, and sieve.is_prime_triple rejects almost every member left by a
    # base-2 Fermat test, so is_prime runs on little more than the witness's
    # triple. Testing is_prime(r) first, with its full base set, took 14222
    # is_prime and 10431 pow calls at this n
    real_pow, real_is_prime = builtins.pow, sieve.is_prime
    calls = {"pow": 0, "is_prime": 0}

    def counting_pow(*args):
        calls["pow"] += 1
        return real_pow(*args)

    def counting_is_prime(n):
        calls["is_prime"] += 1
        return real_is_prime(n)

    monkeypatch.setattr(builtins, "pow", counting_pow)
    monkeypatch.setattr(sieve, "is_prime", counting_is_prime)
    assert f_exact(2**64 - 1)[1].k == 2
    assert calls["is_prime"] <= 10 and calls["pow"] <= 1000, calls


def test_f_exact_walks_past_small_factors(monkeypatch):
    # a side jumps over the members off its mod-30 wheel and passes over those
    # that sieve.has_small_factor rejects, so is_prime_triple sees only
    # members with r, p or q at most 100, or with r*p*q prime to every prime
    # below 100. Testing every member walked made 13583 and 9306 triple tests
    real_triple, seen = sieve.is_prime_triple, []

    def spy(r, p, q):
        seen.append((r, p, q))
        return real_triple(r, p, q)

    monkeypatch.setattr(sieve, "is_prime_triple", spy)
    for n, k in ((2**64 - 1, 2), (10**18 + 7, 4)):
        seen.clear()
        assert f_exact(n)[1].k == k
        assert 0 < len(seen) <= 300, (n, len(seen))
        for r, p, q in seen:
            assert min(r, p, q) <= 100 or math.gcd(r * p * q, math.prod(range(2, 101))) == 1


def test_f_exact_walk_passes_over_no_prime_triple():
    # from every member of every unobstructed pair (k, m) with k, m <= 12, down
    # and up, the walk passes over no prime triple before the first member it
    # keeps, and keeps none past the side's last member; a walk from the
    # side's first member keeps exactly the members that a walk from each of
    # them keeps first. Below n = 200, r, p or q is at most 100 at every
    # member, so the walk steps one member at a time; the larger n have long
    # stretches where it jumps along the wheel
    def triple(n, k, m, r):
        return is_prime(r) and is_prime((n - r) // k) and is_prime((r - 1) // m)

    for n in [*range(5, 200), *random.Random(3).sample(range(1000, 5000), 3)]:
        for k, m in ((k, m) for k in range(1, 13) for m in range(1, 13)):
            step, lo = math.lcm(k, m), max(3, 2 * m + 1)
            first = next((r for r in range(lo, lo + step)
                          if (n - r) % k == 0 and (r - 1) % m == 0), n)
            members = list(range(first, n - 2 * k + 1, step))
            if not members or witness._obstruction(n, k, m, first, step):
                continue
            for side, sign in ((members, 1), (members[::-1], -1)):
                index = {r: i for i, r in enumerate(side)}
                kept = []  # kept[i]: the index of the first member kept from side[i] on
                for i, r in enumerate(side):
                    r = next(witness._walk(n, k, m, r, sign * step, side[-1]), None)
                    kept.append(len(side) if r is None else index.get(r, -1))
                    assert kept[i] >= i and not any(triple(n, k, m, x)
                                                    for x in side[i:kept[i]]), (n, k, m, i)
                whole = list(witness._walk(n, k, m, side[0], sign * step, side[-1]))
                assert whole == [r for i, r in enumerate(side) if kept[i] == i], (n, k, m)


def test_candidates_contract():
    # f_exact's one stream of candidates, read down to f(n) // 2: its keys
    # never increase, no (r, k, m) comes twice, each pair (k, m) comes as
    # (bound, 0, k, m) before any member of its own, and every prime triple
    # scoring at least f(n) // 2 comes with its score, against every
    # (k, p, q, r) of n listed from the primes and their multiples
    flags = prime_flags(5000)
    divs = prime_divisor_lists(5000, flags)
    for n in [*range(5, 301), *random.Random(4).sample(range(1000, 5000), 3)]:
        triples = {(r, (n - r) // p, (r - 1) // q): unchecked_score((n - r) // p, p, q, r)
                   for r in range(3, n - 1) if flags[r] for p in divs[n - r] for q in divs[r - 1]}
        floor = max(triples.values()) // 2
        pairs, found, key = set(), {}, math.inf
        for env, r, k, m in witness._candidates(n):
            if env < floor:
                break
            assert env <= key, (n, env, key)
            key = env
            if r == 0:
                assert (k, m) not in pairs, (n, k, m)
                pairs.add((k, m))
            else:
                assert (k, m) in pairs and (r, k, m) not in found, (n, r, k, m)
                found[r, k, m] = env
        missing = {t: s for t, s in triples.items() if s >= floor and found.get(t) != s}
        assert not missing, (n, missing)


def test_f_exact_allocates_nothing_in_proportion_to_n():
    factor._small_primes()  # the process-wide trial-division primes, as above
    tracemalloc.start()
    try:
        value, w = f_exact(3 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validate(3 * 10**7, w) and value == w.score
    assert peak < 2**20, peak  # a table of n int64 entries would take 240 MB


def test_f_exact_returns_python_ints():
    value, w = f_exact(np.int64(10))
    assert (value, w) == (10, Witness(1, 5, 2, 5, 10))
    assert all(type(v) is int for v in (value, w.k, w.p, w.q, w.r, w.score))
    assert json.loads(json.dumps(witness_json(10, w, "exact")))["k"] == 1
    assert list(witness_json(10, w, "exact")) == ["n", "k", "p", "q", "r", "score", "strategy"]
    value, w = f_exact(np.int64(100_003))  # fields read off the popped triple
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
        assert "".join(got.text()) == "".join(want.text())
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


def test_a_bool_is_not_an_integer_input():
    # the one door, sieve.check_int, refuses a flag as a count:
    # f_exact(True) used to return (0, None), primes_in(True, 10) to sieve from 1,
    # strategy_bv(True) and smooth_search(True, ...) None, and crt_pair(True, 3, 5) 1
    for call in (
        lambda: f_exact(True),
        lambda: primes_in(True, 10),
        lambda: primes_in(1, np.True_),
        lambda: largest_prime_factor(True),
        lambda: sieve.check_int(False, "f", "n", 0),
        lambda: strategy_bv(True),
        lambda: strategy_bv(np.True_),
        lambda: smooth_search(True, 0.5, 0.5, 0.05),
        lambda: smooth_search(np.True_, 0.5, 0.5, 0.05),
        lambda: crt_pair(True, 3, 5),
        lambda: crt_pair(7, np.True_, 5),
        lambda: crt_pair(7, 3, True),
    ):
        with pytest.raises(TypeError, match="bool"):
            call()
    # numpy's integers still pass, and come back as Python ints
    assert f_exact(np.int64(100)) == f_exact(100)
    assert primes_in(np.int64(1), np.uint16(10)).tolist() == [2, 3, 5, 7]
    assert largest_prime_factor(np.int32(12)) == 3
    value = sieve.check_int(np.uint64(7), "f", "n", 1, 7)
    assert value == 7 and type(value) is int


def test_f_exact_is_deterministic():
    assert f_exact(1234) == f_exact(1234)


def test_score_monotone_in_q():
    # only the q*r branch depends on q, so larger prime divisors of r - 1
    # can never lower the score
    flags = prime_flags(10_000)
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

    flags = prime_flags(50_000)
    rng = random.Random(314)
    ns = [100, 911, 10_000, 59_049] + [rng.randrange(50, 60_000) for _ in range(60)]
    # n with prime factors among the p: 2*11*13*17*19, 2*3*5*7*11*13 and 11*13*17*19
    ns += [92_378, 30_030, 46_189]
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
    for n, message in ((0, "strategy_bv requires n >= 1"),
                       (2**65, f"strategy_bv supports n <= {2**65 - 1}"),
                       (2**66 + 1, f"strategy_bv supports n <= {2**65 - 1}")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            strategy_bv(n)
    # n is checked before eps
    with pytest.raises(ValueError, match="^strategy_bv requires n >= 1$"):
        strategy_bv(0, 0.25)


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
    with pytest.raises(ValueError, match=f"^primes_in supports lo <= {2**63 - 1}$"):
        build_rset(2**63, 2**63 + 100, 0.5)
    with pytest.raises(TypeError):
        build_rset(1.0, 100, 0.5)


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
    # [20160, 5 * 20160] is a survey-shaped window: its floor 821 exceeds
    # sqrt(hi), so the table holds only the large primes; and 821 = P(21346)
    # with 21347 prime sits exactly at the floor
    lo, hi, alpha = 20_160, 100_800, 0.677
    floor = int(power_threshold([lo], alpha)[0])
    assert floor == 821 and floor * floor > hi
    assert is_prime(21_347) and largest_prime_factor(21_346) == floor
    rset = build_rset(lo, hi, alpha)
    expected = [
        r
        for r in range(lo, hi + 1)
        if is_prime(r) and largest_prime_factor(r - 1) >= exact_threshold(r, alpha)
    ]
    assert rset.members.tolist() == expected
    assert rset.q.tolist() == [largest_prime_factor(r - 1) for r in expected]
    assert 21_347 not in rset.members


def test_power_floor_is_below_every_accepted_value():
    # build_rset uses the threshold of lo as a floor for the whole window
    rng = random.Random(17)
    cases = [(q * q, 0.5) for q in (2, 3, 97, 10007)] + [(2, 1.0), (1, 0.677), (4, 0.75)]
    cases += [(rng.randrange(1, 10**12), rng.choice((0.5, 0.62, 0.677, 0.9, 1.0))) for _ in range(300)]
    for base, exponent in cases:
        floor = int(power_threshold([base], exponent)[0])
        # the least value accepted at base, and nothing below it is accepted at a larger base
        assert floor == exact_threshold(base, exponent), (base, exponent)
        assert floor <= exact_threshold(base + 1, exponent), (base, exponent)
    # an exact power: Q is the threshold of Q**2 at 0.5
    assert power_threshold([10007**2], 0.5).tolist() == [10007]


def test_power_threshold_is_the_least_accepted_value():
    # small and survey-range windows are checked in test_survey.py; here every base up
    # to 2000, seeded bases up to 2**64 - 1, where the accepted end of the bracket is
    # clamped to the base, and exact powers at the int64 and uint64 tops, where the
    # float bracket straddles the root. Bases from 2**63 go in as uint64 (a list that
    # mixes them with smaller ones would be read as float64)
    rng = random.Random(17)
    small = range(1, 2001)
    top = sorted({rng.randrange(1, 2**64) for _ in range(300)} | {2**63 - 1, 2**63, 2**64 - 1})
    square, cube = math.isqrt(2**63 - 1), round((2**63 - 1) ** (1 / 3))
    cases = [(small, e) for e in (1 / 3, 0.5, 0.677, 0.75, 1.0)]
    cases += [(part, e) for part in (top[: top.index(2**63)], top[top.index(2**63) :])
              for e in (0.5, 0.677, 0.999, 1.0)]
    cases += [([r * r + d for d in (-1, 0, 1)], 0.5) for r in (square - 1, square, 2**32 - 1)]
    cases += [([r**3 + d for d in (-1, 0, 1)], 1 / 3) for r in (cube - 1, cube, 2642245)]
    cases += [(range(1, 9), 2**-0.5)]  # num/den = 665857/941664: powers of millions of bits
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bases, exponent in cases:
            dtype = np.uint64 if bases[-1] >= 2**63 else np.int64
            got = power_threshold(np.array(bases, dtype=dtype), exponent).tolist()
            assert got == [exact_threshold(b, exponent) for b in bases], (exponent, bases[0])
            assert got == sorted(got), (exponent, bases[0])
            if exponent == 1.0:
                assert got == list(bases)


def test_power_threshold_at_exact_powers():
    # exact powers: 4 = 8**(2/3) and 2 = (2**30)**(1/30) are accepted, and one more base
    # needs one more
    assert power_threshold([7, 8, 9], 2 / 3).tolist() == [4, 4, 5]
    assert power_threshold([2**30 - 1, 2**30, 2**30 + 1], 1 / 30).tolist() == [2, 2, 3]
    assert power_threshold([5], 0.5).tolist() == [3]  # 0, 1 and 2 lie below 5**0.5
    # the exponent is read as Fraction(exponent).limit_denominator(10**6): one below
    # 5e-7 reads as 0, and every threshold is 1
    bases = np.array([1, 2, 2**64 - 1], dtype=np.uint64)
    assert power_threshold(bases, math.ulp(0.0)).tolist() == [1, 1, 1]


def test_power_threshold_takes_only_integer_bases():
    # a float base was thresholded as if it were an integer: [4.5] gave [3.0], and
    # [5, 2**63], read as float64, gave float thresholds whatever the base's rounding
    for bases in ([4.5], np.array([5.0]), [5, 2**63], [2**64]):
        with pytest.raises(TypeError, match="int64 or uint64"):
            power_threshold(bases, 0.5)
    assert power_threshold([2**64 - 1], 0.5).tolist() == [2**32]
    assert power_threshold(np.array([5, 2**63], dtype=np.uint64), 0.5).tolist() == [3, 3037000500]


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
    with pytest.raises(ValueError, match=r"^strategy_smooth supports each rset member <= 9$"):
        strategy_smooth(10, rset, 0.5)
    with pytest.raises(ValueError):
        strategy_smooth(100, rset, 1.5)
    with pytest.raises(ValueError, match="n >= 1"):
        strategy_smooth(0, rset, 0.5)
    # n is refused from 2**64, the range of smooth_search and validate, before the scan
    for n in (2**64, 2**64 + 13, 2**80 + 1):
        with pytest.raises(ValueError, match=f"^strategy_smooth supports n <= {2**64 - 1}$"):
            strategy_smooth(n, rset, 0.5)
    w = strategy_smooth(2**64 - 1, rset, 0.5)
    assert w is not None and validate(2**64 - 1, w)


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


# alpha = 0.99 leaves every n below 3000 without a witness, so every window is visited;
# a segment of 8 caps the windows at 8 numbers, and many hits lie past the cap
@pytest.mark.parametrize(
    "alpha,c0,some_hit,segment",
    [(0.677, 0.05, True, None), (0.99, 0.05, False, None), (0.677, 0.2499, True, None),
     (0.677, 0.05, True, 8)],
    ids=["default", "alpha", "c0", "capped"],
)
def test_smooth_search_equals_the_full_rset_below_3000(monkeypatch, alpha, c0, some_hit, segment):
    if segment is not None:
        monkeypatch.setattr(sieve, "SEGMENT_LENGTH", segment)
    found = past_cap = 0
    for n in range(1, 3000):
        want = full_rset_witness(n, alpha=alpha, c0=c0)
        assert search(n, alpha=alpha, c0=c0) == want, n
        found += want is not None
        # windows of 1, 2, 4 and 8 numbers cover the first 15; later ones stay at 8
        past_cap += want is not None and want.r - math.ceil(c0 * n) >= 15
    assert (found > 0) == some_hit and found < 2999
    assert segment is None or past_cap > 0


@pytest.mark.parametrize("segment", [None, 8])
def test_rset_windows_partition_the_full_rset(monkeypatch, segment):
    if segment is not None:
        monkeypatch.setattr(sieve, "SEGMENT_LENGTH", segment)
    for lo, hi in ((1, 1), (1, 100), (37, 1000)):
        full = build_rset(lo, hi, 0.677)
        windows = list(witness._rset_windows(lo, hi, 0.677))
        assert [m for w in windows for m in w.members.tolist()] == full.members.tolist(), (lo, hi)
        assert [q for w in windows for q in w.q.tolist()] == full.q.tolist(), (lo, hi)
    assert list(witness._rset_windows(5, 4, 0.677)) == []


def test_smooth_search_equals_the_full_rset_on_seeded_n():
    rng = random.Random(12)
    ns = [rng.randint(10**4, 12 * 10**6) for _ in range(12)]
    ns += [rng.randint(10**4, 10**5) for _ in range(30)]
    for n in ns:
        w = search(n)
        assert w == full_rset_witness(n), n
        assert w is None or validate(n, w), n


def pointwise_smooth_witness(n, config):
    """The smooth strategy's first hit, one prime r of [ceil(c0 n), n // 4] at a time."""
    for r in sieve.iter_primes(max(1, math.ceil(config.c0 * n)), n // 4):
        q = largest_prime_factor(r - 1)
        if q >= exact_threshold(r, config.alpha):
            p = largest_prime_factor(n - r)
            if p >= exact_threshold(n, config.gamma):
                k = (n - r) // p
                return Witness(k, p, q, r, min(p * p * k, p * k * r, q * r))
    return None


# beyond the full RSet's reach: the windows must still give the first hit
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_smooth_search_equals_the_pointwise_first_hit_at_large_n(preset):
    config = PRESETS[preset]
    rng = random.Random(19)
    ns = [2**64 - 1] + [2**64 - 1 - rng.randrange(10**6) for _ in range(2)]
    ns += [rng.randint(10**e, 2 * 10**e) for e in (9, 12, 15, 18) for _ in range(3)]
    for n in ns:
        want = pointwise_smooth_witness(n, config)
        assert want is not None and validate(n, want), n
        assert smooth_search(n, config.alpha, config.gamma, config.c0) == want, n


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


def test_smooth_search_without_a_witness_holds_one_window():
    # alpha = 1 admits no member, so the search visits every window of [5000001, 25000001];
    # windows doubling without a cap would reach 2**24 numbers here, a peak of about 92 MiB
    tracemalloc.start()
    try:
        w = smooth_search(10**8 + 7, 1.0, 0.5, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is None
    assert peak < 16 << 20, peak


def test_smooth_search_certifies_up_to_the_top_of_the_range():
    for n in (10**18 + 7, 2**64 - 1):
        w = search(n)
        assert validate(n, w) and all(type(v) is int for v in dataclasses.astuple(w)), n
        assert math.ceil(0.05 * n) <= w.r <= n // 4


@pytest.mark.parametrize("n", [2**64, 10**30, 0, -5])
def test_smooth_search_rejects_n_outside_the_range_before_allocating(n):
    message = "requires n >= 1" if n < 1 else f"supports n <= {2**64 - 1}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            smooth_search(n, 0.677, 0.677, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"smooth_search {message}"
    assert peak < 1 << 16


def bs_experiment(**flags):
    """cli's bs-experiment, ``flags`` over --n-max 10, sizes 1 and no trial: its checks alone."""
    args = {"n_max": 10, "size_a": 1, "size_b": 1, "trials": 0, "seed": 0, "format": "json",
            "output": None}
    return cli._cmd_bs_experiment(argparse.Namespace(**{**args, **flags}))


# Every integer bound of the package, each worded by sieve.check_int: the function and the
# parameter its message names, the least and the greatest value taken (None: unbounded),
# a call with that one value set, and the edges the call is run at. Left out: survey_range
# at SCAN_MAX_N sweeps 1.5e9 n, and rset_density at 2**63 - 1 counts 2**63 numbers.
INT_BOUNDS = [
    ("largest_prime_factor", "k", 1, None, largest_prime_factor, (1,)),
    ("euler_phi", "m", 1, None, euler_phi, (1,)),
    ("mangoldt_weight", "n", 1, None, mangoldt_weight, (1,)),
    ("f_exact", "n", 1, 2**64 - 1, f_exact, (1, 2**64 - 1)),
    ("strategy_smooth", "n", 1, 2**64 - 1,
     lambda n: strategy_smooth(n, RSet(*[np.zeros(0, np.int64)] * 2), 0.5), (1, 2**64 - 1)),
    ("smooth_search", "n", 1, 2**64 - 1, lambda n: smooth_search(n, 0.677, 0.677, 0.05),
     (1, 2**64 - 1)),
    ("strategy_bv", "n", 1, 2**65 - 1, strategy_bv, (1, 2**65 - 1)),
    ("survey_range", "x", 8, SCAN_MAX_N, survey_range, (8,)),
    ("rset_density", "z", 2, 2**63 - 1, lambda z: rset_density(z, 0.5), (2,)),
    ("psi", "m", 1, None, lambda m: psi(10, m, 0), (1,)),
    ("psi", "a", 0, 6, lambda a: psi(10, 7, a), (0, 6)),
    ("max_discrepancy", "m", 1, MAX_Z, lambda m: max_discrepancy(100, m), (1, MAX_Z)),
    ("bs_max_pdiff", "each element", 1, 2**63 - 1,
     lambda v: bs_max_pdiff([v], [v + 1 if v < 2**62 else v - 1]), (1, 2**63 - 1)),
    ("bs-experiment", "--n-max", 2, 2**63 - 1, lambda v: bs_experiment(n_max=v), (2, 2**63 - 1)),
    ("bs-experiment", "--size-a", 1, 10, lambda v: bs_experiment(size_a=v), (1, 10)),
    ("bs-experiment", "--size-b", 1, 10, lambda v: bs_experiment(size_b=v), (1, 10)),
    ("bs-experiment", "--trials", 0, None, lambda v: bs_experiment(trials=v), (0,)),
]


@pytest.mark.parametrize("fn, name, lo, hi, call, accepted", INT_BOUNDS,
                         ids=[f"{row[0]}({row[1]})" for row in INT_BOUNDS])
def test_integer_bound_refused_before_allocating(fn, name, lo, hi, call, accepted):
    # one past each end and far past it, with the door's message to the byte
    refused = [(v, f"{fn} requires {name} >= {lo}") for v in (lo - 1, lo - 2**70)]
    if hi is not None:
        refused += [(v, f"{fn} supports {name} <= {hi}") for v in (hi + 1, hi + 2**70)]
    for value, message in refused:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                call(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message, value
        assert peak < 1 << 16, (value, peak)
    for value in accepted:
        call(value)


# Each strategy parameter: its range's message, the values refused (NaN, both
# infinities, each open end and a value past each closed one) and the values
# accepted (each closed end, and the float next to each open one, inside).
RANGES = {
    "alpha": ("alpha must lie in (0, 1]", (math.nan, math.inf, -math.inf, 0.0, 1.5),
              (1.0, math.ulp(0.0))),
    "gamma": ("gamma must lie in (0, 1]", (math.nan, math.inf, -math.inf, 0.0, 1.5),
              (1.0, math.ulp(0.0))),
    "c0": ("c0 must lie in (0, 1/4)", (math.nan, math.inf, -math.inf, 0.0, 0.25),
           (math.ulp(0.0), math.nextafter(0.25, 0))),
    "eps": ("eps must lie in [0, 1/4)", (math.nan, math.inf, -math.inf, -0.1, 0.25),
            (0.0, math.nextafter(0.25, 0))),
}
SEARCH_KNOBS = {"alpha": 0.677, "gamma": 0.677, "c0": 0.05}
# the five functions that take a strategy parameter: the ones each takes, and a
# call with one of them set by keyword
ENTRY_POINTS = {
    "SurveyConfig": (("alpha", "gamma", "c0", "eps"), SurveyConfig),
    "build_rset": (("alpha",), lambda alpha: build_rset(1, 100, alpha)),
    "strategy_smooth": (("gamma",), lambda gamma: strategy_smooth(100, build_rset(1, 99, 0.5), gamma)),
    "smooth_search": (("alpha", "gamma", "c0"),
                      lambda **knob: smooth_search(100, **{**SEARCH_KNOBS, **knob})),
    "strategy_bv": (("eps",), lambda eps: strategy_bv(100, eps)),
}


def assert_words_each_range(entry: str) -> None:
    """``entry`` refuses each value of ``RANGES`` that it should, with the range's
    message to the byte, and accepts the rest."""
    names, call = ENTRY_POINTS[entry]
    for name in names:
        message, refused, accepted = RANGES[name]
        for value in refused:
            with pytest.raises(ValueError) as info:
                call(**{name: value})
            assert str(info.value) == message, (name, value)
        for value in accepted:
            call(**{name: value})


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
    assert_words_each_range("smooth_search")
    for knobs, name in (((0.0, 0.0, 0.0), "alpha"), ((0.5, 0.0, 0.0), "gamma")):
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            smooth_search(100, *knobs)  # checked in the order of the parameters


# SurveyConfig's own test in test_survey.py, and the one above, cover the other two
@pytest.mark.parametrize("entry", ["build_rset", "strategy_smooth", "strategy_bv"])
def test_every_entry_point_words_each_range_alike(entry):
    assert_words_each_range(entry)
