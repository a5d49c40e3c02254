import dataclasses
import json
import math
import random
from functools import lru_cache
from math import fsum, gcd

import numpy as np
import pytest

from edgebudget import bv_sum, euler_phi, mangoldt_weight, max_discrepancy, primes_in, psi
from edgebudget.dirichlet import DISCREPANCY_CSV_HEADER, MAX_Z, DiscrepancyRecord


def brute_force_sup(z, m):
    """Scan every integer y plus every left limit, pointwise Lambda values."""
    phi = euler_phi(m)
    residues = [0] if m == 1 else [a for a in range(1, m) if gcd(a, m) == 1]
    lam = [0.0] + [mangoldt_weight(n) for n in range(1, math.floor(z) + 1)]
    best = -1.0
    for a in residues:
        acc = 0.0
        prev = 0.0
        for y in range(1, math.floor(z) + 1):
            if y % m == a:
                acc = fsum([acc, lam[y]])
            best = max(best, abs(prev - y / phi), abs(acc - y / phi))
            prev = acc
        best = max(best, abs(acc - z / phi))
    return best


def test_psi_examples():
    assert psi(10, 1, 0) == pytest.approx(math.log(2520), abs=1e-9)
    assert psi(10, 3, 1) == pytest.approx(math.log(14), abs=1e-9)
    assert psi(1, 7, 3) == 0.0
    assert psi(0.5, 1, 0) == 0.0
    assert psi(10, 10**20, 7) == math.log(7)  # a modulus beyond int64


def test_numpy_ints_give_the_int_result():
    # a modulus or residue taken from a numpy array acts like the int it holds
    want, got = max_discrepancy(1000, 7), max_discrepancy(1000, np.int64(7))
    assert got == want and type(got.m) is int
    assert json.dumps(dataclasses.asdict(got)) == json.dumps(dataclasses.asdict(want))
    assert psi(1000, np.int64(7), np.int64(3)) == psi(1000, 7, 3)
    assert psi(1000, np.int64(1), np.int64(0)) == psi(1000, 1, 0)
    with pytest.raises(TypeError):
        max_discrepancy(1000, 7.0)
    with pytest.raises(TypeError):
        psi(1000, 7, 3.0)


def test_psi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        psi(10, 3, 5)
    with pytest.raises(ValueError):
        psi(10, 3, -1)
    with pytest.raises(ValueError):
        psi(10, 0, 0)
    with pytest.raises(ValueError):
        psi(0, 3, 1)


@pytest.mark.parametrize("y", [10, 100, 10_000])
@pytest.mark.parametrize("m", [1, 2, 3, 12, 30, 49, 50])
def test_psi_partition_identity(y, m):
    total = fsum(psi(y, m, a) for a in range(m))
    assert total == pytest.approx(psi(y, 1, 0), abs=1e-9)


def test_psi_partition_identity_full_modulus_sweep():
    y = 10_000
    whole = psi(y, 1, 0)
    for m in range(1, 51):
        total = fsum(psi(y, m, a) for a in range(m))
        assert total == pytest.approx(whole, abs=1e-9), m


def test_max_discrepancy_worked_examples():
    rec = max_discrepancy(10, 3)
    assert rec.sup_value == pytest.approx(3.5 - math.log(2), abs=1e-9)
    assert (rec.worst_a, rec.worst_y, rec.is_left_limit) == (1, 7.0, True)

    rec = max_discrepancy(10, 1)
    assert rec.sup_value == pytest.approx(7 - math.log(60), abs=1e-9)
    assert (rec.worst_a, rec.worst_y, rec.is_left_limit) == (0, 7.0, True)


def test_max_discrepancy_below_first_prime():
    # psi vanishes below 2, so the supremum is the endpoint z / phi(m)
    rec = max_discrepancy(1.5, 4)
    assert rec.sup_value == pytest.approx(0.75, abs=1e-12)
    assert rec.worst_y == 1.5 and not rec.is_left_limit
    rec = max_discrepancy(1.0, 1)
    assert rec.sup_value == pytest.approx(1.0, abs=1e-12)


def test_max_discrepancy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        max_discrepancy(10, 0)
    with pytest.raises(ValueError):
        max_discrepancy(0.5, 3)


@pytest.mark.parametrize("z", [10, 99.5, 400])
@pytest.mark.parametrize("m", [1, 2, 5, 6, 12, 17, 20])
def test_max_discrepancy_matches_brute_force(z, m):
    assert max_discrepancy(z, m).sup_value == pytest.approx(brute_force_sup(z, m), abs=1e-9)


def test_max_discrepancy_record_dominates_every_class(s=250):
    rec = max_discrepancy(s, 12)
    assert gcd(rec.worst_a, 12) == 1
    for a in (1, 5, 7, 11):
        assert rec.sup_value >= abs(psi(s, 12, a) - s / euler_phi(12)) - 1e-12


def test_bv_sum_worked_examples():
    assert bv_sum(10, 1) == pytest.approx(7 - math.log(60), abs=1e-9)
    assert bv_sum(3, 12) == 0.0  # cutoff below 1: empty sum
    direct = fsum(max_discrepancy(100, m).sup_value for m in range(1, 11))
    assert bv_sum(100, 0) == pytest.approx(direct, abs=1e-9)
    # per-modulus hand candidates for m = 1 and m = 2 at z = 100
    assert max_discrepancy(100, 1).sup_value == pytest.approx(brute_force_sup(100, 1), abs=1e-9)
    assert max_discrepancy(100, 2).sup_value == pytest.approx(brute_force_sup(100, 2), abs=1e-9)


def test_bv_sum_nonincreasing_in_b():
    values = [bv_sum(200, b) for b in (0.0, 0.5, 1.0, 2.0, 12.0)]
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_bv_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bv_sum(2, 1)
    with pytest.raises(ValueError):
        bv_sum(10, -1)


@lru_cache(maxsize=None)
def reference_jumps(top):
    out = []
    for p in primes_in(2, top).tolist() if top >= 2 else []:
        j = p
        while j <= top:
            out.append((j, math.log(p)))
            j *= p
    return sorted(out)


def reference_max_discrepancy(z, m):
    """Per-class loop over the jumps with a Neumaier running sum, first strict maximum wins."""
    inv_phi = 1.0 / euler_phi(m)
    residues = [0] if m == 1 else [a for a in range(1, m) if gcd(a, m) == 1]
    by_class = {a: [] for a in residues}
    for j, lg in reference_jumps(math.floor(z)):
        if j % m in by_class:
            by_class[j % m].append((j, lg))
    sup, worst_a, worst_y, left = -1.0, residues[0], float(z), False
    for a in residues:
        total = comp = 0.0
        for j, lg in by_class[a]:
            target = j * inv_phi
            v = abs((total + comp) - target)
            if v > sup:
                sup, worst_a, worst_y, left = v, a, float(j), True
            t = total + lg
            if abs(total) >= abs(lg):
                comp += (total - t) + lg
            else:
                comp += (lg - t) + total
            total = t
            v = abs((total + comp) - target)
            if v > sup:
                sup, worst_a, worst_y, left = v, a, float(j), False
        v = abs((total + comp) - z * inv_phi)
        if v > sup:
            sup, worst_a, worst_y, left = v, a, float(z), False
    return DiscrepancyRecord(m, worst_a, worst_y, sup, left)


def test_max_discrepancy_matches_reference_loop_small_z():
    for m in range(1, 61):
        assert max_discrepancy(1e4, m) == reference_max_discrepancy(1e4, m), m
    # tiny z: candidates tie exactly (e.g. a left limit j/phi(m) and an endpoint z/phi(m))
    for z in (k / 2 for k in range(2, 81)):
        for m in range(1, 13):
            assert max_discrepancy(z, m) == reference_max_discrepancy(z, m), (z, m)


def test_max_discrepancy_matches_reference_loop_large_z():
    rng = random.Random(61)
    for _ in range(20):
        z, m = rng.uniform(5.8e5, 6.2e5), rng.randrange(1000, 10_001)
        assert max_discrepancy(z, m) == reference_max_discrepancy(z, m), (z, m)


def test_discrepancy_kernels_reject_z_beyond_exact_limit():
    with pytest.raises(ValueError):
        max_discrepancy(MAX_Z + 1, 3)
    with pytest.raises(ValueError):
        psi(MAX_Z + 1, 3, 1)
    with pytest.raises(ValueError):
        bv_sum(MAX_Z + 1, 1)


def test_discrepancy_kernels_reject_nan_naming_the_parameter():
    # NaN fails every comparison, so each range check is written to fail on it
    with pytest.raises(ValueError, match="y must be positive"):
        psi(math.nan, 3, 1)
    with pytest.raises(ValueError, match="z must be at least 1"):
        max_discrepancy(math.nan, 3)
    with pytest.raises(ValueError, match="z >= 3"):
        bv_sum(math.nan, 1)
    with pytest.raises(ValueError, match="y must be at most"):
        psi(math.inf, 3, 1)


def test_discrepancy_csv_row():
    rec = max_discrepancy(10, 3)
    assert DISCREPANCY_CSV_HEADER == "m,worst_a,worst_y,sup_value,is_left_limit"
    assert rec.csv_row() == "3,1,7,2.80685282,1"
