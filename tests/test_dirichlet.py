import dataclasses
import json
import math
import random
import tracemalloc
from functools import lru_cache
from math import fsum, gcd

import numpy as np
import pytest

from edgebudget import (
    bv_sum,
    dirichlet,
    euler_phi,
    max_discrepancy,
    primes_in,
    psi,
)
from edgebudget.dirichlet import MAX_Z, DiscrepancyRecord, bv_cutoff, prime_power_jumps
from oracles import brute_force_sup


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
    # nor does a bool: psi(10, True, 0) used to be psi(10), and max_discrepancy(10, True) a record
    for flag in (True, np.True_):
        for call in (lambda: max_discrepancy(10, flag), lambda: psi(10, flag, 0), lambda: psi(10, 3, flag)):
            with pytest.raises(TypeError, match="bool"):
                call()


def test_psi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        psi(10, 3, 5)
    with pytest.raises(ValueError):
        psi(10, 3, -1)
    with pytest.raises(ValueError):
        psi(10, 0, 0)
    with pytest.raises(ValueError):
        psi(0, 3, 1)
    # m and a are checked before y
    with pytest.raises(ValueError, match="^psi supports a <= 2$"):
        psi(0, 3, 3)


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


def test_bv_cutoff_values_and_domain():
    assert bv_cutoff(10, 1) == 1  # sqrt(10) / log 10 = 1.37
    assert bv_cutoff(1000, 1) == 4  # 31.6 / 6.91 = 4.58
    assert bv_cutoff(10, 1e308) == 0  # (log 10)**B overflows: the quotient is below 1
    for z, B, message in (
        (1, 1, "z >= 3"),  # log 1 = 0 would divide by zero
        (0.5, 1, "z >= 3"),  # log 0.5 < 0 would give a negative cutoff
        (math.nan, 1, "z >= 3"),
        (10, -1, "B must be"),
        (10, math.nan, "B must be"),
        (10, math.inf, "B must be"),
        (MAX_Z + 1, 1, "z must be at most"),
        (math.inf, 1, "z must be at most"),
    ):
        with pytest.raises(ValueError, match=message):
            bv_cutoff(z, B)
        with pytest.raises(ValueError, match=message):
            bv_sum(z, B)


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
    """Per-class loop over the jumps with a Neumaier running sum, first strict maximum wins.

    The loop visits the coprime classes that hold a jump and the least coprime class
    that holds none, if there is one: every class without a jump scores z/phi(m) at
    y = z, so no later one can be a first strict maximum. So m = MAX_Z costs no more
    than its jumps.
    """
    inv_phi = 1.0 / euler_phi(m)
    by_class = {}
    for j, lg in reference_jumps(math.floor(z)):
        if gcd(j % m, m) == 1:  # class 0 is coprime when m = 1
            by_class.setdefault(j % m, []).append((j, lg))
    empty = next((a for a in range(m) if gcd(a, m) == 1 and a not in by_class), None)
    residues = sorted(by_class) if empty is None else sorted([*by_class, empty])
    sup, worst_a, worst_y, left = -1.0, residues[0], float(z), False
    for a in residues:
        total = comp = 0.0
        for j, lg in by_class.get(a, []):
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


# one z in the discrepancy benchmark's range; bv_sum(Z_BV, 1) visits m = 1..57
Z_BV = random.Random(57).uniform(5.8e5, 6.2e5)


def test_max_discrepancy_matches_reference_loop_at_bv_sum_moduli():
    for m in [*range(1, 13), 57, 58]:
        assert max_discrepancy(Z_BV, m) == reference_max_discrepancy(Z_BV, m), m


@pytest.mark.parametrize(
    "m",
    [2**16, 2**16 + 1, 2**17 + 1, MAX_Z],
    ids=["32-bit keys", "64-bit keys", "64-bit keys, classes past 2**16", "every jump its own class"],
)
@pytest.mark.parametrize("z", [1.5, Z_BV], ids=["no jumps", "Z_BV"])
def test_max_discrepancy_matches_reference_loop_at_both_key_widths(z, m):
    # the kernel sorts keys class << b | index, b = 16 bits of index at Z_BV: uint32 keys
    # up to m = 2**16, uint64 keys beyond
    assert (len(prime_power_jumps(Z_BV)) - 1).bit_length() == 16
    assert max_discrepancy(z, m) == reference_max_discrepancy(z, m)


def test_bv_sum_pinned_value():
    # the exact sum at one z: a change to the kernel's arithmetic must not move a bit
    assert bv_sum(Z_BV, 1).hex() == "0x1.891adc9a13995p+14"


def test_kernels_pinned_at_larger_z():
    # bit-exact values past test_cli.GOLDEN's z = 1000, where its 9 digits could hide a change
    assert psi(20000000.5, 7, 3) == 3333847.225906406
    assert max_discrepancy(2e7, 7) == DiscrepancyRecord(7, 1, 9721573.0, 2202.7090852088295, True)
    assert bv_sum(2e6, 1) == 76375.27126004107


@pytest.mark.parametrize("z", [3, 10, 100, 1000.5, Z_BV])
@pytest.mark.parametrize("B", [0, 0.5, 1])
def test_bv_sum_is_the_fsum_of_max_discrepancy(z, B):
    # bv_sum runs the per-modulus kernel itself, every modulus in one workspace
    sups = (max_discrepancy(z, m).sup_value for m in range(1, bv_cutoff(z, B) + 1))
    assert bv_sum(z, B) == fsum(sups)


# The ceiling on the kernel's tracemalloc peak, in bytes per jump beside the cached
# table: max_discrepancy(Z_BV, 57) and bv_sum(Z_BV, 1) peak at 41.5 to 42.5 (1987112
# to 2036248 bytes over 47916 jumps; the first call in a process also caches factor's
# small primes), the workspace's five int64 rows and about 64 kB of numpy's cast
# buffer. The margin of 2.5 (6%) stays below the 8 of one more int64 word per jump.
PEAK_BYTES_PER_JUMP = 45.0


@pytest.mark.parametrize(
    "run", [lambda: max_discrepancy(Z_BV, 57), lambda: bv_sum(Z_BV, 1)], ids=["max_discrepancy", "bv_sum"]
)
def test_discrepancy_kernel_peak_memory_per_jump(run):
    jumps = len(prime_power_jumps(Z_BV))  # the table is built, and cached, before tracing
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_PER_JUMP * jumps


def test_discrepancy_kernel_allocates_nothing_per_jump_in_its_workspace():
    # with the workspace given, a modulus allocates only arrays over its classes and
    # numpy's fixed cast buffer: under 2 bytes per jump, where one int64 word is 8. One
    # call first, so that factor's cached small primes are not counted
    jumps = prime_power_jumps(Z_BV)
    work = dirichlet._workspace(jumps)
    dirichlet._discrepancy(jumps, Z_BV, 1, work)
    tracemalloc.start()
    try:
        for m in range(1, 59):
            dirichlet._discrepancy(jumps, Z_BV, m, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(jumps)


def test_jump_table_build_peaks_at_48_bytes_per_jump():
    # the build: the primes, their logs as floats and log_each's list of
    # Python floats are its peak; one full-length array more would pass 56
    build = dirichlet._jumps_upto
    tracemalloc.start()
    try:
        jumps = build(math.floor(Z_BV))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * len(jumps), peak / len(jumps)
    # the table itself, where the inserted powers crowd the primes: exact weights log p
    for top in [*range(0, 130), 5000]:
        table = build(top)
        got = zip(table.j.tolist(), table.w.tolist())
        assert [(j, w / 2**53) for j, w in got] == reference_jumps(top), top


def test_kept_table_holds_16_bytes_per_jump():
    # one int64 word for the prime power and one for its weight, and nothing else
    jumps = prime_power_jumps(Z_BV)
    fields = dataclasses.fields(jumps)
    assert sum(getattr(jumps, f.name).nbytes for f in fields) == 16 * len(jumps)
    assert [f.name for f in fields] == ["j", "w"]


def test_a_smaller_z_reads_a_prefix_of_the_kept_table():
    kept = prime_power_jumps(Z_BV)
    for top in [*range(0, 131), 5000, 10**5]:
        got, fresh = prime_power_jumps(top + 0.5), dirichlet._jumps_upto(top)
        for name in ("j", "w"):
            view, want = getattr(got, name), getattr(fresh, name)
            assert np.array_equal(view, want), (top, name)
            assert view.size == 0 or np.shares_memory(view, getattr(kept, name)), (top, name)
    # so a smaller z builds nothing: one table per call would take 48 bytes per jump
    tracemalloc.start()
    try:
        sizes = [len(prime_power_jumps(z)) for z in (10**5, Z_BV - 1, 7.5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes[0] == 9700 and sizes[2] == 5 and peak < 1 << 16, peak


def test_bv_sum_with_empty_cutoff_returns_before_allocating():
    # at z = 2**31 the jump table alone would take 2.5 GB
    tracemalloc.start()
    try:
        assert bv_sum(2**31, 1e308) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_cached_jump_table_is_read_only():
    before = psi(100, 1, 0), max_discrepancy(100, 3)
    jumps = prime_power_jumps(100)
    assert len(jumps) == 35  # 25 primes and 10 higher prime powers
    for array in (jumps.j, jumps.w):
        with pytest.raises(ValueError):
            array[:] = 0
    again = prime_power_jumps(100.5)
    for array, same in zip((jumps.j, jumps.w), (again.j, again.w)):
        assert np.shares_memory(array, same) and np.array_equal(array, same)
    assert (psi(100, 1, 0), max_discrepancy(100, 3)) == before
    assert before[0] == pytest.approx(94.045, abs=1e-3)


@pytest.mark.parametrize("m", [MAX_Z + 1, 10**10])
def test_max_discrepancy_rejects_m_beyond_limit_before_allocating(m):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            max_discrepancy(100, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"max_discrepancy supports m <= {MAX_Z}"
    assert peak < 1 << 16


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

