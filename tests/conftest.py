"""Fixtures that every test file shares."""

import math
import time

import pytest

from edgebudget import dirichlet
from oracles import naive_edge_budget, prime_divisor_lists, prime_flags


@pytest.fixture(autouse=True)
def fresh_jump_table():
    """Drop the jump table ``dirichlet`` keeps after each test.

    The module keeps the largest table asked for in the process (160 MB at
    z = 123456789.5), so without this every later test would inherit the
    memory, and the prefix views, of whichever test came first.
    """
    yield
    dirichlet._kept = -math.inf, None


@pytest.fixture(scope="session")
def naive_to_2000():
    """({n: f(n)} for n <= 2000 by the naive all-(k, p, q) oracle, seconds of that pass).

    The oracle is the slowest reference in the suite; one pass serves every
    test that needs its values.
    """
    flags = prime_flags(2000)
    divs = prime_divisor_lists(2000, flags)
    t0 = time.perf_counter()
    values = {n: naive_edge_budget(n, flags, divs)[0] for n in range(1, 2001)}
    return values, time.perf_counter() - t0
