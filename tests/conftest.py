"""Fixtures that every test file shares."""

import math

import pytest

from edgebudget import dirichlet


@pytest.fixture(autouse=True)
def fresh_jump_table():
    """Drop the jump table ``dirichlet`` keeps after each test.

    The module keeps the largest table asked for in the process (160 MB at
    z = 123456789.5), so without this every later test would inherit the
    memory, and the prefix views, of whichever test came first.
    """
    yield
    dirichlet._kept = -math.inf, None
