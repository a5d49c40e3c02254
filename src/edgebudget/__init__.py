"""edgebudget
==========

Edge-budget certificates for sparse-graph evasiveness, and the
prime-distribution experiments behind them.

The central object is the arithmetic function

    f(n) = max min{p^2 k, p k r, q r}

over quadruples (k, p, q, r) of an integer k >= 1 and primes p, q, r with
n = k p + r and r = 1 (mod q). Any single quadruple is a self-contained,
checkable certificate that f(n) is at least its score, and f(n) is the edge
budget below which a monotone property of n-vertex graphs is guaranteed
evasive (up to an absolute constant).

The package computes f exactly for small n, finds certificate witnesses for
large n by two constructive strategies, and runs the supporting experiments:
worst-case Chebyshev psi discrepancies and their Bombieri-Vinogradov-style
average, densities of primes r with a large prime factor in r - 1, and the
largest prime factor over difference sets.

Quick start
-----------

.. code:: python

    from edgebudget import f_exact, strategy_bv, survey_range, validate

    value, w = f_exact(10)      # (10, Witness(k=1, p=5, q=2, r=5, score=10))
    w = strategy_bv(10**6)      # certificate for a large n
    assert validate(10**6, w)
    report = survey_range(10**4)  # columns n, tag, k, p, q, r, score, beta
    report.n[report.tag == 0]   # the exceptional n
    report.beta_stats           # (min, median, mean) exponent, or None

``validate`` is the one check of a certificate. The same operations are
exposed as ``edgebudget`` CLI subcommands emitting JSON or CSV; see the
repository README.
"""

from .dirichlet import DiscrepancyRecord, bv_sum, max_discrepancy, psi
from .factor import euler_phi, largest_prime_factor, lpf_table, mangoldt_weight
from .sieve import is_prime, primes_in
from .survey import (
    PRESETS,
    SurveyConfig,
    SurveyReport,
    bs_max_pdiff,
    rset_density,
    survey_range,
)
from .witness import (
    RSet,
    Witness,
    build_rset,
    crt_pair,
    f_exact,
    smooth_search,
    strategy_bv,
    strategy_smooth,
    validate,
    witness_json,
)

__version__ = "0.1.0"

__all__ = [
    "DiscrepancyRecord",
    "PRESETS",
    "RSet",
    "SurveyConfig",
    "SurveyReport",
    "Witness",
    "bs_max_pdiff",
    "build_rset",
    "bv_sum",
    "crt_pair",
    "euler_phi",
    "f_exact",
    "is_prime",
    "largest_prime_factor",
    "lpf_table",
    "mangoldt_weight",
    "max_discrepancy",
    "primes_in",
    "psi",
    "rset_density",
    "smooth_search",
    "strategy_bv",
    "strategy_smooth",
    "survey_range",
    "validate",
    "witness_json",
]
