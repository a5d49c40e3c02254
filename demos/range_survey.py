#!/usr/bin/env python3
"""Range surveys: exceptional sets, shifted-prime densities, difference sets.

The large-n story in three experiments:

  1. a witness survey over [x/2, x] with the default thresholds
     (alpha = gamma = 0.677), reporting the exceptional n and the empirical
     exponent distribution;
  2. the density of primes r <= z with P(r-1) > r^alpha, against the
     Dickman-heuristic expectation -log(alpha);
  3. the largest prime factor over a difference set A - B, which is what
     keeps the exceptional set small.

Runs in ~10 seconds. Output is deterministic (fixed seed).
"""

import math
import random

from edgebudget import (
    PRESETS,
    SurveyConfig,
    bs_max_pdiff,
    rset_density,
    survey_range,
)


def banner(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def main():
    banner("1. Witness survey over [x/2, x]")
    for x in (1000, 10_000):
        report = survey_range(x, SurveyConfig())
        lo, med, mean = report.beta_stats
        exceptional = report.n[report.tag == 0].tolist()
        print(f"  x = {x}: {report.n.size} values of n, "
              f"{report.exceptional_count} exceptional")
        print(f"           beta min/median/mean = {lo:.4f} / {med:.4f} / {mean:.4f}")
        if exceptional:
            shown = ", ".join(str(n) for n in exceptional[:8])
            more = " ..." if len(exceptional) > 8 else ""
            print(f"           exceptional n: {shown}{more}")
    print("  the exceptional fraction shrinks as x grows; scores cluster")
    print("  around n^(1 + gamma).")

    banner("2. Preset comparison at x = 10_000")
    for name, config in PRESETS.items():
        report = survey_range(10_000, config)
        _, med, _ = report.beta_stats
        print(f"  {name}: gamma = {config.gamma}, median beta = {med:.4f}, "
              f"exceptional = {report.exceptional_count}")
    print("  lowering gamma makes qualification easier (fewer exceptional n)")
    print("  at the price of a weaker certified exponent.")

    banner("3. Density of rough shifted primes")
    print(f"  {'z':>8} {'alpha':>6} {'count':>7} {'count/(z/log z)':>16} {'heuristic':>10}")
    for z, alpha in ((10**5, 0.5), (10**5, 0.677), (10**6, 0.677), (10**6, 0.9)):
        count, ratio = rset_density(z, alpha)
        print(f"  {z:>8} {alpha:>6} {count:>7} {ratio:>16.4f} {-math.log(alpha):>10.4f}")
    print("  the count stays a positive proportion of all primes, matching the")
    print("  Dickman-heuristic rate -log(alpha) reasonably well already here.")

    banner("4. Largest prime factor over a difference set")
    rng = random.Random(20_26)
    n_max = 10_000
    for size in (60, 400, 1200):
        a_vals = rng.sample(range(1, n_max + 1), size)
        b_vals = rng.sample(range(1, n_max + 1), size)
        max_p, (a, b) = bs_max_pdiff(a_vals, b_vals)
        floor = 0.05 * size / math.log(n_max)
        print(f"  #A = #B = {size:>5}: max P(a-b) = {max_p:>5} at |{a} - {b}|, "
              f"floor 0.05 sqrt(#A #B)/log N = {floor:.1f}")
    print("  even modest set pairs force a difference with a huge prime")
    print("  factor, far above the guaranteed floor.")


if __name__ == "__main__":
    main()
