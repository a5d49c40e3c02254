#!/usr/bin/env python3
"""Chebyshev psi over progressions and its worst-case discrepancy.

Shows the raw ingredients behind the progression-based witness strategy:

  1. psi(y; m, a) against its expected line y/phi(m);
  2. exact per-modulus discrepancy suprema (jump/left-limit candidates);
  3. the averaged discrepancy sum over moduli up to sqrt(z)/log z, with the
     scaled values that the asymptotic average is about.

Runs in a few seconds. Output is deterministic.
"""

import math

from edgebudget import bv_sum, euler_phi, max_discrepancy, psi
from edgebudget.dirichlet import bv_cutoff


def banner(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def main():
    banner("1. psi(y; m, a) versus y / phi(m)")
    m = 4
    print(f"  modulus m = {m}, phi(m) = {euler_phi(m)}")
    print(f"  {'y':>6} {'psi(y;4,1)':>12} {'psi(y;4,3)':>12} {'y/phi':>8}")
    for y in (10, 50, 100, 500, 1000):
        print(
            f"  {y:>6} {psi(y, 4, 1):>12.4f} {psi(y, 4, 3):>12.4f} {y / 2:>8.1f}"
        )
    print("  both coprime classes track y/2, with visible wobble: that wobble")
    print("  is what the discrepancy supremum measures.")

    banner("2. Worst-case discrepancy per modulus (z = 1000)")
    print(f"  {'m':>4} {'worst_a':>8} {'worst_y':>10} {'sup':>10} {'left?':>6}")
    for m in (1, 2, 3, 4, 6, 12, 17, 30):
        rec = max_discrepancy(1000, m)
        side = "y->-" if rec.is_left_limit else "at y"
        print(
            f"  {rec.m:>4} {rec.worst_a:>8} {rec.worst_y:>10.0f} "
            f"{rec.sup_value:>10.4f} {side:>6}"
        )
    print("  suprema sit at prime-power jumps, usually as the left limit just")
    print("  before a long gap ends.")

    banner("3. Averaged discrepancy over moduli (cutoff sqrt(z)/(log z)^B)")
    print(f"  {'z':>8} {'cutoff':>7} {'bv_sum(z,1)':>12} {'scaled: *log z/z':>17}")
    for z in (10**3, 10**4, 10**5):
        cutoff = bv_cutoff(z, 1)
        total = bv_sum(z, 1)
        print(f"  {z:>8} {cutoff:>7} {total:>12.3f} {total * math.log(z) / z:>17.6f}")
    print("  with the cutoff exponent fixed at B = 1 the scaled average hovers")
    print("  near a constant at these heights: per-modulus suprema grow like")
    print("  ~0.5 sqrt(z) while the modulus count grows like sqrt(z)/log z.")
    print("  The averaged bound only bites when B grows with the decay target.")

    banner("4. The sum is monotone in B for fixed z")
    z = 10**4
    print(f"  {'B':>5} {'cutoff':>7} {'bv_sum':>12}")
    for b in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0):
        cutoff = bv_cutoff(z, b)
        print(f"  {b:>5.1f} {cutoff:>7} {bv_sum(z, b):>12.3f}")


if __name__ == "__main__":
    main()
