"""Eventual periodicity of per-element delta sets.

Delta(m) jumps around for small m, then settles into a periodic pattern.
This script prints the pattern for S = <6, 9, 20>, detects where it
starts and what the period is, and assembles the monoid-wide delta set
with the proven bound and with a known sharper bound as the scan limit.

    python demos/delta_periodicity_scan.py
"""

import time

from numfac import (
    NumericalMonoid,
    delta_of_lengths,
    delta_periodicity,
    delta_scan_bound,
    delta_set,
    length_sets_up_to,
)

S = NumericalMonoid([6, 9, 20])

print(f"S = {S}, lcm(n1, nk) = {S.period_hint}")
print("\nDelta(m) for the elements around the start of periodic behavior:")
deltas = {}
for m, L in length_sets_up_to(S, 160):
    deltas[m] = delta_of_lengths(L) if len(L) > 1 else ()
for m in range(84, 132):
    if m in deltas:
        print(f"  Delta({m:3d}) = {set(deltas[m]) or '{}'}")

report = delta_periodicity(S, delta_scan_bound(S) + S.period_hint)
print(f"\nDetected period: {report.period} (divides lcm = {S.period_hint})")
print(f"Last dissonant element: {report.dissonance_start}")
print(f"(Delta(m) = Delta(m + {report.period}) for every element m > "
      f"{report.dissonance_start} up to {report.verified_up_to - report.period})")

print(f"\nWhole-monoid delta set; the scan stops at a certified repeat of the "
      f"length-set state, or at the proven bound {delta_scan_bound(S)}:")
t0 = time.perf_counter()
d = delta_set(S)
print(f"  Delta(S) = {set(d)}   [{time.perf_counter() - t0:.2f}s]")

print("A known periodicity-start bound (144 for this monoid) caps the scan sooner:")
t0 = time.perf_counter()
d2 = delta_set(S, bound_override=144)
print(f"  Delta(S) = {set(d2)}   [{time.perf_counter() - t0:.4f}s]")
assert d == d2

print("\nLarger monoids, each with its known sharper bound:")
for gens, bound in [((51, 53, 55, 117), 9699), ((11, 53, 73, 87), 14381),
                    ((100, 121, 142, 163, 284), 24850)]:
    T = NumericalMonoid(gens)
    t0 = time.perf_counter()
    d = delta_set(T, bound_override=bound)
    print(f"  Delta(<{','.join(map(str, gens))}>) = {set(d)}"
          f"   [{time.perf_counter() - t0:.2f}s]")
