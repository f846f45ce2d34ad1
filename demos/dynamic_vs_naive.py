"""Why the dynamic algorithms matter: one pass instead of n restarts.

Computing a single factorization set is cheap.  Computing all of them up
to n is where the one-step recurrences win: each element reuses the
window of the previous nk results, so the whole sweep costs little more
than the largest single set, and length sets never materialize
factorizations at all.

    python demos/dynamic_vs_naive.py
"""

import time

from numfac import (
    NumericalMonoid,
    brute_force_factorizations,
    bullets_brute_force,
    factorizations_up_to,
    length_sets_up_to,
    omega_up_to,
)

S = NumericalMonoid([10, 17, 19, 25, 31])
# each naive loop rebuilds a grid for every element, so at 700 they would
# take seconds
N = 300

print(f"S = {S}, sweeping m = 0..{N}\n")

t0 = time.perf_counter()
total = sum(len(Z) for _, Z in factorizations_up_to(S, N))
dyn = time.perf_counter() - t0
print(f"dynamic factorization sweep: {total} vectors in {dyn * 1000:7.1f} ms")

t0 = time.perf_counter()
total_naive = sum(len(brute_force_factorizations(S, m)) for m in range(N + 1))
naive = time.perf_counter() - t0
assert total == total_naive
print(f"naive per-element restart:   {total_naive} vectors in {naive * 1000:7.1f} ms")

t0 = time.perf_counter()
lengths_count = sum(len(L) for _, L in length_sets_up_to(S, N))
lt = time.perf_counter() - t0
print(f"\nlength-set sweep (no factorizations stored): "
      f"{lengths_count} lengths in {lt * 1000:.1f} ms")

t0 = time.perf_counter()
w = omega_up_to(S, N)
wd = time.perf_counter() - t0
print(f"omega one-pass sweep over [-{S.frobenius}, {N}]: {wd * 1000:.1f} ms")

t0 = time.perf_counter()
bullets = [bullets_brute_force(S, x) for x in range(0, N + 1)]
wn = time.perf_counter() - t0
# omega(x) is the largest bullet length of x
assert w == {x: max(map(sum, bullets[x])) for x in range(N + 1) if S.contains(x)}
print(f"omega via per-element bullet enumeration:  {wn * 1000:.1f} ms")

print(f"\nspeedups: factorizations x{naive / dyn:.1f}, omega x{wn / wd:.1f}")
