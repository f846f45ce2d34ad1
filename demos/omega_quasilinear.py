"""omega-primality: the dynamic scan and its eventual straight-line shape.

For large n, omega(n) = n/n1 + a(n mod n1) with exact rational offsets
a.  One omega table finds the offsets, the threshold past which the formula is
guaranteed, and the element where the behavior empirically begins (the
dissonance, usually far below the threshold).  Past the threshold,
omega of astronomically large elements costs nothing.

    python demos/omega_quasilinear.py
"""

import time

from numfac import (NumericalMonoid, dynamic_bullets, omega, omega_extrapolate, omega_up_to,
                    quasilinear_model)

S = NumericalMonoid([6, 9, 20])

print(f"S = {S}")
print("\nomega over the quotient group (note the zero tail below -F(S) = -43):")
values = omega_up_to(S, 30, domain="quotient")
for m in range(-46, 31):
    w = values.get(m, 0)
    marker = "in S" if S.contains(m) else ""
    print(f"  omega({m:3d}) = {w:3d} {marker}")

model = quasilinear_model(S)
print(f"\nQuasilinear model: omega(n) = n/{model.n1} + a(n mod {model.n1}) "
      f"for n > {model.threshold}")
print(f"offsets a: {[str(o) for o in model.offsets]}")
print(f"dissonance (empirical start): {model.dissonance}")

print("\nExtrapolation vs direct dynamic scan:")
for n in (104 + 6, 1000, 25000):
    direct = max(length for _, length in dynamic_bullets(S, n))
    fast = omega_extrapolate(model, n)
    assert direct == fast == omega(S, n)
    print(f"  omega({n}) = {fast} (both routes)")

print("\nConstant-time answers for huge elements:")
t0 = time.perf_counter()
huge = omega_extrapolate(model, 10**15)
print(f"  omega(10^15) = {huge}   [{(time.perf_counter() - t0) * 1e6:.0f} us]")

print("\nA five-generator example:")
T = NumericalMonoid([10, 12, 15, 16, 17])
mt = quasilinear_model(T)
t0 = time.perf_counter()
direct = omega(T, 50000)
dt = time.perf_counter() - t0
print(f"  omega(50000) = {direct}   [{dt:.2f}s]")
print(f"  extrapolated from threshold {mt.threshold}: "
      f"{omega_extrapolate(mt, 50000)}")
