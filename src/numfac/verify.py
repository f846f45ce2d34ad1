"""Cross-checks between the dynamic algorithms and independent oracles.

Every dynamic computation in this package has a slow, structurally
unrelated counterpart (bounded enumeration).  The checks here sweep both
over a range and count disagreements; they back the ``numfac verify``
command and the property-test suite.  All ranges are desk-scale by
design: the oracles are exponential in the number of generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delta import _d_min, _mask_gaps, delta_scan_bound
from .factorization import (
    _length_masks_up_to,
    _mask_to_lengths,
    brute_force_factorizations,
    factorizations_up_to,
)
from .monoid import NumericalMonoid
from .omega import _blocks, bullets_brute_force, bullets_via_apery, omega_up_to

__all__ = ["PropertyResult", "run_suite"] + [
    "factorization_oracle",
    "length_consistency",
    "omega_triple_equivalence",
    "length_omega_sandwich",
    "omega_zero_one",
    "delta_periodic_window",
    "bullet_window_bound",
]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    failures: int

    @property
    def ok(self):
        return self.failures == 0


def factorization_oracle(monoid: NumericalMonoid, limit):
    """Dynamic Z(m) equals brute-force enumeration for every m <= limit.

    Also counts a failure when one side thinks m is in the monoid and
    the other does not, and when a dynamic set contains duplicates.
    """
    checked = failures = 0
    dynamic = {}
    for m, Z in factorizations_up_to(monoid, limit):
        rows = {tuple(int(v) for v in row) for row in Z}
        if len(rows) != len(Z):  # duplicate exponent vectors
            failures += 1
        dynamic[m] = rows
    for m in range(limit + 1):
        checked += 1
        if dynamic.get(m, set()) != brute_force_factorizations(monoid, m):
            failures += 1
    return PropertyResult("factorizations match brute force", checked, failures)


def length_consistency(monoid: NumericalMonoid, limit):
    """L(m) from the length scan equals the lengths read off Z(m)."""
    checked = failures = 0
    masks = dict(_length_masks_up_to(monoid, limit))
    for m, Z in factorizations_up_to(monoid, limit):
        checked += 1
        from_z = sorted({int(row.sum()) for row in Z})
        from_l = [int(v) for v in _mask_to_lengths(masks[m])]
        if from_z != from_l:
            failures += 1
    return PropertyResult("length sets match factorization lengths", checked, failures)


def _is_antichain(bullets):
    """True iff no bullet lies coordinatewise at or below another.

    A bullet below another has a strictly smaller total length, so once
    the bullets are sorted by total each is compared only with the ones
    after it, 128 rows at a time.
    """
    rows = np.array(sorted(bullets, key=sum), dtype=np.int64)
    for lo in range(0, len(rows) - 1, 128):
        # below[i, j]: row lo + i <= row lo + j in every coordinate
        below = np.ones((min(128, len(rows) - lo), len(rows) - lo), dtype=bool)
        for col in rows[lo:].T:
            below &= col[:128, None] <= col
        np.fill_diagonal(below, False)
        if below.any():
            return False
    return True


def omega_triple_equivalence(monoid: NumericalMonoid, x_max):
    """DP omega == brute bullet max length == Apery-method max length.

    Sweeps x in [-F(S), x_max], so when x_max >= N0 the rows that
    ``omega_up_to`` reads off the quasilinear model meet both oracles;
    also verifies that no computed bullet set contains one bullet
    coordinatewise inside another.
    """
    checked = failures = 0
    for x, w_dp in omega_up_to(monoid, x_max, "quotient").items():
        checked += 1
        brute = bullets_brute_force(monoid, x)
        w_brute = max(sum(b) for b in brute)
        w_apery = max(sum(b) for b in bullets_via_apery(monoid, x))
        if not (w_dp == w_brute == w_apery):
            failures += 1
        if not _is_antichain(brute):
            failures += 1
    return PropertyResult("omega triple equivalence + bullet antichain", checked, failures)


def length_omega_sandwich(monoid: NumericalMonoid, n_max):
    """M(n) <= n / n1 <= omega(n) for monoid elements, compared exactly."""
    n1 = monoid.generators[0]
    # M(n) is the top bit of the length mask of n
    longest = {m: mask.bit_length() - 1
               for m, mask in _length_masks_up_to(monoid, max(n_max, 0))}
    checked = failures = 0
    for n, w in omega_up_to(monoid, n_max, "monoid").items():
        if n < 1:
            continue
        checked += 1
        if not longest[n] * n1 <= n <= w * n1:
            failures += 1
    return PropertyResult("M(n) <= n/n1 <= omega(n)", checked, failures)


def omega_zero_one(monoid: NumericalMonoid, pad=50):
    """omega(x) = 0 iff -x in S, and omega(x) = 1 iff -x pseudo-Frobenius.

    Sweeps x in [-F(S) - pad, 0]; values below -F(S) are 0 by the base
    rule, which the sweep exercises as well.
    """
    F = monoid.frobenius
    pf = set(monoid.pseudo_frobenius())
    scanned = omega_up_to(monoid, 0, "quotient")
    checked = failures = 0
    for x in range(-F - pad, 1):
        checked += 1
        w = scanned.get(x, 0)
        if (w == 0) != monoid.contains(-x):
            failures += 1
        if (w == 1) != (-x in pf):
            failures += 1
    return PropertyResult("omega 0/1 characterizations", checked, failures)


def delta_periodic_window(monoid: NumericalMonoid):
    """Delta(m) = Delta(m + lcm) on [B, B + lcm], the proven stable range.

    Only sensible when the scan bound B is desk-scale; the caller
    decides.
    """
    B = delta_scan_bound(monoid)
    lcm = monoid.period_hint
    horizon = B + 2 * lcm
    # the plain mask scan, independent of the certificate's slots; only
    # the elements from B on are read, so only their gaps are taken
    step = _d_min(monoid.generators)
    deltas = {m: _mask_gaps(mask, step)
              for m, mask in _length_masks_up_to(monoid, horizon) if m >= B}
    checked = failures = 0
    for m in range(B, horizon - lcm + 1):
        if not monoid.contains(m):
            continue
        checked += 1
        if deltas[m] != deltas.get(m + lcm):
            failures += 1
    return PropertyResult("delta periodic beyond the proven bound", checked, failures)


def bullet_window_bound(monoid: NumericalMonoid, n_max):
    """Distinct values in any dynamic-bullet window entry stay bounded.

    The bound is the size of the union of the generators' Apery sets,
    itself at most the sum of the generators.
    """
    widest = _widest_entry(monoid, n_max)
    union = set()
    for g in monoid.generators:
        union.update(monoid.apery_set(g).elements)
    checked = 1
    failures = 0 if widest <= len(union) <= sum(monoid.generators) else 1
    return PropertyResult("dynamic bullet window width bound", checked, failures)


def _widest_entry(monoid, n_max):
    """The most pairs in one window entry of the dynamic-bullet scan to n_max."""
    return max(int(np.diff(offsets).max()) for _, offsets, _, _ in _blocks(monoid, n_max))


def run_suite(monoid: NumericalMonoid, n=200):
    """Run every cross-check at desk scale; returns a list of results.

    ``n`` caps the sweeps (factorizations to min(n, 2F+100), omega
    triple equivalence to min(n, 300)).  The delta window check runs
    only when the proven bound is at most 50,000.
    """
    F = monoid.frobenius
    z_limit = min(n, 2 * F + 100) if F >= 0 else min(n, 100)
    x_max = min(n, 300)
    results = [
        factorization_oracle(monoid, z_limit),
        length_consistency(monoid, z_limit),
        omega_triple_equivalence(monoid, x_max),
        length_omega_sandwich(monoid, x_max),
        omega_zero_one(monoid),
        bullet_window_bound(monoid, x_max),
    ]
    if delta_scan_bound(monoid) <= 50_000 and monoid.generators != (1,):
        results.append(delta_periodic_window(monoid))
    return results
