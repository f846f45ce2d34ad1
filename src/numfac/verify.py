"""Cross-checks between the dynamic algorithms and independent oracles.

Every dynamic computation in this package has a slow, structurally
unrelated counterpart (bounded enumeration).  The checks here sweep both
over a range and count disagreements; they back the ``numfac verify``
command and the property-test suite.  Each oracle makes one pass over
its range rather than one call per element: the factorization oracle
slices one grid of exponent vectors, and each omega oracle reads every
x off one grid (the brute-force one) or one grid per generator subset
(the Apery one).  All ranges are desk-scale by design, since the grids
are exponential in the number of generators, and ``run_suite`` caps
each one by the rows its grid would hold before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delta import _d_min, _mask_gaps, delta_scan_bound
from .factorization import (
    _grid_fits,
    _length_masks_up_to,
    _mask_to_lengths,
    _sorted_grid,
    factorizations_up_to,
)
from .monoid import NumericalMonoid
from .omega import _apery_omegas, _blocks, _bullet_table, _passes, omega_up_to

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

    The brute-force Z(m) are the slices of one grid of every vector of
    value up to limit.  Also counts a failure when one side thinks m is
    in the monoid and the other does not, and when a dynamic set
    contains duplicates.
    """
    checked = failures = 0
    dynamic = {}
    for m, Z in factorizations_up_to(monoid, limit):
        rows = set(map(tuple, Z.tolist()))
        if len(rows) != len(Z):  # duplicate exponent vectors
            failures += 1
        dynamic[m] = rows
    grid, values = _sorted_grid(monoid.generators, limit)
    ends = values.searchsorted(np.arange(limit + 2)).tolist()
    for m in range(limit + 1):
        checked += 1
        if dynamic.get(m, set()) != set(map(tuple, grid[ends[m]:ends[m + 1]].tolist())):
            failures += 1
    return PropertyResult("factorizations match brute force", checked, failures)


def length_consistency(monoid: NumericalMonoid, limit):
    """L(m) from the length scan equals the lengths read off Z(m)."""
    checked = failures = 0
    masks = dict(_length_masks_up_to(monoid, limit))
    for m, Z in factorizations_up_to(monoid, limit):
        checked += 1
        if sorted(set(Z.sum(axis=1).tolist())) != _mask_to_lengths(masks[m]).tolist():
            failures += 1
    return PropertyResult("length sets match factorization lengths", checked, failures)


def _is_antichain(bullets):
    """True iff no bullet lies coordinatewise at or below another.

    A bullet below another has a strictly smaller total length, so once
    the bullets are sorted by total each is compared only with the ones
    after it, 128 rows at a time.
    """
    if len(bullets) < 2:
        return True
    rows = np.array(bullets if isinstance(bullets, np.ndarray) else list(bullets), dtype=np.int64)
    rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]
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

    Sweeps x in [min(-F(S), 0), x_max], so when x_max >= N0 the rows that
    ``omega_up_to`` reads off the quasilinear model meet both oracles.
    ``omega_up_to`` reads max-length tables of generator subsets, so the
    paper's dynamic-bullet scan, the longest pair of each entry of
    ``_blocks``, meets them too.  Each oracle makes one pass over the
    range: ``_bullet_table`` reads every brute-force bullet set off one
    grid, ``_apery_omegas`` every Apery-route omega off one grid per
    generator subset.  Also verifies that no bullet set contains one
    bullet coordinatewise inside another.
    """
    name = "omega triple equivalence + bullet antichain"
    if x_max < min(-monoid.frobenius, 0):
        return PropertyResult(name, 0, 0)
    dp = np.array(list(omega_up_to(monoid, x_max, "quotient").values()))
    scan = np.concatenate([np.maximum.reduceat(lengths, offsets[:-1])
                           for _, offsets, _, lengths in _blocks(monoid, x_max)])
    offsets, bullets = _bullet_table(monoid, x_max)
    brute = np.maximum.reduceat(np.append(bullets.sum(axis=1), -1), offsets[:-1])
    brute[offsets[:-1] == offsets[1:]] = -1  # an empty bullet set fails
    oracles = np.array([brute, _apery_omegas(monoid, x_max), scan])
    failures = int(np.count_nonzero((oracles != dp).any(axis=0)))
    bounds = offsets.tolist()
    failures += sum(not _is_antichain(bullets[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return PropertyResult(name, len(dp), failures)


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


# row pairs the antichain check may compare over an omega sweep, the sum
# of |bul(x)|^2: the widest sweep of an acceptance monoid,
# <10,12,15,16,17> to 300, compares about 3.0e8 of them in about a second
_ANTICHAIN_LIMIT = 2**29


def _largest(fits, lo, hi):
    """The largest v in [lo, hi] with fits(v), lo - 1 if there is none.

    ``fits`` holds up to some value and fails from there on.
    """
    if hi < lo or fits(hi):
        return hi
    lo -= 1  # fits(lo) holds or lo lies below the range; fits(hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _bullet_counts(monoid, x_max):
    """|bul(x)| for every x in [min(-F(S), 0), x_max], counted without a grid.

    ``by_support[A]`` holds how many vectors of each value have support
    exactly A, and the y that pass A's bullet test.  A vector of value v
    is a bullet of x = v - y for each such y, as in ``_bullet_table``.
    A support that no y passes is dropped with all its supersets, which
    no y passes either.
    """
    gens = monoid.generators
    base = min(-monoid.frobenius, 0)
    budget = x_max + monoid.frobenius + gens[-1]
    zero = np.zeros(budget + 1, dtype=np.int64)
    zero[0] = 1
    by_support = {(): (zero, _passes(monoid, ()))}
    for g in gens:
        for support, (counts, _) in list(by_support.items()):
            # the vectors that add 1, 2, ... copies of g to each of counts
            runs = np.zeros(-len(counts) % g + len(counts), dtype=np.int64)
            runs[:len(counts)] = counts
            runs = runs.reshape(-1, g).cumsum(axis=0).ravel()
            more = np.zeros_like(counts)
            more[g:] = runs[:len(counts) - g]
            ys = _passes(monoid, support + (g,)) if more.any() else ()
            if len(ys):
                by_support[support + (g,)] = more, ys
    total = np.zeros(x_max - base + 1, dtype=np.int64)
    for counts, ys in by_support.values():
        for y in ys[ys >= -x_max].tolist():  # else x + y < 0 for every x
            skip = max(0, -y - base)  # x + y >= 0 from x = -y on
            total[skip:] += counts[base + y + skip:x_max + y + 1]
    return total


def _omega_range(monoid, x_max):
    """The largest x <= x_max to which ``omega_triple_equivalence`` fits.

    Its brute grid, to x + F(S) + nk, must fit ``_grid_fits``, and its
    antichain check must compare at most ``_ANTICHAIN_LIMIT`` row pairs.
    Both are counted before either oracle builds anything.
    """
    base = min(-monoid.frobenius, 0)
    reach = monoid.frobenius + monoid.generators[-1]
    x_max = _largest(lambda x: _grid_fits(monoid.generators, x + reach), base, x_max)
    if x_max < base:
        return x_max
    compared = np.cumsum(_bullet_counts(monoid, x_max).astype(np.float64) ** 2)
    return base - 1 + int(compared.searchsorted(_ANTICHAIN_LIMIT, side="right"))


def run_suite(monoid: NumericalMonoid, n=200):
    """Run every cross-check at desk scale; returns a list of results.

    ``n`` caps the sweeps: factorizations to z = min(n, 2F+100), omega
    to x = min(n, 300).  Each oracle makes one pass over its range, and
    each range is capped by rows before anything is built: the
    factorization oracle runs to the largest m <= z whose grid holds at
    most 2**21 rows, the omega triple equivalence to the largest
    x' <= x whose brute grid fits that cap and whose bullet sets the
    antichain check compares in at most 2**29 row pairs.  The delta
    window check runs only when the proven bound is at most 50,000.
    """
    F = monoid.frobenius
    z_limit = min(n, 2 * F + 100) if F >= 0 else min(n, 100)
    x_max = min(n, 300)
    z_grid = _largest(lambda z: _grid_fits(monoid.generators, z), 0, z_limit)
    results = [
        factorization_oracle(monoid, z_grid),
        length_consistency(monoid, z_limit),
        omega_triple_equivalence(monoid, _omega_range(monoid, x_max)),
        length_omega_sandwich(monoid, x_max),
        omega_zero_one(monoid),
        bullet_window_bound(monoid, x_max),
    ]
    if delta_scan_bound(monoid) <= 50_000 and monoid.generators != (1,):
        results.append(delta_periodic_window(monoid))
    return results
