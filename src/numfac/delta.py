"""Delta sets of elements and of the whole monoid, plus periodicity.

The delta set of an element is the set of gaps between consecutive
attainable factorization lengths.  The monoid-wide delta set is the
union over all non-identity elements, and is finite because the
per-element delta sets are eventually periodic: scanning elements up to

    B = 2 k n2 nk^2 + n1 nk

already sees every gap that will ever occur.  Callers who know a sharper
periodicity-start bound N (these are tabulated for many monoids) can
pass it as ``bound_override``; the scan then covers (0, N + lcm(n1, nk)].

``delta_periodicity`` measures where the eventual periodic behavior
actually begins, which is usually far below the proven bound.

Delta(m) is read straight off the length mask of m (bit l set iff l is
a factorization length).  ``pending`` holds the set bits whose next set
bit is not yet found, at first every bit but the top one.  At distance
d, ``pending & (mask >> d)`` is the set of bits whose next set bit lies d
above: d is a gap, and those bits leave ``pending``.  The loop stops when
``pending`` is empty, after max Delta(m) / step steps of a few big-int
operations each.  The step is d_min = gcd(n2 - n1, ..., nk - nk-1):
two factorizations a, b of m satisfy sum (ai - bi) n1 =
-sum (ai - bi)(ni - n1), and n1 is prime to d_min, so their lengths
differ by a multiple of d_min and no distance in between can be a gap.
(d_min is also min Delta(S); Bowles, Chapman, Kaplan and Reiser, 2006.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HorizonTooSmall, Int64Overflow
from .factorization import _checked_target, _length_masks_up_to
from .monoid import _MEMBER_TABLE_LIMIT, NumericalMonoid, require_i64

__all__ = [
    "delta_of_lengths",
    "delta_scan_bound",
    "delta_set",
    "delta_periodicity",
    "DeltaPeriodicityReport",
]


@dataclass(frozen=True)
class DeltaPeriodicityReport:
    """Observed start and period of the eventual periodicity of delta sets.

    ``dissonance_start`` is the last dissonant element: the largest m at
    which Delta(m) = Delta(m + period) fails, so the relation holds for
    every monoid element m with dissonance_start < m <= verified_up_to -
    period.  It is 0 when no scanned element fails.  The report is exact
    once the horizon reaches the proven bound plus one period; below
    that it reflects the scanned window only.
    """

    dissonance_start: int
    period: int
    verified_up_to: int


def delta_of_lengths(lengths):
    """Gaps between consecutive entries of a strictly increasing length set."""
    ls = [int(v) for v in lengths]
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("length set must be strictly increasing")
    return tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))


def delta_scan_bound(monoid: NumericalMonoid):
    """Scan bound 2*k*n2*nk^2 + n1*nk that provably captures the delta set."""
    gens = monoid.generators
    if len(gens) < 2:
        return 0
    n1, n2, nk = gens[0], gens[1], gens[-1]
    return require_i64(
        2 * len(gens) * n2 * nk * nk + n1 * nk, "delta scan bound"
    )


def _mask_gaps(mask, step):
    """Sorted gaps between consecutive set bits of ``mask``, all multiples of ``step``."""
    gaps = []
    pending = mask ^ (1 << (mask.bit_length() - 1))
    d = step
    while pending:
        hit = pending & (mask >> d)
        if hit:
            gaps.append(d)
            pending ^= hit
        d += step
    return tuple(gaps)


def _deltas_up_to(monoid, n):
    """Yield (m, Delta(m)) for monoid elements m in [0, n], Delta(m) a sorted tuple."""
    gens = monoid.generators
    # 0 for <1>, whose masks all hold a single bit, so no step is taken
    step = math.gcd(*(b - a for a, b in zip(gens, gens[1:])))
    for m, mask in _length_masks_up_to(monoid, n):
        yield m, _mask_gaps(mask, step)


def delta_set(monoid: NumericalMonoid, bound_override=None):
    """Delta set of the whole monoid, as a sorted tuple of gaps.

    Without an override the scan runs to the in-built bound from
    :func:`delta_scan_bound`.  With ``bound_override=N`` (a known
    periodicity-start bound) it runs to N + lcm(n1, nk).
    """
    if bound_override is None:
        limit = delta_scan_bound(monoid)
    else:
        limit = require_i64(
            _checked_target(bound_override) + monoid.period_hint, "scan limit"
        )
    gaps = set()
    for _, d in _deltas_up_to(monoid, limit):
        gaps.update(d)
    return tuple(sorted(gaps))


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def delta_periodicity(monoid: NumericalMonoid, horizon):
    """Detect the eventual period of Delta(m) and the last dissonant element.

    Scans Delta(m) for m in (0, horizon], picks the smallest divisor p of
    lcm(n1, nk) for which Delta(m) = Delta(m + p) holds throughout the
    final lcm-wide window, then scans backwards for the largest element
    where the relation fails.  A monoid element m with m + p outside the
    monoid counts as a mismatch; elements outside the monoid impose
    nothing.
    """
    horizon = _checked_target(horizon)
    lcm = monoid.period_hint
    nk = monoid.generators[-1]
    if horizon < lcm + nk:
        raise HorizonTooSmall(f"horizon {horizon} < lcm + nk = {lcm + nk}")
    if horizon + 1 > _MEMBER_TABLE_LIMIT:
        raise Int64Overflow(f"horizon {horizon} exceeds the per-element table cap")

    deltas = [None] * (horizon + 1)  # None marks gaps of the monoid
    for m, d in _deltas_up_to(monoid, horizon):
        deltas[m] = d

    def agrees(m, p):
        if deltas[m] is None:
            return True
        if deltas[m + p] is None:
            return False
        return deltas[m] == deltas[m + p]

    period = lcm
    for p in _divisors(lcm):
        lo = max(1, horizon - lcm - p + 1)
        if all(agrees(m, p) for m in range(lo, horizon - p + 1)):
            period = p
            break

    last_fail = 0
    for m in range(horizon - period, 0, -1):
        if not agrees(m, period):
            last_fail = m
            break
    return DeltaPeriodicityReport(
        dissonance_start=last_fail, period=period, verified_up_to=horizon
    )
