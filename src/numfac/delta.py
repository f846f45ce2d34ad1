"""Delta sets of elements and of the whole monoid, plus periodicity.

The delta set of an element is the set of gaps between consecutive
attainable factorization lengths.  The monoid-wide delta set is the
union over all non-identity elements, and is finite because the
per-element delta sets are eventually periodic: scanning elements up to

    B = 2 k n2 nk^2 + n1 nk

already sees every gap that will ever occur (Chapman, Hoyer and Kaplan,
2009).  Callers who know a sharper periodicity-start bound N (these are
tabulated for many monoids) can pass it as ``bound_override``; the limit
is then N + lcm(n1, nk).  ``delta_set`` stops earlier, at the first
element M where a repeat of the length-set state proves Delta(m) =
Delta(m - p) for every m >= M, with p = lcm(n1, nk); the limit is only
the fallback.

The certificate.  Let d = gcd(n2 - n1, ..., nk - nk-1), H the least
multiple of d that is >= nk, a = p / nk and b = p / n1.  For an element
m with lo and hi the least and largest lengths of L(m), the bottom
window is the set of lengths of L(m) in [lo, lo + H), read relative to
lo, and the top window those in (hi - H, hi], relative to hi.  m is
well formed when hi - lo >= 2H + d and the middle [lo + H, hi - H] holds
every l = lo (mod d).  Every length of L(m) is = lo (mod d) (see the
d_min paragraph below), so the middle is full iff it holds
(hi - lo - 2H) / d + 1 lengths.  The certificate fires at M when
M - p - nk > F + nk, for F the Frobenius number (so every m from
M - p - nk on lies in S, and so does each m - ni), and:

  (W) every m in [M - p - nk, M) is well formed;
  (E) every m in [M - nk, M) has the windows of m - p, and lo and hi
      exceed those of m - p by a and b;
  (O) every m in [M - p, M) has overlapping predecessor middles:
      max_i lo(m - ni) + 2H <= min_i hi(m - ni).

Each then holds for every m >= M, by induction on m:

- Windows.  L(m) is the union of L(m - ni) + 1, and lo(m) = 1 + min_i
  lo(m - ni).  A length of L(m) below lo(m) + H comes from a length of
  some L(m - ni) below lo(m) - 1 + H <= lo(m - ni) + H, so the bottom
  window of m is the union of the predecessors' bottom windows, shifted
  by their lo offsets from the least one.  The top window is fixed the
  same way by the predecessors' top windows and hi offsets.  The
  predecessors of m >= M lie in [M - nk, m), where (E) holds, so their
  windows equal those of the predecessors of m - p and their lo and hi
  grow by the same a and b: (E) passes to m.
- Overlap.  lo(m - ni) and hi(m - ni) exceed those of m - p - ni by a
  and b >= a, so (O) at m - p gives (O) at m.
- Fullness.  The predecessors are well formed, and by (O) their middles,
  each full, share a point, so their union, shifted by one, is the
  whole middle [lo(m) + H, hi(m) - H] of m: that middle is full.  Its
  width hi - lo exceeds that of m - p by b - a >= 0: (W) passes to m.
- Delta.  H is a multiple of d, so a well-formed L(m) is its bottom
  window, then lo + H, lo + H + d, ..., hi - H (at least two lengths),
  then its top window.  Delta(m) is the gaps of the bottom window with
  lo + H, the gap d, and the gaps of hi - H with the top window: it is
  fixed by the two windows.  So Delta(m) = Delta(m - p) for m >= M, and
  Delta(S) is the union of Delta(m) for m < M.

The certificate keeps the last p windows, so it is skipped (and the
scan runs to its limit) when they would hold more than
``_CERTIFICATE_BITS`` bits.  Either way the answer is the union of
every Delta(m) scanned, so it is exact wherever the scan stops.
``delta_periodicity`` measures where the eventual periodic behavior
actually begins, scanning to the horizon it is given.

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


def _d_min(gens):
    # 0 for <1>, whose masks all hold a single bit, so no step is taken
    return math.gcd(*(b - a for a, b in zip(gens, gens[1:])))


def _deltas_up_to(monoid, n):
    """Yield (m, Delta(m)) for monoid elements m in [0, n], Delta(m) a sorted tuple."""
    step = _d_min(monoid.generators)
    for m, mask in _length_masks_up_to(monoid, n):
        yield m, _mask_gaps(mask, step)


# the certificate keeps p bottom and top windows of H bits each; past this
# many bits it is skipped and the scan runs to its limit
_CERTIFICATE_BITS = 1 << 24


def _delta_scan(monoid, limit):
    """(Delta(S), last): the union of Delta(m) for m up to min(certificate, limit).

    ``last`` is the largest element whose Delta(m) was read: ``limit``
    (or the last element below it) unless the certificate of the module
    docstring fired at M = last + 1.
    """
    gens = monoid.generators
    nk, d, p = gens[-1], _d_min(gens), monoid.period_hint
    gaps, last = set(), 0
    certify = len(gens) > 1
    if certify:
        n1, H = gens[0], -(-nk // d) * d
        wide, low = 2 * H + d, (1 << H) - 1
        a, b = p // nk, p // n1
        # the lengths of m lie in [m / nk, m / n1], so no m up to the second
        # term is wide; past the first, every predecessor is in S
        start = max(monoid.frobenius + nk, (wide * n1 * nk - 1) // (nk - n1))
        need = p + nk
        certify = 2 * p * H <= _CERTIFICATE_BITS and start + need <= limit
    if certify:
        # slot m % p: lo and hi of every element, windows of the well formed
        los, his, keys = [0] * p, [0] * p, [None] * p
        well = same = overlap = 0
    for m, mask in _length_masks_up_to(monoid, limit):
        gaps.update(_mask_gaps(mask, d))
        last = m
        if not certify or m <= start - nk:
            continue
        slot = m % p
        hi = mask.bit_length() - 1
        lo = (mask & -mask).bit_length() - 1
        los[slot], his[slot] = lo, hi
        if m <= start:
            continue
        # width first: it costs O(1), and until the width has grown past
        # 2H + d it fails on every element
        width = hi - lo
        if width >= wide:
            bot, top = (mask >> lo) & low, mask >> (hi - H + 1)
            middle = mask.bit_count() - bot.bit_count() - top.bit_count()
        if width < wide or middle != (width - 2 * H) // d + 1:
            well = same = overlap = 0
            keys[slot] = None
            continue
        well += 1
        q = m // p
        key = (bot, top, lo - a * q, hi - b * q)
        same = same + 1 if keys[slot] == key else 0
        keys[slot] = key
        pred = [(m - g) % p for g in gens]
        if max(los[i] for i in pred) + 2 * H <= min(his[i] for i in pred):
            overlap += 1
        else:
            overlap = 0
        if well >= need and same >= nk and overlap >= p:
            break
    return tuple(sorted(gaps)), last


def delta_set(monoid: NumericalMonoid, bound_override=None):
    """Delta set of the whole monoid, as a sorted tuple of gaps.

    The scan covers the elements up to min(certificate, limit), where
    the certificate is the repeat of the length-set state described in
    the module docstring.  Without an override the limit is the proven
    bound from :func:`delta_scan_bound`; with ``bound_override=N`` (a
    known periodicity-start bound) it is N + lcm(n1, nk).
    """
    if bound_override is None:
        limit = delta_scan_bound(monoid)
    else:
        limit = require_i64(
            _checked_target(bound_override) + monoid.period_hint, "scan limit"
        )
    return _delta_scan(monoid, limit)[0]


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
