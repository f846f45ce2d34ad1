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

The scan checks (W) and (E) at each element as it is reached, and (O)
only at an element m where (W) and (E) already hold over their
windows: one numpy gather over lo and hi of the last p + nk elements
then checks (O) on the elements of (m - p, m] not checked before.
A failure of (O) at j rules out every stop up to j + p, so each element
is checked about once, and the stop M is the first element where (W),
(E) and (O) all hold.

The certificate keeps the last p windows, so it is skipped (and the
scan runs to its limit) when they would hold more than
``_CERTIFICATE_BITS`` bits.  Either way the answer is the union of
every Delta(m) scanned, so it is exact wherever the scan stops.

Past the certificate.  When it fires, its p slots hold the key (bottom
window, top window, lo - a q, hi - b q), q = m // p, of each m in
[M - p, M).  By (W) and (E), carried on by the induction above, every
m >= M - p has the key of its slot m mod p, so L(m), its largest length
hi and Delta(m) are read off that key with no scan to m.  So
``length_set``, ``max_length`` and the per-element Delta of the CLI scan
only to M.  ``delta_periodicity``, which measures where the eventual
periodic behavior actually begins, reads Delta(m) off the slots from M
to min(M + p, horizon), past which no window sees a new residue mod p.

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

Each distinct mask is reduced once.  The masks of a scan repeat: on
<100,121,142,163,284>, the 38,478 elements up to 41,150 have 629
distinct masks.  So every scan keeps Delta in a memo keyed by the mask,
and empties it whenever its masks would pass ``_CERTIFICATE_BITS`` bits.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooSmall, Int64Overflow, NotInMonoid
from .factorization import _checked_target, _length_masks_up_to, _mask_to_lengths
from .monoid import _MEMBER_TABLE_LIMIT, NumericalMonoid, require_i64

__all__ = [
    "delta_of_lengths",
    "delta_scan_bound",
    "delta_set",
    "delta_periodicity",
    "DeltaPeriodicityReport",
    "length_set",
    "max_length",
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


# the certificate keeps p bottom and top windows of H bits each; past this
# many bits it is skipped and the scan runs to its limit
_CERTIFICATE_BITS = 1 << 24

# bit operations a scan may spend on one scan: reaching n costs about
# n^2 / (2 n1) of them, since the mask of m holds about m / n1 bits.
# A plain mask scan of <6,9,20> to n = 3e5 does 7.5e9 of them in 0.51-1.0 s
# on a shared 2-core Xeon, so this budget is about 7 to 13 s of scanning
_SCAN_BIT_BUDGET = 10**11

# lengths of one L(n) past which length_set refuses to list them: a listed
# length costs about 48 bytes (the int64 array, its ints and the tuple),
# so the cap is about 480 MB
_LENGTHS_LIMIT = 10_000_000


class _Scan:
    """The length masks of the monoid elements up to ``limit``, up to the certificate.

    Iterating yields (m, mask of L(m)) in ascending m, and
    ``mask_deltas`` yields (m, Delta(m)) off the same masks.  If the
    certificate fires at some M <= limit, the last element yielded is
    M - 1, and ``keys`` then holds its p keys: keys[m % p] is (bot, top,
    lo - a * q, hi - b * q), q = m // p, of the element m of [M - p, M),
    its two windows and the ends of L(m).  By (W) and (E), carried to
    every later element by the induction of the module docstring, each
    m >= M - p has the key of its slot, so ``ends``, ``count``,
    ``lengths`` and ``delta`` answer it: L(m) is lo + the bottom window,
    then lo + H, lo + H + d, ..., hi - H, then hi - H + 1 + the top
    window.  Otherwise ``keys`` stays None.  A limit below the
    certificate's floor, the least limit at which it can fire, gets the
    plain mask scan, with no bookkeeping.

    A limit past the reach of ``_SCAN_BIT_BUDGET`` is answered only by
    a certificate that fires within that reach: when the certificate is
    skipped (<1>, or windows over the cap), or cannot fire by then, the
    scan is refused with Int64Overflow before it starts, and when it has
    not fired by then, at the reach.
    """

    def __init__(self, monoid, limit):
        gens = monoid.generators
        n1, nk, p, d = gens[0], gens[-1], monoid.period_hint, _d_min(gens)
        self.monoid, self.limit, self.keys, self.p, self.d = monoid, _checked_target(limit), None, p, d
        floor = math.inf
        if len(gens) > 1:
            self.H = H = -(-nk // d) * d
            self.a, self.b = p // nk, p // n1
            # the lengths of m lie in [m / nk, m / n1], so no m up to the second
            # term is wide; past the first, every predecessor is in S
            self.start = max(monoid.frobenius + nk, ((2 * H + d) * n1 * nk - 1) // (nk - n1))
            if 2 * p * H <= _CERTIFICATE_BITS:
                floor = self.start + p + nk
        reach = math.isqrt(2 * n1 * _SCAN_BIT_BUDGET)
        if self.limit > reach and floor > reach:
            raise Int64Overflow(
                f"a scan to {self.limit} exceeds the scan budget and no certificate can answer it")
        self.stop = min(self.limit, reach)
        self.plain = floor > self.stop

    def __iter__(self):
        if self.plain:
            return _length_masks_up_to(self.monoid, self.stop)
        return self._certified()

    def _certified(self):
        gens = self.monoid.generators
        nk = gens[-1]
        p, d, H, a, b, start = self.p, self.d, self.H, self.a, self.b, self.start
        wide, low, ring = 2 * H + d, (1 << H) - 1, p + nk
        # lo and hi of element m at m % ring: the p + nk entries cover the
        # predecessors of every element of [m - p + 1, m], the window (O) reads
        los, his = np.zeros(ring, np.int64), np.zeros(ring, np.int64)
        back = np.array(gens, np.int64)[:, None]
        # keys[m % p] is the key of a well-formed m.  run counts consecutive
        # well-formed elements, so run >= p gives (W) on [M - p, M), and same
        # >= nk compares each m of [M - nk, M) with the key of m - p, which is
        # set only when m - p is well formed.  (O) has been checked on the
        # elements up to checked that a stop could need, and failed last at fail
        keys = [None] * p
        same = run = checked = fail = 0
        for item in _length_masks_up_to(self.monoid, self.stop):
            yield item
            m, mask = item
            if m <= start - nk:
                continue
            hi = mask.bit_length() - 1
            lo = (mask & -mask).bit_length() - 1
            los[m % ring], his[m % ring] = lo, hi
            if m <= start:
                continue
            # width first: it costs O(1), and until the width has grown past
            # 2H + d it fails on every element
            slot, width = m % p, hi - lo
            if width >= wide:
                bot, top = (mask >> lo) & low, mask >> (hi - H + 1)
                middle = mask.bit_count() - bot.bit_count() - top.bit_count()
            if width < wide or middle != (width - 2 * H) // d + 1:
                same = run = 0
                keys[slot] = None
                continue
            q = m // p
            key = (bot, top, lo - a * q, hi - b * q)
            same = same + 1 if keys[slot] == key else 0
            keys[slot] = key
            run += 1
            # a failure at fail rules out every stop up to fail + p
            if same < nk or run < p or fail > m - p:
                continue
            window = np.arange(max(checked, m - p) + 1, m + 1)
            pred = (window - back) % ring
            bad = np.flatnonzero(los[pred].max(axis=0) + 2 * H > his[pred].min(axis=0))
            checked = m
            if len(bad):
                fail = int(window[bad[-1]])
                continue
            self.keys = keys
            return
        if self.stop < self.limit:
            raise Int64Overflow(f"the certificate did not fire within the scan budget for {self.limit}")

    def mask_deltas(self):
        """Yield (m, Delta(m)) for each element the scan yields, read off its length mask.

        Each distinct mask is reduced once: a memo keyed by the mask keeps
        its Delta, and is emptied whenever its masks would pass
        ``_CERTIFICATE_BITS`` bits.
        """
        memo, bits, d = {}, 0, self.d
        for m, mask in self:
            gaps = memo.get(mask)
            if gaps is None:
                size = mask.bit_length()
                if bits + size > _CERTIFICATE_BITS:
                    memo.clear()
                    bits = 0
                gaps = memo[mask] = _mask_gaps(mask, d)
                bits += size
            yield m, gaps

    def ends(self, m):
        """(bot, top, lo, hi) of L(m)."""
        bot, top, lo, hi = self.keys[m % self.p]
        q = m // self.p
        return bot, top, lo + self.a * q, hi + self.b * q

    def count(self, m):
        bot, top, lo, hi = self.ends(m)
        return bot.bit_count() + (hi - lo - 2 * self.H) // self.d + 1 + top.bit_count()

    def lengths(self, m):
        """L(m) as a sorted numpy int array."""
        H, d = self.H, self.d
        bot, top, lo, hi = self.ends(m)
        return np.concatenate((lo + _mask_to_lengths(bot), np.arange(lo + H, hi - H + 1, d),
                               hi - H + 1 + _mask_to_lengths(top)))

    @functools.cached_property
    def deltas(self):
        """Delta(m) of each slot: the gaps of its windows around a middle cut to two lengths."""
        H, d = self.H, self.d
        return [_mask_gaps(bot | 1 << H | 1 << (H + d) | top << (H + d + 1), d)
                for bot, top, _, _ in self.keys]

    def delta(self, m):
        return self.deltas[m % self.p]


def _deltas_up_to(monoid, n):
    """Yield (m, Delta(m)) for monoid elements m in [0, n], Delta(m) a sorted tuple.

    Each Delta(m) is read off the length mask of m up to the
    certificate and, once it fires at M, off its keys from M on.
    """
    scan = _Scan(monoid, n)
    m = -1
    for m, gaps in scan.mask_deltas():
        yield m, gaps
    if scan.keys is not None:
        for m in range(m + 1, scan.limit + 1):
            yield m, scan.delta(m)


def _element(monoid, n):
    """(mask of L(n), None) for an element n of S, or (None, the fired `_Scan` that answers n)."""
    scan = _Scan(monoid, n)
    mask = deque(scan, maxlen=1)[0][1]
    return (mask, None) if scan.keys is None else (None, scan)


def length_set(monoid: NumericalMonoid, n):
    """L(n) as a tuple of increasing lengths; empty iff n not in the monoid.

    Past the certificate L(n) is read off its keys, with no scan to n.
    Int64Overflow refuses a scan past ``_SCAN_BIT_BUDGET``, and an L(n)
    of over ``_LENGTHS_LIMIT`` lengths before they are built.
    """
    n = _checked_target(n)
    if not monoid.contains(n):
        return ()
    mask, scan = _element(monoid, n)
    count = mask.bit_count() if scan is None else scan.count(n)
    if count > _LENGTHS_LIMIT:
        raise Int64Overflow(f"L({n}) holds {count} lengths, over the cap of {_LENGTHS_LIMIT}")
    return tuple((_mask_to_lengths(mask) if scan is None else scan.lengths(n)).tolist())


def max_length(monoid: NumericalMonoid, n):
    """Largest factorization length M(n) of an element n, read and refused as in ``length_set``."""
    n = _checked_target(n)
    if not monoid.contains(n):
        raise NotInMonoid(f"{n} is not an element of {monoid!r}")
    mask, scan = _element(monoid, n)
    return mask.bit_length() - 1 if scan is None else scan.ends(n)[3]


def _delta_at(monoid, n):
    """Delta(n) as a sorted tuple; () when n is not in S."""
    n = _checked_target(n)
    if not monoid.contains(n):
        return ()
    mask, scan = _element(monoid, n)
    return _mask_gaps(mask, _d_min(monoid.generators)) if scan is None else scan.delta(n)


def delta_set(monoid: NumericalMonoid, bound_override=None):
    """Delta set of the whole monoid, as a sorted tuple of gaps.

    The scan covers the elements up to min(certificate, limit), where
    the certificate is the repeat of the length-set state described in
    the module docstring.  Without an override the limit is the proven
    bound from :func:`delta_scan_bound`; with ``bound_override=N`` (a
    known periodicity-start bound) it is N + lcm(n1, nk).  A limit past
    the reach of ``_SCAN_BIT_BUDGET`` is refused with Int64Overflow unless
    the certificate fires within that reach (see `_Scan`).
    """
    if bound_override is None:
        limit = delta_scan_bound(monoid)
    else:
        limit = require_i64(
            _checked_target(bound_override) + monoid.period_hint, "scan limit"
        )
    gaps = set()
    for _, delta in _Scan(monoid, limit).mask_deltas():
        gaps.update(delta)
    return tuple(sorted(gaps))


def delta_periodicity(monoid: NumericalMonoid, horizon):
    """Detect the eventual period of Delta(m) and the last dissonant element.

    Reads Delta(m) for m in (0, top], picks the smallest divisor p of
    lcm(n1, nk) for which Delta(m) = Delta(m + p) holds throughout the
    final lcm-wide window, then scans backwards for the largest element
    where the relation fails.  A monoid element m with m + p outside the
    monoid counts as a mismatch; elements outside the monoid impose
    nothing.

    Delta(m) is read off the length masks up to the certificate of the
    module docstring and, once it fires at M, off its keys up to
    top = min(horizon, M + lcm); with no certificate top is the horizon.
    From M - lcm on, every m is in S with the Delta of its slot m mod
    lcm, so the relation there depends on m mod lcm alone: the final
    window ending at M + lcm gives the same answer as any later one.
    Int64Overflow refuses a horizon past the per-element table cap, and,
    as in ``delta_set``, one past the reach of the scan budget.
    """
    horizon = _checked_target(horizon)
    lcm = monoid.period_hint
    nk = monoid.generators[-1]
    if horizon < lcm + nk:
        raise HorizonTooSmall(f"horizon {horizon} < lcm + nk = {lcm + nk}")
    # the scan cannot know M in advance, so it may keep one Delta per integer
    if horizon + 1 > _MEMBER_TABLE_LIMIT:
        raise Int64Overflow(f"horizon {horizon} exceeds the per-element table cap")

    scan = _Scan(monoid, horizon)
    deltas = []  # Delta(m) at index m, None for the gaps of the monoid
    for m, delta in scan.mask_deltas():
        if m > len(deltas):
            deltas += [None] * (m - len(deltas))
        deltas.append(delta)
    top = horizon
    if scan.keys is not None:  # it fired at M = len(deltas)
        top = min(horizon, len(deltas) + lcm)
        deltas += [scan.delta(m) for m in range(len(deltas), top + 1)]
    deltas += [None] * (top + 1 - len(deltas))  # no certificate: the gaps up to the horizon

    def agrees(m, p):
        return deltas[m] is None or deltas[m] == deltas[m + p]

    for period in range(1, lcm + 1):  # the last, lcm, stands when no divisor passes
        lo = max(1, top - lcm - period + 1)
        if lcm % period == 0 and all(agrees(m, period) for m in range(lo, top - period + 1)):
            break

    last_fail = 0
    for m in range(top - period, 0, -1):
        if not agrees(m, period):
            last_fail = m
            break
    return DeltaPeriodicityReport(
        dissonance_start=last_fail, period=period, verified_up_to=horizon
    )
