"""Omega-primality over the integers, via dynamic bullets.

A bullet for an integer x is an exponent vector b whose value
v = sum(bi * ni) satisfies v - x in S while v - x - ni lies outside S
for every generator ni actually used.  omega(x) is the largest bullet
length; it is 0 exactly when -x is in S, and 1 exactly when -x is a
pseudo-Frobenius number.

Three independent routes to the same numbers live here:

  * ``omega_up_to`` runs the dynamic scan.  Each element m keeps a
    window entry of (value, length) pairs ("dynamic bullets", at most
    one pair per value, the longest).  The entry for m is obtained by
    pushing every pair of the entries for m - ni through the cover map:
    a pair (v, l) survives unchanged when v - m is in S and otherwise
    becomes (v + ni, l + 1), all k entries in one vectorized step.  The
    scan packs each pair into one int64 key (v << bits) | l, so the step
    is one concatenation, one add on the moved keys and one in-place
    sort; a target whose keys would not fit in 63 bits is refused with
    Int64Overflow.  Every integer below -F(S) has the constant entry
    {(0, 0)}, which lets the scan start at min(-F(S), 0).  Only the step
    lives here; it runs in ``factorization._window_scan``, the one
    ring-buffer loop of Z and L too, which yields each entry as it goes.
    omega(m) is its largest length, and ``dynamic_bullets``,
    ``omega_up_to`` and ``quasilinear_model`` read it off that stream.
  * ``bullets_brute_force`` enumerates exponent vectors directly and
    filters by the two bullet conditions.  Values never exceed
    x + F(S) + nk, which bounds the enumeration.
  * ``bullets_via_apery`` builds bul(x) from restricted factorization
    sets: a vector supported on a generator subset A is a bullet exactly
    when it factors y + x for some y in the intersection of the Apery
    sets of A.

For n above the threshold N0 = ceil((F(S) + n2) * n1 / (n2 - n1)) the
omega function is quasilinear: omega(n) = n / n1 + a(n mod n1) with
exact rational offsets a (O'Neill and Pelayo, "On the linearity of
omega-primality in numerical monoids", JPAA 2014).  ``quasilinear_model``
captures that shape (and where it empirically begins) from one scan to
N0 + 2 * n1, and ``omega_extrapolate`` evaluates it for arbitrarily
large n in constant time.  ``omega`` takes that route for every n past
N0 + 2 * n1 and scans only below it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BelowThreshold, Int64Overflow, TargetBelowBase
from .factorization import _final, _grid_budget, _sorted_grid, _window_scan
from .monoid import NumericalMonoid, require_i64

__all__ = [
    "omega_up_to",
    "omega",
    "dynamic_bullets",
    "bullets_brute_force",
    "bullets_via_apery",
    "quasilinear_model",
    "omega_extrapolate",
    "QuasilinearModel",
]


def _scan(monoid, n):
    """Yield (m, entry) for every integer m in [min(-F(S), 0), n], ascending.

    The entry is the pair of arrays (values, lengths) of the dynamic
    bullets of m, sorted by value; omega(m) = lengths.max().  Its size is
    bounded for fixed S, which is what makes the scan linear.

    Inside the scan a pair (v, l) is one int64 key (v << bits) | l.  A
    bullet of m has v <= m + F(S) + nk and l <= v / n1, so ``bits`` holds
    every length up to the target, and the keys of an entry sort by value
    first and length second.  One step covers all k generators at once:
    the keys at m - ni are concatenated, one gather from a byte table
    over the offsets v - m in [-nk, F(S) + nk] marks the pairs that move
    by (ni, 1), which adds (ni << bits) + 1 to their keys, and after one
    in-place sort the last key of each value run is the longest pair.
    A target whose keys would not fit in 63 bits raises Int64Overflow
    before anything is built.
    """
    n = require_i64(n, "target")
    gens = monoid.generators
    nk = gens[-1]
    # F(S) = -1 for the naturals <1>; starting at 0 there keeps every
    # non-negative target in range
    base = min(-monoid.frobenius, 0)
    if n < base:
        raise TargetBelowBase(f"scan target {n} is below the base case {base}")
    top = n + monoid.frobenius + nk  # the largest bullet value of the scan
    bits = (top // gens[0]).bit_length()
    if top.bit_length() + bits > 63:  # top >= 2**(63 - bits)
        raise Int64Overflow(f"scan target {n} does not fit in packed 64-bit bullet keys")

    # gap[y + nk] is True iff the offset y in [-nk, F(S) + nk] lies outside S
    gap = np.concatenate((np.ones(nk, dtype=bool), ~monoid._table, np.zeros(nk, dtype=bool)))
    moves = np.array([(g << bits) + 1 for g in gens], dtype=np.int64)

    def step(m, preds):
        key = np.concatenate(preds)
        key += moves.repeat([len(p) for p in preds]) * gap[(key >> bits) - (m - nk)]
        key.sort()
        v = key >> bits
        last = np.empty(len(key), dtype=bool)
        last[-1] = True
        last[:-1] = v[1:] != v[:-1]
        return key[last]

    # every entry below the base is {(0, 0)}, the key 0
    lengths = (1 << bits) - 1
    for m, key in _window_scan(gens, base, n, np.zeros(1, dtype=np.int64), step):
        yield m, (key >> bits, key & lengths)


def _omegas(monoid, n, domain):
    """Yield (m, omega(m)) over the domain of ``omega_up_to``, ascending."""
    if domain not in ("monoid", "quotient"):
        raise ValueError(f"domain must be 'monoid' or 'quotient', got {domain!r}")
    for m, (_, lengths) in _scan(monoid, n):
        if domain == "quotient" or monoid.contains(m):
            yield m, int(lengths.max())


def omega_up_to(monoid: NumericalMonoid, n, domain="monoid"):
    """Map m -> omega(m) for m up to n, via the dynamic-bullet scan.

    ``domain="monoid"`` returns entries for the monoid elements of
    [0, n]; ``domain="quotient"`` returns every integer of
    [min(-F(S), 0), n].  The target must not lie below that start, and
    a target whose packed bullet keys cannot fit in 63 bits (above about
    6.4e9 on <6,9,20>) raises Int64Overflow before the scan starts.
    """
    return dict(_omegas(monoid, n, domain))


def omega(monoid: NumericalMonoid, n):
    """omega(n) for a single integer n (0 whenever -n is in the monoid).

    Above threshold + 2 * n1 (the ``quasilinear_model`` threshold N0) the
    answer comes from that model, whose own scan stops there, so no
    query scans further than N0 + 2 * n1 and a huge n costs no more than
    that.  Every other n, and every monoid with one generator, is read
    off the scan to n.
    """
    n = require_i64(n, "target")
    gens = monoid.generators
    if len(gens) >= 2 and n > _threshold(monoid) + 2 * gens[0]:
        return omega_extrapolate(quasilinear_model(monoid), n)
    return max(length for _, length in dynamic_bullets(monoid, n))


def dynamic_bullets(monoid: NumericalMonoid, n):
    """Maximal dynamic bullets (value, length) of n, sorted by value.

    These are the window entries the scan keeps: one pair per attainable
    bullet value, with the largest length.  For n below -F(S) the entry
    is the constant {(0, 0)}.  Targets past the packed-key range of the
    scan raise Int64Overflow, as in ``omega_up_to``.
    """
    n = require_i64(n, "target")
    if n < -monoid.frobenius:
        return ((0, 0),)
    values, lengths = _final(_scan(monoid, n))
    return tuple(zip(values.tolist(), lengths.tolist()))


def _zero_bullet(monoid):
    return {(0,) * monoid.k}


def bullets_brute_force(monoid: NumericalMonoid, x):
    """bul(x) by direct enumeration; the oracle the dynamic path is checked against.

    Every bullet value is at most x + F(S) + nk, so vectors are
    enumerated up to that budget and filtered by the two bullet
    conditions.
    """
    x = require_i64(x, "target")
    if monoid.contains(-x):
        return _zero_bullet(monoid)
    gens = monoid.generators
    budget = x + monoid.frobenius + gens[-1]
    rows, values = _sorted_grid(gens, _grid_budget(budget))
    # bullet values lie in [x, budget]: y = v - x sits in [0, F + nk]
    lo, hi = np.searchsorted(values, (max(x, 0), budget + 1))
    rows = rows[lo:hi]
    y = values[lo:hi] - x
    good = monoid.contains_array(y)
    for i, g in enumerate(gens):
        good &= (rows[:, i] == 0) | ~monoid.contains_array(y - g)
    return {tuple(int(v) for v in row) for row in rows[good]}


def bullets_via_apery(monoid: NumericalMonoid, x):
    """bul(x) from restricted factorizations over Apery-set intersections.

    Unions Z_A(y + x) over every non-empty generator subset A and every
    y in the intersection of the Apery sets of A.  Subsets whose gcd
    cannot divide y + x contribute nothing and are skipped.
    """
    from .factorization import brute_force_factorizations

    x = require_i64(x, "target")
    if monoid.contains(-x):
        return _zero_bullet(monoid)
    gens = monoid.generators
    k = len(gens)
    apery = {g: set(monoid.apery_set(g).elements) for g in gens}
    result = set()
    for bits in range(1, 1 << k):
        subset = tuple(gens[i] for i in range(k) if bits >> i & 1)
        common = apery[subset[0]]
        for g in subset[1:]:
            common = common & apery[g]
        if not common:
            continue
        d = math.gcd(*subset)
        for y in common:
            t = y + x
            if t < 0 or t % d:
                continue
            result |= brute_force_factorizations(monoid, t, support=subset)
    return result


@dataclass(frozen=True)
class QuasilinearModel:
    """Eventual shape of omega: n / n1 + offsets[n mod n1] for n > threshold.

    ``dissonance`` is the empirical start of that behavior: the largest
    n from which stepping forward by n1 does not yet raise omega by
    exactly one (omega(n + n1) != omega(n) + 1), floored at n1 since the
    step always breaks at the identity.  It scans the whole quotient
    group; ``dissonance_in_monoid`` restricts the scan to monoid
    elements.  The step relation provably holds beyond ``threshold``, so
    both are exact.
    """

    n1: int
    threshold: int
    offsets: tuple
    dissonance: int
    dissonance_in_monoid: int
    anchors: tuple = field(repr=False)

    @property
    def N0(self):
        return self.threshold


def _threshold(monoid):
    """N0 = ceil((F(S) + n2) * n1 / (n2 - n1)), past which omega is quasilinear."""
    n1, n2 = monoid.generators[:2]
    return -((monoid.frobenius + n2) * n1 // -(n2 - n1))


def quasilinear_model(monoid: NumericalMonoid):
    """Fit the exact eventual quasilinear form of omega on S.

    Runs the dynamic scan up to threshold + 2 * n1, reads one exact
    rational offset per residue class off the top of the window, and
    locates the empirical start of the omega(n) = omega(n - n1) + 1
    recurrence in both the quotient-group and monoid-only readings.
    """
    gens = monoid.generators
    if len(gens) < 2:
        raise ValueError("the quasilinear model needs at least two generators")
    n1 = gens[0]
    threshold = _threshold(monoid)
    top = threshold + 2 * n1
    base = min(-monoid.frobenius, 0)
    # omega(m) at index m - base, in an array to keep the peak memory low
    w = np.fromiter((v for _, v in _omegas(monoid, top, "quotient")), dtype=np.int64)
    # one anchor per residue class mod n1, each in (threshold, threshold + n1]
    anchors = [(m0, int(w[m0 - base]))
               for m0 in (threshold + 1 + (r - threshold - 1) % n1 for r in range(n1))]
    # every m from which stepping forward by n1 does not raise omega by exactly one
    broken = (np.flatnonzero(w[n1:] != w[:-n1] + 1) + base).tolist()
    return QuasilinearModel(
        n1=n1,
        threshold=threshold,
        offsets=tuple(Fraction(w0 * n1 - m0, n1) for m0, w0 in anchors),
        dissonance=max([n1, *broken]),
        dissonance_in_monoid=max([n1, *filter(monoid.contains, broken)]),
        anchors=tuple(anchors),
    )


def omega_extrapolate(model: QuasilinearModel, n):
    """omega(n) for n above the model threshold, in constant time."""
    n = operator.index(n)
    if n <= model.threshold:
        raise BelowThreshold(
            f"{n} <= threshold {model.threshold}: use the dynamic scan instead"
        )
    m0, w0 = model.anchors[n % model.n1]
    return w0 + (n - m0) // model.n1
