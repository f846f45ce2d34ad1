"""Factorization sets and length sets, computed dynamically.

The factorization set Z(m) of an element m is the set of exponent
vectors (a1, ..., ak) with sum(ai * ni) = m.  Z obeys a one-step
recurrence: every factorization of m extends a factorization of some
m - ni by one copy of ni.  Splitting by the smallest extended index
makes the union disjoint, so each vector is produced exactly once:

    Z(m) = disjoint union over i of
           { a + e_i : a in Z(m - ni), a_j = 0 for all j < i }

Z(m) is stored part by part in ascending i, and every row of part i has
its first nonzero index at i.  So the rows of Z(m - ni) that vanish
below index i are a suffix of that array, located by the part offsets
stored beside it: each step copies k suffixes and filters no rows.  Z(m)
is stored in column order, so column i of part i is one contiguous run:
the step copies each suffix as it is and adds 1 to that run alone.  The
same layout puts every Z(m) in descending lexicographic order: a row of
part i sorts above every row of a later part, and adding e_i to a suffix
keeps its order.

Length sets satisfy the same recurrence with "append e_i" replaced by
"+1", which is why they can be scanned without ever materializing a
factorization.  Each recurrence is one direct loop over a ring buffer of
the last nk results, so memory stays proportional to the window, not to
the target.  The Z loop reads the predecessor m - ni of m at the list
index r - ni of the residue r = m mod nk, which Python wraps to the slot
(r - ni) % nk, since r - ni >= -nk.  The L loop, whose step is cheaper,
reads them through a slot table built once per scan by ``_slots``; the
table is faster to read but holds a tuple per residue the scan reaches.
(omega's dynamic bullets run their own loop, a block of n1 elements per
step.)  Membership comes from the recurrence itself: m > 0 lies in S iff
some m - ni does, so an empty union marks a gap.

Length sets are stored internally as integer bitmasks (bit l set iff l
is an attainable length); shifting a mask left by one adds 1 to every
length, and union is bitwise or.  The longest factorization M(m) is
the top bit of that mask, so it needs no scan of its own.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import Int64Overflow, NegativeTarget, NotAGenerator
from .monoid import NumericalMonoid, require_i64

__all__ = [
    "factorizations_up_to",
    "factorizations",
    "brute_force_factorizations",
    "length_sets_up_to",
]


def _checked_target(n):
    n = require_i64(n, "target")
    if n < 0:
        raise NegativeTarget(f"target must be non-negative, got {n}")
    return n


def _slots(gens, n):
    """slots[r]: the ring slots (r - ni) % nk of m - n1, ..., m - nk for m mod nk = r."""
    nk = gens[-1]
    return [tuple((r - g) % nk for g in gens) for r in range(min(nk, n + 1))]


def _final(scan):
    """The entry of the last element of a scan."""
    return deque(scan, maxlen=1)[0][1]


def factorizations_up_to(monoid: NumericalMonoid, n):
    """Yield (m, Z(m)) for every monoid element m in [0, n], ascending.

    Each Z(m) is a read-only numpy array of shape (len(Z(m)), k) holding
    one exponent vector per row, in descending lexicographic order.
    Its dtype is the narrowest that holds every exponent: with
    t = n // n1, int16 when t < 2**15 - 1, int32 when t < 2**31 - 1 and
    int64 otherwise.  Each Z(m) is stored in column order
    (F-contiguous); ``tolist``, ``tobytes`` and row iteration read it
    row by row as usual.  Rows are never duplicated; no dedup pass
    runs.  Only the last nk factorization sets are retained internally,
    so iterating without keeping references streams in bounded memory.
    """
    n = _checked_target(n)
    gens, k = monoid.generators, monoid.k
    # no exponent exceeds t = n // n1
    t = n // gens[0]
    dtype = np.int16 if t < 2**15 - 1 else np.int32 if t < 2**31 - 1 else np.int64
    zero = np.zeros((1, k), dtype=dtype)
    zero.setflags(write=False)
    one, nk, parts = dtype(1), gens[-1], list(enumerate(gens))
    # ring slot r holds (Z(m), offsets) for the last m = r mod nk: offsets[i]
    # counts the rows whose first nonzero index is below i, and offsets[k]
    # all rows.  A gap, and a slot not yet written, holds no rows.  Since
    # r - g >= -nk, the index r - g reads the slot (r - g) % nk of m - g.
    gap = (None, [0] * (k + 1))
    window = [gap] * nk
    window[0] = (zero, [0] * k + [1])
    yield 0, zero
    for m in range(1, n + 1):
        r = m % nk
        # rows run in ascending first-nonzero index, so the a in Z(m - ni)
        # that vanish below index i are its rows from offsets[i] on, and part
        # i is those rows plus e_i.  An empty union means m is not in S.
        starts = [0]
        for i, g in parts:
            offsets = window[r - g][1]
            starts.append(starts[-1] + offsets[k] - offsets[i])
        rows = starts[k]
        if not rows:
            window[r] = gap
            continue
        # column order: column i of part i is one contiguous run of flat
        Z = np.empty((rows, k), dtype, order="F")
        flat = Z.T.reshape(-1)
        for i, g in parts:
            lo, hi = starts[i], starts[i + 1]
            if lo < hi:
                P, offsets = window[r - g]
                Z[lo:hi] = P[offsets[i]:]
                v = flat[i * rows + lo:i * rows + hi]
                np.add(v, one, v)
        del P  # so the ring alone keeps Z(m - nk), replaced below, alive
        Z.setflags(write=False)
        window[r] = Z, starts
        yield m, Z


def factorizations(monoid: NumericalMonoid, n):
    """Z(n) as a set of exponent tuples; empty iff n is not in the monoid."""
    n = _checked_target(n)
    if not monoid.contains(n):
        return set()
    return set(map(tuple, _final(factorizations_up_to(monoid, n)).tolist()))


# rows a grid may hold: the largest grid the demos and tests build
# has 126,309 rows, and 2**21 rows of k int64 columns take about 16 k MiB
_GRID_ROWS_LIMIT = 2**21


def _grid_fits(gens, budget):
    """True iff ``_sorted_grid(gens, budget)`` holds at most ``_GRID_ROWS_LIMIT`` rows.

    Counts the rows stage by stage as ``_sorted_grid`` builds them, but
    keeps only the values of all stages but the last, so it allocates at
    most one int64 column of ``_GRID_ROWS_LIMIT`` entries.
    """
    # the grid holds the budget // g + 1 multiples of each g, so this check,
    # in Python ints, leaves numpy a budget and row sums in int64
    if any(budget // g >= _GRID_ROWS_LIMIT for g in gens):
        return False
    budget = require_i64(budget, "grid budget")
    values = np.zeros(1, dtype=np.int64)
    for g in reversed(gens[1:]):
        reps = (budget - values) // g + 1
        if int(reps.sum()) > _GRID_ROWS_LIMIT:
            return False
        idx, counts = _copies(reps)
        values = values[idx] + counts * g
    return int(((budget - values) // gens[0] + 1).sum()) <= _GRID_ROWS_LIMIT


def _copies(reps):
    """(idx, counts): each row i of a grid stage, repeated with 0 to reps[i] - 1 copies of the next generator."""
    idx = np.repeat(np.arange(len(reps)), reps)
    return idx, np.arange(len(idx)) - (np.cumsum(reps) - reps)[idx]


def _sorted_grid(gens, budget):
    """All exponent vectors over `gens` with value <= budget, ordered by value.

    Returns (rows, values): rows is an int64 array with one column per
    generator (in the given order), values its dot product with gens,
    ascending, so exact values are slice lookups.  Built by extending
    with the largest generator first to keep the intermediate row
    counts small.  A grid of more than ``_GRID_ROWS_LIMIT`` rows is
    refused with Int64Overflow before it is allocated.
    """
    if not _grid_fits(gens, budget):
        raise Int64Overflow(f"a grid of vectors up to {budget} exceeds {_GRID_ROWS_LIMIT} rows")
    rows = np.zeros((1, 0), dtype=np.int64)
    values = np.zeros(1, dtype=np.int64)
    for g in reversed(gens):
        idx, counts = _copies((budget - values) // g + 1)
        rows = np.column_stack([counts, rows[idx]])
        values = values[idx] + counts * g
    order = np.argsort(values, kind="stable")
    return rows[order], values[order]


def brute_force_factorizations(monoid: NumericalMonoid, n, support=None):
    """Enumerate Z(n) by bounded nested loops, independent of the scan.

    ``support`` optionally restricts to factorizations whose exponents
    vanish outside the given generators (given by value).  This is the
    validation oracle: exponential in k, intended for desk-scale n.
    """
    n = _checked_target(n)
    gens = monoid.generators
    if support is None:
        chosen = gens
    else:
        chosen = tuple(sorted(set(support)))
        for g in chosen:
            if g not in gens:
                raise NotAGenerator(f"{g} is not a minimal generator of {monoid!r}")
    rows, values = _sorted_grid(chosen, n)
    lo, hi = np.searchsorted(values, (n, n + 1))
    full = np.zeros((hi - lo, len(gens)), dtype=np.int64)
    full[:, [gens.index(g) for g in chosen]] = rows[lo:hi]
    return set(map(tuple, full.tolist()))


def _length_masks_up_to(monoid, n):
    """Yield (m, bitmask of L(m)) for monoid elements m in [0, n]."""
    n = _checked_target(n)
    nk, slots = monoid.generators[-1], _slots(monoid.generators, n)
    # L(m) is the union of L(m - ni) + 1; a gap, and a slot not yet
    # written, holds the empty mask 0
    window = [0] * nk
    window[0] = 1
    yield 0, 1
    for m in range(1, n + 1):
        mask = 0
        for i in slots[m % nk]:
            mask |= window[i]
        mask <<= 1
        window[m % nk] = mask
        if mask:
            yield m, mask


def _mask_to_lengths(mask):
    """Sorted numpy array of the set-bit positions of ``mask``."""
    nbytes = (mask.bit_length() + 7) // 8 or 1
    bits = np.unpackbits(
        np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little",
    )
    return np.flatnonzero(bits)


def length_sets_up_to(monoid: NumericalMonoid, n):
    """Yield (m, L(m)) for every monoid element m in [0, n], ascending.

    L(m) arrives as a sorted numpy int array.  Memory stays bounded by
    the nk-deep ring buffer; factorizations are never materialized.
    """
    for m, mask in _length_masks_up_to(monoid, n):
        yield m, _mask_to_lengths(mask)
