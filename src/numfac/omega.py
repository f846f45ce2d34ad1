"""Omega-primality over the integers, via dynamic bullets and max-length tables.

A bullet for an integer x is an exponent vector b whose value
v = sum(bi * ni) satisfies v - x in S while v - x - ni lies outside S
for every generator ni actually used.  omega(x) is the largest bullet
length; it is 0 exactly when -x is in S, and 1 exactly when -x is a
pseudo-Frobenius number.

Four routes to the same numbers live here:

  * ``_blocks`` runs the paper's dynamic scan.  Each element m keeps a
    window entry of (value, length) pairs ("dynamic bullets", at most
    one pair per value, the longest).  The entry for m is obtained by
    pushing every pair of the entries for m - ni through the cover map:
    a pair (v, l) survives unchanged when v - m is in S and otherwise
    becomes (v + ni, l + 1).  Every m - ni lies at or below m - n1, so
    the n1 entries of a block [M, M + n1) depend only on entries below
    M, and the scan computes a whole block in one vectorized step: the
    k slices of predecessor pairs, packed as integer keys, one gathered
    add per pair and one in-place sort.  The keys are int32 whenever
    every key of the scan fits in 31 bits and int64 otherwise; a target
    whose keys would not fit in 63 bits is refused with Int64Overflow.
    Every integer below -F(S) has the constant entry {(0, 0)}, which
    lets the scan start at min(-F(S), 0).  ``dynamic_bullets`` takes
    the last entry of the last block, and ``numfac verify`` checks the
    longest pair of every entry against both oracles below.
  * ``_omega_table`` reads omega(x) for every x of a range
    [min(-F(S), 0), top] off max-length tables of generator subsets,
    with no bullets: where -x lies outside S, omega(x) is the longest
    factorization of x + y over the generators ni with y - ni outside
    S, over the y in S up to F(S) + nk.  ``omega``, ``omega_up_to`` and
    ``quasilinear_model`` read their values off it.
  * ``bullets_brute_force`` enumerates exponent vectors directly and
    filters by the two bullet conditions.  Values never exceed
    x + F(S) + nk, which bounds the enumeration.
  * ``bullets_via_apery`` builds bul(x) from restricted factorization
    sets: a vector supported on a generator subset A is a bullet exactly
    when it factors y + x for some y in the intersection of the Apery
    sets of A.  It reads them off one grid per subset.

The two oracles answer one x per call, each call building its own
grids.  ``numfac verify`` reads them for a whole range of x in one
pass: ``_bullet_table`` slices every bul(x) off one brute grid, and
``_apery_omegas`` reads every omega(x) off one grid per subset.

For n above the threshold N0 = ceil((F(S) + n2) * n1 / (n2 - n1)) the
omega function is quasilinear: omega(n) = n / n1 + a(n mod n1) with
exact rational offsets a (O'Neill and Pelayo, "On the linearity of
omega-primality in numerical monoids", JPAA 2014).  ``quasilinear_model``
captures that shape (and where it empirically begins) from one omega
table to N0 + 2 * n1, which it keeps, and ``omega_extrapolate``
evaluates it for arbitrarily large n in constant time.  ``omega`` and
``omega_up_to`` (and every sweep of the command line) answer each
n >= N0 from the memoized model, its table up to N0 + 2 * n1 and its
anchors past it, so one table per monoid serves them all; below N0 they
read the omega table to n.  A target of ``omega_up_to`` is still
admitted or refused by the packed-key bound of a scan to it, and every
table by its length, so no sweep runs without end.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BelowThreshold, Int64Overflow, TargetBelowBase
from .factorization import _sorted_grid
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


def _admit(monoid, n):
    """(n, base, bits, rel, dtype) of a scan to n, or Int64Overflow before anything is built.

    A bullet (v, l) of m has m <= v <= m + F(S) + nk and l <= v / n1, so
    ``bits`` holds every length up to the target.  A target is admitted
    only while (v << bits) | l fits in 63 bits for every bullet, the
    packed-key bound that ``omega_up_to`` documents, and while the block
    keys of ``_blocks`` fit too.  Every key of the scan, and every sum
    the block step forms, lies below 2**(n1.bit_length() + rel), so
    ``dtype``, the dtype ``_blocks`` packs its keys in, is int32 when
    n1.bit_length() + rel <= 31 and int64 otherwise.
    """
    n = require_i64(n, "target")
    gens = monoid.generators
    n1, nk = gens[0], gens[-1]
    # F(S) = -1 for the naturals <1>; starting at 0 there keeps every
    # non-negative target in range
    base = min(-monoid.frobenius, 0)
    if n < base:
        raise TargetBelowBase(f"scan target {n} is below the base case {base}")
    top = n + monoid.frobenius + nk  # the largest bullet value of the scan
    bits = (top // n1).bit_length()
    if top.bit_length() + bits > 63:  # top >= 2**(63 - bits)
        raise Int64Overflow(f"scan target {n} does not fit in packed 64-bit bullet keys")
    # A block key has s < n1 and v - m in [0, F(S) + nk], so it lies in
    # [0, n1 << rel), which the check below keeps in 63 bits.  The block
    # step adds s << rel, taken from ``tags``, to a window key of at most
    # 2**rel, then the key's change, so every sum it forms lies in
    # [0, n1 << rel], below 2**(n1.bit_length() + rel) like every key:
    # the dtype check at the end rests on that.  With
    # R = (F(S) + nk).bit_length(), the check below never binds before
    # the one above: if top has at least
    # n1.bit_length() + R bits, the block keys need at most the
    # top.bit_length() + bits checked there; otherwise
    # top < 2**(n1.bit_length() + R - 1), so bits <= R and the block keys
    # need at most n1.bit_length() + 2 * R bits.  Since n1 <= F(S) + nk
    # on every monoid but <1>, that is at most 63 whenever
    # F(S) + nk < 2**21.  On an admitted monoid past that (F(S) up to 5e8,
    # n1 up to 5e7) the check may refuse targets the one above admits.
    rel = (monoid.frobenius + nk).bit_length() + bits
    if n1.bit_length() + rel > 63:
        raise Int64Overflow(f"scan target {n} does not fit in packed 64-bit block keys")
    dtype = np.int32 if n1.bit_length() + rel <= 31 else np.int64
    return n, base, bits, rel, dtype


def _blocks(monoid, n):
    """Yield (M, offsets, values, lengths) for the blocks [M, M + n1) of a scan to n.

    Blocks start at min(-F(S), 0); the last one stops at n.  The entry
    of M + s is values[offsets[s]:offsets[s + 1]] with its lengths.

    Every predecessor m - ni of a block lies below its start M, so one
    step computes all n1 entries of a block.  The window holds the pairs
    of the entries of [M - nk, M) in one flat array, entry after entry:
    a pair (v, l) of p as the key ((v - p) << bits) | l.  The
    predecessors of the block along ni are then the one slice of entries
    [M - ni, M - ni + n1).  Each slice is rewritten into one
    preallocated array as block keys (s << rel) | ((v - m) << bits) | l
    of m = M + s; one table per generator ni over the offsets v - p in
    [0, F(S) + nk] holds the change of the key of each pair, whether it
    stays or moves by (ni, 1), so a pair costs one gather.  One in-place
    sort groups the keys by entry and value, the last key of each (s, v)
    run is the longest pair, and one ``searchsorted`` finds the n1 + 1
    offsets.  The block's pairs are then written after the window, which
    moves its live part to the front only when it is full, so a block
    costs the pairs of its entries and of their predecessors, whatever
    nk is.  ``_admit`` fixes ``bits`` and ``rel``, refuses a target
    whose keys cannot fit, and picks the key dtype: int32 whenever every
    key fits in 31 bits, which halves the bytes the sort and the lane
    arithmetic move, int64 otherwise.  The yielded values and lengths
    are int64 either way.
    """
    n, base, bits, rel, dtype = _admit(monoid, n)
    gens = monoid.generators
    n1, nk = gens[0], gens[-1]

    # gap[y + nk] is True iff the offset y in [-nk, F(S) + nk] lies outside S;
    # a pair (v, l) of p = m - g moves iff gap[nk - g:][v - p] is True.  A
    # pair that stays has v - m = v - p - g; one that moves, v + g - m = v - p
    # and one more length, so shift[v - p] of g is the change of its key
    gap = np.concatenate((np.ones(nk, dtype=bool), ~monoid._table, np.zeros(nk, dtype=bool)))
    shifts = [np.where(gap[nk - g:], dtype(1), dtype(-(g << bits))) for g in gens]
    # the window entries of [M - g, M - g + n1) are the slots grid[i] for
    # g = gens[i]; their pairs start at offsets[first + grid[i]]
    grid = (nk - np.array(gens))[:, None] + np.arange(n1 + 1)
    tags = np.arange(n1 + 1, dtype=dtype) << rel
    lows = (1 << rel) - 1
    lengths = (1 << bits) - 1

    # the window entry of [M - nk, M) in slot j holds the pair keys
    # pairs[offsets[first + j]:offsets[first + j + 1]]; every entry below
    # the base is {(0, 0)}, so the pair of p has v - p = -p
    pairs = -np.arange(base - nk, base, dtype=dtype) << bits
    offsets = np.empty(2 * nk + n1 + 4096, dtype=np.int64)
    offsets[:nk + 1] = np.arange(nk + 1)
    first = 0
    key = np.empty(0, dtype=dtype)
    for M in range(base, n + 1, n1):
        width = min(n1, n + 1 - M)  # the last block stops at n
        ends = offsets[grid[:, :width + 1] + first]
        sizes = ends[:, 1:] - ends[:, :-1]
        los, his = ends[:, 0].tolist(), ends[:, -1].tolist()
        size = sum(his) - sum(los)
        if len(key) < size:
            key = np.empty(size + size // 8, dtype=dtype)
        at = 0
        for shift, lo, hi, entries in zip(shifts, los, his, sizes):
            # s << rel for every pair of the entries m - g, s = m - M
            part = key[at:at + hi - lo]
            np.add(tags[:width].repeat(entries), pairs[lo:hi], out=part)
            part += shift[np.right_shift(pairs[lo:hi], bits, dtype=np.intp)]  # shift[v - p]
            at += hi - lo
        block_keys = key[:size]
        block_keys.sort()
        last = _run_ends(block_keys, bits)
        count = np.count_nonzero(last)

        # the block's entries go to the end of the window; once full, its
        # live part moves to the front.  Beyond that part and the block, the
        # array keeps a quarter of them plus 4096 pairs to spare, so the
        # window moves at most once per quarter of its pairs appended, and
        # small windows seldom; a new array keeps half of them to spare, so
        # a growing window seldom needs another
        end = offsets[first + nk]
        if end + count > len(pairs) or first + nk + width >= len(offsets):
            start = offsets[first]
            live = end - start
            if len(pairs) < 5 * (live + count) // 4 + 4096:
                pairs = _front(pairs, start, end, 3 * (live + count) // 2 + 4096)
            else:
                pairs[:live] = pairs[start:end]
            offsets[:nk + 1] = offsets[first:first + nk + 1] - start
            end = live
            first = 0
        kept = pairs[end:end + count]
        block_keys.compress(last, out=kept)
        block = kept.searchsorted(tags[:width + 1])
        values = np.right_shift(kept, rel, dtype=np.int64)  # s
        values += M
        kept &= lows  # ((v - m) << bits) | l
        values += kept >> bits
        offsets[first + nk + 1:first + nk + 1 + width] = block[1:] + end
        first += width
        yield M, block, values, np.bitwise_and(kept, lengths, dtype=np.int64)


def _front(a, lo, hi, size):
    """A new array of the given size that starts with a[lo:hi]."""
    b = np.empty(size, dtype=a.dtype)
    b[:hi - lo] = a[lo:hi]
    return b


def _run_ends(key, bits):
    """Mark the last key of each run of equal key >> bits in a sorted key array.

    A function of its own, so its temporaries are freed before the block's
    entries are written.
    """
    run = key >> bits
    last = np.empty(len(key), dtype=bool)
    last[-1] = True
    np.not_equal(run[1:], run[:-1], out=last[:-1])
    return last


def _omega_table(monoid, top):
    """omega(x) for every x in [min(-F(S), 0), top], as int64, from restricted max-length tables.

    The same numbers as the longest pair of each entry of ``_blocks``,
    read without the bullets.  For y in S with y <= F(S) + nk, let
    G(y) = {ni : y - ni outside S}.  Where -x lies outside S, a vector b
    is a bullet of x exactly when y = v(b) - x lies in S and the support
    of b lies in G(y); such a y is at most F(S) + nk, since past that
    every y - ni lies in S.  Let M_A(t) be the longest factorization of
    t that uses only the generators in A, or -inf if there is none: the
    paper's one-step max-length recurrence restricted to A.  So omega(x)
    is the largest M_G(y)(x + y) over the y with G(y) non-empty.  Where
    -x lies in S, omega(x) = 0, as in the scan.

    The y are grouped by their subset A = G(y) (``_supports``).  Since
    M_A(t + j * a) >= M_A(t) + j for every a in A, a y is dominated by
    every larger y of its residue class mod a = min(A).  A singleton
    A = {a} needs no table: M_A(x + y) = (x + y) / a where a divides
    x + y, so each x reads the largest y of the class of -x
    (``_fold_singleton``).  Every other A keeps only the largest y of
    each class, at most a of them, builds M_A up to top plus the largest
    of them, one unbounded-knapsack pass per generator (``_extend``), and
    folds one ``np.maximum`` per kept y into omega.  The subsets come in
    lexicographic order, and only the tables of the prefixes of the
    current one stay alive, at most k of them.  The tables and the
    running omega are int16 when every length, row index and the
    sentinel fit, and int32 or int64 otherwise (``_sentinel``).  A range
    past ``_MODEL_TABLE_LIMIT`` integers is refused before anything is
    built.
    """
    _check_range(monoid, top)
    gens = monoid.generators
    nk = gens[-1]
    base = min(-monoid.frobenius, 0)
    reach = monoid.frobenius + nk
    # member[nk + y] is True iff y in [-nk, F(S) + nk] lies in S
    member = np.concatenate((np.zeros(nk, dtype=bool), monoid._table, np.ones(nk, dtype=bool)))
    groups = []
    for A, ys in _supports(gens, member, reach):
        ys = ys[ys >= -top]  # else x + y < 0 for every x
        if len(A) > 1:  # the largest y of each class mod min(A)
            _, last = np.unique(ys[::-1] % gens[A[0]], return_index=True)
            ys = ys[::-1][last]
        if len(ys):
            groups.append((A, ys))
    s = _sentinel(monoid, top)
    w = np.full(top - base + 1, s)
    _fold(w, gens, groups, base, s)
    w = w.astype(np.int64)
    # x = base + i in [base, min(top, 0)] has -x = -base - i
    zero = member[nk + max(-top, 0):nk - base + 1][::-1]
    w[:len(zero)][zero] = 0
    return w


def _fold(w, gens, groups, base, s):
    """Fold every (A, ys) of ``groups`` into w, omega so far of x = base + i at w[i].

    s is the sentinel of ``_sentinel``.  A function of its own, so its
    max-length tables are freed before ``_omega_table`` makes its int64
    copy.
    """
    top = base + len(w) - 1
    size = top + 1 + max([ys.max() for A, ys in groups if len(A) > 1], default=0)
    path, tables = [], []  # tables[j] is M over the generators path[:j + 1]
    for A, ys in groups:
        if len(A) == 1:
            _fold_singleton(w, gens[A[0]], base, ys, s)
            continue
        # keep the tables of the longest common prefix of path and A
        common = next((j for j, (i, h) in enumerate(zip(path, A)) if i != h),
                      min(len(path), len(A)))
        del path[common:], tables[common:]
        for i in A[common:]:
            tables.append(_extend(tables[-1] if tables else None, gens[i], size, s))
            path.append(i)
        for y in ys.tolist():
            skip = max(0, -y - base)  # x + y >= 0 from x = -y on
            np.maximum(w[skip:], tables[-1][base + y + skip:top + y + 1], out=w[skip:])


def _sentinel(monoid, top):
    """The mark of a t with no factorization in ``_omega_table`` to top, in its tables' dtype.

    Every length, and every row index of ``_extend`` and
    ``_fold_singleton``, lies below q = (top + F(S) + nk) // n1 + 1.  A
    pass of ``_extend`` raises a sentinel by less than q, so after the
    at most k passes of a table s = -(k + 1) * q still lies below every
    length less its row index, and below 0.  The tables are int16 when
    the lowest value a pass forms, s - q, fits, and int32 or int64
    otherwise.
    """
    k = len(monoid.generators)
    q = (top + monoid.frobenius + monoid.generators[-1]) // monoid.generators[0] + 1
    dtype = next(t for t in (np.int16, np.int32, np.int64) if (k + 2) * q <= -np.iinfo(t).min)
    return dtype(-(k + 1) * q)


def _supports(gens, member, reach):
    """Yield (A, ys) for each non-empty subset A = G(y) of some y, with its y ascending.

    A is a tuple of generator indices, and the subsets come in
    lexicographic order of their membership vectors.  ``member`` and
    ``reach`` are those of ``_omega_table``.
    """
    nk = gens[-1]
    # outside[i, y]: y - gens[i] lies outside S
    outside = np.array([~member[nk - g:nk - g + reach + 1] for g in gens])
    # int32, as F(S) + nk < 2**31 on every monoid the membership table admits
    ys = np.flatnonzero(member[nk:] & outside.any(axis=0)).astype(np.int32)
    outside = outside[:, ys]
    order = np.lexsort(outside[::-1])  # stable, so the y of each subset stay ascending
    ys, outside = ys[order], outside[:, order]
    starts = np.flatnonzero(np.r_[True, (outside[:, 1:] != outside[:, :-1]).any(axis=0)])
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(ys)]):
        yield tuple(np.flatnonzero(outside[:, lo]).tolist()), ys[lo:hi]


def _extend(table, g, size, s):
    """M over A and g, from M over A (None for the empty A): one unbounded-knapsack pass.

    Both tables cover t in [0, size).  With t = j * g + r, the new
    M(t) is the largest M(i * g + r) + j - i over i <= j, so the table
    in rows of g has its row index taken off, a running maximum down
    each column, and the row index put back.  The sentinel s, a scalar
    of the tables' dtype, marks a t with no factorization.
    """
    rows = -(-size // g)
    out = np.full(rows * g, s)
    if table is None:
        out[0] = 0  # the empty factorization of 0
    else:
        out[:size] = table
    grid = out.reshape(rows, g)
    j = np.arange(rows, dtype=out.dtype)[:, None]
    grid -= j
    np.maximum.accumulate(grid, axis=0, out=grid)
    grid += j
    return out[:size]


def _fold_singleton(w, a, base, ys, s):
    """Fold the largest M_{a}(x + y) = (x + y) / a over the y into w.

    w[i] is omega so far of x = base + i.  Seen in rows of a, column
    c = (-base - y) mod a holds the x = base + c + j * a with a dividing
    x + y = (base + c + y) + j * a, so x reads j + head[c], with
    head[c] the largest (base + c + y) / a of the column, or the
    sentinel s if it has no y.
    """
    col = (-base - ys) % a
    on = col < len(w)
    col = col[on]
    head = np.full(min(a, len(w)), s)
    np.maximum.at(head, col, ((base + col + ys[on]) // a).astype(w.dtype))
    rows = len(w) // a
    if rows:
        grid = w[:rows * a].reshape(rows, a)
        np.maximum(grid, np.arange(rows, dtype=w.dtype)[:, None] + head, out=grid)
    tail = w[rows * a:]
    np.maximum(tail, rows + head[:len(tail)], out=tail)


# rows per chunk of ``_omegas``: a chunk's arrays take about 40 bytes a
# row, so a sweep to any target holds a bounded amount of them besides
# its omega table
_CHUNK = 2048

# integers of the range [min(-F(S), 0), N0 + 2 * n1] of a quasilinear
# model, and of [min(-F(S), 0), n] of an omega table or a bullet scan to
# n: a longer range is refused with Int64Overflow before anything is
# built.  A model keeps 8 bytes per integer, its int64 omega table.
# Building an omega table holds up to (k + 1) * b bytes per integer while
# it folds, b = 2, 4 or 8 as ``_sentinel`` picks int16, int32 or int64:
# the narrow running omega and at most k max-length tables, each longer
# than the range by up to nk integers.  Then it holds b + 8 bytes per
# integer, the running omega and its int64 copy
_MODEL_TABLE_LIMIT = 50_000_000


def _check_range(monoid, n):
    """Refuse a range [min(-F(S), 0), n] past ``_MODEL_TABLE_LIMIT`` integers with Int64Overflow."""
    if n - min(-monoid.frobenius, 0) + 1 > _MODEL_TABLE_LIMIT:
        raise Int64Overflow(f"the range to {n} exceeds the model table cap of {_MODEL_TABLE_LIMIT} integers")


def _omegas(monoid, n, domain):
    """Yield chunks (m, omega(m)) of int64 arrays over the domain of ``omega_up_to``, ascending.

    Below the ``quasilinear_model`` threshold N0, and on <1>, they are
    chunks of ``_CHUNK`` rows of ``_omega_table`` to n.  For n >= N0
    they are slices of the model's table up to N0 + 2 * n1, then
    omega(m) = (m + w0 * n1 - m0) / n1 for the anchor (m0, w0) of
    m mod n1.  Both routes admit or refuse n by ``_admit`` first.
    """
    if domain not in ("monoid", "quotient"):
        raise ValueError(f"domain must be 'monoid' or 'quotient', got {domain!r}")
    n, base, *_ = _admit(monoid, n)
    past = len(monoid.generators) >= 2 and n >= _threshold(monoid)
    model = quasilinear_model(monoid) if past else None
    table = _omega_table(monoid, n) if model is None else model._table
    top = base + len(table) - 1  # n, or N0 + 2 * n1 for the model
    for lo in range(base, min(n, top) + 1, _CHUNK):
        m = np.arange(lo, min(lo + _CHUNK, n + 1, top + 1))
        yield _in_domain(monoid, domain, m, table[lo - base:lo - base + len(m)])
    if n > top:
        shift = np.array([w0 * model.n1 - m0 for m0, w0 in model.anchors])
        for lo in range(top + 1, n + 1, _CHUNK):
            m = np.arange(lo, min(lo + _CHUNK, n + 1))
            yield _in_domain(monoid, domain, m, (m + shift[m % model.n1]) // model.n1)


def _in_domain(monoid, domain, m, omegas):
    if domain == "monoid":
        inside = monoid.contains_array(m)
        return m[inside], omegas[inside]
    return m, omegas


def omega_up_to(monoid: NumericalMonoid, n, domain="monoid"):
    """Map m -> omega(m) for m up to n.

    ``domain="monoid"`` returns entries for the monoid elements of
    [0, n]; ``domain="quotient"`` returns every integer of
    [min(-F(S), 0), n].  The target must not lie below that start, and
    a target whose packed bullet keys cannot fit in 63 bits (above about
    6.4e9 on <6,9,20>) raises Int64Overflow before anything is built.
    Below the ``quasilinear_model`` threshold N0, the values are read
    off one omega table to n, and a range of more than 50,000,000
    integers is refused with Int64Overflow first.  From N0 on, every
    value is read off that memoized model (its table to N0 + 2 * n1,
    its anchors past it), so that table is built once per monoid.
    """
    return {m: w for ms, omegas in _omegas(monoid, n, domain)
            for m, w in zip(ms.tolist(), omegas.tolist())}


def omega(monoid: NumericalMonoid, n):
    """omega(n) for a single integer n (0 whenever -n is in the monoid).

    From the ``quasilinear_model`` threshold N0 on, the answer comes from
    that memoized model (its table to N0 + 2 * n1, then
    ``omega_extrapolate``), so omega(N0), the model and every later omega
    share one table.  Every n below N0, and <1>, is read off the omega
    table to n, whose range [min(-F(S), 0), n] is refused with
    Int64Overflow past 50,000,000 integers, as ``dynamic_bullets`` is.
    """
    n = require_i64(n, "target")
    if n < -monoid.frobenius:
        return 0
    if len(monoid.generators) >= 2 and n >= _threshold(monoid):
        model = quasilinear_model(monoid)
        at = n - min(-monoid.frobenius, 0)
        return int(model._table[at]) if at < len(model._table) else omega_extrapolate(model, n)
    return int(_omega_table(monoid, n)[-1])


def dynamic_bullets(monoid: NumericalMonoid, n):
    """Maximal dynamic bullets (value, length) of n, sorted by value.

    These are the window entries the scan keeps: one pair per attainable
    bullet value, with the largest length.  For n below -F(S) the entry
    is the constant {(0, 0)}.  Targets past the packed-key range of the
    scan raise Int64Overflow, as in ``omega_up_to``, and so does a scan
    range [min(-F(S), 0), n] of more than 50,000,000 integers (the
    quasilinear model's cap), before any scan.
    """
    n = require_i64(n, "target")
    if n < -monoid.frobenius:
        return ((0, 0),)
    _check_range(monoid, n)
    _, offsets, values, lengths = deque(_blocks(monoid, n), maxlen=1)[0]
    lo, hi = offsets[-2:].tolist()  # the entry of n closes the last block
    return tuple(zip(values[lo:hi].tolist(), lengths[lo:hi].tolist()))


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
    rows, values = _sorted_grid(gens, budget)
    # bullet values lie in [x, budget]: y = v - x sits in [0, F + nk]
    lo, hi = np.searchsorted(values, (max(x, 0), budget + 1))
    rows = rows[lo:hi]
    y = values[lo:hi] - x
    good = monoid.contains_array(y)
    for i, g in enumerate(gens):
        good &= (rows[:, i] == 0) | ~monoid.contains_array(y - g)
    return set(map(tuple, rows[good].tolist()))


def bullets_via_apery(monoid: NumericalMonoid, x):
    """bul(x) from restricted factorizations over Apery-set intersections.

    Unions Z_A(y + x) over every non-empty generator subset A and every
    y in the intersection of the Apery sets of A, reading them all off
    one grid over A up to x plus its largest y.
    """
    x = require_i64(x, "target")
    if monoid.contains(-x):
        return _zero_bullet(monoid)
    gens = monoid.generators
    result = set()
    for A, common in _apery_intersections(monoid):
        if x + common[-1] < 0:  # every x + y < 0: no vector has that value
            continue
        rows, values = _sorted_grid(A, x + common[-1])
        rows = rows[np.isin(values, np.add(common, x))]
        full = np.zeros((len(rows), len(gens)), dtype=np.int64)
        full[:, [gens.index(g) for g in A]] = rows
        result |= set(map(tuple, full.tolist()))
    return result


def _apery_intersections(monoid):
    """(A, sorted common Apery elements of A) for each generator subset A that has some.

    Each Ap(S, g) is built once and intersected per subset, as
    ``NumericalMonoid.apery_intersection`` would for one subset.
    """
    apery = {g: set(monoid.apery_set(g).elements) for g in monoid.generators}
    subsets = itertools.chain.from_iterable(
        itertools.combinations(monoid.generators, size) for size in range(1, monoid.k + 1))
    commons = ((A, tuple(sorted(set.intersection(*(apery[g] for g in A))))) for A in subsets)
    return tuple((A, common) for A, common in commons if common)


def _passes(monoid, support):
    """The y in [0, F(S) + nk] with y in S and y - g outside S for every g in ``support``.

    A vector b of value v is a bullet of x exactly when y = v - x passes
    this test for the support of b, and no y past F(S) + nk passes it
    for a non-empty support.
    """
    y = np.arange(monoid.frobenius + monoid.generators[-1] + 1)
    good = monoid.contains_array(y)
    for g in support:
        good &= ~monoid.contains_array(y - g)
    return np.flatnonzero(good)


def _bullet_table(monoid, x_max):
    """bul(x) for every x in [min(-F(S), 0), x_max], read off one grid.

    Returns (offsets, rows): bul(x) is rows[offsets[i]:offsets[i + 1]]
    for x = min(-F(S), 0) + i, the same set ``bullets_brute_force``
    returns for x.  Every bullet of x has a value v <= x + F(S) + nk,
    and whether it is one depends only on y = v - x and its support
    (``_passes``).  So one grid up to x_max + F(S) + nk holds every
    bullet of the range: each row of value v is a bullet of x = v - y
    for each y its support passes, and the (x, row) pairs are sorted by
    x.  For -x in S, only the zero vector passes, at y = -x.
    """
    gens = monoid.generators
    base = min(-monoid.frobenius, 0)
    rows, values = _sorted_grid(gens, x_max + monoid.frobenius + gens[-1])
    supports, which = np.unique(rows > 0, axis=0, return_inverse=True)
    # the rows of each support, in ascending value
    by_support = np.argsort(which.ravel(), kind="stable")
    ends = np.cumsum(np.bincount(which.ravel(), minlength=len(supports))).tolist()
    xs, picks = [], []
    for support, start, end in zip(supports, [0] + ends, ends):
        mine = by_support[start:end]
        ys = _passes(monoid, np.compress(support, gens))
        # x = v - y lies in [base, x_max] iff v lies in [base + y, x_max + y]
        lo, hi = values[mine].searchsorted([ys + base, ys + x_max + 1])
        sizes = hi - lo
        pick = mine[np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)]
        xs.append(values[pick] - np.repeat(ys, sizes))
        picks.append(pick)
    x = np.concatenate(xs)
    order = np.argsort(x, kind="stable")
    offsets = x[order].searchsorted(np.arange(base, x_max + 2))
    return offsets, rows[np.concatenate(picks)[order]]


def _apery_omegas(monoid, x_max):
    """omega(x) for every x in [min(-F(S), 0), x_max], as int64, by the Apery route.

    The one-pass form of ``bullets_via_apery``: omega(x) is the length
    of the longest vector supported on A with value x + y, over every
    generator subset A and every y in its Apery intersection.  One grid
    over A, up to x_max plus its largest y, gives the longest vector of
    each value.  Where -x is in S, omega(x) is 0, as there.
    """
    base = min(-monoid.frobenius, 0)
    x = np.arange(base, x_max + 1)
    w = np.full(len(x), -1, dtype=np.int64)
    for A, common in _apery_intersections(monoid):
        common = [y for y in common if y >= -x_max]  # else x + y < 0 for every x
        if not common:
            continue
        top = x_max + common[-1]
        rows, values = _sorted_grid(A, top)
        # longest[t]: the longest vector over A of value t, -1 if there is none
        longest = np.full(top + 1, -1, dtype=np.int64)
        starts = np.flatnonzero(np.diff(values, prepend=-1))
        longest[values[starts]] = np.maximum.reduceat(rows.sum(axis=1), starts)
        for y in common:
            skip = max(0, -y - base)  # x + y >= 0 from x = -y on
            np.maximum(w[skip:], longest[base + y + skip:x_max + y + 1], out=w[skip:])
    w[monoid.contains_array(-x)] = 0
    return w


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
    _table: np.ndarray = field(repr=False, compare=False)  # read-only omega table

    @property
    def N0(self):
        return self.threshold


def _threshold(monoid):
    """N0 = ceil((F(S) + n2) * n1 / (n2 - n1)), past which omega is quasilinear."""
    n1, n2 = monoid.generators[:2]
    return -((monoid.frobenius + n2) * n1 // -(n2 - n1))


@lru_cache(maxsize=64)
def quasilinear_model(monoid: NumericalMonoid):
    """Fit the exact eventual quasilinear form of omega on S.

    Builds the omega table (``_omega_table``) up to threshold + 2 * n1
    and keeps it (8 bytes per integer), reads one exact rational offset
    per residue class off its top, and locates the empirical start of
    the omega(n) = omega(n - n1) + 1 recurrence in both the
    quotient-group and monoid-only readings.  Memoized per monoid, so
    ``omega`` and ``omega_up_to`` from the threshold on build one table
    per monoid.  A model whose range holds more than 50,000,000 integers
    (a 400 MB table) is refused with Int64Overflow before anything is
    built.
    """
    gens = monoid.generators
    if len(gens) < 2:
        raise ValueError("the quasilinear model needs at least two generators")
    n1 = gens[0]
    threshold = _threshold(monoid)
    top = threshold + 2 * n1
    base = min(-monoid.frobenius, 0)
    w = _omega_table(monoid, top)  # omega(m) at index m - base
    w.flags.writeable = False
    # one anchor per residue class mod n1, each in (threshold, threshold + n1]
    anchors = [(m0, int(w[m0 - base]))
               for m0 in (threshold + 1 + (r - threshold - 1) % n1 for r in range(n1))]
    # every m from which stepping forward by n1 does not raise omega by exactly one
    broken = np.flatnonzero(w[n1:] != w[:-n1] + 1) + base
    return QuasilinearModel(
        n1=n1,
        threshold=threshold,
        offsets=tuple(Fraction(w0 * n1 - m0, n1) for m0, w0 in anchors),
        dissonance=max([n1, *broken.tolist()]),
        dissonance_in_monoid=max([n1, *broken[monoid.contains_array(broken)].tolist()]),
        anchors=tuple(anchors),
        _table=w,
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
