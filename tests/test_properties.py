"""Randomized invariants over small random monoids."""

import functools
import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from numfac import (
    NumericalMonoid,
    brute_force_factorizations,
    bullets_brute_force,
    delta_of_lengths,
    delta_scan_bound,
    delta_set,
    dynamic_bullets,
    factorizations,
    factorizations_up_to,
    length_set,
    max_length,
    omega,
    omega_up_to,
)
from numfac.delta import _d_min, _delta_at, _deltas_up_to, _mask_gaps, _Scan
from numfac.factorization import _length_masks_up_to, _mask_to_lengths
from numfac.omega import _admit, _blocks, _omega_table, _sentinel, _threshold
from numfac.verify import _is_antichain

# small coprime generating sets keep the brute-force oracles fast
gen_sets = st.lists(st.integers(2, 30), min_size=2, max_size=4).filter(
    lambda gs: math.gcd(*gs) == 1
)

lengths_strategy = st.lists(st.integers(0, 200), min_size=1, max_size=25, unique=True)


@given(gen_sets)
@example([1])
@settings(max_examples=40, deadline=None)
def test_membership_matches_brute_representability(gens):
    S = NumericalMonoid(gens)
    limit = 2 * max(S.frobenius, 1) + 10
    member = [False] * (limit + 1)
    member[0] = True
    for v in range(1, limit + 1):
        member[v] = any(v >= g and member[v - g] for g in gens)
    for m in range(limit + 1):
        assert S.contains(m) == member[m]
    assert S._table.tolist() == member[:S.frobenius + 1]
    # the scans read membership off their own recurrence, not off the table
    for n in (limit, S.generators[-1] - 1):
        elements = [m for m in range(n + 1) if member[m]]
        assert [m for m, _ in factorizations_up_to(S, n)] == elements
        assert [m for m, _ in _length_masks_up_to(S, n)] == elements


def _representable_by(value, gens):
    reach = [False] * (value + 1)
    reach[0] = True
    for v in range(1, value + 1):
        reach[v] = any(v >= h and reach[v - h] for h in gens)
    return reach[value]


@given(gen_sets)
@settings(max_examples=25, deadline=None)
def test_minimal_generators_are_irredundant(gens):
    S = NumericalMonoid(gens)
    for g in S.generators:
        assert not _representable_by(g, [h for h in S.generators if h != g])
    for g in S.removed_generators:
        assert _representable_by(g, S.generators)


@given(gen_sets, st.data())
@settings(max_examples=25, deadline=None)
def test_apery_covers_residues(gens, data):
    S = NumericalMonoid(gens)
    # s is drawn from the elements of S, so no monoid is filtered out;
    # the range reaches n1 so it always holds one
    top = max(S.generators[0], 25)
    s = data.draw(st.sampled_from([m for m in range(1, top + 1) if S.contains(m)]))
    ap = S.apery_set(s)
    assert len(ap) == s
    assert sorted(v % s for v in ap) == list(range(s))
    assert max(ap.elements) <= S.frobenius + s


@given(gen_sets)
@settings(max_examples=20, deadline=None)
def test_dynamic_factorizations_equal_oracle(gens):
    S = NumericalMonoid(gens)
    limit = min(2 * S.frobenius + 20, 120)
    collected = {m: {tuple(int(v) for v in r) for r in Z}
                 for m, Z in factorizations_up_to(S, limit)}
    for m in range(limit + 1):
        assert collected.get(m, set()) == brute_force_factorizations(S, m)


def _window_scan(gens, start, n, fill, step):
    """Yield (m, entry) for every integer m in [start, n] whose entry is not None.

    The generic ring buffer the library's direct loops are checked
    against: the entry of m is ``step(m, preds)``, where preds[i] is the
    entry of m - ni and every integer below ``start`` has the entry
    ``fill``.  Only the last nk entries are kept, in a ring indexed by
    m mod nk.
    """
    nk = gens[-1]
    # a slot below start is still unwritten when it is read
    window = [fill] * nk
    for m in range(start, n + 1):
        entry = step(m, [window[(m - g) % nk] for g in gens])
        window[m % nk] = entry
        if entry is not None:
            yield m, entry


def _length_step(m, preds):
    # L(m) is the union of L(m - ni) + 1; an empty union means m is not in S
    if not m:
        return 1
    mask = 0
    for prev in preds:
        if prev:
            mask |= prev
    return mask << 1 or None


def _assert_masks_match_reference(S, n):
    reference = _window_scan(S.generators, 0, n, None, _length_step)
    assert list(_length_masks_up_to(S, n)) == list(reference)


@given(gen_sets)
@example([1])
@example([2, 3])
@settings(max_examples=30, deadline=None)
def test_length_masks_match_the_reference_scan(gens):
    S = NumericalMonoid(gens)
    _assert_masks_match_reference(S, min(2 * S.frobenius + 20, 300))


@pytest.mark.parametrize("gens", [(100, 121, 142, 163, 284), (51, 53, 55, 117)])
def test_length_masks_match_the_reference_scan_on_table_monoids(gens):
    _assert_masks_match_reference(NumericalMonoid(gens), 3000)


@pytest.mark.parametrize("gens", [(1,), (2, 3), (6, 9, 20), (100, 121, 142, 163, 284)])
def test_scans_at_the_first_wrap_of_the_ring(gens):
    # targets before, at and just past the first wrap of the nk-slot ring
    S = NumericalMonoid(gens)
    nk = S.generators[-1]
    for n in sorted({0, 1, nk - 1, nk, nk + 1}):
        (m, Z), = deque(factorizations_up_to(S, n), maxlen=1)
        (m_mask, mask), = deque(_length_masks_up_to(S, n), maxlen=1)
        # both scans end at the largest element up to n
        assert m == m_mask == max(e for e in range(n + 1) if S.contains(e))
        rows = set(map(tuple, Z.tolist()))
        assert rows == brute_force_factorizations(S, m)
        assert (rows if m == n else set()) == brute_force_factorizations(S, n)
        assert _mask_to_lengths(mask).tolist() == sorted({sum(a) for a in rows})


def _row_filter_extend(preds):
    # the Z step before suffix offsets: filter each Z(m - ni) for its rows
    # that vanish below index i, then stack the parts
    parts = []
    for i, P in enumerate(preds):
        if P is None:
            continue
        if i:
            P = P[(P[:, :i] == 0).all(axis=1)]
        if len(P):
            P = P.copy()
            P[:, i] += 1
            parts.append(P)
    if parts:
        Z = np.vstack(parts) if len(parts) > 1 else parts[0]
        Z.setflags(write=False)
        return Z


def _row_dtype(S, n):
    # the narrowest dtype that holds every exponent up to n // n1
    t = n // S.generators[0]
    return np.int16 if t < 2**15 - 1 else np.int32 if t < 2**31 - 1 else np.int64


def _assert_matches_row_filter(S, n):
    zero = np.zeros((1, S.k), dtype=_row_dtype(S, n))
    zero.setflags(write=False)
    reference = _window_scan(S.generators, 0, n, None,
                             lambda m, preds: _row_filter_extend(preds) if m else zero)
    for (m, Z), (m_ref, Z_ref) in zip(factorizations_up_to(S, n), reference, strict=True):
        assert m == m_ref
        assert Z.dtype == Z_ref.dtype and Z.shape == Z_ref.shape
        assert Z.tobytes() == Z_ref.tobytes()
        assert not Z.flags.writeable and Z.flags.f_contiguous
        if m:
            # the offsets rely on rows running in ascending first-nonzero index
            assert (np.diff((Z != 0).argmax(axis=1)) >= 0).all()
        # the CLI prints Z(m) in the order the recurrence builds it
        assert Z.tolist() == sorted(Z.tolist(), reverse=True)


@given(gen_sets)
@example([1])
@settings(max_examples=30, deadline=None)
def test_suffix_offset_step_matches_row_filter(gens):
    S = NumericalMonoid(gens)
    _assert_matches_row_filter(S, min(2 * S.frobenius + 20, 150))


@pytest.mark.parametrize("gens, n", [
    ((10, 17, 19, 25, 31), 300),
    ((51, 53, 55, 117), 800),
    ((7, 15, 17, 18, 20), 250),
    ((100, 121, 142, 163, 284), 2500),
    # a target below nk: the ring never wraps
    ((100, 121, 142, 163, 284), 250),
    # the ring wraps four times, each slot read by a negative index
    ((2, 1025), 5000),
])
def test_suffix_offset_step_matches_row_filter_on_table_monoids(gens, n):
    _assert_matches_row_filter(NumericalMonoid(gens), n)


@pytest.mark.parametrize("n, dtype", [(32766, np.int16), (32767, np.int32)])
def test_row_dtype_at_the_int16_boundary(n, dtype):
    # on <1>, n // n1 = n: the largest int16 target and the first int32 one
    last = deque(factorizations_up_to(NumericalMonoid([1]), n), maxlen=1)
    m, Z = last[0]
    assert m == n and Z.dtype == dtype
    assert Z.tolist() == [[n]]
    assert not Z.flags.writeable and Z.flags.f_contiguous


def test_int16_sweep_matches_brute_force_row_by_row():
    S = NumericalMonoid([6, 9, 20])
    for m, Z in factorizations_up_to(S, 240):
        assert Z.dtype == np.int16 and Z.flags.f_contiguous
        brute = sorted(brute_force_factorizations(S, m), reverse=True)
        assert list(map(tuple, Z.tolist())) == brute


@given(gen_sets)
@settings(max_examples=20, deadline=None)
def test_length_set_is_factorization_lengths(gens):
    S = NumericalMonoid(gens)
    limit = min(2 * S.frobenius + 20, 120)
    for m in range(limit + 1):
        if S.contains(m):
            assert set(length_set(S, m)) == {sum(a) for a in factorizations(S, m)}
            assert max_length(S, m) == max(sum(a) for a in factorizations(S, m))


@given(lengths_strategy)
@settings(max_examples=60)
def test_delta_of_lengths_matches_manual_diffs(raw):
    ls = sorted(raw)
    expected = sorted({b - a for a, b in zip(ls, ls[1:])})
    assert list(delta_of_lengths(ls)) == expected


@given(st.integers(1, 2**400))
@example(2**399)  # one length: no gaps
@settings(max_examples=200)
def test_mask_gaps_match_unpackbits_oracle(mask):
    expected = tuple(np.unique(np.diff(_mask_to_lengths(mask))).tolist())
    assert _mask_gaps(mask, 1) == expected


@given(gen_sets)
@example([5, 7, 9])  # d_min = 2, so the gap test steps by 2
@settings(max_examples=30, deadline=None)
def test_element_deltas_match_length_sets(gens):
    S = NumericalMonoid(gens)
    limit = min(2 * S.frobenius + 20, 120)
    deltas = dict(_deltas_up_to(S, limit))
    for m in range(limit + 1):
        if S.contains(m):
            assert deltas[m] == delta_of_lengths(length_set(S, m))


@given(st.lists(st.integers(2, 20), min_size=2, max_size=4).filter(
    lambda gs: math.gcd(*gs) == 1
))
@settings(max_examples=40, deadline=None)
def test_min_delta_is_gcd_of_generator_differences(gens):
    # Bowles, Chapman, Kaplan and Reiser (2006): min Delta(S) = d_min
    S = NumericalMonoid(gens)
    g = S.generators
    assert delta_set(S)[0] == math.gcd(*(b - a for a, b in zip(g, g[1:])))


def _scanned_deltas(S, n):
    """Delta(m) off the length mask of every element up to n, with no certificate."""
    step = _d_min(S.generators)
    return {m: _mask_gaps(mask, step) for m, mask in _length_masks_up_to(S, n)}


@given(gen_sets, st.none() | st.integers(0, 20000))
@example([5, 7, 9], None)  # d_min = 2
@example([6, 9, 20], 144)
# the limit 61 is a gap: the scan ends at 60 with no certificate
@example([20, 27, 30], 1)
@settings(max_examples=25, deadline=None)
def test_certified_delta_set_matches_full_scan(gens, bound):
    # the certificate may stop the scan early; the union to the limit is the oracle
    S = NumericalMonoid(gens)
    limit = delta_scan_bound(S) if bound is None else bound + S.period_hint
    assume(limit <= 60_000)
    deltas = _scanned_deltas(S, limit)
    assert delta_set(S, bound_override=bound) == tuple(sorted(set().union(*deltas.values())))
    scan, p = _Scan(S, limit), S.period_hint
    last = deque(scan, maxlen=1)[0][0]
    if scan.keys is None:
        # the scan ran to the limit: every integer past its last element is a gap
        assert not any(S.contains(m) for m in range(last + 1, limit + 1))
    else:
        # what it certifies: Delta(m) = Delta(m - p) past the stop
        assert all(deltas[m] == deltas[m - p] for m in range(last + 1, limit + 1))


def _per_element_certificate(scan):
    """(last element scanned, keys) of the certificate of ``scan``, checking (O) element by element.

    The reference for the batched (O) of `_Scan._certified`: the same
    (W) and (E) bookkeeping, with lo and hi in p slots and (O) tested
    on every well-formed element as it is reached.  overlap counts the
    consecutive well-formed elements that satisfy (O).
    """
    gens = scan.monoid.generators
    nk = gens[-1]
    p, d, H, a, b, start = scan.p, scan.d, scan.H, scan.a, scan.b, scan.start
    wide, low = 2 * H + d, (1 << H) - 1
    los, his, keys = [0] * p, [0] * p, [None] * p
    same = overlap = 0
    m = -1
    for m, mask in _length_masks_up_to(scan.monoid, scan.stop):
        if m <= start - nk:
            continue
        slot = m % p
        hi = mask.bit_length() - 1
        lo = (mask & -mask).bit_length() - 1
        los[slot], his[slot] = lo, hi
        if m <= start:
            continue
        width = hi - lo
        if width >= wide:
            bot, top = (mask >> lo) & low, mask >> (hi - H + 1)
            middle = mask.bit_count() - bot.bit_count() - top.bit_count()
        if width < wide or middle != (width - 2 * H) // d + 1:
            same = overlap = 0
            keys[slot] = None
            continue
        q = m // p
        key = (bot, top, lo - a * q, hi - b * q)
        same = same + 1 if keys[slot] == key else 0
        keys[slot] = key
        pred = [(m - g) % p for g in gens]
        if max(los[i] for i in pred) + 2 * H <= min(his[i] for i in pred):
            overlap += 1
        else:
            overlap = 0
        if same >= nk and overlap >= p:
            return m, keys
    return m, None


@given(gen_sets)
@example([4, 14, 29, 31])
@example([7, 11, 37, 38])
@example([10, 17, 19, 25, 31])
@example([31, 73, 77, 87, 91])
# a check that forgets an earlier failure of (O) fires at 485, not 493
@example([6, 9, 20])
# one that skips the oldest element of its window fires at 1746, not 1747
@example([11, 26, 27, 36, 39])
@settings(max_examples=40, deadline=None)
def test_batched_overlap_check_matches_the_per_element_loop(gens):
    # the same stop M and the same keys, whether or not the certificate fires
    S = NumericalMonoid(gens)
    scan = _Scan(S, min(delta_scan_bound(S), 20_000))
    assume(not scan.plain)
    last = deque(scan, maxlen=1)[0][0]
    assert (last, scan.keys) == _per_element_certificate(scan)


@given(gen_sets)
@example([5, 7, 9])  # d_min = 2
@example([2, 3])
# the windows of these still change after (W) and (O) have held for p + nk
# elements, so a certificate that skipped (E) would answer wrongly past it
@example([4, 14, 29, 31])
@example([7, 11, 37, 38])
@settings(max_examples=25, deadline=None)
def test_slot_answers_match_the_mask_scan(gens):
    # past the certificate's stop M, L(m), M(m) and Delta(m) come from its p slots
    S = NumericalMonoid(gens)
    limit = min(delta_scan_bound(S), 20_000)
    scan = _Scan(S, limit)
    last = deque(scan, maxlen=1)[0][0]
    assume(scan.keys is not None)
    M, p, step = last + 1, S.period_hint, _d_min(S.generators)
    far = 3 * M + 7 * p + 1
    masks = dict(_length_masks_up_to(S, far))
    for m in [*range(M - p, M + 4 * p + 1), far]:
        mask = masks[m]
        assert scan.lengths(m).tolist() == _mask_to_lengths(mask).tolist()
        assert scan.count(m) == mask.bit_count()
        assert scan.ends(m)[3] == mask.bit_length() - 1
        assert scan.delta(m) == _mask_gaps(mask, step)
    # and the library queries, which find the slots themselves
    for m in (M, M + p + 1, far):
        assert length_set(S, m) == tuple(_mask_to_lengths(masks[m]).tolist())
        assert max_length(S, m) == masks[m].bit_length() - 1
        assert _delta_at(S, m) == _mask_gaps(masks[m], step)


@given(gen_sets, st.integers(0, 120))
@settings(max_examples=30, deadline=None)
def test_sandwich_on_members(gens, n):
    S = NumericalMonoid(gens)
    assume(S.contains(n) and n > 0)
    n1 = S.generators[0]
    assert max_length(S, n) * n1 <= n <= omega(S, n) * n1


@given(gen_sets, st.integers(-60, 0))
@settings(max_examples=30, deadline=None)
def test_omega_zero_iff_negated_member(gens, x):
    S = NumericalMonoid(gens)
    assert (omega(S, x) == 0) == S.contains(-x)


@given(gen_sets)
@example([1, 2])  # F(S) = -1: the scan starts at 0
@settings(max_examples=40, deadline=None)
def test_dynamic_bullets_are_the_longest_bullet_per_value(gens):
    # the vectorized scan step against the enumeration oracle at every x
    # of one scan to a small cap; dynamic_bullets(S, x) is the entry of x
    # in that scan, called at three points (every x would cost a scan each)
    S = NumericalMonoid(gens)
    cap = 40
    longest = {}
    for M, offsets, values, lengths in _blocks(S, cap):
        block = range(M, M + len(offsets) - 1)
        for x in block:
            longest[x] = {}
            for b in bullets_brute_force(S, x):
                v = sum(c * g for c, g in zip(b, S.generators))
                longest[x][v] = max(longest[x].get(v, 0), sum(b))
        # the oracle entries of the block, joined by value the way it holds them
        pairs = [sorted(longest[x].items()) for x in block]
        assert offsets.tolist() == np.cumsum([0, *map(len, pairs)]).tolist()
        assert values.tolist() == [v for entry in pairs for v, _ in entry]
        assert lengths.tolist() == [l for entry in pairs for _, l in entry]
    for x in (min(-S.frobenius, 0), 0, cap):
        assert dynamic_bullets(S, x) == tuple(sorted(longest[x].items()))


def _lexsort_step(gap, steps, nk, m, preds):
    # the omega step before packed keys: (values, lengths) pairs of arrays,
    # one lexsort by (value, length) and the last pair of each value run
    vs, ls = zip(*preds)
    v = np.concatenate(vs)
    l = np.concatenate(ls)
    moved = gap[v - (m - nk)]
    v += np.repeat(steps, [len(p) for p in vs]) * moved
    l += moved
    order = np.lexsort((l, v))
    v = v[order]
    l = l[order]
    last = np.empty(len(v), dtype=bool)
    last[-1] = True
    last[:-1] = v[1:] != v[:-1]
    return v[last], l[last]


def _lexsort_scan(S, n):
    nk = S.generators[-1]
    gap = np.concatenate((np.ones(nk, dtype=bool), ~S._table, np.zeros(nk, dtype=bool)))
    step = functools.partial(_lexsort_step, gap, np.array(S.generators, dtype=np.int64), nk)
    zero = np.zeros(1, dtype=np.int64)
    return _window_scan(S.generators, min(-S.frobenius, 0), n, (zero, zero), step)


def _assert_blocks_match(blocks, reference):
    # every block against the reference entries of its integers, joined
    # the way a block holds them; the two scans end together
    reference = iter(reference)
    for M, offsets, values, lengths in blocks:
        ms, entries = zip(*itertools.islice(reference, len(offsets) - 1))
        vs, ls = zip(*entries)
        assert ms == tuple(range(M, M + len(ms)))
        assert values.dtype == lengths.dtype == np.int64
        assert offsets.tolist() == np.cumsum([0, *map(len, vs)]).tolist()
        assert values.tolist() == np.concatenate(vs).tolist()
        assert lengths.tolist() == np.concatenate(ls).tolist()
    assert next(reference, None) is None


def _assert_matches_lexsort(S, n):
    _assert_blocks_match(_blocks(S, n), _lexsort_scan(S, n))


@given(gen_sets)
@example([1])
@example([1, 2])
@settings(max_examples=30, deadline=None)
def test_packed_step_matches_lexsort(gens):
    S = NumericalMonoid(gens)
    _assert_matches_lexsort(S, min(2 * S.frobenius + 20, 150))


@pytest.mark.parametrize("gens, n", [
    ((6, 9, 20), 300),
    ((11, 13, 15), 300),
    ((15, 27, 32, 35), 300),
    ((10, 12, 15), 300),
    ((10, 12, 15, 16, 17), 300),
    ((10, 12, 13, 14, 15, 16, 17, 18, 19, 21), 300),
    ((100, 121, 142, 163, 284), 0),  # F(S) = 5279: the scan starts at -5279
])
def test_packed_step_matches_lexsort_on_omega_mix(gens, n):
    _assert_matches_lexsort(NumericalMonoid(gens), n)


@pytest.mark.parametrize("gens, n", [
    ((6, 9, 20), 2000),  # the window array grows, then moves its pairs in place
    ((1,), 9000),  # the window offsets fill and move, twice
    ((2, 1048577), 4000 - 1048575),  # each block reads 4 of the 1048577 window entries
])
def test_block_scan_matches_lexsort_as_the_window_moves(gens, n):
    _assert_matches_lexsort(NumericalMonoid(gens), n)


def _assert_block_boundaries(S):
    # the block scan cuts its last block at the target, so every target
    # from the base to past the third block boundary is its own case
    n1 = S.generators[0]
    base = min(-S.frobenius, 0)
    reference = list(_lexsort_scan(S, base + 3 * n1 + 1))
    for n in range(base, base + 3 * n1 + 2):
        entries = reference[:n - base + 1]
        _assert_blocks_match(_blocks(S, n), entries)
        quotient = omega_up_to(S, n, "quotient")
        assert quotient == {m: int(l.max()) for m, (_, l) in entries}
        assert omega_up_to(S, n, "monoid") == {m: w for m, w in quotient.items()
                                               if S.contains(m)}
        values, lengths = entries[-1][1]
        assert dynamic_bullets(S, n) == tuple(zip(values.tolist(), lengths.tolist()))


@given(gen_sets)
@settings(max_examples=25, deadline=None)
def test_block_scan_matches_lexsort_at_every_cut(gens):
    _assert_block_boundaries(NumericalMonoid(gens))


@pytest.mark.parametrize("gens", [(1,), (2, 3), (6, 9, 20), (100, 121, 142, 163, 284)])
def test_block_scan_matches_lexsort_at_every_cut_on_fixed_monoids(gens):
    _assert_block_boundaries(NumericalMonoid(gens))


@pytest.mark.parametrize("gens, n", [
    # rel = 22 + 21 bits, so nk << rel = 2**63 + 2**43 does not fit in int64
    ((2, 1048577), 0),
    ((2, 65537), 2_100_000_000),  # rel = 18 + 30 bits: nk << rel > 2**64
])
def test_first_block_of_a_wide_key_target_matches_lexsort(gens, n):
    # the block keys shift only the block index, below n1, so a target
    # whose keys fit is scanned even where nk << rel does not fit in int64
    S = NumericalMonoid(gens)
    first = next(_blocks(S, n))
    _assert_blocks_match([first], _lexsort_scan(S, first[0] + S.generators[0] - 1))


@pytest.mark.parametrize("n, dtype", [
    # the largest <6,9,20> target whose keys fit in int32: top // 6 < 2**22,
    # so bits = 22, rel = 6 + 22 and n1.bit_length() + rel = 31; its last
    # entry's block keys reach 5 << 28.  One more and bits = 23
    (25_165_760, np.int32),
    (25_165_761, np.int64),
])
def test_first_block_at_the_key_width_boundary_matches_lexsort(n, dtype):
    S = NumericalMonoid([6, 9, 20])
    assert _admit(S, n)[-1] is dtype
    first = next(_blocks(S, n))
    _assert_blocks_match([first], _lexsort_scan(S, first[0] + S.generators[0] - 1))


def _scan_omegas(S, n):
    """omega(m) over the quotient scan to n, as int64: the longest pair of each entry of ``_blocks``."""
    return np.concatenate([np.maximum.reduceat(lengths, offsets[:-1])
                           for _, offsets, _, lengths in _blocks(S, n)])


def _scanned(S, n):
    """omega(m) over the quotient scan to n, read off the blocks alone, with no model or table."""
    base = min(-S.frobenius, 0)
    return {base + i: w for i, w in enumerate(_scan_omegas(S, n).tolist())}


def _assert_table_matches_scan(S, top):
    table = _omega_table(S, top)
    assert table.dtype == np.int64
    assert table.tolist() == _scan_omegas(S, top).tolist()


@given(gen_sets, st.data())
@example([1], None)
@example([2, 3], None)
@settings(max_examples=40, deadline=None)
def test_omega_table_matches_scan(gens, data):
    # the max-length tables of the generator subsets against the longest
    # dynamic bullet of every entry, at N0 + 2 * n1 (the model's range)
    # and at a drawn top on either side of it
    S = NumericalMonoid(gens)
    base = min(-S.frobenius, 0)
    top = _threshold(S) + 2 * S.generators[0] if S.k > 1 else 300
    _assert_table_matches_scan(S, top)
    if data is not None:
        _assert_table_matches_scan(S, data.draw(st.integers(base, top + 3 * S.generators[0])))
    for cut in range(base, base + 3):  # a range of one to three integers
        _assert_table_matches_scan(S, cut)


@pytest.mark.parametrize("gens, top", [
    ((1,), 5000),
    ((2, 3), 500),
    # a singleton G(y) = {1048577} of 1048576 y, one column each
    ((2, 1048577), 4000 - 1048575),
    ((100, 121, 142, 163, 284), 25715 + 200),  # N0 + 2 * n1
])
def test_omega_table_matches_scan_on_fixed_monoids(gens, top):
    _assert_table_matches_scan(NumericalMonoid(gens), top)


@pytest.mark.parametrize("top, dtype", [
    # on <6,9,20>, q = (top + 63) // 6 + 1 and the tables are int16 while
    # 5 * q <= 2**15: up to top = 39254, int32 from 39255 on
    (39254, np.int16),
    (39255, np.int32),
])
def test_omega_table_at_the_int16_boundary_matches_scan(top, dtype):
    S = NumericalMonoid([6, 9, 20])
    assert type(_sentinel(S, top)) is dtype
    _assert_table_matches_scan(S, top)


@given(gen_sets)
@example([6, 9, 20])
@settings(max_examples=25, deadline=None)
def test_omega_model_route_matches_scan(gens):
    # omega scans to n below N0 and answers from the quasilinear model from
    # N0 on: its table up to N0 + 2 * n1, its anchors past it.  Every
    # answer on both sides of both switches must equal the largest
    # dynamic-bullet length, each from a scan to n
    S = NumericalMonoid(gens)
    n1 = S.generators[0]
    N0 = _threshold(S)
    top = N0 + 5 * n1
    # each of the 6 * n1 + 1 answers scans about top + F(S) elements
    assume(n1 * (top + S.frobenius) <= 20_000)
    scanned = _scanned(S, top)
    for n in range(N0 - n1, top + 1):  # N0 - 1 and N0 among them
        assert omega(S, n) == scanned[n] == max(length for _, length in dynamic_bullets(S, n))


@given(gen_sets)
@example([6, 9, 20])
@example([2, 3])
@settings(max_examples=25, deadline=None)
def test_omega_up_to_model_rows_match_a_pure_scan(gens):
    # omega_up_to scans to targets below N0 and reads every row of a
    # target from N0 on off the quasilinear model, its table up to
    # N0 + 2 * n1 and its anchors past it: every target on both sides of
    # both switches, in both domains, against one plain scan
    S = NumericalMonoid(gens)
    n1, N0 = S.generators[0], _threshold(S)
    # each of the n1 targets below N0 scans about N0 + F(S) elements
    assume(n1 * (N0 + 2 * n1 + S.frobenius) <= 4_000)
    scanned = _scanned(S, N0 + 5 * n1)
    for n in range(N0 - n1, N0 + 5 * n1 + 1):
        quotient = {m: w for m, w in scanned.items() if m <= n}
        assert omega_up_to(S, n, "quotient") == quotient
        assert omega_up_to(S, n, "monoid") == {m: w for m, w in quotient.items()
                                               if S.contains(m)}


def _quadratic_antichain(bullets):
    # the antichain test before sorting by total: one (b, b) mask
    rows = np.array(sorted(bullets), dtype=np.int64)
    if len(rows) < 2:
        return True
    # dominated[a, b]: row a <= row b in every coordinate
    dominated = np.ones((len(rows), len(rows)), dtype=bool)
    for col in rows.T:
        dominated &= col[:, None] <= col[None, :]
    np.fill_diagonal(dominated, False)
    return not dominated.any()


@st.composite
def bullet_sets(draw):
    # part of the antichain of all k-tuples of total t (up to 455 rows, so
    # more than one 128-row chunk), plus up to 40 other tuples
    k = draw(st.integers(1, 4))
    t = draw(st.integers(0, 12))
    rng = draw(st.randoms(use_true_random=False))
    share = draw(st.floats(0, 1))
    # stars and bars: k - 1 bars among t + k - 1 places
    level = {tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, t + k - 1)))
             for bars in itertools.combinations(range(t + k - 1), k - 1)
             if rng.random() < share}
    return level | draw(st.sets(st.tuples(*[st.integers(0, t + 1)] * k), max_size=40))


@given(bullet_sets())
@example({(0, 1), (1, 0)})
@example({(0, 1), (1, 1)})
# the only dominated row is the first of the second chunk
@example({(i, 300 - i) for i in range(128)} | {(200, 101), (200, 102)})
@settings(max_examples=150, deadline=None)
def test_antichain_matches_quadratic_mask(bullets):
    assert _is_antichain(bullets) == _quadratic_antichain(bullets)
