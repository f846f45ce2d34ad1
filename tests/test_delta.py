import math
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from numfac import (
    HorizonTooSmall,
    Int64Overflow,
    NumericalMonoid,
    delta_of_lengths,
    delta_periodicity,
    delta_scan_bound,
    delta_set,
    length_set,
    length_sets_up_to,
    max_length,
)
from numfac.delta import (
    DeltaPeriodicityReport,
    _d_min,
    _delta_at,
    _deltas_up_to,
    _mask_gaps,
    _Scan,
)
from numfac.factorization import _length_masks_up_to, _mask_to_lengths

MCNUGGET = NumericalMonoid([6, 9, 20])


def _scanned(S, limit):
    """(last element scanned, keys) of a `_Scan` of S to limit; keys is None unless it certified."""
    scan = _Scan(S, limit)
    return deque(scan, maxlen=1)[0][0], scan.keys


class TestDeltaOfLengths:
    def test_worked_example(self):
        assert delta_of_lengths([3, 7, 8, 9, 10]) == (1, 4)

    def test_singleton_is_empty(self):
        assert delta_of_lengths([5]) == ()

    def test_constant_gaps_collapse(self):
        assert delta_of_lengths([2, 4, 6]) == (2,)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            delta_of_lengths([3, 3, 4])


class TestDeltaSet:
    def test_scan_bound_formula(self):
        assert delta_scan_bound(MCNUGGET) == 2 * 3 * 9 * 20 * 20 + 6 * 20 == 21720

    def test_mcnugget_with_known_start_bound(self):
        assert delta_set(MCNUGGET, bound_override=144) == (1, 2, 3, 4)

    def test_mcnugget_default_bound(self):
        assert delta_set(MCNUGGET) == (1, 2, 3, 4)

    def test_override_agrees_with_default(self):
        S = NumericalMonoid([10, 17, 19, 25, 31])
        assert delta_set(S, bound_override=1180) == delta_set(S) == (1, 2, 3)

    def test_naturals_have_empty_delta_set(self):
        assert delta_set(NumericalMonoid([1])) == ()

    def test_steps_of_d_min_match_length_sets(self):
        # arithmetic generators 100 + 21i: d_min = 21 and Delta(S) = {21}
        S = NumericalMonoid([100, 121, 142, 163])
        deltas = dict(_deltas_up_to(S, 20000))
        assert deltas == {m: delta_of_lengths(ls) for m, ls in length_sets_up_to(S, 20000)}
        assert set().union(*deltas.values()) == {21}

    def test_two_generators_single_gap(self):
        # L(m) for <2,3> steps by 1, so the only gap is 1
        assert delta_set(NumericalMonoid([2, 3]), bound_override=50) == (1,)


class TestCertificate:
    @pytest.mark.parametrize("gens, bound", [
        ((51, 53, 55, 117), 9699),
        ((100, 121, 142, 163, 284), 24850),
    ])
    def test_runs_to_the_limit_when_it_never_fires(self, gens, bound):
        S = NumericalMonoid(gens)
        limit = bound + S.period_hint
        assert _scanned(S, limit) == (limit, None)

    def test_stops_far_below_the_proven_bound(self):
        last, slots = _scanned(MCNUGGET, delta_scan_bound(MCNUGGET))
        assert delta_set(MCNUGGET) == (1, 2, 3, 4)
        assert last < 1000
        assert slots is not None

    def test_naturals_scan_to_their_limit(self):
        N = NumericalMonoid([1])
        assert _scanned(N, 0) == (0, None)
        assert _scanned(N, 50) == (50, None)
        assert delta_set(N, bound_override=0) == delta_set(N, bound_override=49) == ()

    @staticmethod
    def _stop_when(monkeypatch, change, limit=2000):
        """Where the certificate fires on <6,9,20> when it reads change(m, mask) for each mask."""
        real = _length_masks_up_to

        def masks(monoid, n):
            for m, mask in real(monoid, n):
                yield m, change(m, mask)

        monkeypatch.setattr("numfac.delta._length_masks_up_to", masks)
        last, slots = _scanned(MCNUGGET, limit)
        return None if slots is None else last + 1

    def test_each_condition_holds_back_the_certificate(self, monkeypatch):
        # it fires at 493 = M on <6,9,20>, with p = 60 and nk = 20.  Each
        # change below breaks one condition of the module docstring and
        # keeps the other two; only the certificate reads the changed masks
        M, p, nk = 493, 60, 20
        assert self._stop_when(monkeypatch, lambda m, mask: mask) == M
        # (E): a new top window at M - 1 (bit hi - 1 flips) must repeat nk times
        flip = lambda m, mask: mask ^ 1 << (mask.bit_length() - 2) if m == M - 1 else mask
        assert self._stop_when(monkeypatch, flip) == M + nk
        # (O): one class mod p, lifted far above the others, keeps its windows
        # and repeats, but its middles never overlap those of the other
        # predecessors
        lift = lambda m, mask: mask << 4096 if m % p == 7 else mask
        assert self._stop_when(monkeypatch, lift) is None
        # (W): one class mod p loses the length lo + H = lo + 20 of its middle
        # wherever it has one, as hi - lo >= 2H + d = 41

        def hole(m, mask):
            lo = (mask & -mask).bit_length() - 1
            wide = mask.bit_length() - 1 - lo >= 41
            return mask & ~(1 << (lo + 20)) if m % p == 7 and wide else mask

        assert self._stop_when(monkeypatch, hole) is None

    def test_windows_over_the_cap_fall_back_to_the_limit(self, monkeypatch):
        monkeypatch.setattr("numfac.delta._CERTIFICATE_BITS", 0)
        limit = delta_scan_bound(MCNUGGET)
        assert _scanned(MCNUGGET, limit) == (limit, None)
        assert delta_set(MCNUGGET) == (1, 2, 3, 4)

    def test_mask_memo_is_emptied_at_the_cap(self, monkeypatch):
        # both scans stay below the certificate's floor of <51,53,55,117>, so a
        # cap of 300 bits changes nothing but the memo: a mask there holds at
        # most 269 bits, so the memo keeps one mask at a time
        S = NumericalMonoid([51, 53, 55, 117])
        queries = (lambda: delta_set(S, bound_override=9699), lambda: delta_periodicity(S, 13677))
        answers = [query() for query in queries]
        monkeypatch.setattr("numfac.delta._CERTIFICATE_BITS", 300)
        peaks = []
        for query, answer in zip(queries, answers):
            tracemalloc.start()
            try:
                assert query() == answer
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # with the default cap the memo of delta_set keeps its 1,770 distinct
        # masks, about 250 KB.  delta_periodicity keeps one Delta per integer
        # up to 13,677: a list slot and at most one tuple each
        assert peaks[0] < 64_000
        assert peaks[1] < 1_000_000


class TestPeriodicity:
    def test_mcnugget_start_and_period(self):
        horizon = delta_scan_bound(MCNUGGET) + MCNUGGET.period_hint
        rep = delta_periodicity(MCNUGGET, horizon)
        assert rep.dissonance_start == 91
        assert rep.period == 20
        assert rep.verified_up_to == horizon

    def test_period_divides_lcm(self):
        for gens, horizon in [((6, 9, 20), 1000), ((2, 3), 100), ((11, 13, 15), 2000)]:
            S = NumericalMonoid(gens)
            rep = delta_periodicity(S, horizon)
            assert S.period_hint % rep.period == 0

    def test_two_three_stabilizes(self):
        # Delta(m) alternates between () and (1,) until m=7, then is (1,)
        rep = delta_periodicity(NumericalMonoid([2, 3]), 200)
        assert rep.period == 1
        assert rep.dissonance_start == 7

    def test_horizon_validation(self):
        with pytest.raises(HorizonTooSmall):
            delta_periodicity(MCNUGGET, 60)

    def test_huge_horizon_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow):
                delta_periodicity(MCNUGGET, 10**13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_horizon_cap_boundary(self, monkeypatch):
        # one slot per integer of [0, horizon]
        monkeypatch.setattr("numfac.delta._MEMBER_TABLE_LIMIT", 201)
        assert delta_periodicity(MCNUGGET, 200).verified_up_to == 200
        with pytest.raises(Int64Overflow):
            delta_periodicity(MCNUGGET, 201)


class TestPerElementDeltasInsideMonoidDelta:
    def test_containment(self):
        from numfac import length_set

        whole = set(delta_set(MCNUGGET, bound_override=144))
        for m in range(1, 300):
            if not MCNUGGET.contains(m):
                continue
            assert set(delta_of_lengths(length_set(MCNUGGET, m))) <= whole


def _plain_periodicity(monoid, horizon):
    """delta_periodicity as it was before the certificate: one Delta per integer to the horizon."""
    lcm = monoid.period_hint
    step = _d_min(monoid.generators)
    deltas = [None] * (horizon + 1)
    for m, mask in _length_masks_up_to(monoid, horizon):
        deltas[m] = _mask_gaps(mask, step)

    def agrees(m, p):
        if deltas[m] is None:
            return True
        if deltas[m + p] is None:
            return False
        return deltas[m] == deltas[m + p]

    period = lcm
    for p in [p for p in range(1, lcm + 1) if lcm % p == 0]:
        lo = max(1, horizon - lcm - p + 1)
        if all(agrees(m, p) for m in range(lo, horizon - p + 1)):
            period = p
            break
    last_fail = 0
    for m in range(horizon - period, 0, -1):
        if not agrees(m, period):
            last_fail = m
            break
    return DeltaPeriodicityReport(last_fail, period, horizon)


def _stop(S):
    """(M, slots): where the certificate fires on S, and its slots."""
    last, slots = _scanned(S, delta_scan_bound(S))
    assert slots is not None
    return last + 1, slots


# monoids whose certificate fires, with M from 53 (<2,3>) to 3,533 (<11,53,73,87>);
# <10,12,15> has lcm + nk = 45 < F = 53, so a horizon of F ends in a gap of S
CERTIFYING = [(6, 9, 20), (7, 15, 17, 18, 20), (10, 17, 19, 25, 31), (2, 3), (11, 53, 73, 87),
              (10, 12, 15)]


class TestPastTheCertificate:
    @pytest.mark.parametrize("gens", CERTIFYING)
    def test_periodicity_matches_the_full_scan(self, gens):
        S = NumericalMonoid(gens)
        M, _ = _stop(S)
        lcm, nk = S.period_hint, S.generators[-1]
        for horizon in [lcm + nk, S.frobenius, M - 1, M, M + 1, M + lcm - 1, M + lcm, M + lcm + 1,
                        5 * M]:
            if horizon >= lcm + nk:
                assert delta_periodicity(S, horizon) == _plain_periodicity(S, horizon), horizon

    @given(st.lists(st.integers(2, 30), min_size=2, max_size=4).filter(
        lambda gs: math.gcd(*gs) == 1))
    @settings(max_examples=25, deadline=None)
    def test_periodicity_matches_the_full_scan_on_small_monoids(self, gens):
        S = NumericalMonoid(gens)
        last, slots = _scanned(S, min(delta_scan_bound(S), 20_000))
        assume(slots is not None)
        M, lcm = last + 1, S.period_hint
        for horizon in {M - 1, M, M + lcm - 1, M + lcm, M + lcm + 1, 2 * M + lcm + 1}:
            if horizon >= lcm + S.generators[-1]:
                assert delta_periodicity(S, horizon) == _plain_periodicity(S, horizon), horizon

    def test_far_delta_from_the_slots(self):
        assert _delta_at(MCNUGGET, 10**12) == (1, 4)
        assert _delta_at(MCNUGGET, 43) == ()

    def test_far_lengths_from_the_slots(self):
        # 10**12 = 6 q + 4: the longest factorization trades two 6s for two 20s
        assert max_length(MCNUGGET, 10**12) == (10**12 - 40) // 6 + 2
        n = 30001
        mask = deque(_length_masks_up_to(MCNUGGET, n), maxlen=1)[0][1]
        assert length_set(MCNUGGET, n) == tuple(_mask_to_lengths(mask).tolist())

    @pytest.mark.parametrize("gens", CERTIFYING[:3])
    def test_answers_unchanged_without_the_certificate(self, gens, monkeypatch):
        S = NumericalMonoid(gens)
        M, _ = _stop(S)
        p = S.period_hint

        def answers():
            targets = [M - 1, M, M + p + 1, 3 * M]
            return (
                [length_set(S, n) for n in targets],
                [max_length(S, n) for n in targets],
                [_delta_at(S, n) for n in targets],
                [delta_periodicity(S, h) for h in (M, M + p - 1, M + p, M + p + 1, 3 * M)],
                list(_deltas_up_to(S, 2 * M)),
            )

        certified = answers()
        monkeypatch.setattr("numfac.delta._CERTIFICATE_BITS", 0)
        assert answers() == certified


# every Delta entry point, as query(S, n) for a scan of S to n
BUDGETED = (length_set, max_length, _delta_at,
            lambda S, n: delta_set(S, bound_override=n - S.period_hint),
            delta_periodicity, lambda S, n: list(_deltas_up_to(S, n)))


class TestElementRefusals:
    def _traced(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_length_count_cap(self, monkeypatch):
        n = 10**6 + 1
        L = length_set(MCNUGGET, n)
        monkeypatch.setattr("numfac.delta._LENGTHS_LIMIT", len(L))
        assert length_set(MCNUGGET, n) == L
        monkeypatch.setattr("numfac.delta._LENGTHS_LIMIT", len(L) - 1)
        assert self._traced(lambda: length_set(MCNUGGET, n)) < 1_000_000
        # the cap counts lengths, not the scan: M(n) and Delta(n) still answer
        assert max_length(MCNUGGET, n) == L[-1]
        assert _delta_at(MCNUGGET, n) == delta_of_lengths(L)

    def test_huge_length_set_refused_before_allocating(self):
        # L(n) on <6,9,20> holds about n / 8.6 lengths: 1.2e11 at 10**12, and
        # 11.7e6 at 10**8, just over the cap
        for n in (10**12, 10**8):
            assert self._traced(lambda: length_set(MCNUGGET, n)) < 1_000_000

    def test_skipped_certificate_refused_past_the_budget(self, monkeypatch):
        monkeypatch.setattr("numfac.delta._CERTIFICATE_BITS", 0)
        # the budget reaches n = isqrt(2 * 6 * 10**6) = 3464 on <6,9,20>
        monkeypatch.setattr("numfac.delta._SCAN_BIT_BUDGET", 10**6)
        assert max_length(MCNUGGET, 3464) == (3464 - 20) // 6 + 1
        assert delta_set(MCNUGGET, bound_override=3464 - 60) == (1, 2, 3, 4)
        for query in BUDGETED:
            assert self._traced(lambda: query(MCNUGGET, 3466)) < 100_000

    def test_unfired_certificate_refused_at_the_budget(self, monkeypatch):
        # <6,9,20> can fire from 431 on and fires at 493; the budget reaches 450
        monkeypatch.setattr("numfac.delta._SCAN_BIT_BUDGET", 450**2 // 12)
        assert length_set(MCNUGGET, 450) == tuple(_mask_to_lengths(
            deque(_length_masks_up_to(MCNUGGET, 450), maxlen=1)[0][1]).tolist())
        for query in BUDGETED:
            assert self._traced(lambda: query(MCNUGGET, 10**6)) < 1_000_000
        # with a reach past 493 the keys answer any target
        monkeypatch.setattr("numfac.delta._SCAN_BIT_BUDGET", 500**2 // 12)
        assert _delta_at(MCNUGGET, 10**12) == (1, 4)
        assert delta_set(MCNUGGET) == (1, 2, 3, 4)
        assert delta_periodicity(MCNUGGET, 10**6) == DeltaPeriodicityReport(91, 20, 10**6)
        assert deque(_deltas_up_to(MCNUGGET, 10**5), maxlen=1)[0] == (10**5, (1, 4))
