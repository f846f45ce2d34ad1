import tracemalloc

import pytest

from numfac import (
    HorizonTooSmall,
    Int64Overflow,
    NumericalMonoid,
    delta_of_lengths,
    delta_periodicity,
    delta_scan_bound,
    delta_set,
    length_sets_up_to,
)
from numfac.delta import _delta_scan, _deltas_up_to

MCNUGGET = NumericalMonoid([6, 9, 20])


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
        assert _delta_scan(S, limit)[1] == limit

    def test_stops_far_below_the_proven_bound(self):
        gaps, last = _delta_scan(MCNUGGET, delta_scan_bound(MCNUGGET))
        assert gaps == (1, 2, 3, 4)
        assert last < 1000

    def test_naturals_scan_to_their_limit(self):
        assert _delta_scan(NumericalMonoid([1]), 0) == ((), 0)
        assert _delta_scan(NumericalMonoid([1]), 50) == ((), 50)

    def test_windows_over_the_cap_fall_back_to_the_limit(self, monkeypatch):
        monkeypatch.setattr("numfac.delta._CERTIFICATE_BITS", 0)
        limit = delta_scan_bound(MCNUGGET)
        assert _delta_scan(MCNUGGET, limit) == ((1, 2, 3, 4), limit)


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
