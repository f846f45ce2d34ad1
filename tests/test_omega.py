import importlib
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from numfac import (
    BelowThreshold,
    Int64Overflow,
    NumericalMonoid,
    TargetBelowBase,
    bullets_brute_force,
    bullets_via_apery,
    dynamic_bullets,
    omega,
    omega_extrapolate,
    omega_up_to,
    quasilinear_model,
)
from numfac.omega import _blocks, _omega_table, _threshold

omega_module = importlib.import_module("numfac.omega")

MCNUGGET = NumericalMonoid([6, 9, 20])


def _scanned(S, n):
    """omega(m) over the quotient scan to n: the longest pair of each entry of ``_blocks`` alone."""
    return {M + s: w for M, offsets, _, lengths in _blocks(S, n)
            for s, w in enumerate(np.maximum.reduceat(lengths, offsets[:-1]).tolist())}


BUL_60 = {(4, 4, 0), (7, 2, 0), (10, 0, 0), (1, 6, 0), (0, 8, 0), (0, 0, 3)}
BUL_51 = {(0, 7, 0), (10, 0, 0), (4, 3, 0), (1, 5, 0), (0, 0, 3), (7, 1, 0)}
BUL_54 = {(9, 0, 0), (6, 2, 0), (0, 6, 0), (3, 4, 0), (0, 0, 3)}
BUL_40 = {(0, 0, 2), (4, 4, 0), (7, 2, 0), (10, 0, 0), (1, 6, 0), (0, 8, 0)}


class TestBullets:
    @pytest.mark.parametrize("x,expected", [(60, BUL_60), (51, BUL_51), (54, BUL_54), (40, BUL_40)])
    def test_known_bullet_sets(self, x, expected):
        assert bullets_brute_force(MCNUGGET, x) == expected
        assert bullets_via_apery(MCNUGGET, x) == expected

    def test_negated_member_gives_zero_bullet(self):
        assert bullets_brute_force(MCNUGGET, -6) == {(0, 0, 0)}
        assert bullets_brute_force(MCNUGGET, 0) == {(0, 0, 0)}
        assert bullets_via_apery(MCNUGGET, -6) == {(0, 0, 0)}

    def test_apery_method_composition_of_60(self):
        # bul(60) is exactly the full-support factorizations of 60 plus
        # the single factorization of 72 supported on {9}
        from numfac import brute_force_factorizations, factorizations

        expected = factorizations(MCNUGGET, 60) | brute_force_factorizations(
            MCNUGGET, 72, support={9}
        )
        assert bullets_via_apery(MCNUGGET, 60) == expected == BUL_60

    def test_two_three_agrees_with_oracle(self):
        T = NumericalMonoid([2, 3])
        for x in range(-3, 30):
            assert bullets_via_apery(T, x) == bullets_brute_force(T, x)

    def test_bullet_conditions_hold(self):
        for x in (40, 51, 54, 60, 100):
            for b in bullets_brute_force(MCNUGGET, x):
                v = sum(c * g for c, g in zip(b, MCNUGGET.generators))
                assert MCNUGGET.contains(v - x)
                for c, g in zip(b, MCNUGGET.generators):
                    if c > 0:
                        assert not MCNUGGET.contains(v - x - g)


    @pytest.mark.parametrize("oracle, x", [
        (oracle, x) for oracle in (bullets_brute_force, bullets_via_apery)
        for x in (10**9, 2**63 - 8)] + [(bullets_brute_force, 10**5)])
    def test_huge_target_refused_before_allocating(self, oracle, x):
        # the grid runs past 2**21 rows: at 10**9 in its first stage, at
        # 10**5 in its second, and at 2**63 - 8 its budget is past int64
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow):
                oracle(MCNUGGET, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_apery_oracle_answers_each_monoid_asked_in_turn(self):
        # no state carries over from one monoid to the next: asked in
        # reverse order, the oracle gives the same bullets
        monoids = [NumericalMonoid(g) for g in
                   ((6, 9, 20), (10, 17, 19, 25, 31), (2, 3), (7, 15, 17, 18, 20))]
        targets = [(S, x) for S in monoids
                   for x in range(-S.frobenius - 2, S.frobenius + S.generators[-1] + 3)]
        first = [bullets_via_apery(S, x) for S, x in targets]
        assert first == [bullets_brute_force(S, x) for S, x in targets]
        assert [bullets_via_apery(S, x) for S, x in targets[::-1]] == first[::-1]

    def test_apery_oracle_on_ten_generators_builds_one_grid_per_subset(self):
        # 1,023 generator subsets; one grid each, up to 60 plus the largest
        # element of its Apery intersection, traces about 0.9 MiB, and the
        # brute grid to 60 + F(S) + nk about 1.2 MiB
        S = NumericalMonoid([10, 12, 13, 14, 15, 16, 17, 18, 19, 21])
        bullets = []
        for oracle in (bullets_via_apery, bullets_brute_force):
            tracemalloc.start()
            try:
                bullets.append(oracle(S, 60))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, oracle
        assert bullets[0] == bullets[1]
        assert len(bullets[0]) == 1219


class TestDynamicBullets:
    def test_window_entry_for_60(self):
        # bullet values of 60 are 60 (lengths up to 10) and 72 (the 9-only bullet)
        assert dynamic_bullets(MCNUGGET, 60) == ((60, 10), (72, 8))

    def test_below_base_is_constant(self):
        assert dynamic_bullets(MCNUGGET, -44) == ((0, 0),)

    def test_compression_consistency(self):
        for x in (-43, -10, 0, 17, 40, 60):
            full = bullets_brute_force(MCNUGGET, x)
            gens = MCNUGGET.generators
            by_value = {}
            for b in full:
                v = sum(c * g for c, g in zip(b, gens))
                by_value[v] = max(by_value.get(v, 0), sum(b))
            assert dict(dynamic_bullets(MCNUGGET, x)) == by_value

    def test_long_bullet_scans_refused_before_scanning(self, monkeypatch):
        # dynamic_bullets on <6,9,20> scans [-43, n], n + 44 integers
        monkeypatch.setattr(omega_module, "_MODEL_TABLE_LIMIT", 100)
        assert dynamic_bullets(MCNUGGET, 56)
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow):
                dynamic_bullets(MCNUGGET, 57)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # the sweeps past N0 read the model, whose 160 integers pass the cap
        monkeypatch.setattr(omega_module, "_MODEL_TABLE_LIMIT", 160)
        assert omega_up_to(MCNUGGET, 1000)[1000] == 170


class TestCoverMaps:
    @staticmethod
    def _cover(S, x, b, g):
        """Image of a bullet of x under the g-cover map into bul(x + g)."""
        gens = S.generators
        v = sum(c * h for c, h in zip(b, gens))
        if S.contains(v - (x + g)):
            return b
        i = gens.index(g)
        return tuple(c + 1 if j == i else c for j, c in enumerate(b))

    @pytest.mark.parametrize("x", [-43, -10, 0, 31, 54, 60, 77])
    def test_images_are_bullets(self, x):
        for g in MCNUGGET.generators:
            target = bullets_brute_force(MCNUGGET, x + g)
            for b in bullets_brute_force(MCNUGGET, x):
                assert self._cover(MCNUGGET, x, b, g) in target

    @pytest.mark.parametrize("x", [0, 40, 51, 54, 60, 100])
    def test_bullets_are_covered(self, x):
        # every bullet of x is the image of a bullet of some x - g
        covered = set()
        for g in MCNUGGET.generators:
            for b in bullets_brute_force(MCNUGGET, x - g):
                covered.add(self._cover(MCNUGGET, x - g, b, g))
        assert covered == bullets_brute_force(MCNUGGET, x)

    @pytest.mark.parametrize("x", [-43, 0, 54, 60])
    def test_compression_commutes(self, x):
        # compressing to (value, length) then applying the dynamic step
        # equals applying the full cover map and then compressing
        gens = MCNUGGET.generators
        for g in gens:
            for b in bullets_brute_force(MCNUGGET, x):
                v = sum(c * h for c, h in zip(b, gens))
                l = sum(b)
                if MCNUGGET.contains(v - (x + g)):
                    dynamic = (v, l)
                else:
                    dynamic = (v + g, l + 1)
                image = self._cover(MCNUGGET, x, b, g)
                compressed = (sum(c * h for c, h in zip(image, gens)), sum(image))
                assert dynamic == compressed


class TestMaximalBulletsAboveThreshold:
    def test_longest_bullets_use_smallest_generator(self):
        model = quasilinear_model(MCNUGGET)
        for n in range(model.threshold + 1, model.threshold + 40):
            bullets = bullets_brute_force(MCNUGGET, n)
            w = max(sum(b) for b in bullets)
            for b in bullets:
                if sum(b) == w:
                    assert b[0] > 0, (n, b)


class TestOmega:
    def test_zero_below_negated_frobenius(self):
        assert omega(MCNUGGET, -44) == 0
        assert omega(MCNUGGET, -100) == 0

    def test_negated_frobenius_is_one(self):
        assert omega(MCNUGGET, -43) == 1

    def test_negated_members_are_zero(self):
        for s in (0, 6, 9, 20, 29):
            assert omega(MCNUGGET, -s) == 0

    def test_omega_of_60(self):
        assert omega(MCNUGGET, 60) == 10

    def test_table_values_small(self):
        assert omega(MCNUGGET, 1000) == 170
        assert omega(NumericalMonoid([11, 13, 15]), 1000) == 97
        assert omega(NumericalMonoid([15, 27, 32, 35]), 1000) == 69

    def test_up_to_domains(self):
        monoid_only = omega_up_to(MCNUGGET, 60, domain="monoid")
        quotient = omega_up_to(MCNUGGET, 60, domain="quotient")
        assert set(monoid_only) == {m for m in range(61) if MCNUGGET.contains(m)}
        assert set(quotient) == set(range(-43, 61))
        for m, w in monoid_only.items():
            assert quotient[m] == w
        assert monoid_only[0] == 0

    def test_target_below_base_rejected(self):
        with pytest.raises(TargetBelowBase):
            omega_up_to(MCNUGGET, -44)

    def test_huge_target_answers_from_the_model(self):
        model = quasilinear_model(MCNUGGET)
        assert omega(MCNUGGET, 10**12) == omega_extrapolate(model, 10**12) == 166666666670
        assert omega(MCNUGGET, 2**63 - 1) == omega_extrapolate(model, 2**63 - 1)

    def test_huge_scan_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow):
                dynamic_bullets(MCNUGGET, 10**12)
            with pytest.raises(Int64Overflow):
                omega_up_to(MCNUGGET, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_packed_key_bound(self):
        # the largest <6,9,20> target whose keys fit: v <= n + 63 < 2**33 and
        # a length of 30 bits; one more and the lengths need 31 bits
        n = 6_442_450_880
        assert next(_blocks(MCNUGGET, n))[0] == -43
        with pytest.raises(Int64Overflow):
            next(_blocks(MCNUGGET, n + 1))

    def test_block_key_bound(self):
        # a monoid whose membership table would take 470 MB: only its
        # generators and F(S) are read before the block keys are sized.
        # At this target the window keys need 33 + 30 bits, and the block
        # keys 4 bits of entry index and 30 of value offset besides the 30
        # of length, so the scan is refused before anything is built
        S = SimpleNamespace(generators=(8, 67108865), frobenius=469762047)
        top = 2**32
        assert top.bit_length() + (top // 8).bit_length() == 63
        with pytest.raises(Int64Overflow, match="block keys"):
            next(_blocks(S, top - S.frobenius - S.generators[-1]))

    def test_naturals(self):
        N = NumericalMonoid([1])
        assert omega(N, 7) == 7
        assert omega(N, 0) == 0
        assert omega_up_to(N, 5, domain="monoid") == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
        assert omega_up_to(N, 0) == {0: 0}
        # <1> has no quasilinear model: its sweep scans, and omega(m) = m
        assert omega_up_to(N, 3000, domain="quotient") == {m: m for m in range(3001)}


class TestQuasilinearModel:
    def test_mcnugget_model(self):
        model = quasilinear_model(MCNUGGET)
        assert model.n1 == 6
        assert model.threshold == 104
        assert model.N0 == 104
        assert model.dissonance == 12
        assert model.dissonance_in_monoid == 12
        assert len(model.offsets) == 6
        assert model.offsets[0] == Fraction(0)

    def test_offsets_describe_omega(self):
        model = quasilinear_model(MCNUGGET)
        # the scan alone, not omega or omega_up_to: both read the omega
        # table, and past 116 this model
        scanned = _scanned(MCNUGGET, 399)
        for n in range(105, 400):
            expected = Fraction(n, 6) + model.offsets[n % 6]
            assert scanned[n] == expected

    def test_step_relation_past_threshold(self):
        S = NumericalMonoid([10, 12, 15])
        model = quasilinear_model(S)
        values = omega_up_to(S, model.threshold + 2 * S.generators[0], domain="quotient")
        for n in range(model.threshold + 1, model.threshold + 2 * S.generators[0] + 1):
            assert values[n] == values[n - S.generators[0]] + 1

    @pytest.mark.parametrize("gens", [(6, 9, 20), (10, 12, 15), (2, 17, 23), (15, 27, 32, 35)])
    def test_dissonance_matches_its_definition(self, gens):
        # the largest m, floored at n1, with omega(m + n1) != omega(m) + 1
        S = NumericalMonoid(gens)
        model = quasilinear_model(S)
        n1 = model.n1
        top = model.threshold + 2 * n1
        # the scan alone: omega_up_to to top reads the model's own table
        w = _scanned(S, top)
        broken = [m for m in w if m + n1 <= top and w[m + n1] != w[m] + 1]
        assert model.dissonance == max([n1] + broken)
        assert model.dissonance_in_monoid == max([n1] + [m for m in broken if S.contains(m)])

    def test_extrapolation_agrees_with_direct(self):
        S = NumericalMonoid([11, 13, 15])
        model = quasilinear_model(S)
        direct = max(length for _, length in dynamic_bullets(S, 3000))
        assert omega_extrapolate(model, 3000) == omega(S, 3000) == direct == 279

    def test_extrapolation_zero_step(self):
        model = quasilinear_model(MCNUGGET)
        top = model.threshold + model.n1
        assert omega_extrapolate(model, top) == omega(MCNUGGET, top)

    def test_below_threshold_rejected(self):
        model = quasilinear_model(MCNUGGET)
        with pytest.raises(BelowThreshold):
            omega_extrapolate(model, model.threshold)

    def test_model_is_memoized_per_monoid(self):
        assert quasilinear_model(NumericalMonoid([9, 6, 20])) is quasilinear_model(MCNUGGET)

    def test_model_scan_memory(self):
        # the omega table of the model, its narrow running copy and the
        # max-length tables of the generator subsets: about 0.55 MiB here
        S = NumericalMonoid([100, 121, 142, 163, 284])
        quasilinear_model.cache_clear()
        tracemalloc.start()
        try:
            model = quasilinear_model(S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.threshold == 25715
        assert peak < 4 * 2**20

    def test_model_keeps_only_its_table(self):
        # a cached model holds 8 bytes per integer of its scan range
        # [-F(S), N0 + 2 * n1], and little else
        S = NumericalMonoid([100, 121, 142, 163, 284])
        quasilinear_model.cache_clear()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            model = quasilinear_model(S)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 8 * (model.threshold + 2 * model.n1 + S.frobenius + 1) + 64 * 2**10

    def test_oversized_model_refused_before_allocating(self):
        # N0 = 10**9 on <1000,1001>: its model would scan 1,001,001,000
        # integers into a 7.5 GiB table
        S = NumericalMonoid([1000, 1001])
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow, match="model table cap"):
                quasilinear_model(S)
            with pytest.raises(Int64Overflow, match="model table cap"):
                omega(S, _threshold(S))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_model_table_cap_counts_the_scan_range(self, monkeypatch):
        # <6,9,20> scans [-43, 116], 160 integers
        monkeypatch.setattr(omega_module, "_MODEL_TABLE_LIMIT", 160)
        assert len(quasilinear_model.__wrapped__(MCNUGGET)._table) == 160
        monkeypatch.setattr(omega_module, "_MODEL_TABLE_LIMIT", 159)
        with pytest.raises(Int64Overflow, match="model table cap"):
            quasilinear_model.__wrapped__(MCNUGGET)

    def test_table_is_private_and_read_only(self):
        model = quasilinear_model(MCNUGGET)
        assert model._table.flags.writeable is False
        with pytest.raises(ValueError):
            model._table[0] = 1
        assert "_table" not in repr(model)
        other = quasilinear_model.__wrapped__(MCNUGGET)
        assert other == model and hash(other) == hash(model)

    @pytest.mark.parametrize("gens", [(10, 12, 15, 16, 17), (6, 9, 20)])
    def test_each_omega_value_from_one_scan(self, monkeypatch, gens):
        # omega(N0), the model and a sweep past N0 + 2 * n1 share the
        # memoized model's omega table
        S = NumericalMonoid(gens)
        scans = []

        def counted(monoid, n):
            scans.append(n)
            return _omega_table(monoid, n)

        monkeypatch.setattr(omega_module, "_omega_table", counted)
        quasilinear_model.cache_clear()
        N0, n1 = _threshold(S), S.generators[0]
        omega(S, N0)
        quasilinear_model(S)
        omega_up_to(S, N0 + 5 * n1, "quotient")
        assert scans == [N0 + 2 * n1]

    def test_needs_two_generators(self):
        with pytest.raises(ValueError):
            quasilinear_model(NumericalMonoid([1]))
