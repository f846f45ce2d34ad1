import importlib
import itertools
import tracemalloc

import pytest

from numfac import (
    NegativeTarget,
    NotAGenerator,
    NotInMonoid,
    NumericalMonoid,
    brute_force_factorizations,
    factorizations,
    factorizations_up_to,
    length_set,
    length_sets_up_to,
    max_length,
)
from numfac.factorization import _grid_fits, _sorted_grid

factorization_module = importlib.import_module("numfac.factorization")

MCNUGGET = NumericalMonoid([6, 9, 20])


class TestWorkedExamples:
    def test_z60(self):
        assert factorizations(MCNUGGET, 60) == {
            (0, 0, 3), (1, 6, 0), (4, 4, 0), (7, 2, 0), (10, 0, 0)
        }

    def test_z54_z51_z40(self):
        assert factorizations(MCNUGGET, 54) == {(0, 6, 0), (3, 4, 0), (6, 2, 0), (9, 0, 0)}
        assert factorizations(MCNUGGET, 51) == {(1, 5, 0), (4, 3, 0), (7, 1, 0)}
        assert factorizations(MCNUGGET, 40) == {(0, 0, 2)}

    def test_gap_has_no_factorizations(self):
        assert factorizations(MCNUGGET, 43) == set()

    def test_identity(self):
        assert factorizations(MCNUGGET, 0) == {(0, 0, 0)}

    def test_lengths(self):
        assert length_set(MCNUGGET, 60) == (3, 7, 8, 9, 10)
        assert length_set(MCNUGGET, 40) == (2,)
        assert length_set(MCNUGGET, 0) == (0,)
        assert length_set(MCNUGGET, 43) == ()

    def test_max_length(self):
        assert max_length(MCNUGGET, 60) == 10
        assert max_length(MCNUGGET, 54) == 9
        assert max_length(MCNUGGET, 0) == 0
        with pytest.raises(NotInMonoid):
            max_length(MCNUGGET, 43)


class TestStreaming:
    def test_elements_ascending_and_members_only(self):
        seen = [m for m, _ in factorizations_up_to(MCNUGGET, 45)]
        assert seen == sorted(seen)
        assert all(MCNUGGET.contains(m) for m in seen)
        assert 43 not in seen
        assert seen[0] == 0

    def test_no_duplicate_vectors(self):
        for m, Z in factorizations_up_to(MCNUGGET, 150):
            rows = {tuple(int(v) for v in r) for r in Z}
            assert len(rows) == len(Z)

    def test_yielded_arrays_are_read_only(self):
        for _, Z in factorizations_up_to(MCNUGGET, 20):
            with pytest.raises(ValueError):
                Z[0, 0] = 99

    def test_length_sets_stream_matches_single(self):
        collected = dict(length_sets_up_to(MCNUGGET, 70))
        assert tuple(int(v) for v in collected[60]) == (3, 7, 8, 9, 10)
        assert set(collected) == {m for m in range(71) if MCNUGGET.contains(m)}

    def test_negative_target_rejected(self):
        with pytest.raises(NegativeTarget):
            list(factorizations_up_to(MCNUGGET, -1))
        with pytest.raises(NegativeTarget):
            length_set(MCNUGGET, -5)


class TestBruteForce:
    def test_matches_dynamic(self):
        for m in range(0, 2 * MCNUGGET.frobenius + 30):
            assert brute_force_factorizations(MCNUGGET, m) == factorizations(MCNUGGET, m)

    def test_support_restriction(self):
        # the sole factorization of 72 using only the generator 9
        assert brute_force_factorizations(MCNUGGET, 72, support={9}) == {(0, 8, 0)}
        assert brute_force_factorizations(MCNUGGET, 60, support={6, 9}) == {
            (1, 6, 0), (4, 4, 0), (7, 2, 0), (10, 0, 0)
        }

    def test_zero_target(self):
        assert brute_force_factorizations(MCNUGGET, 0) == {(0, 0, 0)}
        assert brute_force_factorizations(MCNUGGET, 0, support={20}) == {(0, 0, 0)}

    def test_unknown_support_rejected(self):
        with pytest.raises(NotAGenerator):
            brute_force_factorizations(MCNUGGET, 60, support={7})

    def test_brute_force_builds_the_grid_of_its_exact_target(self):
        # the grid to 256 holds more than 2**21 vectors over these ten
        # generators; the grid to the target 0 holds one
        S = NumericalMonoid([10, 12, 13, 14, 15, 16, 17, 18, 19, 21])
        assert not _grid_fits(S.generators, 256)
        assert brute_force_factorizations(S, 0) == {(0,) * 10}
        assert brute_force_factorizations(S, 60) == factorizations(S, 60)

    @pytest.mark.parametrize("gens", [(1,), (6, 9, 20), (10, 12, 13, 14, 15, 16, 17, 18, 19, 21)])
    def test_grid_fits_counts_the_rows_the_grid_holds(self, gens, monkeypatch):
        for budget in (0, 5, 21, 60, 97):
            rows = len(_sorted_grid(gens, budget)[0])
            for limit, fits in ((rows, True), (rows - 1, False)):
                monkeypatch.setattr(factorization_module, "_GRID_ROWS_LIMIT", limit)
                assert _grid_fits(gens, budget) == fits, (budget, limit)
                monkeypatch.undo()


class TestScaling:
    def test_table_count_medium(self):
        S = NumericalMonoid([10, 17, 19, 25, 31])
        final = None
        for m, Z in factorizations_up_to(S, 1000):
            if m == 1000:
                final = len(Z)
        assert final == 20293

    def test_lengths_grow_linearly_not_with_z(self):
        S = NumericalMonoid([10, 17, 19, 25, 31])
        L = length_set(S, 1000)
        assert len(L) < 100  # |Z(1000)| is 20293
        # 33 = ceil(1000/31) atoms cannot hit 1000 exactly; 34 can
        assert L[0] == 34
        assert L[-1] == 100  # one hundred copies of the generator 10

    def test_sweep_streams_in_window_memory(self):
        # the scan keeps nk + 1 consecutive entries alive (the ring plus the
        # entry being built), so its peak stays near their largest run
        S = NumericalMonoid([10, 17, 19, 25, 31])
        sizes = [Z.nbytes for _, Z in factorizations_up_to(S, 1000)]
        run = S.generators[-1] + 1
        window = max(sum(sizes[i:i + run]) for i in range(len(sizes)))
        tracemalloc.start()
        try:
            for _ in factorizations_up_to(S, 1000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < window + 2**20, (peak, window)

    def test_sweep_past_a_huge_nk_builds_no_slot_table(self):
        # the ring of nk = 1,048,577 slots takes 8 MiB; a table of the slots
        # (r - ni) % nk of every residue the scan reaches would take 134 MB
        S = NumericalMonoid([2, 1048577])
        tracemalloc.start()
        try:
            first = list(itertools.islice(factorizations_up_to(S, 10**7), 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(m, Z.tolist()) for m, Z in first] == [(2 * j, [[j, 0]]) for j in range(10)]
        assert peak < 16 * 2**20, peak
