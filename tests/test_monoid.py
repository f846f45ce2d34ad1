import tracemalloc

import pytest

from numfac import (
    AperySet,
    EmptyGenerators,
    Int64Overflow,
    NonCoprime,
    NonPositiveBase,
    NotAGenerator,
    NotInMonoid,
    NumericalMonoid,
    ZeroGenerator,
)


def sieve_members(gens, limit):
    """Independent membership oracle: plain DP sieve over [0, limit]."""
    member = [False] * (limit + 1)
    member[0] = True
    for v in range(1, limit + 1):
        member[v] = any(v >= g and member[v - g] for g in gens)
    return member


class TestConstruction:
    def test_mcnugget(self):
        S = NumericalMonoid([6, 9, 20])
        assert S.generators == (6, 9, 20)
        assert S.k == 3
        assert S.frobenius == 43
        assert S.period_hint == 60

    def test_redundant_generator_removed(self):
        S = NumericalMonoid([6, 9, 15, 20])
        assert S.generators == (6, 9, 20)
        assert S.removed_generators == (15,)

    def test_huge_redundant_generator_allocates_nothing_in_proportion(self):
        # minimality comes from the residue table, so a redundant
        # generator costs nothing in proportion to its size
        tracemalloc.start()
        try:
            S = NumericalMonoid([6, 7, 4_000_001])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.generators == (6, 7)
        assert S.removed_generators == (4_000_001,)
        assert peak < 1_000_000

    def test_membership_table_costs_about_one_byte_per_offset(self):
        # F = 3,997,999: the table kept is 4.0 MB
        tracemalloc.start()
        try:
            S = NumericalMonoid([2000, 2001])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(S._table) == S.frobenius + 1
        assert peak < 16_000_000

    def test_input_order_and_duplicates_ignored(self):
        assert NumericalMonoid([20, 9, 6, 9]).generators == (6, 9, 20)

    def test_non_coprime_rejected(self):
        with pytest.raises(NonCoprime):
            NumericalMonoid([4, 6])

    def test_empty_rejected(self):
        with pytest.raises(EmptyGenerators):
            NumericalMonoid([])

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ZeroGenerator):
            NumericalMonoid([0, 3])
        with pytest.raises(ZeroGenerator):
            NumericalMonoid([-2, 3])

    def test_naturals_degenerate(self):
        N = NumericalMonoid([1])
        assert N.generators == (1,)
        assert N.frobenius == -1
        assert N.contains(0) and N.contains(5) and not N.contains(-1)
        assert N.pseudo_frobenius() == (-1,)

    def test_equality_and_hash(self):
        assert NumericalMonoid([6, 9, 20]) == NumericalMonoid([20, 6, 9, 15])
        assert hash(NumericalMonoid([2, 3])) == hash(NumericalMonoid([2, 3]))


class TestMembership:
    def test_frobenius_examples(self):
        assert NumericalMonoid([6, 9, 20]).frobenius == 43
        assert NumericalMonoid([2, 3]).frobenius == 1
        # cross-checked against the sieve oracle below
        assert NumericalMonoid([10, 12, 15]).frobenius == 53

    def test_membership_rules(self):
        S = NumericalMonoid([6, 9, 20])
        assert not S.contains(43)
        assert S.contains(44)
        assert S.contains(0)
        assert not S.contains(-5)
        # a plain bool, not a numpy one, wherever the answer comes from
        assert {type(S.contains(m)) for m in (-5, 0, 43, 44, 10**6)} == {bool}

    @pytest.mark.parametrize("gens", [(2, 3), (6, 9, 20), (10, 12, 15), (11, 13, 15)])
    def test_membership_matches_sieve(self, gens):
        S = NumericalMonoid(gens)
        limit = 3 * max(S.frobenius, 1)
        oracle = sieve_members(gens, limit)
        for m in range(limit + 1):
            assert S.contains(m) == oracle[m], m

    def test_contains_array_agrees_with_scalar(self):
        S = NumericalMonoid([6, 9, 20])
        xs = list(range(-10, 100))
        assert list(S.contains_array(xs)) == [S.contains(x) for x in xs]


class TestAperySets:
    def test_size_and_residues(self):
        S = NumericalMonoid([6, 9, 20])
        for s in (6, 9, 20, 12):
            ap = S.apery_set(s)
            assert isinstance(ap, AperySet)
            assert len(ap) == s
            assert sorted(v % s for v in ap) == list(range(s))
            assert 0 in ap

    def test_frobenius_from_apery(self):
        S = NumericalMonoid([6, 9, 20])
        assert max(S.apery_set(6).elements) - 6 == S.frobenius

    def test_known_apery_of_9(self):
        S = NumericalMonoid([6, 9, 20])
        assert S.apery_set(9).elements == (0, 6, 12, 20, 26, 32, 40, 46, 52)

    def test_base_validation(self):
        S = NumericalMonoid([6, 9, 20])
        with pytest.raises(NonPositiveBase):
            S.apery_set(0)
        with pytest.raises(NotInMonoid):
            S.apery_set(7)

    @pytest.mark.parametrize("gens", [[1], [2, 3], [6, 9, 20], [10, 17, 19, 25, 31]])
    def test_matches_definition(self, gens):
        S = NumericalMonoid(gens)
        for base in (1, 2, 6, 9, 20, 31, 77):
            if not S.contains(base):
                continue
            member = sieve_members(gens, S.frobenius + base)
            assert S.apery_set(base).elements == tuple(
                m for m in range(S.frobenius + base + 1)
                if member[m] and (m < base or not member[m - base])
            )

    def test_huge_base_refused_before_allocating(self):
        S = NumericalMonoid([6, 9, 20])
        tracemalloc.start()
        try:
            with pytest.raises(Int64Overflow):
                S.apery_set(10**15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_base_cap_boundary(self, monkeypatch):
        # the table of an Apery set of base b has F(S) + b + 1 entries
        monkeypatch.setattr("numfac.monoid._MEMBER_TABLE_LIMIT", 100)
        S = NumericalMonoid([6, 9, 20])
        assert len(S.apery_set(56)) == 56
        with pytest.raises(Int64Overflow):
            S.apery_set(57)

    def test_base_cap_counts_the_elements(self, monkeypatch):
        # an Apery set of base b has b elements, one per residue mod b
        monkeypatch.setattr("numfac.monoid._RESIDUE_TABLE_LIMIT", 60)
        S = NumericalMonoid([6, 9, 20])
        assert len(S.apery_set(60)) == 60
        with pytest.raises(Int64Overflow):
            S.apery_set(61)

    def test_intersection_of_all_generators_is_zero(self):
        S = NumericalMonoid([6, 9, 20])
        assert S.apery_intersection((6, 9, 20)) == (0,)

    def test_intersection_single_is_apery_set(self):
        S = NumericalMonoid([6, 9, 20])
        assert S.apery_intersection((9,)) == S.apery_set(9).elements

    def test_intersection_pair(self):
        # frozen from intersecting the two brute-force Apery scans
        S = NumericalMonoid([6, 9, 20])
        a6 = set(S.apery_set(6).elements)
        a9 = set(S.apery_set(9).elements)
        assert S.apery_intersection((6, 9)) == tuple(sorted(a6 & a9)) == (0, 20, 40)

    def test_intersection_validation(self):
        S = NumericalMonoid([6, 9, 20])
        with pytest.raises(NotAGenerator):
            S.apery_intersection((6, 7))
        from numfac import EmptySubset
        with pytest.raises(EmptySubset):
            S.apery_intersection(())


class TestPseudoFrobenius:
    def test_frozen_mcnugget(self):
        # brute scan of the gaps 1..43 testing n+6, n+9, n+20
        assert NumericalMonoid([6, 9, 20]).pseudo_frobenius() == (43,)

    def test_two_three(self):
        assert NumericalMonoid([2, 3]).pseudo_frobenius() == (1,)

    @pytest.mark.parametrize("gens", [(6, 9, 20), (10, 12, 15), (11, 13, 15)])
    def test_definition_holds(self, gens):
        S = NumericalMonoid(gens)
        pf = S.pseudo_frobenius()
        assert S.frobenius in pf
        for n in pf:
            assert not S.contains(n)
            assert all(S.contains(n + g) for g in S.generators)
        # completeness against a direct scan
        direct = [
            n for n in range(1, S.frobenius + 1)
            if not S.contains(n) and all(S.contains(n + g) for g in S.generators)
        ]
        assert list(pf) == direct
