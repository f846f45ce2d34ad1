import dataclasses
import importlib

import numpy as np
import pytest

from numfac import NumericalMonoid, bullets_brute_force, omega_up_to, quasilinear_model
from numfac.factorization import _sorted_grid
from numfac.omega import _apery_omegas, _blocks, _bullet_table
from numfac.verify import (
    _ANTICHAIN_LIMIT,
    _bullet_counts,
    _is_antichain,
    _largest,
    _omega_range,
    _widest_entry,
    omega_triple_equivalence,
)

factorization_module = importlib.import_module("numfac.factorization")
omega_module = importlib.import_module("numfac.omega")
verify_module = importlib.import_module("numfac.verify")

# the one-pass oracles against the per-x ones, on x in [-F(S), 300]
ONE_PASS = [(1,), (6, 9, 20), (7, 15, 17, 18, 20), (10, 12, 15, 16, 17), (31, 73, 77, 87, 91)]

# every monoid of the acceptance tables on which verify passed before its
# ranges were capped by rows
UNCAPPED = ONE_PASS + [
    (2, 3), (10, 12, 15), (11, 13, 15), (15, 27, 32, 35), (10, 17, 19, 25, 31),
    (7, 19, 20, 25, 29), (51, 53, 55, 117), (11, 53, 73, 87), (100, 121, 142, 163, 284),
]


def test_planted_dominated_pair_is_not_an_antichain():
    # (1, 2, 0) <= (1, 3, 0) in every coordinate
    assert not _is_antichain({(3, 0, 0), (1, 2, 0), (0, 0, 4), (1, 3, 0)})


def test_incomparable_bullets_are_an_antichain():
    assert _is_antichain({(3, 0, 0), (1, 2, 0), (0, 3, 1), (0, 0, 4), (2, 1, 1)})


def test_triple_equivalence_checks_the_model_rows(monkeypatch):
    # on <6,9,20> a sweep to 200 >= N0 = 104 reads the model: the rows up to
    # N0 + 2 * n1 = 116 from its table, the rows 117..200 from its anchors.
    # The planted model keeps the true table, so only the anchor rows fail
    S = NumericalMonoid([6, 9, 20])
    assert omega_triple_equivalence(S, 200).failures == 0
    model = quasilinear_model(S)
    wrong = dataclasses.replace(model, anchors=tuple((m0, w0 + 1) for m0, w0 in model.anchors))
    monkeypatch.setattr(omega_module, "quasilinear_model", lambda monoid: wrong)
    result = omega_triple_equivalence(S, 200)
    assert (result.checked, result.failures) == (244, 200 - 116)


@pytest.mark.parametrize("gens, n, widest", [
    ((6, 9, 20), 200, 8),
    ((10, 12, 15, 16, 17), 200, 22),
    ((11, 13, 15), 300, 16),
])
def test_window_entries_hold_one_pair_per_bullet_value(gens, n, widest):
    # the width bound passes any scan that under-reports its widest entry,
    # so each width is checked against the brute-force bullets of x
    S = NumericalMonoid(gens)
    widths = np.concatenate([np.diff(offsets) for _, offsets, _, _ in _blocks(S, n)]).tolist()
    for x, width in enumerate(widths, start=min(-S.frobenius, 0)):
        values = {int(np.dot(b, S.generators)) for b in bullets_brute_force(S, x)}
        assert width == len(values), x
    assert max(widths) == _widest_entry(S, n) == widest


@pytest.mark.parametrize("gens", ONE_PASS)
def test_one_pass_omegas_match_the_scan(gens):
    S = NumericalMonoid(gens)
    scan = list(omega_up_to(S, 300, "quotient").values())
    offsets, bullets = _bullet_table(S, 300)
    assert np.maximum.reduceat(bullets.sum(axis=1), offsets[:-1]).tolist() == scan
    assert _apery_omegas(S, 300).tolist() == scan


@pytest.mark.parametrize("gens", ONE_PASS)
def test_sliced_bullet_sets_match_the_per_x_oracle(gens):
    # the range holds every x in [-F(S), 0] with -x in S, whose bullet
    # set is {0}
    S = NumericalMonoid(gens)
    base = min(-S.frobenius, 0)
    offsets, bullets = _bullet_table(S, 300)
    assert len(offsets) == 300 - base + 2
    bounds = offsets.tolist()
    for x, lo, hi in zip(range(base, 301), bounds, bounds[1:]):
        assert set(map(tuple, bullets[lo:hi].tolist())) == bullets_brute_force(S, x), x


@pytest.mark.parametrize("gens", ONE_PASS)
def test_bullet_counts_match_the_table(gens):
    S = NumericalMonoid(gens)
    assert _bullet_counts(S, 300).tolist() == np.diff(_bullet_table(S, 300)[0]).tolist()


@pytest.mark.parametrize("gens", [(6, 9, 20), (31, 73, 77, 87, 91)])
def test_one_pass_oracles_on_a_range_that_ends_below_zero(gens):
    # a capped range can end below 0, where x + y < 0 for some y of each
    # bullet test and Apery intersection
    S = NumericalMonoid(gens)
    x_max = -S.frobenius // 2
    scan = list(omega_up_to(S, x_max, "quotient").values())
    offsets, bullets = _bullet_table(S, x_max)
    assert np.maximum.reduceat(bullets.sum(axis=1), offsets[:-1]).tolist() == scan
    assert _apery_omegas(S, x_max).tolist() == scan
    assert _bullet_counts(S, x_max).tolist() == np.diff(offsets).tolist()


@pytest.mark.parametrize("gens", UNCAPPED)
def test_ranges_are_not_capped_where_verify_passed_before(gens):
    S = NumericalMonoid(gens)
    assert _omega_range(S, 300) == 300
    assert _omega_range(S, 200) == 200


def test_omega_range_stops_before_the_antichain_cap():
    # on <10,...,21> the brute grid fits the row cap up to x = 187, but the
    # bullet sets up to x = 95 already make the antichain check compare
    # more than 2**29 row pairs
    S = NumericalMonoid([10, 12, 13, 14, 15, 16, 17, 18, 19, 21])
    assert _omega_range(S, 200) == 94
    compared = np.cumsum(np.diff(_bullet_table(S, 95)[0]) ** 2)
    assert compared[-2] <= _ANTICHAIN_LIMIT < compared[-1]


@pytest.mark.parametrize("last", [-3, 0, 1, 17, 99, 100])
def test_largest_finds_the_last_value_that_fits(last):
    calls = []

    def fits(v):
        calls.append(v)
        return v <= last

    assert _largest(fits, 0, 100) == min(max(last, -1), 100)
    assert len(calls) <= 8


def test_omega_range_stops_before_the_grid_cap(monkeypatch):
    # with the row cap at the rows of the grid to 150 + F(S) + nk, the
    # omega range of <6,9,20> stops at x = 150
    S = NumericalMonoid([6, 9, 20])
    reach = S.frobenius + S.generators[-1]
    rows = len(_sorted_grid(S.generators, 150 + reach)[0])
    assert len(_sorted_grid(S.generators, 151 + reach)[0]) > rows
    monkeypatch.setattr(factorization_module, "_GRID_ROWS_LIMIT", rows)
    assert _omega_range(S, 300) == 150


def test_an_empty_bullet_set_fails_the_omega_count(monkeypatch):
    # bul(40) of <6,9,20> is taken out of the table, and bul(41) is turned
    # to start with (3, 7, 0), whose length is omega(40) = 10
    S = NumericalMonoid([6, 9, 20])

    def planted(monoid, x_max):
        offsets, bullets = _bullet_table(monoid, x_max)
        at = 40 + S.frobenius
        lo, mid, hi = offsets[at:at + 3]
        turned = bullets[mid:hi][np.argsort(~(bullets[mid:hi] == (3, 7, 0)).all(axis=1), kind="stable")]
        offsets = offsets.copy()
        offsets[at + 1:] -= mid - lo
        return offsets, np.concatenate((bullets[:lo], turned, bullets[hi:]))

    monkeypatch.setattr(verify_module, "_bullet_table", planted)
    result = omega_triple_equivalence(S, 200)
    assert (result.checked, result.failures) == (244, 1)


def test_a_planted_dominated_pair_fails_the_antichain_count(monkeypatch):
    # bul(40) = {(0,0,2), (4,4,0), (7,2,0), (10,0,0), (1,6,0), (0,8,0)};
    # (0,0,2) becomes (9,0,0), below (10,0,0), so omega(40) stays 10
    S = NumericalMonoid([6, 9, 20])

    def planted(monoid, x_max):
        offsets, bullets = _bullet_table(monoid, x_max)
        lo, hi = offsets[40 + S.frobenius:42 + S.frobenius]
        bullets = bullets.copy()
        bullets[lo + np.flatnonzero((bullets[lo:hi] == (0, 0, 2)).all(axis=1))] = (9, 0, 0)
        return offsets, bullets

    monkeypatch.setattr(verify_module, "_bullet_table", planted)
    result = omega_triple_equivalence(S, 200)
    assert (result.checked, result.failures) == (244, 1)


def test_a_planted_apery_value_fails_the_omega_count(monkeypatch):
    S = NumericalMonoid([6, 9, 20])

    def planted(monoid, x_max):
        omegas = _apery_omegas(monoid, x_max)
        omegas[50 + S.frobenius] += 1
        return omegas

    monkeypatch.setattr(verify_module, "_apery_omegas", planted)
    result = omega_triple_equivalence(S, 200)
    assert (result.checked, result.failures) == (244, 1)


def test_a_planted_scan_length_fails_the_omega_count(monkeypatch):
    # omega_up_to no longer reads the dynamic-bullet scan, so the check
    # compares the scan's longest pairs with the oracles on its own
    S = NumericalMonoid([6, 9, 20])

    def planted(monoid, n):
        for M, offsets, values, lengths in _blocks(monoid, n):
            if M <= 50 < M + len(offsets) - 1:
                lengths = lengths.copy()
                lengths[offsets[50 - M]] += 100
            yield M, offsets, values, lengths

    monkeypatch.setattr(verify_module, "_blocks", planted)
    result = omega_triple_equivalence(S, 200)
    assert (result.checked, result.failures) == (244, 1)
