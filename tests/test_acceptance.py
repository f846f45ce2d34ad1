"""Acceptance suite: exact reproduction of the published invariant values.

Each test prints one PASS/FAIL line.  All comparisons are exact (set
equality / integer equality); nothing is tolerance-based.  Run with
``--runslow`` to include the omega(357362) reproduction on
<1001,1211,1421,1631,2841>, about 20 s on 2 cores.
"""

import contextlib
import tracemalloc

import pytest

from numfac import (
    NumericalMonoid,
    brute_force_factorizations,
    bullets_brute_force,
    bullets_via_apery,
    delta_periodicity,
    delta_scan_bound,
    delta_set,
    factorizations,
    factorizations_up_to,
    length_set,
    delta_of_lengths,
    omega,
    omega_extrapolate,
    quasilinear_model,
)
from numfac import verify as vf


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_worked_examples():
    with criterion("criterion 1: worked example suite for <6,9,20>"):
        S = NumericalMonoid([6, 9, 20])
        assert factorizations(S, 60) == {
            (0, 0, 3), (1, 6, 0), (4, 4, 0), (7, 2, 0), (10, 0, 0)
        }
        assert length_set(S, 60) == (3, 7, 8, 9, 10)
        assert delta_of_lengths(length_set(S, 60)) == (1, 4)
        assert factorizations(S, 40) == {(0, 0, 2)}
        assert factorizations(S, 51) == {(1, 5, 0), (4, 3, 0), (7, 1, 0)}
        assert factorizations(S, 54) == {(0, 6, 0), (3, 4, 0), (6, 2, 0), (9, 0, 0)}
        expected_bullets = {
            40: {(0, 0, 2), (4, 4, 0), (7, 2, 0), (10, 0, 0), (1, 6, 0), (0, 8, 0)},
            51: {(0, 7, 0), (10, 0, 0), (4, 3, 0), (1, 5, 0), (0, 0, 3), (7, 1, 0)},
            54: {(9, 0, 0), (6, 2, 0), (0, 6, 0), (3, 4, 0), (0, 0, 3)},
            60: {(4, 4, 0), (7, 2, 0), (10, 0, 0), (1, 6, 0), (0, 8, 0), (0, 0, 3)},
        }
        for x, bullets in expected_bullets.items():
            assert bullets_brute_force(S, x) == bullets
            assert bullets_via_apery(S, x) == bullets
        assert S.apery_intersection((6, 9, 20)) == (0,)
        assert brute_force_factorizations(S, 72, support={9}) == {(0, 8, 0)}


DELTA_DEFAULT_BOUND = [
    ((6, 9, 20), (1, 2, 3, 4)),
    ((10, 17, 19, 25, 31), (1, 2, 3)),
    ((7, 15, 17, 18, 20), (1, 2, 3)),
    ((7, 19, 20, 25, 29), (1, 2, 3, 5)),
]

DELTA_WITH_OVERRIDE = [
    ((51, 53, 55, 117), 9699, (2, 4, 6)),
    ((11, 53, 73, 87), 14381, (2, 4, 6, 8, 10, 22)),
    ((31, 73, 77, 87, 91), 31364, (2, 4, 6)),
    ((100, 121, 142, 163, 284), 24850, (21,)),
]


def test_criterion_2_delta_sets():
    with criterion("criterion 2: monoid delta sets (in-built bound and overrides)"):
        for gens, expected in DELTA_DEFAULT_BOUND:
            assert delta_set(NumericalMonoid(gens)) == expected, gens
        for gens, bound, expected in DELTA_WITH_OVERRIDE:
            S = NumericalMonoid(gens)
            assert delta_set(S, bound_override=bound) == expected, gens
            # the certificate stops these long before the proven bound
            assert delta_set(S) == expected, gens


def test_criterion_3_delta_periodicity():
    with criterion("criterion 3: delta periodicity starts and period"):
        S = NumericalMonoid([6, 9, 20])
        rep = delta_periodicity(S, delta_scan_bound(S) + S.period_hint)
        assert rep.dissonance_start == 91
        assert rep.period == 20
        for gens, known_start_bound, expected in [
            ((10, 17, 19, 25, 31), 1180, 76),
            ((51, 53, 55, 117), 9699, 1006),
            ((7, 15, 17, 18, 20), 1935, 46),
        ]:
            T = NumericalMonoid(gens)
            horizon = known_start_bound + 2 * T.period_hint
            assert delta_periodicity(T, horizon).dissonance_start == expected, gens


FACTORIZATION_COUNTS = [
    ((10, 17, 19, 25, 31), 1000, 20293),
    ((51, 53, 55, 117), 5000, 1299),
    ((7, 15, 17, 18, 20), 1000, 75375),
    ((100, 121, 142, 163, 284), 30000, 16569),
]


def test_criterion_4_factorization_counts():
    with criterion("criterion 4: streamed factorization-set sizes"):
        for gens, n, expected in FACTORIZATION_COUNTS:
            S = NumericalMonoid(gens)
            count = None
            for m, Z in factorizations_up_to(S, n):
                if m == n:
                    count = len(Z)
            assert count == expected, gens


OMEGA_VALUES = [
    ((6, 9, 20), 1000, 170),
    ((11, 13, 15), 1000, 97),
    ((11, 13, 15), 3000, 279),
    ((11, 13, 15), 10000, 915),
    ((15, 27, 32, 35), 1000, 69),
    ((10, 12, 15, 16, 17), 500, 52),
    ((10, 12, 15, 16, 17), 50000, 5002),
    ((100, 121, 142, 163, 284), 25715, 308),
]


def test_criterion_5_omega_values():
    with criterion("criterion 5: omega values"):
        for gens, n, expected in OMEGA_VALUES:
            assert omega(NumericalMonoid(gens), n) == expected, (gens, n)


@pytest.mark.slow
def test_criterion_5_omega_large_slow():
    with criterion("criterion 5 (slow): omega(357362) for <1001,1211,1421,1631,2841>"):
        S = NumericalMonoid([1001, 1211, 1421, 1631, 2841])
        # 357362 is N0, so omega reads the model, whose omega table to
        # N0 + 2 * n1 (433,125 integers, 3.3 MiB as int64) is built from
        # int16 max-length tables of the generator subsets: 7.1 MiB traced
        # on a 2-core Xeon with Python 3.11, where the dynamic-bullet scan
        # to the same top peaks at 61.2 MiB
        tracemalloc.start()
        try:
            assert omega(S, 357362) == 405
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


QUASILINEAR = [
    ((6, 9, 20), 104, 12),
    ((10, 12, 15), 325, 190),
    ((10, 12, 15, 16, 17), 175, 10),
    ((10, 12, 13, 14, 15, 16, 17, 18, 19, 21), 115, 10),
    ((100, 121, 142, 163, 284), 25715, 100),
]


def test_criterion_6_quasilinear_model():
    with criterion("criterion 6: quasilinear thresholds, dissonance, extrapolation"):
        for gens, threshold, dissonance in QUASILINEAR:
            model = quasilinear_model(NumericalMonoid(gens))
            assert model.threshold == threshold, gens
            assert model.dissonance == dissonance, gens
        S = NumericalMonoid([10, 12, 15, 16, 17])
        model = quasilinear_model(S)
        assert omega_extrapolate(model, 50000) == omega(S, 50000) == 5002


PROPERTY_MONOIDS = [(2, 3), (6, 9, 20), (11, 13, 15), (10, 12, 15, 16, 17)]


def test_criterion_7_property_suite():
    with criterion("criterion 7: oracle cross-validation property suite"):
        for gens in PROPERTY_MONOIDS:
            S = NumericalMonoid(gens)
            results = [
                vf.factorization_oracle(S, 2 * S.frobenius + 100),
                vf.length_consistency(S, 2 * S.frobenius + 100),
                vf.omega_triple_equivalence(S, 300),
                vf.length_omega_sandwich(S, 300),
                vf.omega_zero_one(S, pad=50),
                vf.bullet_window_bound(S, 300),
            ]
            for r in results:
                assert r.failures == 0, (gens, r.name)
        # stability of per-element delta sets beyond the proven bound
        r = vf.delta_periodic_window(NumericalMonoid([6, 9, 20]))
        assert r.failures == 0 and r.checked > 0
