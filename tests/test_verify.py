import dataclasses
import importlib

import numpy as np
import pytest

from numfac import NumericalMonoid, bullets_brute_force, quasilinear_model
from numfac.omega import _blocks
from numfac.verify import _is_antichain, _widest_entry, omega_triple_equivalence

omega_module = importlib.import_module("numfac.omega")


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
