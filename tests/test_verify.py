from numfac.verify import _is_antichain


def test_planted_dominated_pair_is_not_an_antichain():
    # (1, 2, 0) <= (1, 3, 0) in every coordinate
    assert not _is_antichain({(3, 0, 0), (1, 2, 0), (0, 0, 4), (1, 3, 0)})


def test_incomparable_bullets_are_an_antichain():
    assert _is_antichain({(3, 0, 0), (1, 2, 0), (0, 3, 1), (0, 0, 4), (2, 1, 1)})
