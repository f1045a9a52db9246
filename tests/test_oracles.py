"""Tests of the test oracles themselves: the validating corner helpers
reject every node set that is not a set of corners, one per row."""

import pytest

from oracles import add_corner_set, remove_corner_set


def test_corner_sets():
    assert remove_corner_set((3, 1), [(1, 3), (2, 1)]) == (2,)
    assert add_corner_set((1,), [(1, 2), (2, 1)]) == (2, 1)
    with pytest.raises(ValueError):
        remove_corner_set((3, 1), [(1, 2)])
    with pytest.raises(ValueError):
        add_corner_set((2, 2), [(2, 3)])


def test_corner_sets_reject_two_nodes_in_one_row():
    with pytest.raises(ValueError):
        remove_corner_set((3,), [(1, 3), (1, 2)])
    with pytest.raises(ValueError):
        add_corner_set((1,), [(1, 2), (1, 3)])
