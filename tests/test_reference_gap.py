"""Where the reference smooth counts come from.

The reference row 1 2 3 6 12 31 83 266 is the walk rule without its
level-gap conditions (``oracles.gap_free_smooth``).  The classes it
calls non-smooth and this package calls smooth are the contested ones:
their only balanced walks break a level gap, and the exact oracle
agrees with the package on each of them.
"""
import os

import pytest

from posetfano import classify, find_disagreement, poset_classes, quotient_by_duality
from oracles import gap_free_smooth

REFERENCE_ROW = {1: 1, 2: 2, 3: 3, 4: 6, 5: 12, 6: 31, 7: 83, 8: 266}
CONTESTED = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 5, 8: 36}
UP_TO_D8 = [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=[
    pytest.mark.slow,
    pytest.mark.skipif(not os.environ.get("RUN_D8"), reason="d = 8; set RUN_D8=1 to run"),
])]


def duality_classes(d):
    return quotient_by_duality(poset_classes(d))


@pytest.mark.parametrize("d", UP_TO_D8)
def test_gap_free_rule_gives_the_reference_row(d):
    assert sum(map(gap_free_smooth, duality_classes(d))) == REFERENCE_ROW[d]


@pytest.mark.parametrize("d", UP_TO_D8)
def test_contested_classes_are_smooth(d):
    # the gap-free rule calls no class smooth that the package does not;
    # the classes only the package calls smooth, the exact oracle proves so
    contested = []
    for p in duality_classes(d):
        smooth = classify(p).smooth
        assert smooth or not gap_free_smooth(p)
        if smooth and not gap_free_smooth(p):
            contested.append(p)
    assert len(contested) == CONTESTED[d]
    for p in contested:
        assert find_disagreement(p) is None
