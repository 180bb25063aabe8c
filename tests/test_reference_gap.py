"""Where the reference smooth counts come from.

The reference row 1 2 3 6 12 31 83 266 is the walk rule without its
level-gap conditions (``oracles.gap_free_smooth``).  The classes it
calls non-smooth and this package calls smooth are the contested ones:
their only balanced walks break a level gap, and the exact oracle
agrees with the package on each of them.  At d = 6 and 7 that walk is
one balanced cycle missing a bound, and the gap it breaks is a distance
gap, never the cap through both bounds.
"""
from functools import lru_cache

import pytest

from posetfano import (
    Walk,
    classify,
    find_disagreement,
    level_labels,
    poset_classes,
    quotient_by_duality,
)
from oracles import (
    cycle_levels_compatible,
    gap_free_smooth,
    is_balanced,
    is_very_special_cycle,
    recursive_cycles,
    recursive_paths,
)

REFERENCE_ROW = {1: 1, 2: 2, 3: 3, 4: 6, 5: 12, 6: 31, 7: 83, 8: 266}
CONTESTED = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 5, 8: 36}
UP_TO_D8 = [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)]


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


@lru_cache(maxsize=None)
def contested_classes(d):
    return tuple(p for p in duality_classes(d)
                 if classify(p).smooth and not gap_free_smooth(p))


def gap_breaks(h, walk):
    """(cap breaks, distance breaks) among the walk's level gaps.

    For walk elements b and a with gap = levels[a] - levels[b] > 0: a
    cap break is gap > dist(0, a) + dist(b, top) (0 for a bound's
    distance to itself), and a distance break is b < a with gap >
    dist(b, a).  Both lists hold the pairs (b, a).
    """
    levels = level_labels(walk)
    caps, distances = [], []
    for a in walk.elements:
        d0a = h.dist(0, a) if a else 0
        for b in walk.elements:
            gap = levels[a] - levels[b]
            if gap <= 0:
                continue
            if gap > d0a + (h.dist(b, h.top) if b != h.top else 0):
                caps.append((b, a))
            if h.less(b, a) and gap > h.dist(b, a):
                distances.append((b, a))
    return caps, distances


@pytest.mark.parametrize("d", [6, 7])
def test_contested_classes_break_only_a_distance_gap(d):
    # no balanced bottom-to-top path, and exactly one balanced cycle that
    # misses a bound; that cycle fits the cap and breaks a distance gap
    assert len(contested_classes(d)) == CONTESTED[d]
    for p in contested_classes(d):
        h = p.hat()
        assert not any(is_balanced(Walk.from_elements(h, els, "path"))
                       for els in recursive_paths(h))
        cycles = [Walk.from_elements(h, els, "cycle") for els in recursive_cycles(h)]
        cycles = [c for c in cycles if is_very_special_cycle(h, c)]
        assert len(cycles) == 1
        caps, distances = gap_breaks(h, cycles[0])
        assert caps == [] and distances
        assert not cycle_levels_compatible(h, cycles[0], level_labels(cycles[0]))


def test_contested_class_d6():
    # the cycle 0 1 4 6 5 2 climbs 3 levels from 0 to 6, but dist(0, 6) = 2
    p, = contested_classes(6)
    assert p.covers == ((1, 4), (2, 5), (3, 6), (4, 6), (5, 6))
    h = p.hat()
    cycle = Walk.from_elements(h, (0, 1, 4, 6, 5, 2), "cycle")
    levels = level_labels(cycle)
    assert [levels[x] for x in cycle.elements] == [0, 1, 2, 3, 2, 1]
    assert h.dist(0, 6) == 2
    assert gap_breaks(h, cycle) == ([], [(0, 6)])
