import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from posetfano import Poset


def chain(d):
    return Poset.from_cover_relations(d, [(i, i + 1) for i in range(1, d)])


def antichain(d):
    return Poset.from_cover_relations(d, [])


@pytest.fixture
def chain3():
    return chain(3)


@pytest.fixture
def two_chain_plus_point():
    # y1 < y2 with y3 incomparable
    return Poset.from_cover_relations(3, [(1, 2)])


@pytest.fixture
def v_poset():
    return Poset.from_cover_relations(3, [(1, 2), (1, 3)])


@pytest.fixture
def lambda_poset():
    return Poset.from_cover_relations(3, [(2, 1), (3, 1)])


@pytest.fixture
def diamond():
    return Poset.from_cover_relations(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


@pytest.fixture
def broom6():
    # chains 1<2<3 and 1<5<4 plus a pendant maximal 1<6: smooth, yet its
    # unique balanced bound-avoiding cycle exists (and fails the gap bounds)
    return Poset.from_cover_relations(6, [(1, 2), (2, 3), (1, 5), (5, 4), (1, 6)])


@pytest.fixture
def zigzag7():
    # a<b; f<e<d<c<b; f<g -- smallest shape carrying a balanced
    # bottom-to-top path (8 steps), which here passes the gap bounds
    return Poset.from_cover_relations(
        7, [(1, 2), (6, 5), (5, 4), (4, 3), (3, 2), (6, 7)]
    )


def random_poset(rng: random.Random, d: int, density: float = 0.35) -> Poset:
    """Random poset: random DAG relations under a random permutation,
    each pair related with probability density."""
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density:
                pairs.append((perm[i], perm[j]))
    return Poset.from_cover_relations(d, pairs)
