import hashlib
import random
from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from posetfano import Poset, canonical
from conftest import antichain, chain, random_poset
from oracles import (
    brute_isomorphic, cached_classes, fixpoint_key, labeled_posets, relabel)


def test_v_poset_automorphic_labelings():
    a = Poset.from_cover_relations(3, [(1, 2), (1, 3)])
    b = Poset.from_cover_relations(3, [(1, 3), (1, 2)])
    c = Poset.from_cover_relations(3, [(2, 1), (2, 3)])  # relabeled root
    assert a.canonical_key() == b.canonical_key() == c.canonical_key()


def test_v_vs_lambda_distinct():
    v = Poset.from_cover_relations(3, [(1, 2), (1, 3)])
    lam = Poset.from_cover_relations(3, [(2, 1), (3, 1)])
    assert v.canonical_key() != lam.canonical_key()


def test_five_classes_on_three_elements():
    reps = [
        antichain(3),
        chain(3),
        Poset.from_cover_relations(3, [(1, 2)]),
        Poset.from_cover_relations(3, [(1, 2), (1, 3)]),
        Poset.from_cover_relations(3, [(2, 1), (3, 1)]),
    ]
    # pairwise non-isomorphic by brute force, and keys all distinct
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not brute_isomorphic(reps[i], reps[j])
    assert len({p.canonical_key() for p in reps}) == 5


def test_key_equality_matches_brute_isomorphism_d3():
    posets = labeled_posets(3)
    assert len(posets) == 19
    for p in posets:
        for q in posets:
            assert (p.canonical_key() == q.canonical_key()) == brute_isomorphic(p, q)


def test_key_invariance_all_labelings_d4():
    posets = labeled_posets(4)
    assert len(posets) == 219
    classes = {p.canonical_key() for p in posets}
    assert len(classes) == 16
    # every labeled poset maps into the same key as every relabeling of it
    rng = random.Random(3)
    for p in rng.sample(posets, 40):
        for _ in range(6):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            assert relabel(p, (0,) + tuple(perm)).canonical_key() == p.canonical_key()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_key_invariant_under_relabeling(data):
    d = data.draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    p = random_poset(rng, d)
    perm = (0,) + tuple(data.draw(st.permutations(list(range(1, d + 1)))))
    assert relabel(p, perm).canonical_key() == p.canonical_key()


def test_distinct_keys_are_never_isomorphic_d4():
    # keys separate exactly the isomorphism classes at d=4
    seen = {}
    for p in labeled_posets(4):
        seen.setdefault(p.canonical_key(), []).append(p)
    reps = [v[0] for v in seen.values()]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not brute_isomorphic(reps[i], reps[j])


# sha256 of the concatenated keys of poset_classes(d), and of their duals'
# keys, as computed by the full twin-by-twin search: the bytes are pinned
KEY_DIGESTS = {
    1: ("47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
        "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254"),
    2: ("06854b0d214e746e1adea69ec775fb6ea877d310a4ea1b4ec3bba6e3eaa0d26c",
        "06854b0d214e746e1adea69ec775fb6ea877d310a4ea1b4ec3bba6e3eaa0d26c"),
    3: ("c6ee796102ed94d97f0e17c48353bd08b0b7b9549214391475b7fead12566211",
        "ce01520ad7d518dc6ec5441b2e635ce4baaea00f778c181d23597adfa24def25"),
    4: ("7f1a23074cf5be6b3b502f596ed41faf407faaf7d2c951770e8f453eb96480e6",
        "e350ff955d1d3bc57b1da8880495b0ca35020e5c939613963770ded42f7f5059"),
    5: ("c200b726e952283ce132dec53af5bc616bbf0307bab4ac419465f36772a6ff0d",
        "67479f150e3cebe7ed949e5dc9c2735ff76b055860eb8a3d0f37adecd75b7e77"),
    6: ("ee15c88278afa0fb2cb78a73ff58226187a22217f56bc145a67ab54c88d34b3b",
        "f32a4949d9256928f0316c0471fa2d943c3f7756c59fa120873c8f9aa24e9d15"),
    7: ("fb8dc81cef92dc9bb89d84d07e4ce61c5272b97f8f89bf4c814dcf8d7a922ebe",
        "3d85ca4332c6bbecc6cbc3cc88bc0ed8c88986e6463718224d755d1876af1faf"),
}


@pytest.mark.parametrize("d", sorted(KEY_DIGESTS))
def test_key_bytes_pinned(d):
    reps = cached_classes(d)
    keys = hashlib.sha256(b"".join(p.canonical_key() for p in reps))
    duals = hashlib.sha256(b"".join(p.dual().canonical_key() for p in reps))
    assert (keys.hexdigest(), duals.hexdigest()) == KEY_DIGESTS[d]


def test_twin_cells_d8_relabeling_invariant_and_distinct():
    bottoms, tops = range(1, 5), range(5, 9)
    shapes = {
        "antichain": antichain(8),
        "bipartite 4+4": Poset.from_cover_relations(
            8, [(i, j) for i in bottoms for j in tops]),
        "crown 4+4": Poset.from_cover_relations(
            8, [(i, 4 + i) for i in bottoms] + [(i, 4 + i % 4 + 1) for i in bottoms]),
        "four 2-chains": Poset.from_cover_relations(
            8, [(1, 2), (3, 4), (5, 6), (7, 8)]),
        "2-chain and 6 points": Poset.from_cover_relations(8, [(1, 2)]),
    }
    rng = random.Random(8)
    keys = {}
    for name, p in shapes.items():
        keys[name] = p.canonical_key()
        for _ in range(20):
            perm = list(range(1, 9))
            rng.shuffle(perm)
            assert relabel(p, [0] + perm).canonical_key() == keys[name], name
    assert len(set(keys.values())) == len(shapes)


def test_branches_on_every_member_of_a_cell_that_is_not_an_orbit():
    # vertices below the edges of a triangle and a square: refinement
    # leaves all 7 vertices in one cell, though no automorphism maps a
    # triangle vertex to a square vertex
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4)]
    p = Poset.from_cover_relations(
        14, [(v, 7 + k) for k, edge in enumerate(edges, 1) for v in edge])
    rng = random.Random(14)
    for _ in range(20):
        perm = list(range(1, 15))
        rng.shuffle(perm)
        assert relabel(p, [0] + perm).canonical_key() == p.canonical_key()


def test_twin_discrete_posets_have_only_twin_swaps():
    # every relabeling of every class with d <= 5; a poset that is not
    # twin_discrete may still have only twin swaps, so only one way is checked
    seen = Counter()
    for d in range(1, 6):
        for p in cached_classes(d):
            below = p.lower_masks()
            discrete = canonical.twin_discrete(p._above, below)
            seen[discrete] += 1
            automorphisms = sum(relabel(p, (0,) + perm) == p
                                for perm in permutations(range(1, d + 1)))
            twin_groups = Counter(zip(below[1:], p._above[1:])).values()
            if discrete:
                assert automorphisms == prod(map(factorial, twin_groups)), p
    assert seen[True] > 0 and seen[False] > 0
    two_chains = Poset.from_cover_relations(4, [(1, 2), (3, 4)])
    assert not canonical.twin_discrete(two_chains._above, two_chains.lower_masks())


@pytest.mark.parametrize("d", range(1, 8))
def test_twin_stop_matches_the_fixpoint_key_on_every_class(d):
    # the first refinement stops at the twin partition; refining on to
    # the fixpoint gives the same bytes
    rng = random.Random(70 + d)
    for p in cached_classes(d):
        perm = list(range(1, d + 1))
        rng.shuffle(perm)
        for q in (p, relabel(p, [0] + perm), p.dual()):
            assert canonical.canonical_key(q) == fixpoint_key(q)


def _planted_twins(rng: random.Random, d: int) -> Poset:
    """A random poset on d elements made of twin groups of 1 to 4
    copies of the elements of a smaller random poset."""
    sizes = []
    while sum(sizes) < d:
        sizes.append(rng.randint(1, 4))
    sizes[-1] -= sum(sizes) - d
    base = random_poset(rng, len(sizes))
    labels = iter(rng.sample(range(1, d + 1), d))
    copies = [[next(labels) for _ in range(n)] for n in sizes]
    pairs = [(a, b) for i in base.elements for j in base.elements if base.less(i, j)
             for a in copies[i - 1] for b in copies[j - 1]]
    return Poset.from_cover_relations(d, pairs)


def test_twin_stop_matches_the_fixpoint_key_on_planted_twins():
    rng = random.Random(914)
    for _ in range(300):
        p = _planted_twins(rng, rng.randint(9, 14))
        assert canonical.canonical_key(p) == fixpoint_key(p)


def _longest_chains(d: int, masks) -> list[int]:
    """The longest chain from each element 1..d down through the
    elements its mask holds: heights from lower masks, depths from upper."""
    length = [0] * (d + 1)
    for i in sorted(range(1, d + 1), key=lambda i: masks[i].bit_count()):
        length[i] = max((length[j] + 1 for j in range(1, d + 1) if masks[i] >> j & 1),
                        default=0)
    return length[1:]


def _assert_cells_keep_chain_lengths(p: Poset) -> None:
    below = p.lower_masks()
    ranks = canonical._partition(p._above, below)[0]
    heights, depths = _longest_chains(p.d, below), _longest_chains(p.d, p._above)
    cells: dict[int, tuple[int, int]] = {}
    for r, chains in zip(ranks, zip(heights, depths)):
        assert cells.setdefault(r, chains) == chains, p


def test_stable_partitions_separate_heights_and_depths():
    # refinement starts from the down- and up-set sizes alone, so the
    # key rests on every stable partition splitting heights and depths
    rng = random.Random(914)
    for _ in range(300):
        _assert_cells_keep_chain_lengths(_planted_twins(rng, rng.randint(9, 14)))
    for d in range(1, 8):
        for p in cached_classes(d):
            _assert_cells_keep_chain_lengths(p)
