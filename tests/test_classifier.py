import gc
import hashlib
import json
import random

import pytest

from posetfano import (
    NotConsistent,
    Poset,
    Walk,
    classify,
    enumerate_cycles,
    iter_witnesses,
    level_labels,
    poset_classes,
)
from posetfano.classifier import enumerate_paths, hasse_squares
from posetfano.enumeration import _smooth_flag
from conftest import antichain, chain, random_poset
from oracles import (
    cycle_levels_compatible,
    enumerate_special_paths,
    first_seen_classes,
    is_balanced,
    is_very_special_cycle,
    nx_cycle_count,
    path_levels_compatible,
    recursive_cycles,
    recursive_paths,
    reference_witnesses,
    smaller_key_quotient,
)


class TestBalance:
    def test_diamond_cycle(self, diamond):
        w = Walk.from_elements(diamond.hat(), (1, 2, 4, 3), "cycle")
        assert w.steps == (1, 1, -1, -1)
        assert is_balanced(w)

    def test_maximal_chain_path(self, chain3):
        w = Walk.from_elements(chain3.hat(), (0, 1, 2, 3, 4), "path")
        assert not is_balanced(w)

    def test_v_cycle(self, v_poset):
        w = Walk.from_elements(v_poset.hat(), (1, 2, 4, 3), "cycle")
        assert is_balanced(w)


class TestLevelLabels:
    def test_v_cycle(self, v_poset):
        w = Walk.from_elements(v_poset.hat(), (1, 2, 4, 3), "cycle")
        assert level_labels(w) == {1: 0, 2: 1, 4: 2, 3: 1}

    def test_diamond_cycle(self, diamond):
        w = Walk.from_elements(diamond.hat(), (1, 2, 4, 3), "cycle")
        assert level_labels(w) == {1: 0, 2: 1, 4: 2, 3: 1}

    def test_path(self):
        w = Walk.from_elements(chain(2).hat(), (0, 1, 2, 3), "path")
        assert level_labels(w) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_unbalanced_cycle_inconsistent(self, broom6):
        w = Walk.from_elements(broom6.hat(), (1, 2, 3, 7, 6), "cycle")
        with pytest.raises(NotConsistent):
            level_labels(w)

    def test_rotation_invariance(self, diamond, v_poset, broom6):
        for p in (diamond, v_poset, broom6):
            h = p.hat()
            for c in enumerate_cycles(h):
                if not is_balanced(c):
                    continue
                base = level_labels(c)
                els = c.elements
                for r in range(1, len(els)):
                    rot = Walk.from_elements(h, els[r:] + els[:r], "cycle")
                    assert level_labels(rot) == base


class TestVerySpecial:
    def test_diamond(self, diamond):
        h = diamond.hat()
        w = Walk.from_elements(h, (1, 2, 4, 3), "cycle")
        assert is_very_special_cycle(h, w)

    def test_v_poset_top_only(self, v_poset):
        h = v_poset.hat()
        w = Walk.from_elements(h, (1, 2, 4, 3), "cycle")
        assert is_very_special_cycle(h, w)

    def test_antichain_cycle_joins_both(self):
        h = antichain(2).hat()
        w = Walk.from_elements(h, (0, 1, 3, 2), "cycle")
        assert is_balanced(w)
        assert not is_very_special_cycle(h, w)


class TestCycleGapBounds:
    def test_diamond_passes(self, diamond):
        h = diamond.hat()
        w = Walk.from_elements(h, (1, 2, 4, 3), "cycle")
        lv = level_labels(w)
        assert h.dist(1, 4) == 2 and h.dist(0, 4) == 3 and h.dist(1, 5) == 3
        assert cycle_levels_compatible(h, w, lv)

    def test_v_poset_passes(self, v_poset):
        h = v_poset.hat()
        w = Walk.from_elements(h, (1, 2, 4, 3), "cycle")
        assert cycle_levels_compatible(h, w, level_labels(w))

    def test_broom_cycle_fails_comparable_gap(self, broom6):
        # levels climb by 3 from element 1 to the top, but the pendant
        # maximal gives a saturated chain of length 2
        h = broom6.hat()
        w = Walk.from_elements(h, (1, 2, 3, 7, 4, 5), "cycle")
        lv = level_labels(w)
        assert lv[7] - lv[1] == 3 and h.dist(1, 7) == 2
        assert not cycle_levels_compatible(h, w, lv)

    # A 14-cycle b z z1 z2 z3 z4 u a w w4 w3 w2 w1 y avoiding both bounds,
    # with r below z and s above u.  The minimal a sits 3 levels above the
    # maximal b, while dist(0, a) + dist(b, top) = 2: no potential that is
    # 0 on both bounds makes the walk tight, every comparable gap fits, and
    # no other walk blocks, so the polytope is smooth only by this cap.
    CAP_COVERS = [("z", "b"), ("y", "b"), ("z", "z1"), ("z1", "z2"), ("z2", "z3"),
                  ("z3", "z4"), ("z4", "u"), ("a", "u"), ("a", "w"), ("y", "w1"),
                  ("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w4", "w"), ("r", "z"),
                  ("u", "s")]

    @pytest.mark.parametrize("order", [
        # the search yields the cycle as z b y ... w a u ... z1: the cap
        # breaks only when w, a or u joins above the level of b, z or y
        "z b y w1 w2 w3 w4 w a u z4 z3 z2 z1 r s",
        # as u a w ... y b z ... z4: only when y, b or z joins below
        "u a w w4 w3 w2 w1 y b z z1 z2 z3 z4 r s",
    ])
    def test_bound_cap_binds(self, order):
        from posetfano import build_vertex_set, enumerate_facets, is_smooth_geometric

        label = {name: k for k, name in enumerate(order.split(), 1)}
        p = Poset.from_cover_relations(16, [(label[x], label[y]) for x, y in self.CAP_COVERS])
        h = p.hat()
        cycle = "b z z1 z2 z3 z4 u a w w4 w3 w2 w1 y".split()
        w = Walk.from_elements(h, [label[x] for x in cycle], "cycle")
        lv = level_labels(w)
        assert is_very_special_cycle(h, w)
        assert all(lv[x] - lv[y] <= h.dist(y, x)
                   for x in w.elements for y in w.elements if h.less(y, x))
        a, b = label["a"], label["b"]
        assert lv[a] - lv[b] == 3 and h.dist(0, a) + h.dist(b, h.top) == 2
        assert not cycle_levels_compatible(h, w, lv)
        assert classify(p).smooth
        vs = build_vertex_set(h)
        assert is_smooth_geometric(vs.vectors, enumerate_facets(vs.vectors))

    def test_oracle_scans_the_cap_poset(self):
        # d = 16: the {-1, 0, 1}^16 box is the largest the scan takes
        from posetfano import find_disagreement

        label = {name: k for k, name in enumerate(
            "z b y w1 w2 w3 w4 w a u z4 z3 z2 z1 r s".split(), 1)}
        p = Poset.from_cover_relations(16, [(label[x], label[y]) for x, y in self.CAP_COVERS])
        assert find_disagreement(p) is None

    def test_violating_instance_exists_below_seven(self):
        # some d <= 6 poset is smooth although it carries balanced
        # bound-avoiding cycles (all of which must fail the gap bounds)
        from posetfano import poset_classes
        hits = []
        for d in range(1, 7):
            for p in poset_classes(d):
                h = p.hat()
                candidates = [
                    c for c in enumerate_cycles(h) if is_very_special_cycle(h, c)
                ]
                if candidates and classify(p).smooth:
                    assert all(
                        not cycle_levels_compatible(h, c, level_labels(c))
                        for c in candidates
                    )
                    hits.append(p)
        assert hits


class TestPathGapBounds:
    def test_zigzag_passes(self, zigzag7):
        h = zigzag7.hat()
        w = Walk.from_elements(h, (0, 1, 2, 3, 4, 5, 6, 7, 8), "path")
        assert is_balanced(w)
        assert path_levels_compatible(h, w, level_labels(w))

    def test_cover_pairs_always_fit(self):
        rng = random.Random(31)
        for _ in range(30):
            p = random_poset(rng, rng.randint(2, 7))
            h = p.hat()
            for w in enumerate_special_paths(h):
                lv = level_labels(w)
                for x, y in w.edge_pairs():
                    lo, hi = (x, y) if h.less(x, y) else (y, x)
                    assert lv[hi] - lv[lo] == 1 <= h.dist(lo, hi)


class TestEnumerateCycles:
    def test_chain_has_none(self, chain3):
        assert list(enumerate_cycles(chain3.hat())) == []

    def test_v_poset_has_one(self, v_poset):
        cycles = list(enumerate_cycles(v_poset.hat()))
        assert [c.elements for c in cycles] == [(1, 2, 4, 3)]

    def test_antichain_has_one(self):
        cycles = list(enumerate_cycles(antichain(2).hat()))
        assert [c.elements for c in cycles] == [(0, 1, 3, 2)]

    def test_counts_match_networkx(self):
        rng = random.Random(37)
        for _ in range(40):
            p = random_poset(rng, rng.randint(1, 6))
            h = p.hat()
            assert len(list(enumerate_cycles(h))) == nx_cycle_count(h)

    def test_canonical_form(self):
        rng = random.Random(41)
        for _ in range(40):
            h = random_poset(rng, rng.randint(1, 6)).hat()
            seen = set()
            for c in enumerate_cycles(h):
                els = c.elements
                assert els[0] == min(els)
                assert els[1] < els[-1]
                key = frozenset(els)
                rotations = {els[r:] + els[:r] for r in range(len(els))}
                rotations |= {t[::-1] for t in rotations}
                assert not any(
                    tuple(o) in rotations for o in seen if frozenset(o) == key
                )
                seen.add(els)


class TestEnumerateSpecialPaths:
    def test_chain_empty(self, chain3):
        assert list(enumerate_special_paths(chain3.hat())) == []

    def test_example_poset_empty(self, two_chain_plus_point):
        assert list(enumerate_special_paths(two_chain_plus_point.hat())) == []

    def test_zigzag_contains_the_eight_step_path(self, zigzag7):
        paths = [w.elements for w in enumerate_special_paths(zigzag7.hat())]
        assert (0, 1, 2, 3, 4, 5, 6, 7, 8) in paths

    def test_vacuous_below_seven(self):
        # the first two and last two steps of any bottom-to-top path
        # ascend, so balanced paths need at least 8 steps (d >= 7)
        from posetfano import poset_classes
        for d in range(1, 7):
            for p in poset_classes(d):
                assert list(enumerate_special_paths(p.hat())) == []


class TestClassify:
    def test_chain_smooth(self, chain3):
        rep = classify(chain3)
        assert rep.smooth and rep.q_factorial and rep.witness is None
        assert rep.fano and rep.terminal and rep.gorenstein
        assert rep.method == "combinatorial"

    def test_v_poset_witness(self, v_poset):
        rep = classify(v_poset)
        assert not rep.smooth and not rep.q_factorial
        assert rep.witness is not None
        assert rep.witness.elements == (1, 2, 4, 3)
        assert rep.method == "combinatorial"

    def test_diamond_not_smooth(self, diamond):
        rep = classify(diamond)
        assert diamond.is_pure() and not diamond.is_disjoint_union_of_chains()
        assert not rep.smooth
        # first walk in canonical enumeration order, reproducibly
        assert rep.witness == Walk.from_elements(diamond.hat(), (1, 2, 4, 3), "cycle")

    def test_witness_choice_deterministic(self, lambda_poset):
        runs = {classify(lambda_poset).witness for _ in range(5)}
        assert runs == {Walk.from_elements(lambda_poset.hat(), (0, 2, 1, 3), "cycle")}

    def test_broom_smooth_despite_cycles(self, broom6):
        rep = classify(broom6)
        assert rep.smooth
        h = broom6.hat()
        assert any(is_very_special_cycle(h, c) for c in enumerate_cycles(h))

    def test_zigzag_blocked_by_path(self, zigzag7):
        rep = classify(zigzag7)
        assert not rep.smooth
        assert rep.witness is not None
        assert rep.witness.kind == "path"

    def test_smooth_equals_qfactorial_everywhere(self):
        rng = random.Random(43)
        for _ in range(60):
            rep = classify(random_poset(rng, rng.randint(1, 7)))
            assert rep.smooth == rep.q_factorial
            assert (rep.witness is None) == rep.q_factorial

    def test_witnesses_are_valid_walks(self, v_poset, diamond, zigzag7):
        for p in (v_poset, diamond, zigzag7):
            h = p.hat()
            for w in iter_witnesses(h):
                rebuilt = Walk.from_elements(h, w.elements, w.kind)
                assert rebuilt == w

    def test_pure_posets_smooth_iff_disjoint_chains_d7(self):
        # the pure-poset theorem (smooth iff a disjoint union of chains),
        # checked against the walk search on every class with d <= 7
        for d in range(1, 8):
            for p in poset_classes(d):
                if p.is_pure():
                    assert classify(p).smooth == p.is_disjoint_union_of_chains()

    def test_reports_pinned_d6(self):
        # digest computed from the reports of the classifier that still
        # answered disjoint unions of chains by the pure-poset theorem,
        # with their "method": "pure-shortcut" rewritten to "combinatorial"
        digest = hashlib.sha256()
        for d in range(1, 7):
            for p in smaller_key_quotient(first_seen_classes(d)):
                digest.update(json.dumps(classify(p).to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "b0ab9f2d54b0bc74a181f88b1be69acf11f04ba7e9d3c17fc3a61827b94f779f"
        )


class TestWitnessSearch:
    def test_witnesses_pinned_d7(self):
        # digest computed with the enumerate-then-filter search
        digest = hashlib.sha256()
        for d in range(1, 8):
            for p in first_seen_classes(d):
                for w in iter_witnesses(p.hat()):
                    digest.update(json.dumps(
                        [w.kind, list(w.elements), list(w.steps)]).encode())
                digest.update(b";")
        assert digest.hexdigest() == (
            "37b46ed20fa3f1b178fb0959d7462db8c4eb1a2f2fa19e4bdceb9af1bef94b11"
        )

    @pytest.mark.slow
    def test_witnesses_pinned_d8(self):
        # digest computed with the search that gave paths no wrap cap
        digest = hashlib.sha256()
        count = 0
        for p in first_seen_classes(8):
            for w in iter_witnesses(p.hat()):
                digest.update(json.dumps(
                    [w.kind, list(w.elements), list(w.steps)]).encode())
                count += 1
            digest.update(b";")
        assert count == 229813
        assert digest.hexdigest() == (
            "4c86d73011cb504e07b141d8da74b88dad8f123de196e3ed6fe35074c5c5eb72"
        )

    def test_reports_pinned_d7(self):
        # computed like the d <= 6 digest in TestClassify: the shortcut
        # classifier's reports, "pure-shortcut" rewritten to "combinatorial"
        digest = hashlib.sha256()
        for p in smaller_key_quotient(first_seen_classes(7)):
            digest.update(json.dumps(classify(p).to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "6f5391f8dbdef0cd678d9c1b4c030df975581274f2c31c0de0da34962d3c51f3"
        )

    def test_matches_reference_on_random_posets(self):
        rng = random.Random(53)
        found = 0
        for _ in range(300):
            h = random_poset(rng, rng.randint(1, 12)).hat()
            expected = reference_witnesses(h)
            assert list(iter_witnesses(h)) == expected
            found += len(expected)
        assert found > 1000

    def test_search_leaves_no_reference_cycles(self):
        posets = poset_classes(7)[::34][:60]
        gc.collect()
        gc.disable()
        try:
            for p in posets:
                classify(p)
            for p in posets:
                for _ in enumerate_cycles(p.hat()):
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_abandoned_searches_leave_no_reference_cycles(self, zigzag7):
        # a search stopped after each witness, or drained of its paths,
        # drops the paths that root 0 buffered without a collection
        rng = random.Random(7)
        posets = [zigzag7, *(random_poset(rng, rng.randint(8, 11)) for _ in range(300))]
        kinds = [[w.kind for w in iter_witnesses(p.hat())] for p in posets]
        posets = [p for p, k in zip(posets, kinds) if "path" in k]
        assert any(k[0] == "cycle" and k.count("path") >= 2 for k in kinds)
        gc.collect()
        gc.disable()
        try:
            for p in posets:
                h = p.hat()
                for stop in range(len(list(iter_witnesses(h)))):
                    walks = iter_witnesses(h)
                    for _ in range(stop + 1):
                        next(walks)
                    del walks
                for _ in enumerate_paths(h):
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_walk_order_matches_recursive_search(self):
        rng = random.Random(59)
        for _ in range(100):
            h = random_poset(rng, rng.randint(1, 10)).hat()
            assert [w.elements for w in enumerate_cycles(h)] == list(recursive_cycles(h))
            assert [w.elements for w in enumerate_paths(h)] == list(recursive_paths(h))


class TestHasseSquares:
    def test_every_square_is_a_witness_d6(self):
        # the square rule is a case of the walk rule: each square found is
        # a blocking cycle of the search, compared as a set of elements
        found = 0
        for d in range(1, 7):
            for p in poset_classes(d):
                squares = {frozenset(s) for s in hasse_squares(p._above)}
                if squares:
                    witnesses = {frozenset(w.elements) for w in iter_witnesses(p.hat())
                                 if w.kind == "cycle"}
                    assert squares <= witnesses, p
                    found += len(squares)
        assert found > 1000

    def test_squares_are_4_cycles_missing_a_bound(self, diamond, lambda_poset):
        # a square with both diagonals in P comes once per diagonal
        assert set(hasse_squares(diamond._above)) == {(1, 2, 4, 3), (2, 1, 3, 4)}
        assert set(hasse_squares(lambda_poset._above)) == {(2, 0, 3, 1)}
        crown = Poset.from_cover_relations(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert set(hasse_squares(crown._above)) == {
            (1, 3, 2, 4), (3, 1, 4, 2),  # the crown itself
            (1, 0, 2, 3), (1, 0, 2, 4), (3, 1, 4, 5), (3, 2, 4, 5)}  # diamonds

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_isolated_points_are_no_square(self, d):
        # two isolated points a, b make the diamond 0 a top b, which runs
        # through both bounds: the walk search skips it, and so do squares
        p = antichain(d)
        assert list(hasse_squares(p._above)) == []
        assert _smooth_flag(p) and classify(p).smooth

    def test_flag_equals_classify_d7(self):
        for d in range(1, 8):
            for p in poset_classes(d):
                assert _smooth_flag(p) == classify(p).smooth, p

    def test_flag_equals_classify_on_random_posets(self):
        rng = random.Random(73)
        squares = smooth = 0
        for _ in range(400):
            p = random_poset(rng, rng.randint(9, 14), rng.uniform(0.1, 0.4))
            flag = _smooth_flag(p)
            assert flag == classify(p).smooth, p
            squares += next(hasse_squares(p._above), None) is not None
            smooth += flag
        assert 0 < squares < 400 - smooth and smooth > 0

    @pytest.mark.slow
    def test_flag_equals_classify_d8(self):
        for p in poset_classes(8):
            assert _smooth_flag(p) == classify(p).smooth, p


def test_path_enumeration_matches_networkx(two_chain_plus_point, diamond):
    import networkx as nx
    for p in (two_chain_plus_point, diamond):
        h = p.hat()
        g = nx.Graph()
        g.add_nodes_from(range(h.d + 2))
        g.add_edges_from(h.edges)
        expected = {tuple(path) for path in nx.all_simple_paths(g, 0, h.top)}
        assert {w.elements for w in enumerate_paths(h)} == expected
