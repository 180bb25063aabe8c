import gc
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from posetfano import (
    CycleInInput,
    NotAnEdge,
    NotComparable,
    ParseError,
    Poset,
    poset_from_text,
    poset_classes,
    poset_to_text,
    Walk,
)
from conftest import antichain, chain, random_poset
from oracles import eager_covers, maximal_chains_by_definition, relabel, saturated_chains


class TestFromCoverRelations:
    def test_single_relation(self):
        p = Poset.from_cover_relations(3, [(1, 2)])
        assert p.less(1, 2)
        assert not p.less(2, 1)
        assert not p.less(1, 3) and not p.less(3, 1)
        assert p.covers == ((1, 2),)

    def test_one_point(self):
        p = Poset.from_cover_relations(1, [])
        assert p.covers == ()
        assert p.minimal_elements == (1,) == p.maximal_elements

    def test_transitive_pair_demoted(self):
        p = Poset.from_cover_relations(3, [(1, 2), (2, 3), (1, 3)])
        assert p.covers == ((1, 2), (2, 3))
        assert p.less(1, 3)

    def test_cycle_rejected(self):
        with pytest.raises(CycleInInput):
            Poset.from_cover_relations(2, [(1, 2), (2, 1)])
        with pytest.raises(CycleInInput):
            Poset.from_cover_relations(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(CycleInInput):
            Poset.from_cover_relations(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Poset.from_cover_relations(2, [(0, 1)])
        with pytest.raises(ValueError):
            Poset.from_cover_relations(2, [(1, 3)])

    def test_round_trip_through_covers(self):
        for pairs in ([(1, 2)], [(1, 2), (2, 3), (1, 3)], [(1, 3), (2, 3)]):
            p = Poset.from_cover_relations(3, pairs)
            assert Poset.from_cover_relations(3, p.covers) == p

    def test_closure_matches_warshall(self):
        rng = random.Random(61)
        outcomes = set()
        for _ in range(300):
            d = rng.randint(2, 9)
            pairs = [(rng.randint(1, d), rng.randint(1, d)) for _ in range(rng.randint(0, 2 * d))]
            pairs = [(i, j) for i, j in pairs if i != j]
            less = set(pairs)
            for k in range(1, d + 1):
                for i in range(1, d + 1):
                    for j in range(1, d + 1):
                        if (i, k) in less and (k, j) in less:
                            less.add((i, j))
            if any((i, i) in less for i in range(1, d + 1)):
                outcomes.add("cycle")
                with pytest.raises(CycleInInput):
                    Poset.from_cover_relations(d, pairs)
                continue
            outcomes.add("order")
            p = Poset.from_cover_relations(d, pairs)
            assert {(i, j) for i in p.elements for j in p.elements if p.less(i, j)} == less
        assert outcomes == {"cycle", "order"}

    def test_leaves_no_reference_cycles(self):
        # the closure and the chain search run on explicit stacks
        posets = poset_classes(6)[::3]
        gc.collect()
        gc.disable()
        try:
            for p in posets:
                Poset.from_cover_relations(p.d, p.covers).hat().maximal_chains()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConstructorValidation:
    @pytest.mark.parametrize("d", [0, 65])
    def test_size_out_of_range(self, d):
        message = re.escape(f"d must be in 1..64, got {d}")
        with pytest.raises(ValueError, match=message):
            Poset(d, (0,) * (d + 1))
        with pytest.raises(ValueError, match=message):
            Poset.from_cover_relations(d, [])

    def test_above_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="above must have d\\+1 entries"):
            Poset(2, (0, 0))

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError, match="invalid strict-order mask"):
            Poset(2, (0, 1 << 3, 0))

    def test_element_above_itself(self):
        with pytest.raises(ValueError, match="invalid strict-order mask"):
            Poset(2, (0, 1 << 1, 0))

    def test_antisymmetry(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            Poset(2, (0, 1 << 2, 1 << 1))

    def test_transitivity(self):
        # 1 < 2 < 3 without 1 < 3
        with pytest.raises(ValueError, match="transitivity"):
            Poset(3, (0, 1 << 2, 1 << 3, 0))


def _lazy_cover_cases():
    for d in range(1, 7):
        yield from poset_classes(d)
    rng = random.Random(20261018)
    for _ in range(200):
        yield random_poset(rng, rng.randint(1, 12))


class TestLazyCovers:
    def test_equal_to_eager_derivation_and_round_trip(self):
        for p in _lazy_cover_cases():
            fresh = Poset(p.d, p._above)
            assert fresh.covers == eager_covers(p)
            assert Poset.from_cover_relations(p.d, fresh.covers) == p
            # the hat's edges equal the bounds' edges spliced onto the covers
            h = p.hat()
            top = h.top
            assert h.edges == tuple(sorted(
                [(0, m) for m in p.minimal_elements] + list(eager_covers(p))
                + [(m, top) for m in p.maximal_elements]))
            for x in range(top + 1):
                assert list(h.up[x]) == sorted(h.up[x]) == [
                    hi for lo, hi in h.edges if lo == x]
                assert list(h.neighbors[x]) == sorted(h.neighbors[x]) == sorted(
                    y for e in h.edges if x in e for y in e if y != x)

    def test_pickle_round_trip(self):
        for p in _lazy_cover_cases():
            q = pickle.loads(pickle.dumps(p))
            assert q == p and hash(q) == hash(p)
            assert q.covers == p.covers


class TestHat:
    def test_chain(self):
        h = chain(3).hat()
        assert h.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert repr(h) == "HatPoset(d=3, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])"

    def test_two_chain_plus_point(self):
        h = Poset.from_cover_relations(3, [(1, 2)]).hat()
        assert set(h.edges) == {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)}

    def test_antichain(self):
        h = antichain(2).hat()
        assert set(h.edges) == {(0, 1), (1, 3), (0, 2), (2, 3)}
        assert len(h.edges) == len(antichain(2).covers) + 2 + 2

    def test_triangle_free(self):
        # cover relations of a poset never close a 3-cycle
        import random
        rng = random.Random(7)
        for _ in range(200):
            h = random_poset(rng, rng.randint(1, 7)).hat()
            edges = set(h.edges)
            und = {frozenset(e) for e in edges}
            for x, y in edges:
                for z in range(h.d + 2):
                    if z in (x, y):
                        continue
                    assert not (
                        frozenset((x, z)) in und and frozenset((y, z)) in und
                    )

    def test_less_is_the_bounded_order(self):
        for d in range(1, 6):
            for p in poset_classes(d):
                h = p.hat()
                n = h.d + 2
                for x in range(n):
                    for y in range(n):
                        if x == y:
                            want = False
                        elif x == 0 or y == h.top:
                            want = True
                        elif y == 0 or x == h.top:
                            want = False
                        else:
                            want = p.less(x, y)
                        assert h.less(x, y) == want, (p, x, y)
                        assert h.is_edge(x, y) == h.is_edge(y, x)
                        assert h.is_edge(x, y) == ((x, y) in h.edges or (y, x) in h.edges)
                    assert h.above[x] == sum(1 << y for y in range(n) if h.less(x, y))

    def test_indices_outside_the_bounds(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        for x, y in [(0, -1), (-1, 0), (-1, 2), (2, -1), (5, 1), (1, 5),
                     (0, 5), (5, 4), (4, 5), (-2, -1)]:
            assert not h.less(x, y)
            assert not h.is_edge(x, y)


class TestWalkFromElements:
    @pytest.mark.parametrize("kind, elements, pair", [
        ("path", (0, 1, 99), "{1,99}"),
        ("path", (-1, 1), "{-1,1}"),
        ("cycle", (0, 1, 99, 2), "{1,99}"),
        ("cycle", (-1, 1, 2, 4), "{-1,1}"),
    ])
    def test_step_off_the_hasse_diagram(self, diamond, kind, elements, pair):
        # a ValueError too, as it was before the typed error
        assert issubclass(NotAnEdge, ValueError)
        with pytest.raises(NotAnEdge, match=re.escape(pair)):
            Walk.from_elements(diamond.hat(), elements, kind)

    @pytest.mark.parametrize("kind, elements, message", [
        ("loop", (1, 2, 4, 3), "kind must be"),
        ("cycle", (1, 2, 4, 2), "pairwise distinct"),
        ("cycle", (1, 2, 4), "at least 4"),
        ("path", (0,), "at least 2"),
    ])
    def test_malformed_walks(self, diamond, kind, elements, message):
        with pytest.raises(ValueError, match=message):
            Walk.from_elements(diamond.hat(), elements, kind)


class TestLess:
    def test_indices_outside_1_to_d(self):
        p = poset_from_text("3\n1 2\n2 3")
        assert p.less(1, 3)
        for i, j in [(-2, 3), (1, -1), (4, 1), (0, 1), (1, 0), (3, 4), (-1, -1)]:
            assert p.less(i, j) is False, (i, j)

    def test_agrees_with_the_masks(self):
        # the derived queries (lower masks, minimal elements, dual) are
        # checked against the transpose of the upper masks, built here
        rng = random.Random(7)
        cases = [p for d in range(1, 6) for p in poset_classes(d)]
        cases += [random_poset(rng, d) for d in range(6, 16) for _ in range(5)]
        for p in cases:
            d = p.d
            transpose = [0] * (d + 1)
            for i in p.elements:
                for j in p.elements:
                    want = (p._above[i] >> j) & 1 == 1
                    assert p.less(i, j) is want, (p, i, j)
                    transpose[j] |= want << i
            assert p.lower_masks() == tuple(transpose), p
            assert p.minimal_elements == tuple(
                i for i in p.elements if not transpose[i]), p
            assert p.dual() == Poset(d, transpose), p


class TestDist:
    def test_cover_edge_is_one(self, diamond):
        h = diamond.hat()
        for lo, hi in h.edges:
            assert h.dist(lo, hi) == 1

    def test_v_poset_bottom_to_top(self, v_poset):
        h = v_poset.hat()
        oracle = min(len(c) - 1 for c in saturated_chains(h, 0, h.top))
        assert oracle == 3
        assert h.dist(0, h.top) == 3

    def test_diamond_inner(self, diamond):
        h = diamond.hat()
        oracle = min(len(c) - 1 for c in saturated_chains(h, 1, 4))
        assert oracle == 2
        assert h.dist(1, 4) == 2

    def test_not_comparable(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        with pytest.raises(NotComparable):
            h.dist(1, 3)
        with pytest.raises(NotComparable):
            h.dist(2, 1)
        with pytest.raises(NotComparable):
            h.dist(1, 1)
        # indices outside 0..d+1: -1 must not wrap round to the top row,
        # and d + 2 = 5 must not index past the table
        for y, z in [(0, -1), (-1, 1), (-1, 4), (5, 1), (1, 5), (0, 5), (5, 4)]:
            with pytest.raises(NotComparable):
                h.dist(y, z)

    def test_matches_exhaustive_chain_search(self):
        import random
        rng = random.Random(11)
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 6))
            h = p.hat()
            for y in range(h.d + 2):
                for z in range(h.d + 2):
                    if h.less(y, z):
                        chains = saturated_chains(h, y, z)
                        assert h.dist(y, z) == min(len(c) - 1 for c in chains)


class TestMaximalChains:
    def test_chain(self):
        h = chain(3).hat()
        assert h.maximal_chains() == ((0, 1, 2, 3, 4),)

    def test_two_chain_plus_point(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        assert set(h.maximal_chains()) == {(0, 1, 2, 4), (0, 3, 4)}

    def test_diamond(self, diamond):
        h = diamond.hat()
        chains = h.maximal_chains()
        assert len(chains) == 2
        assert all(len(c) - 1 == 4 for c in chains)

    def test_matches_definition(self):
        import random
        rng = random.Random(13)
        for _ in range(25):
            h = random_poset(rng, rng.randint(1, 5)).hat()
            assert set(h.maximal_chains()) == maximal_chains_by_definition(h)

    def test_lexicographic_order(self):
        rng = random.Random(17)
        for _ in range(100):
            h = random_poset(rng, rng.randint(1, 7)).hat()
            assert h.maximal_chains() == tuple(sorted(maximal_chains_by_definition(h)))


class TestPurity:
    def test_chain_pure(self, chain3):
        assert chain3.is_pure()

    def test_two_chain_plus_point_not_pure(self, two_chain_plus_point):
        assert not two_chain_plus_point.is_pure()

    def test_diamond_pure(self, diamond):
        assert diamond.is_pure()

    def test_purity_equals_equal_chain_lengths(self):
        import random
        rng = random.Random(17)
        for _ in range(60):
            p = random_poset(rng, rng.randint(1, 6))
            lengths = {len(c) for c in p.hat().maximal_chains()}
            assert p.is_pure() == (len(lengths) == 1)


class TestDisjointUnionOfChains:
    def test_antichain(self):
        assert antichain(3).is_disjoint_union_of_chains()

    def test_v_poset(self, v_poset):
        assert not v_poset.is_disjoint_union_of_chains()

    def test_two_chain_plus_point(self, two_chain_plus_point):
        assert two_chain_plus_point.is_disjoint_union_of_chains()


class TestDual:
    def test_antichain_self_dual(self):
        a = antichain(3)
        assert a.dual() == a

    def test_v_to_lambda(self, v_poset, lambda_poset):
        assert v_poset.dual().canonical_key() == lambda_poset.canonical_key()
        assert v_poset.canonical_key() != lambda_poset.canonical_key()

    def test_chain_self_dual_up_to_relabel(self, chain3):
        assert chain3.dual().canonical_key() == chain3.canonical_key()

    def test_double_dual(self):
        import random
        rng = random.Random(19)
        for _ in range(30):
            p = random_poset(rng, rng.randint(1, 6))
            assert p.dual().dual() == p


@st.composite
def posets(draw, max_d=6):
    d = draw(st.integers(min_value=1, max_value=max_d))
    pairs = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if draw(st.booleans()):
                pairs.append((i, j))
    perm = (0,) + tuple(draw(st.permutations(list(range(1, d + 1)))))
    return relabel(Poset.from_cover_relations(d, pairs), perm)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_dist_triangle_inequality(p):
    h = p.hat()
    n = h.d + 2
    for x in range(n):
        for y in range(n):
            if not h.less(x, y):
                continue
            for z in range(n):
                if h.less(y, z):
                    assert h.dist(x, z) <= h.dist(x, y) + h.dist(y, z)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_round_trip_from_covers(p):
    assert Poset.from_cover_relations(p.d, p.covers) == p


class TestFileFormats:
    def test_text_round_trip(self, diamond):
        assert poset_from_text(poset_to_text(diamond)) == diamond

    def test_text_with_comments(self):
        text = "# a poset\n3\n1 2  # cover\n\n2 3\n"
        assert poset_from_text(text) == Poset.from_cover_relations(3, [(1, 2), (2, 3)])

    def test_json(self):
        p = poset_from_text('{"d": 3, "relations": [[1, 2]]}')
        assert p == Poset.from_cover_relations(3, [(1, 2)])

    @pytest.mark.parametrize("text", [
        '{"d": 3, "relations": null}',
        '{"d": 3, "relations": 5}',
        '{"d": 3, "relations": true}',
        '{"d": true, "relations": []}',
        '{"d": 3, "relations": [[true, 2]]}',
        '{"d": 3, "relations": [[2, true]]}',
        '{"d": 3',
        '{"relations": []}',
    ])
    def test_json_type_errors(self, text):
        with pytest.raises(ParseError):
            poset_from_text(text)

    def test_parse_error_cites_line(self):
        with pytest.raises(ParseError, match="line 2"):
            poset_from_text("3\n1 two\n")

    @pytest.mark.parametrize("text, line", [
        ("--3\n", "line 1"),
        ("3\n1 --2\n", "line 2"),
        ("\u00b2\n", "line 1"),
    ])
    def test_text_tokens_int_refuses(self, text, line):
        # each passed a digit pre-check and then failed int()
        with pytest.raises(ParseError, match=line):
            poset_from_text(text)

    @pytest.mark.parametrize("text, line", [
        ("+3\n", "line 1"),
        ("3\n+1 2\n", "line 2"),
        ("\u0663\n1 2\n", "line 1"),  # ARABIC-INDIC DIGIT THREE
        ("3\n1_0 2\n", "line 2"),
    ])
    def test_text_tokens_ascii_digits_only(self, text, line):
        # each one int() reads as a number
        with pytest.raises(ParseError, match=line):
            poset_from_text(text)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            poset_from_text("# nothing\n")

    def test_relation_out_of_range(self):
        with pytest.raises(ParseError):
            poset_from_text("2\n1 5\n")

    def test_cycle_in_file(self):
        with pytest.raises(CycleInInput):
            poset_from_text("2\n1 2\n2 1\n")
