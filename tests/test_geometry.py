import ast
import hashlib
import random
from itertools import combinations
from math import gcd
from operator import mul

import pytest

import posetfano.geometry as geometry
from posetfano import (
    DegenerateInput,
    Facet,
    OriginOnHyperplane,
    Poset,
    UnsupportedSize,
    Walk,
    WalkNotEligible,
    build_vertex_set,
    classify,
    det_fraction_free,
    enumerate_facets,
    find_disagreement,
    is_fano,
    is_gorenstein,
    is_simplicial,
    is_smooth_geometric,
    is_terminal,
    poset_classes,
    witness_hyperplane,
)
from conftest import antichain, chain, random_poset
from oracles import (
    box_hull_points,
    box_is_fano,
    box_is_terminal,
    brute_facets,
    cofactor_det,
    first_seen_classes,
    is_balanced,
    minor_normal,
    prefix_normals,
    qhull_exact_facets,
    rank_flags,
    recursive_cycles,
    recursive_paths,
    reference_witnesses,
    smaller_key_quotient,
    subset_facets,
)

CROSS2 = [(-1, 0), (1, 0), (0, -1), (0, 1)]


def facet_set(points):
    return {(f.normal, f.offset) for f in enumerate_facets(points)}


class TestDeterminant:
    def test_small_cases(self):
        assert det_fraction_free([[5]]) == 5
        assert det_fraction_free([[1, 2], [3, 4]]) == -2
        assert det_fraction_free([[1, 0], [0, 1]]) == 1
        assert det_fraction_free([]) == 1

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            det_fraction_free([[1, 2], [3, 4], [5, 6]])

    def test_agrees_with_cofactor_expansion(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(m) == cofactor_det(m)

    def test_singular(self):
        assert det_fraction_free([[1, 1], [1, 1]]) == 0
        assert det_fraction_free([[0, 0, 0], [1, 2, 3], [4, 5, 6]]) == 0


class TestEnumerateFacets:
    def test_antichain2(self):
        vs = build_vertex_set(antichain(2).hat())
        assert facet_set(vs.vectors) == {
            ((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)
        }

    def test_chain2_simplex(self):
        vs = build_vertex_set(chain(2).hat())
        facets = enumerate_facets(vs.vectors)
        assert len(facets) == 3
        assert all(f.offset == 1 for f in facets)

    def test_example_poset_offsets_and_qhull_agreement(self, two_chain_plus_point):
        vs = build_vertex_set(two_chain_plus_point.hat())
        facets = enumerate_facets(vs.vectors)
        assert all(f.offset == 1 for f in facets)
        qh = qhull_exact_facets(vs.vectors)
        assert {(f.normal, f.offset): f.incident for f in facets} == qh

    def test_self_consistency(self, v_poset, diamond):
        for p in (v_poset, diamond):
            vs = build_vertex_set(p.hat())
            for f in enumerate_facets(vs.vectors):
                for k, pt in enumerate(vs.vectors):
                    val = sum(a * x for a, x in zip(f.normal, pt))
                    assert val <= f.offset
                    assert (val == f.offset) == (k in f.incident)
                assert len(f.incident) >= p.d

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            enumerate_facets([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(DegenerateInput):
            enumerate_facets([(1, 0)])
        with pytest.raises(ValueError, match="points must share one positive dimension"):
            enumerate_facets([(0, 1), (1,)])

    def test_origin_on_hyperplane(self):
        with pytest.raises(OriginOnHyperplane):
            enumerate_facets([(0, 0), (1, 0), (0, 1)])


def class_vertex_sets(ds):
    """Vertex sets of every duality class of each size in ds, one
    representative per class as the pinned digests were taken."""
    for d in ds:
        for p in smaller_key_quotient(first_seen_classes(d)):
            yield build_vertex_set(p.hat()).vectors


def random_point_sets():
    """200 seeded integer point sets, d = 1..4, coordinates in [-2, 2]."""
    rng = random.Random(71)
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, d + 5)
        yield [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]


def outcome(fn, *args):
    """fn(*args), or the type of the geometry error it raised."""
    try:
        return fn(*args)
    except (DegenerateInput, OriginOnHyperplane) as e:
        return type(e)


# sha256 of the facet lists of every d = 6 duality class, computed with
# the C(n, d) minors loop that preceded the prefix-pruned search
D6_FACETS_SHA256 = "129c545d50e817d0ee7a67e87c81c8fdce241eea6221e2aae82b81c759248427"
# the same over every d = 7 duality class, computed with the
# prefix-pruned subset search that preceded the double description
D7_FACETS_SHA256 = "b87410e203c30e327f47b7d0c348f76af30316b3198ab39012c4548a308cae86"


class TestFacetsAgainstBruteForce:
    def test_every_class_up_to_d5(self):
        for points in class_vertex_sets(range(1, 6)):
            assert enumerate_facets(points) == brute_facets(points)

    def test_random_point_sets(self):
        outcomes = []
        for points in random_point_sets():
            mine = outcome(enumerate_facets, points)
            assert mine == outcome(brute_facets, points), points
            outcomes.append(mine if isinstance(mine, type) else list)
        # the sample exercises both errors and plain facet lists
        assert {DegenerateInput, OriginOnHyperplane, list} <= set(outcomes)

    def test_search_yields_each_independent_subset_in_order(self):
        # the prefix pruning skips exactly the affinely dependent subsets
        def primitive_up_to_sign(normal):
            g = gcd(*normal)
            normal = tuple(a // g for a in normal)
            return max(normal, tuple(-a for a in normal))

        for points in random_point_sets():
            d = len(points[0])
            expected = []
            for subset in combinations(range(len(points)), d):
                normal = minor_normal([points[k] for k in subset])
                if normal is not None:
                    expected.append(primitive_up_to_sign(normal))
            found = []
            for i, base in enumerate(points):
                rows = [[x - b for x, b in zip(p, base)] for p in points]
                found.extend(primitive_up_to_sign(n) for n in prefix_normals(rows, i + 1, ()))
            assert found == expected, points

    def test_d6_facet_lists_pinned(self):
        digest = hashlib.sha256()
        for points in class_vertex_sets([6]):
            facets = enumerate_facets(points)
            digest.update(repr([(f.normal, f.offset, f.incident) for f in facets]).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == D6_FACETS_SHA256

    def test_d7_facet_lists_pinned(self):
        digest = hashlib.sha256()
        for points in class_vertex_sets([7]):
            facets = enumerate_facets(points)
            digest.update(repr([(f.normal, f.offset, f.incident) for f in facets]).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == D7_FACETS_SHA256


def cube_point_sets(rng, d, count):
    """Seeded point sets in {-1, 0, 1}^d with coplanar and repeated points.

    Half start from the simplex e_1, ..., e_d, (-1, ..., -1) around the
    origin; each adds random points, points on the face x_c = 1 of the
    cube and copies of points already in the set, in shuffled order.
    """
    for _ in range(count):
        points = []
        if rng.random() < 0.5:
            points = [tuple(int(k == c) for k in range(d)) for c in range(d)]
            points.append((-1,) * d)
        points += [tuple(rng.choice((-1, 0, 1)) for _ in range(d))
                   for _ in range(rng.randint(1, 4))]
        c = rng.randrange(d)
        points += [tuple(1 if k == c else rng.choice((-1, 0, 1)) for k in range(d))
                   for _ in range(rng.randint(0, 3))]
        points += [rng.choice(points) for _ in range(rng.randint(0, 2))]
        rng.shuffle(points)
        yield points


class TestFacetsAgainstSubsetSearch:
    @pytest.mark.slow
    def test_cube_point_sets_d5_to_d8(self):
        rng = random.Random(83)
        seen = set()
        for d, count in ((5, 30), (6, 30), (7, 20), (8, 12)):
            for points in cube_point_sets(rng, d, count):
                mine = outcome(enumerate_facets, points)
                assert mine == outcome(subset_facets, points), points
                if isinstance(mine, type):
                    seen.add(mine)
                    continue
                seen.add("repeated" if len(set(points)) < len(points) else "distinct")
                if any(len(f.incident) > d for f in mine):
                    seen.add("non-simplicial")
        assert {DegenerateInput, "repeated", "distinct", "non-simplicial"} <= seen

    def test_dependent_leading_points(self):
        # a repeated point, then one on the line through the first two:
        # the first d + 1 points never span, so seeding skips some of them
        rng = random.Random(19)
        spanning = 0
        for d in range(2, 6):
            for _ in range(10):
                p, q = (tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(2))
                lead = [p, p, q, tuple(2 * b - a for a, b in zip(p, q))]
                points = lead + [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3)]
                mine = outcome(enumerate_facets, points)
                assert mine == outcome(subset_facets, points), points
                spanning += not isinstance(mine, type)
        assert spanning >= 25


class TestScansAgainstFullBox:
    def test_every_class_up_to_d5(self):
        for points in class_vertex_sets(range(1, 6)):
            facets = enumerate_facets(points)
            assert is_fano(points) == box_is_fano(points, facets)
            assert is_terminal(points) == box_is_terminal(points, facets)

    def test_random_point_sets(self):
        seen = set()
        for points in random_point_sets():
            fano, terminal = outcome(is_fano, points), outcome(is_terminal, points)
            assert fano == outcome(box_is_fano, points), points
            assert terminal == outcome(box_is_terminal, points), points
            facets = outcome(brute_facets, points)
            if isinstance(facets, type):
                continue
            seen.add((fano, terminal, min(f.offset for f in facets) > 0))
        # Fano and not, terminal and not, and hulls missing the origin
        # (terminal with the origin inside implies Fano)
        assert {(True, True, True), (True, False, True),
                (False, False, True), (False, True, False),
                (False, False, False)} <= seen


def cut_facet_lists():
    """Facet lists of small classes cut by one more facet.

    The extra facet has offset 0 or -1 (a region without the origin
    inside) or lies beyond the box (an empty region).
    """
    rng = random.Random(89)
    for points in class_vertex_sets(range(1, 6)):
        d = len(points[0])
        facets = enumerate_facets(points)
        normal = tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,)
        yield points, facets + [Facet(normal, 0, ())]
        yield points, facets + [Facet(normal, -1, ())]
        yield points, [Facet((-1,) + (0,) * (d - 1), -2, ())] + facets


def random_point_sets_with_facets(count):
    """Seeded point sets, d = 1..5, coordinates in [-2, 2], 30 % with
    repeated points, each with its facets or, when the hull has none
    (flat, or the origin on its boundary), a random facet list."""
    rng = random.Random(97)
    for _ in range(count):
        d = rng.randint(1, 5)
        points = [tuple(rng.randint(-2, 2) for _ in range(d))
                  for _ in range(rng.randint(2, d + 4))]
        if rng.random() < 0.3:
            points += rng.choices(points, k=rng.randint(1, 3))
            rng.shuffle(points)
        facets = outcome(enumerate_facets, points)
        if isinstance(facets, type):
            facets = [Facet(tuple(rng.randint(-2, 2) for _ in range(d)),
                            rng.randint(-1, 3), ())
                      for _ in range(rng.randint(0, 2 * d + 2))]
        yield points, facets


def clear_half_tables():
    geometry._head_sums.cache_clear()
    geometry._tail_cuts.cache_clear()


def scan(points, facets):
    return list(geometry._hull_points(geometry._lattice_box(points), facets))


def same_stream(points, facets):
    return scan(points, facets) == list(box_hull_points(points, facets))


class TestHullPointsAgainstBoxWalk:
    """The split scan yields the box walk's points, order and values."""

    def test_every_class_up_to_d6(self):
        for points in class_vertex_sets(range(1, 7)):
            assert same_stream(points, enumerate_facets(points)), points

    def test_sampled_classes_d7_d8(self):
        # d = 8 classes come as seeded random posets, which spares the
        # suite a d = 8 enumeration
        rng = random.Random(101)
        sample = [*rng.sample(smaller_key_quotient(poset_classes(7)), 60),
                  *(random_poset(rng, 8) for _ in range(30))]
        for p in sample:
            points = build_vertex_set(p.hat()).vectors
            assert same_stream(points, enumerate_facets(points)), p

    @pytest.mark.slow
    def test_random_point_sets(self):
        seen = set()
        for points, facets in random_point_sets_with_facets(3000):
            assert same_stream(points, facets), (points, facets)
            seen.add((len(points[0]), len(set(points)) < len(points)))
        assert seen == {(d, repeated) for d in range(1, 6) for repeated in (False, True)}

    def test_sums_once_per_distinct_half(self, monkeypatch):
        # the box splits after d // 2 coordinates, and each distinct half
        # of a normal has its sums computed once per process: on cleared
        # caches a scan computes each once, and a repeat scan none
        calls = []
        sums = geometry._sums
        monkeypatch.setattr(geometry, "_sums",
                            lambda normal, box: calls.append(normal) or sums(normal, box))
        shared = 0
        for points in class_vertex_sets([6]):
            h = len(points[0]) // 2
            facets = enumerate_facets(points)
            clear_half_tables()
            del calls[:]
            scan(points, facets)
            assert sorted(calls) == sorted([*{f.normal[:h] for f in facets},
                                            *{f.normal[h:] for f in facets}])
            shared += len(calls) < 2 * len(facets)
            del calls[:]
            scan(points, facets)
            assert calls == []
        assert shared

    def test_shared_half_normal_other_box(self):
        # doubling a point set keeps its facet normals and doubles its
        # box, so a table keyed by the half normal alone would serve the
        # other set's box; each set gives the box walk's stream in
        # either order
        for points in [CROSS2, *class_vertex_sets(range(2, 5))]:
            doubled = [tuple(2 * x for x in p) for p in points]
            assert ({f.normal for f in enumerate_facets(points)}
                    == {f.normal for f in enumerate_facets(doubled)})
            for first, second in ((points, doubled), (doubled, points)):
                clear_half_tables()
                for pts in (first, second):
                    assert same_stream(pts, enumerate_facets(pts)), pts

    @pytest.mark.slow
    def test_warm_tables_d7(self):
        # every d = 7 class gives the same stream and flags with cold
        # tables and, classes in reverse order, with the tables they left
        def digests(sample):
            out = {}
            for k, points in sample:
                stream = scan(points, enumerate_facets(points))
                flags = geometry.facets_and_flags(points)[1:]
                out[k] = hashlib.sha256(repr((stream, flags)).encode()).hexdigest()
            return out

        classes = list(enumerate(class_vertex_sets([7])))
        clear_half_tables()
        cold = digests(classes)
        built = geometry._head_sums.cache_info(), geometry._tail_cuts.cache_info()
        assert digests(reversed(classes)) == cold
        for was, cache in zip(built, (geometry._head_sums, geometry._tail_cuts)):
            assert cache.cache_info().misses == was.misses
            assert cache.cache_info().currsize == was.currsize <= geometry.HALF_TABLES
        points = classes[-1][1]
        box = geometry._lattice_box(points)
        facet = enumerate_facets(points)[0]
        head = geometry._head_sums(facet.normal[:3], box[:3])
        sums, low, span, fits = tail = geometry._tail_cuts(facet.normal[3:], box[3:])
        assert type(head) is type(tail) is type(sums) is type(fits) is tuple

    def test_cut_facet_lists(self):
        kinds = set()
        for points, facets in cut_facet_lists():
            stream = scan(points, facets)
            assert stream == list(box_hull_points(points, facets)), (points, facets)
            kinds.add(bool(stream))
        assert kinds == {True, False}


def own_and_rank(points):
    """The flags of the mask vertex test and of the rank oracle, or the
    error type as in outcome."""
    return outcome(geometry.fano_and_terminal, points), outcome(rank_flags, points)


def box_flags(points, facets=None):
    return box_is_fano(points, facets), box_is_terminal(points, facets)


class TestOwnHullVertexMasks:
    """The mask vertex test gives the flags of the rank oracle and of
    the full box walk.  The box walk costs 50 ms
    per class at d = 6 and 0.3 and 1.4 s at d = 7 and 8, so it checks
    every eighth d = 6 class, the first few of the d = 7, 8 sample and
    the d = 5 cube point sets.  On random_point_sets, is_fano(points)
    and is_terminal(points) meet the box walk in TestScansAgainstFullBox."""

    @pytest.mark.slow
    def test_every_class_up_to_d6(self):
        for k, points in enumerate(class_vertex_sets(range(1, 7))):
            own, rank = own_and_rank(points)
            assert own == rank, points
            if len(points[0]) < 6 or k % 8 == 0:
                assert own == box_flags(points, enumerate_facets(points)), points

    @pytest.mark.slow
    def test_sampled_classes_d7_d8(self):
        rng = random.Random(101)
        sevens = rng.sample(smaller_key_quotient(poset_classes(7)), 60)
        eights = [random_poset(rng, 8) for _ in range(30)]
        for sample, boxed in ((sevens, 3), (eights, 1)):
            for k, p in enumerate(sample):
                points = build_vertex_set(p.hat()).vectors
                own, rank = own_and_rank(points)
                assert own == rank, p
                if k < boxed:
                    assert own == box_flags(points, enumerate_facets(points)), p

    @pytest.mark.slow
    def test_cube_point_sets_d5_to_d8(self):
        rng = random.Random(83)
        seen = set()
        for d, count in ((5, 30), (6, 30), (7, 20), (8, 12)):
            for points in cube_point_sets(rng, d, count):
                own, rank = own_and_rank(points)
                assert own == rank, points
                facets = outcome(enumerate_facets, points)
                if d == 5 and not isinstance(facets, type):
                    assert own == box_flags(points, facets), points
                seen.add(own)
        assert {DegenerateInput, (True, True), (False, False)} <= seen

    def test_random_point_sets(self):
        seen = set()
        for points in random_point_sets():
            own, rank = own_and_rank(points)
            assert own == rank, points
            if own is DegenerateInput:
                continue
            facets = outcome(enumerate_facets, points)
            inside = not isinstance(facets, type) and min(f.offset for f in facets) > 0
            seen.add((*own, inside))
        # Fano and terminal, Fano and not terminal, not Fano with the
        # origin inside, and hulls missing the origin, terminal or not
        assert {(True, True, True), (True, False, True), (False, False, True),
                (False, True, False), (False, False, False)} <= seen

class TestIsFano:
    def test_segment(self):
        assert is_fano([(-1,), (1,)])

    def test_poset_polytopes(self, chain3, v_poset, diamond):
        for p in (chain3, v_poset, diamond):
            vs = build_vertex_set(p.hat())
            assert is_fano(vs.vectors)

    def test_shifted_triangle_not_fano(self):
        # (1,0) is a second interior lattice point of this hull
        assert is_fano([(1, 0), (0, 1), (-1, -1)])
        assert not is_fano([(2, 0), (0, 1), (-1, -1)])

    def test_origin_on_boundary_not_fano(self):
        assert not is_fano([(0, 0), (1, 0), (0, 1)])


class TestIsTerminal:
    def test_cross(self):
        assert is_terminal(CROSS2)

    def test_segment(self):
        assert is_terminal([(-1,), (1,)])

    def test_square_with_midpoints(self):
        # (0,1) lies on an edge of the big square without being a vertex
        assert not is_terminal([(1, 1), (1, -1), (-1, 1), (-1, -1)])

    def test_long_segment(self):
        assert not is_terminal([(-2,), (1,)])


class TestScanInputs:
    def test_empty_point_set(self):
        for check in (is_fano, is_terminal):
            with pytest.raises(DegenerateInput):
                check([])

    def test_box_budget_comes_first(self, monkeypatch):
        # 200001 x 601 box points, more than 3^16, in d = 2; no facet
        # work starts before the box is refused
        monkeypatch.setattr(geometry, "enumerate_facets",
                            lambda points: pytest.fail("facets enumerated"))
        wide = [(-10 ** 5, 0), (10 ** 5, 0), (0, -300), (0, 300)]
        for check in (is_fano, is_terminal):
            with pytest.raises(UnsupportedSize, match="3\\^16"):
                check(wide)

    def test_box_budget_bound(self):
        # a box of 3^16 points passes, one of 4 * 3^15 does not
        cube = [(-1,) * 16, (1,) * 16]
        assert geometry.MAX_BOX_POINTS == 3 ** 16
        assert len(geometry._lattice_box(cube)) == 16
        with pytest.raises(UnsupportedSize):
            geometry._lattice_box(cube + [(2,) + (1,) * 15])


class TestSmoothCheckInputs:
    def test_empty_point_set(self):
        with pytest.raises(DegenerateInput):
            is_smooth_geometric([], enumerate_facets(CROSS2))

    def test_incident_index_outside_the_points(self):
        facets = enumerate_facets(CROSS2)
        for shift in (len(CROSS2), -len(CROSS2)):
            bad = [Facet(f.normal, f.offset, tuple(k + shift for k in f.incident))
                   for f in facets]
            with pytest.raises(ValueError, match="incident"):
                is_smooth_geometric(CROSS2, bad)


class TestIsGorenstein:
    def test_cross(self):
        assert is_gorenstein(enumerate_facets(CROSS2))

    def test_triangle_with_unit_offsets(self):
        # all three facets have primitive offset 1: x+y=1, -x+y=1, x-3y=1
        facets = enumerate_facets([(1, 0), (0, 1), (-2, -1)])
        assert {(f.normal, f.offset) for f in facets} == {
            ((1, 1), 1), ((-1, 1), 1), ((1, -3), 1)
        }
        assert is_gorenstein(facets)

    def test_triangle_with_offset_three(self):
        facets = enumerate_facets([(1, 0), (0, 1), (-1, -3)])
        assert any(f.offset != 1 for f in facets)
        assert not is_gorenstein(facets)


class TestSimplicialAndSmooth:
    def test_chain_simplex_smooth(self, chain3):
        vs = build_vertex_set(chain3.hat())
        facets = enumerate_facets(vs.vectors)
        assert is_simplicial(facets)
        assert is_smooth_geometric(vs.vectors, facets)

    def test_antichain_smooth(self):
        facets = enumerate_facets(CROSS2)
        assert is_simplicial(facets)
        assert is_smooth_geometric(CROSS2, facets)

    def test_v_poset_not_simplicial(self, v_poset):
        vs = build_vertex_set(v_poset.hat())
        facets = enumerate_facets(vs.vectors)
        assert not is_simplicial(facets)
        assert not is_smooth_geometric(vs.vectors, facets)
        assert max(len(f.incident) for f in facets) == 4

    def test_simplicial_but_not_smooth(self):
        # unimodularity genuinely cuts: this simplex has facet det 2
        points = [(1, 0), (0, 1), (-1, -2)]
        facets = enumerate_facets(points)
        assert is_simplicial(facets)
        assert any(abs(det_fraction_free([points[k] for k in f.incident])) != 1
                   for f in facets)
        assert not is_smooth_geometric(points, facets)


class TestWitnessHyperplane:
    def check_witness(self, p, walk):
        h = p.hat()
        hp = witness_hyperplane(h, walk)
        assert hp.offset == 1
        vs = build_vertex_set(h)
        from posetfano.polytope import edge_vector
        walk_vecs = [edge_vector(h, e) for e in walk.edge_pairs()]
        for v in walk_vecs:
            assert sum(a * x for a, x in zip(hp.normal, v)) == 1
        for v in vs.vectors:
            assert sum(a * x for a, x in zip(hp.normal, v)) <= 1
        return hp

    def test_diamond_cycle(self, diamond):
        walk = Walk.from_elements(diamond.hat(), (1, 2, 4, 3), "cycle")
        self.check_witness(diamond, walk)

    def test_v_poset_cycle(self, v_poset):
        # cycle through the top: the top's level pins the base value
        walk = Walk.from_elements(v_poset.hat(), (1, 2, 4, 3), "cycle")
        self.check_witness(v_poset, walk)

    def test_lambda_poset_cycle(self, lambda_poset):
        # cycle through the bottom: the bottom's level pins the base value
        h = lambda_poset.hat()
        walk = Walk.from_elements(h, (0, 2, 1, 3), "cycle")
        assert 0 in walk.elements
        self.check_witness(lambda_poset, walk)

    def test_zigzag_path(self, zigzag7):
        h = zigzag7.hat()
        walk = Walk.from_elements(h, (0, 1, 2, 3, 4, 5, 6, 7, 8), "path")
        self.check_witness(zigzag7, walk)

    def test_all_up_path_rejected(self, chain3):
        h = chain3.hat()
        walk = Walk.from_elements(h, (0, 1, 2, 3, 4), "path")
        with pytest.raises(WalkNotEligible):
            witness_hyperplane(h, walk)

    @pytest.mark.parametrize("elements", [(1, 2, 3, 4), (0, 1, 2, 3)])
    def test_path_off_the_bounds_rejected(self, chain3, elements):
        h = chain3.hat()
        walk = Walk.from_elements(h, elements, "path")
        with pytest.raises(WalkNotEligible, match="bottom to the top"):
            witness_hyperplane(h, walk)

    def test_unbalanced_cycle_rejected(self, broom6):
        h = broom6.hat()
        # odd cycle through the pendant maximal: never balanced
        walk = Walk.from_elements(h, (1, 2, 3, 7, 6), "cycle")
        with pytest.raises(WalkNotEligible):
            witness_hyperplane(h, walk)

    def test_clamps_pull_one_way_only(self):
        # an element outside the walk with walk elements below and above
        # it is clamped from one side only; both sides would need a level
        # gap larger than a distance, which eligibility rejects
        both = 0
        for p in [*poset_classes(6), *poset_classes(7)[::10]]:
            h = p.hat()
            vectors = build_vertex_set(h).vectors
            walks = [*(Walk.from_elements(h, els, "cycle") for els in recursive_cycles(h)),
                     *(Walk.from_elements(h, els, "path") for els in recursive_paths(h))]
            for walk in walks:
                try:
                    normal = witness_hyperplane(h, walk).normal
                except WalkNotEligible:
                    continue
                assert all(sum(map(mul, normal, v)) <= 1 for v in vectors)
                a = (0, *normal, 0)
                for y in set(p.elements) - set(walk.elements):
                    below = [a[x] - h.dist(x, y) for x in walk.elements if h.less(x, y)]
                    above = [a[z] + h.dist(y, z) for z in walk.elements if h.less(y, z)]
                    if below and above:
                        both += 1
                        assert max(below) <= 0 or min(above) >= 0
        assert both > 100

    def test_path_failing_gaps_rejected(self):
        # a balanced bottom-to-top path that only the path gap check
        # rejects; the polytope is smooth, so no hyperplane may come of it
        covers = [(2, 6), (3, 10), (4, 6), (5, 9), (6, 9), (7, 4), (8, 1),
                  (8, 2), (8, 5), (8, 7), (9, 10)]
        p = Poset.from_cover_relations(10, covers)
        h = p.hat()
        walk = Walk.from_elements(h, (0, 3, 10, 9, 6, 2, 8, 1, 11), "path")
        assert is_balanced(walk)
        with pytest.raises(WalkNotEligible, match="path level gaps"):
            witness_hyperplane(h, walk)
        assert classify(p).smooth
        assert find_disagreement(p) is None

    def test_cycle_failing_gaps_rejected(self, broom6):
        h = broom6.hat()
        walk = Walk.from_elements(h, (1, 2, 3, 7, 4, 5), "cycle")
        with pytest.raises(WalkNotEligible):
            witness_hyperplane(h, walk)

    @pytest.mark.slow
    def test_plane_exactly_for_reference_walks(self):
        # every cycle and path of every class with d <= 7: a plane comes
        # back exactly when the whole-walk predicates accept the walk, and
        # the normals are the ones the eligibility-first construction gave
        digest = hashlib.sha256()
        planes = 0
        for p in [q for d in range(1, 8) for q in first_seen_classes(d)]:
            h = p.hat()
            eligible = set(reference_witnesses(h))
            walks = [*(Walk.from_elements(h, els, "cycle") for els in recursive_cycles(h)),
                     *(Walk.from_elements(h, els, "path") for els in recursive_paths(h))]
            for walk in walks:
                try:
                    normal = witness_hyperplane(h, walk).normal
                except WalkNotEligible:
                    normal = None
                assert (normal is not None) == (walk in eligible), walk
                planes += normal is not None
                digest.update(f"{walk.kind} {walk.elements} {normal}\n".encode())
        assert planes == 17916
        assert digest.hexdigest() == (
            "afa7938aa7a5121ea11690a4fa597d2a609c45acf29a38b81c5d8fabd95a3f0e")


def test_geometry_imports_no_classifier():
    # the oracle stays independent of what it checks
    tree = ast.parse(open(geometry.__file__, encoding="utf-8").read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(a.name for a in node.names)
    assert not names & {"classifier", "crosscheck", "enumeration"}
