import random

import pytest

from posetfano import (
    NotAMaximalChain,
    NotAnEdge,
    build_vertex_set,
    edge_vector,
    maximal_chain_vector_sum,
)
from conftest import antichain, chain, random_poset


class TestEdgeVector:
    def test_inner_edge(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        assert edge_vector(h, (1, 2)) == (1, -1, 0)

    def test_bottom_edge(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        assert edge_vector(h, (0, 1)) == (-1, 0, 0)

    def test_top_edge(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        assert edge_vector(h, (3, 4)) == (0, 0, 1)

    def test_orientation_ignored(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        assert edge_vector(h, (2, 1)) == edge_vector(h, (1, 2))

    def test_not_an_edge(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        with pytest.raises(NotAnEdge):
            edge_vector(h, (1, 3))
        with pytest.raises(NotAnEdge):
            edge_vector(h, (0, 2))  # y2 not minimal
        # indices outside 0..d+1, including ones that would wrap or shift
        for edge in [(-1, 1), (-1, 3), (1, 5), (3, 5), (5, 0), (4, -1)]:
            with pytest.raises(NotAnEdge):
                edge_vector(h, edge)


class TestBuildVertexSet:
    def test_example_three_points(self, two_chain_plus_point):
        vs = build_vertex_set(two_chain_plus_point.hat())
        assert set(vs.vectors) == {
            (-1, 0, 0), (1, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
        }

    def test_chain_simplex(self):
        vs = build_vertex_set(chain(2).hat())
        assert set(vs.vectors) == {(-1, 0), (1, -1), (0, 1)}

    def test_antichain_cross(self):
        vs = build_vertex_set(antichain(2).hat())
        assert set(vs.vectors) == {(-1, 0), (1, 0), (0, -1), (0, 1)}

    def test_edge_alignment(self, diamond):
        h = diamond.hat()
        vs = build_vertex_set(h)
        assert vs.edges == h.edges
        for k, e in enumerate(vs.edges):
            assert vs.vectors[k] == edge_vector(h, e)
            assert vs.edges[k] == e

    def test_injective_on_random_posets(self):
        rng = random.Random(23)
        for _ in range(80):
            p = random_poset(rng, rng.randint(1, 7))
            vs = build_vertex_set(p.hat())
            assert len(set(vs.vectors)) == len(vs.vectors) == len(p.hat().edges)


class TestChainVectorSum:
    def test_chain(self):
        h = chain(3).hat()
        assert maximal_chain_vector_sum(h, (0, 1, 2, 3, 4)) == (0, 0, 0)

    def test_short_chain(self, two_chain_plus_point):
        h = two_chain_plus_point.hat()
        assert maximal_chain_vector_sum(h, (0, 3, 4)) == (0, 0, 0)

    def test_diamond(self, diamond):
        h = diamond.hat()
        assert maximal_chain_vector_sum(h, (0, 1, 2, 4, 5)) == (0, 0, 0, 0)

    def test_rejects_non_chains(self, diamond):
        h = diamond.hat()
        with pytest.raises(NotAMaximalChain):
            maximal_chain_vector_sum(h, (0, 1, 4, 5))  # skips a level
        with pytest.raises(NotAMaximalChain):
            maximal_chain_vector_sum(h, (1, 2, 4, 5))  # does not start at bottom
        with pytest.raises(NotAMaximalChain):
            maximal_chain_vector_sum(h, (0, 2, 1, 4, 5))
