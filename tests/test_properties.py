"""Standalone property suites over fixtures and random posets.

These groups draw from named fixtures and seeded random posets; only
the witness-hyperplane group also takes every non-smooth duality class
with d <= 5 from the enumeration pipeline.
"""
import random

from posetfano import (
    Walk,
    build_vertex_set,
    classify,
    edge_vector,
    enumerate_cycles,
    enumerate_facets,
    level_labels,
    maximal_chain_vector_sum,
    quotient_by_duality,
    witness_hyperplane,
)
from conftest import random_poset
from oracles import cached_classes, fraction_rank, is_balanced


def _sample(seed, count, dmin=1, dmax=7):
    rng = random.Random(seed)
    return [random_poset(rng, rng.randint(dmin, dmax)) for _ in range(count)]


class TestZeroSumOverMaximalChains:
    def test_fixtures_and_random(self, diamond, v_poset, zigzag7):
        posets = [diamond, v_poset, zigzag7] + _sample(59, 40)
        for p in posets:
            h = p.hat()
            for chain in h.maximal_chains():
                assert maximal_chain_vector_sum(h, chain) == (0,) * p.d


class TestWeightedZeroSum:
    def test_chain_counts_weight_edges_to_zero(self, diamond, broom6):
        posets = [diamond, broom6] + _sample(61, 40)
        for p in posets:
            h = p.hat()
            chains = h.maximal_chains()
            total = [0] * p.d
            for lo, hi in h.edges:
                weight = sum(
                    1 for c in chains
                    if lo in c and hi in c and c.index(hi) == c.index(lo) + 1
                )
                assert weight >= 1  # every Hasse edge extends to a maximal chain
                vec = edge_vector(h, (lo, hi))
                for t in range(p.d):
                    total[t] += weight * vec[t]
            assert total == [0] * p.d


class TestLevelLabelUniqueness:
    def test_rotation_and_reflection_invariance(self):
        for p in _sample(67, 40, dmin=2):
            h = p.hat()
            for c in enumerate_cycles(h):
                if not is_balanced(c):
                    continue
                base = level_labels(c)
                els = c.elements
                for r in range(len(els)):
                    rotated = els[r:] + els[:r]
                    for variant in (rotated, rotated[::-1]):
                        w = Walk.from_elements(h, variant, "cycle")
                        assert level_labels(w) == base


class TestDualityInvariance:
    def test_flags_equal_on_dual(self, v_poset, diamond, broom6, zigzag7):
        posets = [v_poset, diamond, broom6, zigzag7] + _sample(71, 50)
        for p in posets:
            a = classify(p)
            b = classify(p.dual())
            assert (a.fano, a.terminal, a.gorenstein, a.q_factorial, a.smooth) == (
                b.fano, b.terminal, b.gorenstein, b.q_factorial, b.smooth
            )


class TestWitnessHyperplaneSupport:
    def test_witness_certifies_nonsimplicial(self, v_poset, diamond, zigzag7):
        classes = [p for d in range(1, 6) for p in quotient_by_duality(cached_classes(d))
                   if not classify(p).smooth]
        assert len(classes) == 34
        posets = [v_poset, diamond, zigzag7] + _sample(73, 25, dmin=3, dmax=6) + classes
        checked = 0
        for p in posets:
            rep = classify(p)
            if rep.smooth:
                continue
            checked += 1
            h = p.hat()
            hp = witness_hyperplane(h, rep.witness)
            vs = build_vertex_set(h)
            walk_vecs = [edge_vector(h, e) for e in rep.witness.edge_pairs()]
            incident = []
            for v in vs.vectors:
                val = sum(a * x for a, x in zip(hp.normal, v))
                assert val <= hp.offset == 1
                if val == 1:
                    incident.append(v)
            for v in walk_vecs:
                assert sum(a * x for a, x in zip(hp.normal, v)) == 1
            # the signed edge vectors sum to 0 with signs summing to 0: an
            # affine dependence among the walk's vertices
            steps = rep.witness.steps
            assert sum(steps) == 0
            assert [sum(s * v[t] for s, v in zip(steps, walk_vecs))
                    for t in range(p.d)] == [0] * p.d
            # the vertices on the hyperplane are affinely dependent
            assert fraction_rank([(*v, 1) for v in incident]) < len(incident)
            # and any facet over that face has more than d vertices
            facets = enumerate_facets(vs.vectors)
            walk_pos = {vs.vectors.index(v) for v in walk_vecs}
            containing = [
                f for f in facets if walk_pos <= set(f.incident)
            ]
            assert containing
            assert all(len(f.incident) > p.d for f in containing)
        assert checked >= 3 + len(classes)


class TestHullVertexIdentity:
    def test_every_edge_vector_is_a_hull_vertex(self):
        # tight facet normals at each point span the space: vertex test
        for p in _sample(79, 20, dmin=1, dmax=5):
            vs = build_vertex_set(p.hat())
            facets = enumerate_facets(vs.vectors)
            for k, v in enumerate(vs.vectors):
                tight = [f.normal for f in facets if k in f.incident]
                assert fraction_rank(tight) == p.d


class TestOracleSelfConsistency:
    def test_support_and_incidence_exact(self):
        for p in _sample(83, 20, dmin=1, dmax=5):
            vs = build_vertex_set(p.hat())
            for f in enumerate_facets(vs.vectors):
                for k, v in enumerate(vs.vectors):
                    val = sum(a * x for a, x in zip(f.normal, v))
                    assert val <= f.offset
                    assert (val == f.offset) == (k in f.incident)
