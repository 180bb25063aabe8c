import json
import os
import random

import pytest

import posetfano.crosscheck as crosscheck
import posetfano.geometry as geometry
from posetfano import (
    ClassificationReport,
    Walk,
    classify,
    find_disagreement,
    oracle_report,
    quotient_by_duality,
)
from posetfano.cli import main
from conftest import random_poset
from oracles import (
    box_is_fano, box_is_terminal, cached_classes, fraction_rank, qhull_exact_facets)


class TestOracleEquivalence:
    def test_reports_equal_up_to_d6(self):
        for d in range(1, 7):
            for p in quotient_by_duality(cached_classes(d)):
                assert find_disagreement(p) is None

    def test_random_d6_sample(self):
        rng = random.Random(47)
        for _ in range(25):
            p = random_poset(rng, 6)
            assert find_disagreement(p) is None

    @pytest.mark.slow
    def test_random_d6_two_hundred(self):
        rng = random.Random(53)
        for _ in range(200):
            p = random_poset(rng, 6)
            assert find_disagreement(p) is None

    def test_hull_vertex_identity_exhaustive_d5(self):
        # the edge vectors are exactly the hull's vertices: every point
        # has tight facet normals spanning the whole space
        from posetfano import build_vertex_set, enumerate_facets

        for d in range(1, 6):
            for p in cached_classes(d):
                vs = build_vertex_set(p.hat())
                facets = enumerate_facets(vs.vectors)
                for k in range(len(vs.vectors)):
                    tight = [f.normal for f in facets if k in f.incident]
                    assert fraction_rank(tight) == d

    def test_simplicial_equals_unimodular_d5(self):
        # the two geometric readings of Q-factorial vs smooth coincide
        # on every polytope in this family
        from posetfano import (
            build_vertex_set, enumerate_facets, is_simplicial,
            is_smooth_geometric,
        )
        for d in range(1, 6):
            for p in cached_classes(d):
                vs = build_vertex_set(p.hat())
                facets = enumerate_facets(vs.vectors)
                assert is_simplicial(facets) == is_smooth_geometric(vs.vectors, facets)


class TestFixtures:
    def test_matches_combinatorial(self, v_poset, chain3, diamond, broom6, zigzag7):
        for p in (v_poset, chain3, diamond, broom6, zigzag7):
            assert find_disagreement(p) is None
            assert (classify(p).witness is None) == oracle_report(p)[2]["simplicial"]

    def test_qhull_agrees_on_fixtures(self, v_poset, diamond, broom6, zigzag7):
        from posetfano import build_vertex_set, enumerate_facets
        for p in (v_poset, diamond, broom6, zigzag7):
            vs = build_vertex_set(p.hat())
            mine = {(f.normal, f.offset): f.incident
                    for f in enumerate_facets(vs.vectors)}
            assert mine == qhull_exact_facets(vs.vectors)

    @pytest.mark.slow
    def test_qhull_agrees_exhaustive_d6(self):
        from posetfano import build_vertex_set, enumerate_facets, quotient_by_duality
        for p in quotient_by_duality(cached_classes(6)):
            vs = build_vertex_set(p.hat())
            mine = {(f.normal, f.offset): f.incident
                    for f in enumerate_facets(vs.vectors)}
            assert mine == qhull_exact_facets(vs.vectors)


class TestDisagreementReports:
    def test_flags_the_classifier(self, chain3, monkeypatch):
        # a chain's polytope is smooth; a report blocking it disagrees twice
        walk = Walk.from_elements(chain3.hat(), (0, 1, 2, 3, 4), "path")
        monkeypatch.setattr(crosscheck, "classify",
                            lambda p: ClassificationReport(p.d, walk))
        assert find_disagreement(chain3) == {
            "q_factorial": (False, True), "smooth": (False, True)}

    def test_flags_an_unconditional_flag(self, chain3, monkeypatch):
        facets_and_flags = geometry.facets_and_flags

        def not_fano(points):
            facets, _, terminal = facets_and_flags(points)
            return facets, False, terminal

        monkeypatch.setattr(crosscheck, "facets_and_flags", not_fano)
        assert find_disagreement(chain3) == {"fano": (True, False)}


class TestOracleReport:
    def test_scans_the_lattice_box_once(self, monkeypatch):
        boxes = []
        lattice_box = geometry._lattice_box

        def counted(points):
            boxes.append(points)
            return lattice_box(points)

        monkeypatch.setattr(geometry, "_lattice_box", counted)
        for d in range(1, 5):
            for p in cached_classes(d):
                del boxes[:]
                vs, facets, flags = oracle_report(p)
                assert len(boxes) == 1
                assert flags["fano"] == box_is_fano(vs.vectors, facets)
                assert flags["terminal"] == box_is_terminal(vs.vectors, facets)

    def test_box_budget_before_facets(self, monkeypatch):
        # d = 17 spans 3^17 box points: refused before any facet work;
        # d = 16 still runs
        from posetfano import Poset, UnsupportedSize

        monkeypatch.setattr(geometry, "enumerate_facets",
                            lambda points: pytest.fail("facets enumerated"))
        with pytest.raises(UnsupportedSize):
            oracle_report(Poset.from_cover_relations(17, [(i, i + 1) for i in range(1, 17)]))
        monkeypatch.undo()
        flags = oracle_report(Poset.from_cover_relations(16, [(i, i + 1) for i in range(1, 16)]))[2]
        assert all(flags.values())


@pytest.mark.slow
@pytest.mark.parametrize("d,classes", [(7, 2045), (8, 16999)])
def test_full_cross_check(d, classes, capsys):
    jobs = min(2, os.cpu_count() or 1)
    assert main(["cross-check", "--d", str(d), "--jobs", str(jobs), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classes"] == classes
    assert out["disagreements"] == []
