"""Glue between the combinatorial classifier and the geometric oracle."""
from __future__ import annotations

from .classifier import classify
from .geometry import (
    Facet,
    facets_and_flags,
    is_gorenstein,
    is_simplicial,
    is_smooth_geometric,
)
from .polytope import PolytopeVertexSet, build_vertex_set
from .poset import Poset


def oracle_report(p: Poset) -> tuple[PolytopeVertexSet, list[Facet], dict]:
    """Vertex set, facets, and the five geometric flags of the polytope.

    Raises UnsupportedSize when the vertices' lattice bounding box is
    too large to scan (``geometry.MAX_BOX_POINTS``).
    """
    vs = build_vertex_set(p.hat())
    facets, fano, terminal = facets_and_flags(vs.vectors)
    flags = {
        "fano": fano,
        "terminal": terminal,
        "gorenstein": is_gorenstein(facets),
        "simplicial": is_simplicial(facets),
        "smooth": is_smooth_geometric(vs.vectors, facets),
    }
    return vs, facets, flags


def find_disagreement(p: Poset) -> dict | None:
    """Compare classifier flags against the oracle; None when they agree."""
    report = classify(p)
    _, _, flags = oracle_report(p)
    mismatches = {}
    if report.q_factorial != flags["simplicial"]:
        mismatches["q_factorial"] = (report.q_factorial, flags["simplicial"])
    if report.smooth != flags["smooth"]:
        mismatches["smooth"] = (report.smooth, flags["smooth"])
    for name in ("fano", "terminal", "gorenstein"):
        if not flags[name]:
            mismatches[name] = (True, False)
    return mismatches or None
