"""The lattice polytope spanned by the Hasse edges of a bounded poset.

Every Hasse edge lo < hi of the bounded poset maps to the integer
vector e_lo - e_hi over 0..d+1 with the two bounds' coordinates
dropped, a column of the network matrix of the Hasse diagram.  The
polytope is the convex hull of these vectors; they are pairwise
distinct and are exactly its vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAMaximalChain, NotAnEdge
from .poset import HatPoset

Vector = tuple[int, ...]


def edge_vector(h: HatPoset, edge: tuple[int, int]) -> Vector:
    """Map a Hasse edge {i, j} with y_i < y_j to its lattice vector.

    e_i - e_j over the indices 0..d+1, without the coordinates of the
    bottom 0 and the top d+1.  The edge may be given in either order;
    raises NotAnEdge if the pair is not an edge of the bounded Hasse
    diagram.
    """
    i, j = edge
    if not h.is_edge(i, j):
        raise NotAnEdge(f"{{{i},{j}}} is not a Hasse edge")
    lo, hi = (i, j) if h.less(i, j) else (j, i)
    coords = [0] * (h.top + 1)
    coords[lo] = 1
    coords[hi] = -1
    return tuple(coords[1:h.top])


@dataclass(frozen=True)
class PolytopeVertexSet:
    """Vertex list of the polytope, one vector per Hasse edge.

    ``vectors[k]`` is produced by ``edges[k]``; edges are sorted
    lexicographically as (lower, upper) so output is reproducible.
    """

    d: int
    vectors: tuple[Vector, ...]
    edges: tuple[tuple[int, int], ...]


def build_vertex_set(h: HatPoset) -> PolytopeVertexSet:
    """Apply edge_vector to every Hasse edge of the bounded poset.

    The vectors are pairwise distinct because each one gives back its
    edge: the +1 coordinate is the lower end (the bottom if there is
    none) and the -1 coordinate the upper end (the top if there is none).
    """
    vectors = tuple(edge_vector(h, e) for e in h.edges)
    return PolytopeVertexSet(h.d, vectors, h.edges)


def maximal_chain_vector_sum(h: HatPoset, chain) -> Vector:
    """Coordinatewise sum of edge vectors along a maximal chain.

    The chain must run from the bottom to the top through cover edges;
    the sum is always the zero vector, which is what makes the origin an
    interior point of the polytope.
    """
    chain = tuple(chain)
    steps = list(zip(chain, chain[1:]))
    if (not steps or chain[0] != 0 or chain[-1] != h.top
            or not set(steps) <= set(h.edges)):
        raise NotAMaximalChain(f"{chain} is not a maximal chain")
    return tuple(map(sum, zip(*(edge_vector(h, step) for step in steps))))
