"""The lattice polytope spanned by the Hasse edges of a bounded poset.

Every Hasse edge of the bounded poset maps to an integer vector: an
edge into the top contributes a unit vector, an edge out of the bottom
a negated unit vector, and an inner edge the difference of two unit
vectors.  The polytope is the convex hull of these vectors; they are
pairwise distinct and are exactly its vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAMaximalChain, NotAnEdge
from .poset import HatPoset

Vector = tuple[int, ...]


def edge_vector(h: HatPoset, edge: tuple[int, int]) -> Vector:
    """Map a Hasse edge {i, j} with y_i < y_j to its lattice vector.

    e_i if j is the top, -e_j if i is the bottom, e_i - e_j otherwise.
    The edge may be given in either order; raises NotAnEdge if the pair
    is not an edge of the bounded Hasse diagram.
    """
    i, j = edge
    if not h.is_edge(i, j):
        raise NotAnEdge(f"{{{i},{j}}} is not a Hasse edge")
    lo, hi = (i, j) if h.less(i, j) else (j, i)
    d = h.d
    coords = [0] * d
    if hi == h.top:
        coords[lo - 1] = 1
    elif lo == 0:
        coords[hi - 1] = -1
    else:
        coords[lo - 1] = 1
        coords[hi - 1] = -1
    return tuple(coords)


@dataclass(frozen=True)
class PolytopeVertexSet:
    """Vertex list of the polytope, one vector per Hasse edge.

    ``vectors[k]`` is produced by ``edges[k]``; edges are sorted
    lexicographically as (lower, upper) so output is reproducible.
    """

    d: int
    vectors: tuple[Vector, ...]
    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.vectors)


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
