"""Lattice polytopes from finite posets.

Build the polytope spanned by the Hasse-edge vectors of a bounded
poset, decide terminal/Gorenstein/Q-factorial/smooth both by a
combinatorial walk criterion and by exact integer geometry, and
enumerate posets up to isomorphism and duality.
"""
from .classifier import (
    ClassificationReport,
    classify,
    enumerate_cycles,
    iter_witnesses,
    level_labels,
)
from .crosscheck import find_disagreement, oracle_report
from .enumeration import (
    TableRow,
    build_table,
    poset_classes,
    quotient_by_duality,
)
from .errors import (
    CycleInInput,
    DegenerateInput,
    NotAMaximalChain,
    NotAnEdge,
    NotComparable,
    NotConsistent,
    OriginOnHyperplane,
    ParseError,
    PosetfanoError,
    UnsupportedSize,
    WalkNotEligible,
)
from .geometry import (
    Facet,
    Hyperplane,
    det_fraction_free,
    enumerate_facets,
    is_fano,
    is_gorenstein,
    is_simplicial,
    is_smooth_geometric,
    is_terminal,
    witness_hyperplane,
)
from .polytope import (
    PolytopeVertexSet,
    build_vertex_set,
    edge_vector,
    maximal_chain_vector_sum,
)
from .poset import (
    HatPoset,
    Poset,
    Walk,
    load_poset,
    poset_from_text,
    poset_to_text,
    save_poset,
)

__version__ = "0.1.0"
