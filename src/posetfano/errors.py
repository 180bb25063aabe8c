"""Domain errors shared across the package."""


class PosetfanoError(Exception):
    """Base class for all domain errors raised by posetfano."""


class CycleInInput(PosetfanoError):
    """The input relation pairs would make some element less than itself."""


class NotComparable(PosetfanoError):
    """A distance query y < z was made for an incomparable (or equal) pair."""


class NotAnEdge(PosetfanoError, ValueError):
    """The given pair is not an edge of the bounded Hasse diagram."""


class NotAMaximalChain(PosetfanoError):
    """The given index sequence is not a bottom-to-top saturated chain."""


class DegenerateInput(PosetfanoError):
    """A point set does not affinely span the ambient space."""


class OriginOnHyperplane(PosetfanoError):
    """A supporting hyperplane of the hull passes through the origin."""


class NotConsistent(PosetfanoError):
    """Level labels do not close up around an unbalanced cycle."""


class WalkNotEligible(PosetfanoError):
    """The walk does not meet the preconditions of the hyperplane builder."""


class ParseError(PosetfanoError):
    """A poset file or a table CSV could not be parsed."""


class UnsupportedSize(PosetfanoError, ValueError):
    """A size lies outside the range an operation supports."""
