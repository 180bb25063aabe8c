"""Finite posets, bounded (hat) posets and Hasse-diagram machinery.

Elements of a poset on d points are the integers 1..d.  The hat-poset
adjoins a bottom element (index 0) and a top element (index d+1); its
Hasse diagram drives everything downstream.  The order is kept as bit
masks: a Poset holds the strict order of 1..d, and HatPoset.above is
the bounded order on 0..d+1, the one table that its order queries, its
edges and the walk search read.  One rule reads the covers off either
table, so the bounds' edges need no case of their own.  A Poset stores
only its upper masks: the lower masks and the covers are derived from
them on each call.  A Walk is a simple path or cycle in that diagram.
"""
from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CycleInInput, NotAnEdge, NotComparable, ParseError

MAX_D = 64
_INTEGER = re.compile("-?[0-9]+")  # a text-format token: ASCII digits only


@lru_cache(maxsize=4096)
def _bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, lowest first; cached, since the
    same few masks recur across calls."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _cover_pairs(above: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) of the strict order whose upper masks are
    ``above``, in lexicographic order: j lies above i and above nothing
    that lies above i."""
    pairs = []
    for i, up in enumerate(above):
        skip = 0
        for j in _bits(up):
            skip |= above[j]
        for j in _bits(up & ~skip):
            pairs.append((i, j))
    return tuple(pairs)


class Poset:
    """Immutable strict order on {1, .., d}.

    ``above[i]`` has bit j set iff y_i < y_j; the masks must be
    transitively closed.  They are the only stored order table: the
    lower masks and the covers are derived from them on each call.
    """

    __slots__ = ("d", "_above", "_key")

    def __init__(self, d: int, above: Sequence[int]):
        if not 1 <= d <= MAX_D:
            raise ValueError(f"d must be in 1..{MAX_D}, got {d}")
        above = tuple(above)
        if len(above) != d + 1 or above[0] != 0:
            raise ValueError("above must have d+1 entries with index 0 unused")
        valid = ((1 << (d + 1)) - 1) & ~1  # bits 1..d
        for i in range(1, d + 1):
            up = above[i]
            if up & ~valid or (up >> i) & 1:
                raise ValueError(f"invalid strict-order mask for element {i}")
            for j in _bits(up):
                if (above[j] >> i) & 1:
                    raise ValueError(f"antisymmetry violated at ({i},{j})")
                if above[j] & ~up:
                    raise ValueError(f"transitivity violated at ({i},{j})")
        self.d = d
        self._above = above
        self._key: bytes | None = None

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j) with y_i < y_j, in lexicographic order."""
        return _cover_pairs(self._above)

    @classmethod
    def from_cover_relations(cls, d: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build the poset whose strict order is the transitive closure of pairs.

        Pairs are read as y_i < y_j; they may be covers or arbitrary
        relations (redundant pairs are absorbed, non-covers demoted).
        Raises CycleInInput if the closure would break irreflexivity.
        """
        if not 1 <= d <= MAX_D:
            raise ValueError(f"d must be in 1..{MAX_D}, got {d}")
        above = [0] * (d + 1)
        for i, j in pairs:
            if not (1 <= i <= d and 1 <= j <= d):
                raise ValueError(f"relation ({i},{j}) out of range 1..{d}")
            above[i] |= 1 << j
        # Warshall's closure: once k is done, above[i] holds every element
        # reachable from i through intermediates among 1..k
        for k in range(1, d + 1):
            bit = 1 << k
            for i in range(1, d + 1):
                if above[i] & bit:
                    above[i] |= above[k]
        for i in range(1, d + 1):
            if (above[i] >> i) & 1:
                raise CycleInInput(f"input relations contain a cycle through y_{i}")
        return cls(d, above)

    # -- basic queries -------------------------------------------------

    def less(self, i: int, j: int) -> bool:
        """True iff y_i < y_j; False unless both are in 1..d."""
        return 1 <= i <= self.d and 1 <= j <= self.d and (self._above[i] >> j) & 1 == 1

    def lower_masks(self) -> tuple[int, ...]:
        """Entry i has bit j set iff y_j < y_i (entry 0 is 0); one pass
        over the upper masks, which are the only stored table."""
        below = [0] * (self.d + 1)
        for i, up in enumerate(self._above):
            for j in _bits(up):
                below[j] |= 1 << i
        return tuple(below)

    @property
    def elements(self) -> range:
        return range(1, self.d + 1)

    @property
    def minimal_elements(self) -> tuple[int, ...]:
        covered = 0
        for up in self._above:
            covered |= up
        return tuple(i for i in self.elements if not (covered >> i) & 1)

    @property
    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in self.elements if self._above[i] == 0)

    # -- derived posets ------------------------------------------------

    def dual(self) -> "Poset":
        """The poset with the order relation reversed."""
        return Poset(self.d, self.lower_masks())

    def hat(self) -> "HatPoset":
        """Adjoin a fresh bottom (0) and top (d+1)."""
        return HatPoset(self)

    def canonical_key(self) -> bytes:
        """Total-order-comparable encoding of the isomorphism class."""
        if self._key is None:
            from .canonical import canonical_key
            self._key = canonical_key(self)
        return self._key

    # -- structure tests -----------------------------------------------

    def is_pure(self) -> bool:
        """True iff all bottom-to-top maximal chains have equal length.

        Equivalent to the distance from the bottom rising by exactly 1
        along every Hasse edge of the bounded poset.
        """
        h = self.hat()
        rank = h.distances[0]
        return all(rank[hi] == rank[lo] + 1 for lo, hi in h.edges)

    def is_disjoint_union_of_chains(self) -> bool:
        """True iff every connected component of the Hasse diagram is a chain."""
        up = [0] * (self.d + 1)
        down = [0] * (self.d + 1)
        for i, j in self.covers:
            up[i] += 1
            down[j] += 1
        return all(up[i] <= 1 and down[i] <= 1 for i in self.elements)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.d == other.d
            and self._above == other._above
        )

    def __hash__(self) -> int:
        return hash((self.d, self._above))

    def __reduce__(self):
        return (Poset, (self.d, self._above))

    def __repr__(self) -> str:
        rel = ", ".join(f"{i}<{j}" for i, j in self.covers)
        return f"Poset(d={self.d}, covers=[{rel}])"


class HatPoset:
    """A poset with adjoined bottom 0 and top d+1, plus its Hasse diagram.

    ``above[x]`` has bit y set iff x < y in the bounded order: the bottom
    lies below every other index, the top above every other index, and
    between them the order is the base order.  Edges are the cover pairs
    (lower, upper) of that order, in lexicographic order; the distance
    table is built whole on first use and only read afterwards, so
    instances are safe to share across workers.
    """

    __slots__ = ("d", "top", "above", "edges", "up", "neighbors", "_dist")

    def __init__(self, base: Poset):
        d = base.d
        self.d = d
        self.top = top = d + 1
        self.above = ((2 << top) - 2,) + tuple(
            m | 1 << top for m in base._above[1:]) + (0,)
        self.edges = edges = _cover_pairs(self.above)
        up: list[list[int]] = [[] for _ in range(d + 2)]
        neighbors: list[list[int]] = [[] for _ in range(d + 2)]
        for lo, hi in edges:
            up[lo].append(hi)
            neighbors[lo].append(hi)
            neighbors[hi].append(lo)
        self.up = tuple(map(tuple, up))  # ascending, as edges are sorted
        self.neighbors = tuple(tuple(sorted(s)) for s in neighbors)
        self._dist: tuple[tuple[int, ...], ...] | None = None

    def less(self, i: int, j: int) -> bool:
        """Strict order of the bounded poset; False unless both are in 0..d+1."""
        return 0 <= i <= self.top and j >= 0 and (self.above[i] >> j) & 1 == 1

    def is_edge(self, i: int, j: int) -> bool:
        """True iff {i, j} is a Hasse edge of the bounded poset."""
        return 0 <= i <= self.top and j in self.neighbors[i]

    @property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """distances[y][z]: length of the shortest saturated chain from y
        up to z; 0 for y == z and -1 unless y <= z.

        Breadth-first search along upward cover edges from every element,
        run once per instance on first use.
        """
        if self._dist is None:
            rows = []
            for y in range(self.d + 2):
                row = [-1] * (self.d + 2)
                row[y] = 0
                queue = deque([y])
                while queue:
                    x = queue.popleft()
                    for w in self.up[x]:
                        if row[w] < 0:
                            row[w] = row[x] + 1
                            queue.append(w)
                rows.append(tuple(row))
            self._dist = tuple(rows)
        return self._dist

    def dist(self, y: int, z: int) -> int:
        """Length of the shortest saturated chain from y up to z.

        Raises NotComparable unless y < z.
        """
        if not self.less(y, z):
            raise NotComparable(f"{y} < {z} does not hold in the bounded poset")
        return self.distances[y][z]

    def maximal_chains(self) -> tuple[tuple[int, ...], ...]:
        """All saturated chains from 0 to d+1, in lexicographic order."""
        chains: list[tuple[int, ...]] = []
        chain = [0]
        branches = [iter(self.up[0])]  # untried covers of each chain element
        while branches:
            y = next(branches[-1], None)
            if y is None:
                branches.pop()
                chain.pop()
            elif y == self.top:
                chains.append((*chain, y))
            else:
                chain.append(y)
                branches.append(iter(self.up[y]))
        return tuple(chains)

    def __repr__(self) -> str:
        return f"HatPoset(d={self.d}, edges={list(self.edges)})"


@dataclass(frozen=True)
class Walk:
    """A simple path or cycle in the bounded Hasse diagram.

    steps[k] is +1 if elements[k] < elements[k+1] and -1 otherwise; for
    cycles the closing step back to the first element is included, so
    len(steps) == len(elements) for cycles and len(elements)-1 for paths.
    """

    elements: tuple[int, ...]
    kind: str  # "path" | "cycle"
    steps: tuple[int, ...]

    @classmethod
    def from_elements(cls, h: HatPoset, elements, kind: str) -> "Walk":
        elements = tuple(elements)
        if kind not in ("path", "cycle"):
            raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
        if len(set(elements)) != len(elements):
            raise ValueError("walk elements must be pairwise distinct")
        if kind == "cycle" and len(elements) < 4:
            # Hasse diagrams are triangle-free, so shorter cycles cannot occur
            raise ValueError("cycles have at least 4 elements")
        if kind == "path" and len(elements) < 2:
            raise ValueError("paths have at least 2 elements")
        steps = []
        for x, y in _step_pairs(elements, kind):
            if not h.is_edge(x, y):
                raise NotAnEdge(f"{{{x},{y}}} is not a Hasse edge")
            steps.append(1 if h.less(x, y) else -1)
        return cls(elements, kind, tuple(steps))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "elements": list(self.elements),
                "steps": list(self.steps)}

    def edge_pairs(self) -> list[tuple[int, int]]:
        return _step_pairs(self.elements, self.kind)


def _step_pairs(elements: tuple[int, ...], kind: str) -> list[tuple[int, int]]:
    """(x, y) for each step; a cycle's last step closes back to its first element."""
    ends = elements[1:] + elements[:1] if kind == "cycle" else elements[1:]
    return list(zip(elements, ends))


# -- file formats -------------------------------------------------------

def poset_to_text(p: Poset) -> str:
    """Serialize as the plain text format: d, then one cover pair per line."""
    lines = [str(p.d)]
    lines.extend(f"{i} {j}" for i, j in p.covers)
    return "\n".join(lines) + "\n"


def poset_from_text(text: str) -> Poset:
    """Parse either the plain text format or the JSON variant.

    Text: first non-comment line is d, each further line "i j" meaning
    y_i < y_j; a number is an optional "-" and ASCII digits.
    JSON: {"d": 3, "relations": [[1, 2]]}.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON poset: {e}") from e
        if not isinstance(obj, dict) or "d" not in obj:
            raise ParseError('JSON poset must be an object with a "d" field')
        d = obj["d"]
        rels = obj.get("relations", [])
        # JSON true and false load as bools, which isinstance counts as ints
        if type(d) is not int:
            raise ParseError('"d" must be an integer')
        if not isinstance(rels, list):
            raise ParseError('"relations" must be a list')
        pairs = []
        for rel in rels:
            if not (isinstance(rel, list) and len(rel) == 2
                    and all(type(v) is int for v in rel)):
                raise ParseError(f"bad relation entry {rel!r}")
            pairs.append((rel[0], rel[1]))
        return _build_checked(d, pairs, "json")
    d = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        values = [int(t) for t in tokens] if all(map(_INTEGER.fullmatch, tokens)) else []
        if d is None:
            if len(values) != 1:
                raise ParseError(f"line {lineno}: expected element count, got {raw!r}")
            d = values[0]
            continue
        if len(values) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        pairs.append((values[0], values[1]))
    if d is None:
        raise ParseError("empty poset file")
    return _build_checked(d, pairs, "file")


def _build_checked(d: int, pairs: list[tuple[int, int]], what: str) -> Poset:
    try:
        return Poset.from_cover_relations(d, pairs)
    except ValueError as e:
        raise ParseError(f"invalid poset {what}: {e}") from e


def load_poset(path) -> Poset:
    # utf-8-sig drops a leading byte-order mark, as some editors write one
    with open(path, "r", encoding="utf-8-sig") as fh:
        return poset_from_text(fh.read())


def save_poset(p: Poset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_text(p))
