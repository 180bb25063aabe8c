"""Combinatorial smoothness classifier for poset polytopes.

A facet of the polytope can contain the edge vectors of a walk in the
Hasse diagram only if the walk is balanced (equally many ascending and
descending steps).  A balanced walk carries a unique nonnegative level
labeling that changes by one per step.  Its gap rule: for any two
elements a and b of the walk, levels[b] - levels[a] is at most the
directed distance from a to b once the bottom and the top of P-hat are
merged into one node (Higashitani 2015), the shorter of a saturated
chain from a up to b and one from a up to the top followed by one from
the bottom up to b.  When every gap fits, a supporting hyperplane
through all of the walk's edge vectors exists, those vectors are
affinely dependent, and the polytope fails to be simplicial.  The
classifier searches all simple cycles (avoiding at least one of the two
adjoined bounds) and all bottom-to-top simple paths for such a walk;
the polytope is smooth exactly when none exists, and smooth and
simplicial coincide for these polytopes.

One depth-first search with an explicit stack finds both: a path is
root 0's step into the top, kept and yielded after the last cycle.  Its
prefix rule: a gap bound concerns two walk elements and a prefix fixes
their levels, so an element joins the walk only if its gaps to every
element already there fit, and a prefix that breaks a bound is
abandoned, since no completion of it passes.  So only subtrees without
a witness are skipped, and witnesses come in the order in which
filtering the unpruned list of cycles and then paths would give them.

A square, a 4-cycle of the Hasse diagram that misses a bound, is
always a blocking walk, so ``hasse_squares`` decides most non-smooth
posets from bit masks without the search.  Hasse diagrams have no
triangles, so a 4-cycle is a diamond x < a < y, x < b < y (levels
0 1 2 1) or a crown x, y < a, b (levels 0 1 0 1), every step a cover.
Either is balanced, and its only gap of 2 is x to y, whose distance is
2: the chain x < a < y has length 2, and a way through the merged
bounds at least 2, since y is not the bottom and x not the top.
The search excludes only the diamond 0, a, top, b, which runs through
both bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence

from .errors import NotConsistent
from .poset import HatPoset, Poset, Walk, _bits, _cover_pairs


def level_labels(walk: Walk) -> dict[int, int]:
    """The unique level labeling: +-1 per step, minimum level 0.

    Exists for every path; for cycles only when the walk is balanced,
    otherwise the levels cannot close up (NotConsistent).
    """
    labels = [0]
    for s in walk.steps[: len(walk.elements) - 1]:
        labels.append(labels[-1] + s)
    if walk.kind == "cycle" and labels[-1] + walk.steps[-1] != labels[0]:
        raise NotConsistent("levels do not close up around an unbalanced cycle")
    low = min(labels)
    return {x: lv - low for x, lv in zip(walk.elements, labels)}


# -- walk search ---------------------------------------------------------

def _gaps_fit(reach, path: list[int], levels: list[int], y: int, level: int) -> bool:
    """True iff y at ``level`` keeps the gap rule (see the module
    docstring) with every element of the walk so far; reach[a][b] is
    the rule's distance from a to b.

    The way through the merged bounds is what lets a hyperplane through
    a cycle vanish on both bounds: x allows the shifts from levels[x] -
    reach[0][x] to levels[x] + reach[x][top], and these ranges meet iff
    every pair fits that way.  Some smooth posets carry a balanced cycle
    that only this way rejects.  A witness path holds both bounds at
    level 0, where that way follows from the chains, so paths take it
    too and it prunes only prefixes that no witness completes.  These
    are the gaps that geometry.witness_hyperplane checks on its plane.
    """
    from_y = reach[y]
    for x, lx in zip(path, levels):
        if not -from_y[x] <= level - lx <= reach[x][y]:
            return False
    return True


def _walks(h: HatPoset, reach: list[list[int]] | None = None) -> Iterator[Walk]:
    """Simple cycles, then bottom-to-top paths, each in search order.

    Depth first, neighbors in increasing order.  A cycle is searched from
    its smallest index over larger indices and kept when its second
    index is below its last, so each cycle appears once; the top, the
    largest index, roots none, since it bars every other element.  A
    path is root 0's step into the top, buffered and yielded after the
    last cycle.  Given ``reach`` (see _gaps_fit), only blocking walks
    come: the prefix rule (module docstring) prunes with it, a walk must
    close at level 0 (be balanced), and root 0 stops at the top, as a
    cycle through both bounds is no witness (other roots never reach 0),
    so the path buffer holds at most the witness paths of root 0's tree.
    """
    top, above = h.top, h.above
    witnesses = reach is not None
    paths = []
    for root in range(top):
        # barred: elements on the walk and those up to the root
        barred = (2 << root) - 1
        path, levels = [root], [0]
        stack = [iter(h.neighbors[root])]
        while stack:
            x, lx = path[-1], levels[-1]
            for y in stack[-1]:
                level = lx + 1 if (above[x] >> y) & 1 else lx - 1
                if (barred >> y) & 1:
                    if (y == root and len(path) >= 4 and path[1] < x
                            and not (witnesses and level)):
                        yield Walk.from_elements(h, path, "cycle")
                    continue
                if witnesses and not _gaps_fit(reach, path, levels, y, level):
                    continue
                if y == top and not root:
                    if not (witnesses and level):
                        paths.append((*path, y))
                    if witnesses:
                        continue
                path.append(y)
                levels.append(level)
                barred |= 1 << y
                stack.append(iter(h.neighbors[y]))
                break
            else:
                stack.pop()
                barred &= ~(1 << path.pop())
                levels.pop()
    for elements in paths:
        yield Walk.from_elements(h, elements, "path")


def enumerate_cycles(h: HatPoset) -> Iterator[Walk]:
    """Every simple cycle of the Hasse graph, once up to rotation and
    reflection.

    Canonical form: the cycle starts at its minimal element and proceeds
    toward the smaller of that element's two cycle neighbors; roots are
    scanned in increasing order, so output order is deterministic.
    """
    return (w for w in _walks(h) if w.kind == "cycle")


def enumerate_paths(h: HatPoset) -> Iterator[Walk]:
    """All simple bottom-to-top paths of the Hasse graph (any step mix)."""
    return (w for w in _walks(h) if w.kind == "path")


def iter_witnesses(h: HatPoset) -> Iterator[Walk]:
    """All walks certifying a non-simplex face, cycles first.

    The order is that of enumerate_cycles and then enumerate_paths,
    filtered to balanced walks (cycles missing a bound) whose level gaps
    fit (_gaps_fit); the search prunes instead of filtering (see _walks).
    """
    dist = h.distances
    # reach[a][b]: the gap rule's distance from a to b (module docstring)
    ups = [row[-1] for row in dist]
    reach = [[c if 0 < c < u + z else u + z for c, z in zip(row, dist[0])]
             for row, u in zip(dist, ups)]
    return _walks(h, reach)


# -- squares ---------------------------------------------------------------

def hasse_squares(above: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """The 4-cycles of the Hasse diagram of P-hat that miss a bound, for
    the poset P whose upper masks are ``above``, as (a, x, b, y) in
    cycle order: a and b are elements of P, x and y their common
    neighbors, a < b and x < y as indices.

    Each is a blocking walk (see the module docstring).  A 4-cycle that
    misses a bound has a diagonal {a, b} inside P: a crown lies in P,
    and a diamond with a bound on one tip has its two middle elements
    in P.  So the test reads only the neighbor masks of P's elements in
    P-hat (bottom 0, top d+1), built from the upper masks, and yields
    every pair of common neighbors of two of them but {0, d+1}, the
    diamond of two isolated points.  A square with both diagonals in P
    comes once per diagonal.  A low square (y below the top) misses
    1-hat, so every extension of P by a new maximal element, which keeps
    P's covers and minimal elements, has it too.
    """
    top = len(above)
    # each element starts next to the bottom, and a maximal one next to the top
    nbrs = [1 | (not up) << top for up in above]
    for i, j in _cover_pairs(above):
        nbrs[i] |= 1 << j
        nbrs[j] = nbrs[j] & ~1 | 1 << i  # j covers i, so the bottom is not j's neighbor
    for a in range(1, top):
        for b in range(a + 1, top):
            common = nbrs[a] & nbrs[b]
            if common & (common - 1):
                shared = _bits(common)
                for k, x in enumerate(shared):
                    for y in shared[k + 1:]:
                        if (x, y) != (0, top):
                            yield a, x, b, y


# -- classification -------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classifying one poset's polytope.

    The report is its witness: the polytope is Q-factorial and smooth
    (the two coincide) exactly when no blocking walk was found.  fano,
    terminal and gorenstein hold unconditionally for these polytopes,
    and every report comes from the walk search.
    """

    d: int
    witness: Optional[Walk] = None

    fano: ClassVar[bool] = True
    terminal: ClassVar[bool] = True
    gorenstein: ClassVar[bool] = True
    method: ClassVar[str] = "combinatorial"

    @property
    def smooth(self) -> bool:
        return self.witness is None

    q_factorial = smooth

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "fano": self.fano,
            "terminal": self.terminal,
            "gorenstein": self.gorenstein,
            "q_factorial": self.q_factorial,
            "smooth": self.smooth,
            "method": self.method,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


def classify(p: Poset) -> ClassificationReport:
    """Decide Q-factoriality/smoothness of the poset's polytope.

    The polytope is smooth iff no blocking walk exists; the first walk
    iter_witnesses yields is the report's witness.  Every report comes
    from that search, so method is always "combinatorial".
    """
    return ClassificationReport(p.d, next(iter_witnesses(p.hat()), None))
