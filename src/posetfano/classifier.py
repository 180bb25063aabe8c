"""Combinatorial smoothness classifier for poset polytopes.

A facet of the polytope can contain the edge vectors of a walk in the
Hasse diagram only if the walk is balanced (equally many ascending and
descending steps).  A balanced walk carries a unique nonnegative level
labeling that changes by one per step; when every level gap fits within
the corresponding saturated-chain distances, a supporting hyperplane
through all of the walk's edge vectors exists, those vectors are
affinely dependent, and the polytope fails to be simplicial.  The
classifier searches all simple cycles (avoiding at least one of the two
adjoined bounds) and all bottom-to-top simple paths for such a walk;
the polytope is smooth exactly when none exists, and smooth and
simplicial coincide for these polytopes.

The search is one depth-first search with an explicit stack.  Its
prefix rule: each level gap bound concerns two walk elements, and a
walk's prefix fixes the levels on it, so an element joins the walk only
if its gaps to every element already there fit, and a prefix that
breaks a bound is abandoned, since no completion of it passes.  The
rule skips only subtrees that hold no witness and leaves the visiting
order alone, so witnesses come in the order in which filtering the
unpruned list of cycles and then paths would give them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import NotConsistent
from .poset import HatPoset, Poset


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
        pairs = list(zip(elements, elements[1:]))
        if kind == "cycle":
            pairs.append((elements[-1], elements[0]))
        steps = []
        for x, y in pairs:
            if not h.is_edge(x, y):
                raise ValueError(f"{{{x},{y}}} is not a Hasse edge")
            steps.append(1 if h.less(x, y) else -1)
        return cls(elements, kind, tuple(steps))

    def edge_pairs(self) -> list[tuple[int, int]]:
        pairs = list(zip(self.elements, self.elements[1:]))
        if self.kind == "cycle":
            pairs.append((self.elements[-1], self.elements[0]))
        return pairs


def is_balanced(walk: Walk) -> bool:
    """True iff the walk has equally many ascending and descending steps."""
    return sum(walk.steps) == 0


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


def is_very_special_cycle(h: HatPoset, cycle: Walk) -> bool:
    """Balanced cycle not containing both the bottom and the top.

    Cycles through both adjoined bounds never certify a non-simplex
    face, so the search excludes them.
    """
    els = set(cycle.elements)
    return (
        cycle.kind == "cycle"
        and is_balanced(cycle)
        and not (0 in els and h.top in els)
    )


def cycle_levels_compatible(h: HatPoset, cycle: Walk,
                            levels: dict[int, int]) -> bool:
    """Level gaps of the cycle fit within saturated-chain distances.

    Two families of bounds: for comparable cycle elements b < a the gap
    levels[a]-levels[b] may not exceed dist(b, a); for every ordered
    pair the gap may not exceed dist(bottom, a) + dist(b, top), where a
    degenerate distance from the bottom to itself (or top to itself)
    counts as 0.  The second family is what lets a hyperplane through
    the walk vanish on both bounds: each element x allows the shifts
    from levels[x] - dist(bottom, x) to levels[x] + dist(x, top), and
    these ranges meet iff every pair fits.  It is not implied by the
    first: some smooth posets carry a balanced cycle that only it
    rejects.
    """
    top = h.top
    els = cycle.elements
    for a in els:
        d0a = 0 if a == 0 else h.dist(0, a)
        for b in els:
            gap = levels[a] - levels[b]
            if gap <= 0:
                continue
            if h.less(b, a) and gap > h.dist(b, a):
                return False
            db1 = 0 if b == top else h.dist(b, top)
            if gap > d0a + db1:
                return False
    return True


def path_levels_compatible(h: HatPoset, path: Walk,
                           levels: dict[int, int]) -> bool:
    """Level gaps along a bottom-to-top path fit within distances."""
    els = path.elements
    for a in els:
        for b in els:
            gap = levels[a] - levels[b]
            if gap <= 0:
                continue
            if h.less(b, a) and gap > h.dist(b, a):
                return False
    return True


# -- walk search ---------------------------------------------------------

def _gaps_fit(dist, d0, d1, path: list[int], levels: list[int],
              y: int, level: int) -> bool:
    """True iff y at ``level`` fits every level gap to the walk so far.

    A gap levels[a] - levels[b] > 0 may not exceed dist(b, a) when b < a
    (``dist`` is HatPoset.distances) nor d0[a] + d1[b], the distances
    from the bottom to a and from b to the top (for paths the caller
    passes caps that never bind), as in cycle_levels_compatible and
    path_levels_compatible.
    """
    from_y = dist[y]
    for x, lx in zip(path, levels):
        gap = level - lx
        if gap > 0:
            if 0 < dist[x][y] < gap or gap > d0[y] + d1[x]:
                return False
        elif gap < 0 and (0 < from_y[x] < -gap or -gap > d0[x] + d1[y]):
            return False
    return True


def _walks(h: HatPoset, cycle: bool,
           witnesses: bool = False) -> Iterator[tuple[int, ...]]:
    """Element tuples of simple cycles or bottom-to-top paths, in search order.

    Depth first with an explicit stack, neighbors in increasing order.
    A cycle is searched from its smallest index over larger indices and
    kept when its second index is below its last, so each cycle appears
    once; a path runs from 0 to the top.  With ``witnesses``
    only blocking walks are yielded: the prefix rule (see the module
    docstring) prunes, root 0 never steps into the top (a cycle through
    both bounds is no witness; other roots never reach 0), and a walk
    must close at level 0, i.e. be balanced.
    """
    top = h.top
    n = top + 1
    # above[x]: the elements above x in the bounded poset, as a bit mask
    above = ([(1 << n) - 2]
             + [h.base.above_mask(i) | 1 << top for i in range(1, top)] + [0])
    if witnesses:
        dist = h.distances
        if cycle:
            d0, d1 = dist[0], [row[top] for row in dist]
        else:
            d0 = d1 = (n,) * n  # caps that never bind
    for root in range(n) if cycle else (0,):
        # barred: elements on the walk, and for cycles those up to the root
        barred = (2 << root) - 1 if cycle else 1
        if cycle and witnesses and root == 0:
            barred |= 1 << top
        path, levels = [root], [0]
        stack = [iter(h.neighbors[root])]
        while stack:
            x, lx = path[-1], levels[-1]
            for y in stack[-1]:
                level = lx + 1 if (above[x] >> y) & 1 else lx - 1
                if (barred >> y) & 1:
                    if (cycle and y == root and len(path) >= 4 and path[1] < x
                            and not (witnesses and level)):
                        yield tuple(path)
                    continue
                if witnesses and not _gaps_fit(dist, d0, d1, path, levels, y, level):
                    continue
                if y == top and not cycle:
                    if not (witnesses and level):
                        yield (*path, y)
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


def enumerate_cycles(h: HatPoset) -> Iterator[Walk]:
    """Every simple cycle of the Hasse graph, once up to rotation and
    reflection.

    Canonical form: the cycle starts at its minimal element and proceeds
    toward the smaller of that element's two cycle neighbors; roots are
    scanned in increasing order, so output order is deterministic.
    """
    for elements in _walks(h, cycle=True):
        yield Walk.from_elements(h, elements, "cycle")


def enumerate_paths(h: HatPoset) -> Iterator[Walk]:
    """All simple bottom-to-top paths of the Hasse graph (any step mix)."""
    for elements in _walks(h, cycle=False):
        yield Walk.from_elements(h, elements, "path")


def enumerate_special_paths(h: HatPoset) -> Iterator[Walk]:
    """Balanced simple bottom-to-top paths."""
    for walk in enumerate_paths(h):
        if is_balanced(walk):
            yield walk


def iter_witnesses(h: HatPoset) -> Iterator[Walk]:
    """All walks certifying a non-simplex face, cycles first.

    The order is that of enumerate_cycles and then enumerate_paths,
    filtered by is_very_special_cycle or is_balanced and the level-gap
    tests; the search prunes instead of filtering (see _walks).
    """
    for elements in _walks(h, cycle=True, witnesses=True):
        yield Walk.from_elements(h, elements, "cycle")
    for elements in _walks(h, cycle=False, witnesses=True):
        yield Walk.from_elements(h, elements, "path")


# -- classification -------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classifying one poset's polytope.

    fano, terminal and gorenstein hold unconditionally for these
    polytopes; q_factorial and smooth coincide.  witness is present
    exactly when the polytope is not Q-factorial.
    """

    d: int
    fano: bool
    terminal: bool
    gorenstein: bool
    q_factorial: bool
    smooth: bool
    method: str  # always "combinatorial"
    witness: Optional[Walk] = None

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "fano": self.fano,
            "terminal": self.terminal,
            "gorenstein": self.gorenstein,
            "q_factorial": self.q_factorial,
            "smooth": self.smooth,
            "method": self.method,
            "witness": None,
        }
        if self.witness is not None:
            out["witness"] = {
                "kind": self.witness.kind,
                "elements": list(self.witness.elements),
                "steps": list(self.witness.steps),
            }
        return out


def classify(p: Poset) -> ClassificationReport:
    """Decide Q-factoriality/smoothness of the poset's polytope.

    The polytope is smooth iff no blocking walk exists; the first walk
    iter_witnesses yields is the report's witness.  Every report comes
    from that search, so method is always "combinatorial".
    """
    witness = next(iter_witnesses(p.hat()), None)
    ok = witness is None
    return ClassificationReport(
        d=p.d, fano=True, terminal=True, gorenstein=True,
        q_factorial=ok, smooth=ok, method="combinatorial", witness=witness,
    )
