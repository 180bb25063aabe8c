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
    counts as 0.
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


# -- walk enumeration ----------------------------------------------------

def enumerate_cycles(h: HatPoset) -> Iterator[Walk]:
    """Every simple cycle of the Hasse graph, once up to rotation and
    reflection.

    Canonical form: the cycle starts at its minimal element and proceeds
    toward the smaller of that element's two cycle neighbors; roots are
    scanned in increasing order, so output order is deterministic.
    """
    n = h.d + 2
    for root in range(n):
        path = [root]
        on_path = {root}

        def extend() -> Iterator[Walk]:
            x = path[-1]
            for y in h.neighbors[x]:
                if y <= root or y in on_path:
                    # only vertices above the root keep each cycle unique
                    if y == root and len(path) >= 4 and path[1] < path[-1]:
                        yield Walk.from_elements(h, path, "cycle")
                    continue
                path.append(y)
                on_path.add(y)
                yield from extend()
                path.pop()
                on_path.remove(y)

        yield from extend()


def enumerate_paths(h: HatPoset) -> Iterator[Walk]:
    """All simple bottom-to-top paths of the Hasse graph (any step mix)."""
    target = h.top
    path = [0]
    on_path = {0}

    def extend() -> Iterator[Walk]:
        x = path[-1]
        for y in h.neighbors[x]:
            if y in on_path:
                continue
            path.append(y)
            on_path.add(y)
            if y == target:
                yield Walk.from_elements(h, path, "path")
            else:
                yield from extend()
            path.pop()
            on_path.remove(y)

    yield from extend()


def enumerate_special_paths(h: HatPoset) -> Iterator[Walk]:
    """Balanced simple bottom-to-top paths."""
    for walk in enumerate_paths(h):
        if is_balanced(walk):
            yield walk


def iter_witnesses(h: HatPoset) -> Iterator[Walk]:
    """All walks certifying a non-simplex face, cycles first."""
    for cycle in enumerate_cycles(h):
        if not is_very_special_cycle(h, cycle):
            continue
        levels = level_labels(cycle)
        if cycle_levels_compatible(h, cycle, levels):
            yield cycle
    for path in enumerate_special_paths(h):
        levels = level_labels(path)
        if path_levels_compatible(h, path, levels):
            yield path


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
    method: str  # "combinatorial" | "geometric" | "pure-shortcut"
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


def classify(p: Poset, *, shortcut: bool = True) -> ClassificationReport:
    """Decide Q-factoriality/smoothness of the poset's polytope.

    The polytope is smooth iff no blocking walk exists.  When the poset
    is pure, smoothness is equivalent to being a disjoint union of
    chains; with shortcut enabled that test answers positively without
    searching (a negative answer still runs the search to produce the
    witness walk).
    """
    h = p.hat()
    if shortcut and p.is_disjoint_union_of_chains() and p.is_pure():
        return ClassificationReport(
            d=p.d, fano=True, terminal=True, gorenstein=True,
            q_factorial=True, smooth=True, method="pure-shortcut",
        )
    witness = next(iter_witnesses(h), None)
    ok = witness is None
    return ClassificationReport(
        d=p.d, fano=True, terminal=True, gorenstein=True,
        q_factorial=ok, smooth=ok, method="combinatorial", witness=witness,
    )
