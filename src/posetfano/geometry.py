"""Exact-arithmetic polytope oracle: facets of a lattice point set and
the Fano / terminal / Gorenstein / simplicial / smooth tests.

Everything runs on arbitrary-precision integers: hyperplane normals come
from fraction-free elimination of difference rows, support tests are
integer dot products, and lattice-point scans cover the integer bounding
box of the input.  Brute force over every affinely independent d-subset
is deliberate; this module is the independent oracle, not the fast
path.  The subset search skips only supersets of an affinely dependent
prefix, which are dependent themselves and span no hyperplane.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from operator import mul

from .classifier import (
    Walk,
    cycle_levels_compatible,
    is_balanced,
    is_very_special_cycle,
    level_labels,
    path_levels_compatible,
)
from .errors import DegenerateInput, NotConsistent, OriginOnHyperplane, WalkNotEligible
from .poset import HatPoset

Vector = tuple[int, ...]


def det_fraction_free(matrix) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class Facet:
    """A supporting hyperplane normal . x = offset of the hull.

    The normal is primitive (gcd of entries 1) and points outward, so
    a . x <= offset holds for every input point; incident lists the
    positions of the input points lying on the hyperplane.  Hulls with
    the origin in their interior have positive offsets.
    """

    normal: Vector
    offset: int
    incident: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.normal)


def _affine_rank(points: list[Vector]) -> int:
    if not points:
        return 0
    base = points[0]
    rows = [[p[c] - base[c] for c in range(len(base))] for p in points[1:]]
    return _row_rank(rows)


def _row_rank(rows: list[list[int]]) -> int:
    rows = [row[:] for row in rows if any(row)]
    cols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f1, f2 = pr[col], rows[r][col]
                rows[r] = [f1 * rows[r][c] - f2 * pr[c] for c in range(cols)]
        rank += 1
        col += 1
    return rank


def _reduce(basis, row: list[int]) -> list[int] | None:
    """``row`` reduced fraction-free against a basis; None if dependent.

    ``basis`` holds (pivot column, row) pairs, each row zero in every
    other pivot column, so the result is zero in all pivot columns.
    Rows are divided by their gcd, so entries stay small.
    """
    for c, r in basis:
        if row[c]:
            a, b = r[c], row[c]
            row = [a * x - b * y for x, y in zip(row, r)]
    if not any(row):
        return None
    g = gcd(*row)
    return [x // g for x in row] if g != 1 else row


def _extend(basis, row: list[int]):
    """The fully reduced basis grown by one row, or None if dependent."""
    row = _reduce(basis, row)
    if row is None:
        return None
    col = next(c for c, x in enumerate(row) if x)
    grown = []
    for c, r in basis:
        if r[col]:
            a, b = row[col], r[col]
            r = [a * x - b * y for x, y in zip(r, row)]
            g = gcd(*r)
            if g != 1:
                r = [x // g for x in r]
        grown.append((c, r))
    grown.append((col, row))
    return tuple(grown)


def _normals(rows: list[list[int]], start: int, basis):
    """Primitive normals of the independent completions of a prefix.

    ``rows`` are the differences of all points from the base point and
    ``basis`` spans the prefix's rows.  Indices increase from ``start``,
    so subsets come out in lexicographic order; a row that depends on
    the prefix is skipped together with every extension of it.
    """
    d = len(rows[0])
    need = d - 1 - len(basis)
    if need > 1:
        for i in range(start, len(rows) - need + 1):
            grown = _extend(basis, rows[i])
            if grown is not None:
                yield from _normals(rows, i + 1, grown)
        return
    if d == 1:  # the base point alone spans the hyperplane x = base
        yield (1,)
        return
    # d - 1 reduced rows leave one free column; with the last row not
    # yet merged in, the normal is the null vector of basis and row.
    pivots = {c for c, _ in basis}
    f1, f2 = (c for c in range(d) if c not in pivots)
    scale = lcm(*(r[c] for c, r in basis))
    for i in range(start, len(rows)):
        row = _reduce(basis, rows[i])
        if row is None:
            continue
        a, b = row[f1], row[f2]
        normal = [0] * d
        normal[f1] = b * scale
        normal[f2] = -a * scale
        for c, r in basis:
            normal[c] = (r[f2] * a - r[f1] * b) * scale // r[c]
        g = gcd(*normal)
        yield tuple(x // g for x in normal)


def enumerate_facets(points) -> list[Facet]:
    """All facets of the convex hull of an integer point set.

    Brute force over every affinely independent d-subset: solve for the
    hyperplane through it and keep it when all points lie weakly on one
    side; normals are normalized to primitive outward form and
    deduplicated.  Raises DegenerateInput if the points do not span,
    and OriginOnHyperplane if a supporting hyperplane passes through
    the origin (such a hull cannot be Fano).

    The d-subsets are searched depth first over index prefixes, the
    first point of a subset serving as the base of its difference rows.
    When a row depends on the rows before it, the prefix is affinely
    dependent, and so is every subset extending it, so the search skips
    that subtree; nothing affinely independent is pruned, so the search
    still meets every hyperplane the full C(n, d) loop meets.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise DegenerateInput("empty point set")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points must share one dimension")
    if _affine_rank(points) != d:
        raise DegenerateInput(f"points do not affinely span dimension {d}")
    found: dict[tuple[Vector, int], Facet] = {}
    seen: set[tuple[Vector, int]] = set()
    for i, base in enumerate(points):
        rows = [[x - b for x, b in zip(p, base)] for p in points]
        for normal in _normals(rows, i + 1, ()):
            offset = sum(map(mul, normal, base))
            key = (normal, offset)
            if key in seen:
                continue
            seen.add(key)
            if (tuple(-a for a in normal), -offset) in seen:
                continue
            below = above = False
            values = []
            for p in points:
                v = sum(map(mul, normal, p))
                values.append(v)
                if v < offset:
                    below = True
                elif v > offset:
                    above = True
                if below and above:
                    break
            if below and above:
                continue
            if above:  # flip outward
                normal = tuple(-a for a in normal)
                offset = -offset
                values = [-v for v in values]
            if offset == 0:
                raise OriginOnHyperplane(
                    f"supporting hyperplane {normal} . x = 0 passes through the origin"
                )
            incident = tuple(k for k, v in enumerate(values) if v == offset)
            found.setdefault((normal, offset), Facet(normal, offset, incident))
    return sorted(found.values(), key=lambda f: (f.normal, f.offset))


def _lattice_box(points: list[Vector]):
    d = len(points[0])
    lows = [min(p[c] for p in points) for c in range(d)]
    highs = [max(p[c] for p in points) for c in range(d)]
    return product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))


def _hull_points(points: list[Vector], facets: list[Facet]):
    """(q, facet values - offsets) for each lattice point q of the hull.

    Scans the integer bounding box.  A box point is rejected at its
    first violated facet, and that facet is tried first on the next
    point: neighbouring box points tend to leave the hull through the
    same facet.  Only points inside the hull get the full value vector.
    """
    planes = [(f.normal, f.offset) for f in facets]
    order = list(planes)
    for q in _lattice_box(points):
        for k, (normal, offset) in enumerate(order):
            if sum(map(mul, normal, q)) > offset:
                if k:
                    order.insert(0, order.pop(k))
                break
        else:
            yield q, [sum(map(mul, normal, q)) - offset for normal, offset in planes]


def is_fano(points, facets: list[Facet] | None = None) -> bool:
    """True iff the origin is the unique interior lattice point.

    The scan runs over the integer bounding box of the points, which
    contains the hull (and equals the {-1,0,1} cube for poset
    polytopes, which sit inside it).
    """
    points = [tuple(p) for p in points]
    if facets is None:
        try:
            facets = enumerate_facets(points)
        except OriginOnHyperplane:
            return False
    if any(f.offset <= 0 for f in facets):
        return False  # origin not strictly interior
    interior = [
        q for q, values in _hull_points(points, facets)
        if all(v < 0 for v in values)
    ]
    return interior == [(0,) * len(points[0])]


def is_terminal(points, facets: list[Facet] | None = None) -> bool:
    """True iff every lattice point of the hull is the origin or a vertex."""
    points = [tuple(p) for p in points]
    if facets is None:
        try:
            facets = enumerate_facets(points)
        except OriginOnHyperplane:
            return False
    origin = (0,) * len(points[0])
    d = len(points[0])
    for q, values in _hull_points(points, facets):
        if q == origin:
            continue
        tight = [f.normal for f, v in zip(facets, values) if v == 0]
        # a point of the hull is a vertex iff its tight normals span
        if _row_rank([list(n) for n in tight]) != d:
            return False
    return True


def is_gorenstein(facets: list[Facet]) -> bool:
    """True iff every primitive facet normal has offset exactly 1."""
    return all(f.offset == 1 for f in facets)


def is_simplicial(facets: list[Facet]) -> bool:
    """True iff every facet has exactly d incident vertices."""
    return all(len(f.incident) == f.d for f in facets)


def is_smooth_geometric(points, facets: list[Facet]) -> bool:
    """Simplicial with every facet's vertex matrix of determinant +-1."""
    if not is_simplicial(facets):
        return False
    points = [tuple(p) for p in points]
    for f in facets:
        matrix = [points[k] for k in f.incident]
        if abs(det_fraction_free(matrix)) != 1:
            return False
    return True


# -- supporting hyperplane from a blocking walk ---------------------------

@dataclass(frozen=True)
class Hyperplane:
    """normal . x = offset with normal integral; offset is always 1 here."""

    normal: Vector
    offset: int


def witness_hyperplane(h: HatPoset, walk: Walk) -> Hyperplane:
    """Supporting hyperplane whose face contains all walk edge vectors.

    Eligible walks are blocking cycles (balanced, missing a bound,
    level gaps within distances) and blocking bottom-to-top paths.  The
    coefficient of each walk element is a fixed integer minus its
    level; the fix point is pinned by the bound elements when present
    and otherwise chosen at the lower end of its feasible range.
    Remaining elements get the largest (or smallest) value that keeps
    every edge inequality valid, clamped toward zero.
    """
    top = h.top
    try:
        levels = level_labels(walk)
    except NotConsistent as e:
        raise WalkNotEligible(str(e)) from e
    if walk.kind == "cycle":
        if not is_very_special_cycle(h, walk):
            raise WalkNotEligible("cycle is unbalanced or joins both bounds")
        if not cycle_levels_compatible(h, walk, levels):
            raise WalkNotEligible("cycle level gaps exceed distances")
        els = set(walk.elements)
        if 0 in els:
            base = levels[0]
        elif top in els:
            base = levels[top]
        else:
            base = max(levels[x] - h.dist(0, x) for x in walk.elements)
    else:
        if walk.elements[0] != 0 or walk.elements[-1] != top:
            raise WalkNotEligible("path must run from the bottom to the top")
        if not is_balanced(walk):
            raise WalkNotEligible("path is not balanced")
        if not path_levels_compatible(h, walk, levels):
            raise WalkNotEligible("path level gaps exceed distances")
        base = levels[0]

    walk_els = set(walk.elements)
    coeff_of = {x: base - levels[x] for x in walk.elements}
    coeffs = [0] * (h.d + 1)
    for x in walk.elements:
        if 1 <= x <= h.d:
            coeffs[x] = coeff_of[x]
    for y in range(1, h.d + 1):
        if y in walk_els:
            continue
        lowers = [x for x in walk.elements if h.less(x, y)]
        uppers = [x for x in walk.elements if h.less(y, x)]
        from_below = max(
            [coeff_of[x] - h.dist(x, y) for x in lowers] + [0]
        )
        from_above = min(
            [coeff_of[x] + h.dist(y, x) for x in uppers] + [0]
        )
        if lowers and uppers:
            # at most one side can be nonzero for an eligible walk
            assert from_below == 0 or from_above == 0
            coeffs[y] = from_below if from_below != 0 else from_above
        elif lowers:
            coeffs[y] = from_below
        elif uppers:
            coeffs[y] = from_above
    return Hyperplane(tuple(coeffs[1:]), 1)
