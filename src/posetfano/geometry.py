"""Exact-arithmetic polytope oracle: facets of a lattice point set and
the Fano / terminal / Gorenstein / simplicial / smooth tests.

Everything runs on arbitrary-precision integers: facets come from the
double description method (Motzkin et al. 1953; Fukuda and Prodon
1996), seeded by one fraction-free Gauss-Jordan pass, support
tests are integer dot products, and the hull's lattice points come from
a meet-in-the-middle scan of the integer bounding box (at most 3^16
points): each normal's dot product splits into a sum over the first
half of the coordinates and one over the second, and a bit set over the
second half drops the box points each facet cuts off.  A hull point is
a vertex when no other hull lattice point is tight on every facet it
is tight on, a comparison of one bit mask per point, exact for the
hull's own complete facet list (``facets_and_flags``).  The oracle's
independence from the classifier rests on the hull algorithm being
generic: it knows nothing about posets, and the tests check it against
the C(n, d) minors loop (``brute_facets``) and qhull.  Nothing here
imports the classifier: ``witness_hyperplane`` builds a plane from a
walk and checks that plane on every Hasse edge itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, permutations, product
from math import gcd, prod
from operator import mul, not_
from typing import ClassVar

from .errors import (
    DegenerateInput,
    OriginOnHyperplane,
    UnsupportedSize,
    WalkNotEligible,
)
from .poset import HatPoset, Walk, _bits

Vector = tuple[int, ...]


def det_fraction_free(matrix) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    _dimension(m)  # integer entries
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


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _seed_cone(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(seeds, rays): the first n linearly independent rows of length n,
    and for each seed the primitive ray through the others.

    One fraction-free Gauss-Jordan pass (Bareiss 1968) over the rows in
    order that keeps only the row-operation matrix E, so E . row is the
    row eliminated so far.  A row that is zero there off the k rows
    pivoted so far depends on the seeds and is skipped; otherwise it is
    seed k: a row with a nonzero entry swaps into place k, and every
    other row of E becomes pivot * row - entry * E[k], divided exactly
    by the previous pivot.  After n seeds E . S = delta * I for the
    matrix S of seed columns, so row k of E is orthogonal to every seed
    but k and takes delta on it; the sign of -delta makes it outward.
    """
    n = len(rows[0])
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    seeds: list[int] = []
    prev = 1
    for i, row in enumerate(rows):
        k = len(seeds)
        v = [sum(map(mul, r, row)) for r in e]
        p = next((p for p in range(k, n) if v[p]), None)
        if p is None:
            continue
        e[k], e[p] = e[p], e[k]
        v[k], v[p] = v[p], v[k]
        pivot, top = v[k], e[k]
        e = [top if r == k else [(pivot * x - f * y) // prev for x, y in zip(e[r], top)]
             for r, f in enumerate(v)]
        prev = pivot
        seeds.append(i)
        if k + 1 == n:
            sign = -1 if prev > 0 else 1
            return seeds, [_primitive([sign * x for x in ray]) for ray in e]
    raise DegenerateInput(f"points do not affinely span dimension {n - 1}")


def _dimension(points) -> tuple[list[Vector], int]:
    """(points as tuples, dimension); DegenerateInput if none, ValueError if ragged or non-int."""
    points = [tuple(p) for p in points]
    if not points:
        raise DegenerateInput("empty point set")
    d = len(points[0])
    if d == 0 or any(len(p) != d for p in points):
        raise ValueError("points must share one positive dimension")
    bad = [x for p in points for x in p if not isinstance(x, int)]
    if bad:
        raise ValueError(f"coordinates must be integers, got {bad[0]!r}")
    return points, d


def enumerate_facets(points) -> list[Facet]:
    """All facets of the convex hull of an integer point set.

    Double description: the inequalities a . x <= b valid on every
    point form a cone in R^(d+1), pointed when the points affinely
    span, whose extreme rays (a, b) are the facets.  The cone starts
    as the simplicial cone of the first d + 1 affinely independent
    points, one ray through each d of them, both read off the one
    elimination pass that picks them (``_seed_cone``), and takes the
    other points in input order.  A new point drops the rays it
    violates; a violated ray and a satisfied one span a new ray on the
    point's hyperplane when they are adjacent: their common zero set
    (the points tight on both) lies in no other ray's zero set.
    Counting its members first, at least d - 1 for adjacent rays, only
    saves time.  Rays are kept primitive, and a point of the set is
    tight on each, so a ray's first d entries are the primitive outward
    normal and its last the offset.  Raises DegenerateInput if the
    points do not span, and OriginOnHyperplane if a facet passes through
    the origin (such a hull cannot be Fano).
    """
    points, d = _dimension(points)
    # a ray (a, b) satisfies point p iff (p, -1) . (a, b) <= 0
    rows = [list(p) + [-1] for p in points]
    seeds, rays = _seed_cone(rows)
    spanned = sum(1 << i for i in seeds)
    # zero set as a bit mask over the points added so far
    cone = [(ray, spanned & ~(1 << j)) for j, ray in zip(seeds, rays)]
    for i, row in enumerate(rows):
        if spanned >> i & 1:
            continue
        bit = 1 << i
        valued = [(ray, zero, sum(map(mul, row, ray))) for ray, zero in cone]
        cut = [entry for entry in valued if entry[2] > 0]
        zeros = [zero for _, zero in cone]
        cone = []
        for ray, zero, v in valued:
            if v == 0:
                cone.append((ray, zero | bit))
            elif v < 0:
                cone.append((ray, zero))
                for ray_out, zero_out, v_out in cut:
                    common = zero & zero_out
                    if (common.bit_count() >= d - 1
                            and sum(1 for z in zeros if z & common == common) == 2):
                        ray_new = [v_out * x - v * y for x, y in zip(ray, ray_out)]
                        cone.append((_primitive(ray_new), common | bit))
    facets = sorted(
        (Facet(tuple(ray[:d]), ray[d], _bits(zero)) for ray, zero in cone),
        key=lambda f: (f.normal, f.offset))
    for f in facets:
        if f.offset == 0:
            raise OriginOnHyperplane(
                f"supporting hyperplane {f.normal} . x = 0 passes through the origin"
            )
    return facets


MAX_BOX_POINTS = 3 ** 16


def _lattice_box(points: list[Vector]) -> tuple[range, ...]:
    """The integer range of each coordinate over the points.

    Raises UnsupportedSize for a box of more than MAX_BOX_POINTS points
    (the {-1, 0, 1} cube of d = 16), which the lattice scan would take
    too long over.
    """
    box = tuple(range(min(column), max(column) + 1) for column in zip(*points))
    size = prod(map(len, box))
    if size > MAX_BOX_POINTS:
        raise UnsupportedSize(
            f"the lattice scan supports bounding boxes of at most 3^16 points, got {size}")
    return box


def _sums(normal: Vector, box: tuple[range, ...]) -> list[int]:
    """normal . q for each q of the product of the ranges, in product order."""
    sums = [0]
    for a, r in zip(normal, box):
        sums = [s + a * x for s in sums for x in r]
    return sums


HALF_TABLES = 2048  # tables each half cache keeps; see _hull_points


@lru_cache(maxsize=HALF_TABLES)
def _head_sums(normal: Vector, box: tuple[range, ...]) -> tuple[int, ...]:
    """The head sums A: ``_sums`` as a tuple, built once per key."""
    return tuple(_sums(normal, box))


@lru_cache(maxsize=HALF_TABLES)
def _tail_cuts(normal: Vector, box: tuple[range, ...]) -> tuple:
    """(sums, low, span, fits) of a tail half, built once per key.

    ``sums`` are the tail sums B, low = min B and span = max B - low;
    fits[t - low] for low <= t < low + span is the bit set of the tails
    w with B[w] <= t.
    """
    sums = _sums(normal, box)
    low, high = min(sums), max(sums)
    equal = [0] * (high - low)
    for w, s in enumerate(sums):
        if s < high:
            equal[s - low] |= 1 << w
    # runs of one mask share one int, so fits costs a pointer per value of t
    fits, mask = [], 0
    for bits in equal:
        if bits:
            mask |= bits
        fits.append(mask)
    return tuple(sums), low, high - low, tuple(fits)


def _hull_points(box: tuple[range, ...], facets: list[Facet]):
    """(q, facet values - offsets) for each lattice point q of the hull.

    Meets in the middle of the integer bounding box ``box``.  A box
    point q is a head u (its first d // 2 coordinates) followed by a
    tail w, and a . q = A[u] + B[w], where the head sums A and the tail
    sums B come from ``_head_sums`` and ``_tail_cuts``.  The tails of
    one head point are the bits of an integer, all set to begin with; a
    facet with t = offset - A[u] keeps only the bits of fits[t], the
    tails with B[w] <= t (none when t < min B, all when t >= max B).  A
    head point is done when no bit is left, and the bits left after the
    last facet are its hull points.  Points come in product order.

    The half tables are built once per process and kept, keyed by (half
    normal, half box): poset polytopes share the {-1, 0, 1}^d box, and
    their facet normals, integer potentials of a network matrix, repeat
    from class to class.  Each cache keeps the HALF_TABLES tables used
    last.  Every duality class with d <= 8 together needs 1439 head and
    832 tail tables, 2.5 MB (tracemalloc).  At the MAX_BOX_POINTS
    budget, the {-1, 0, 1}^16 cube with 3^8-point halves, a head table
    of a d = 16 poset polytope's normal takes 72 KB and a tail table
    96 KB, so full caches retain about 340 MB.
    """
    h = len(box) // 2
    head_box, tail_box = box[:h], box[h:]
    heads = list(product(*head_box))
    tails = list(product(*tail_box))
    planes, values = [], []
    for f in facets:
        a = _head_sums(f.normal[:h], head_box)
        sums, low, span, fits = _tail_cuts(f.normal[h:], tail_box)
        # a plane's fits index for head point i is offset - low - A[i]
        planes.append((a, f.offset - low, span, fits))
        values.append((a, sums, f.offset))
    every_tail = (1 << len(tails)) - 1
    for i, u in enumerate(heads):
        alive = every_tail
        for a, reach, span, fits in planes:
            k = reach - a[i]
            if k < 0:
                alive = 0
                break
            if k < span:
                alive &= fits[k]
                if not alive:
                    break
        while alive:
            bit = alive & -alive
            alive ^= bit
            w = bit.bit_length() - 1
            yield u + tails[w], [a[i] + b[w] - offset for a, b, offset in values]


def facets_and_flags(points) -> tuple[list[Facet], bool, bool]:
    """(facets, is_fano, is_terminal) of the hull of the points.

    The points are read first, then the box budget: UnsupportedSize for
    a box of more than MAX_BOX_POINTS points, before any facet or scan work.
    Then ``enumerate_facets`` (with its DegenerateInput and
    OriginOnHyperplane), then one scan of the hull's lattice points.
    Fano needs every offset positive (the origin strictly inside) and
    no other lattice point in the interior, where no facet is tight;
    terminal needs every lattice point but the origin to be a vertex.

    Each hull lattice point q gets the bit mask of the facets tight at
    q.  A point other than the origin with mask 0 is interior, so the
    hull is neither Fano nor terminal and the scan stops.  Otherwise q
    is a vertex iff no other hull lattice point's mask contains q's:

    - If q is a vertex, {q} is the intersection of the facets through q
      (every face of a polytope is the intersection of the facets that
      contain it, and the list is complete), so no other point of the
      hull is tight on all of them.
    - If q is no vertex, its smallest face F has dimension at least 1
      and is the intersection of the facets through q.  F's vertices
      are vertices of the hull, hence input points and lattice points,
      and one of them, q' != q, is tight on every facet through q.

    The origin, when in the hull, is interior (enumerate_facets refuses
    a facet through it), and its mask 0 contains no other point's, so
    it is left out of the comparison.
    """
    points = _dimension(points)[0]
    box = _lattice_box(points)
    facets = enumerate_facets(points)
    origin = (0,) * len(box)
    bits = [1 << k for k in range(len(facets))]
    masks = []
    for q, values in _hull_points(box, facets):
        if q != origin:
            mask = sum(compress(bits, map(not_, values)))
            if not mask:
                return facets, False, False
            masks.append(mask)
    fano = all(f.offset > 0 for f in facets)
    terminal = all(m & o != m for m, o in permutations(masks, 2))
    return facets, fano, terminal


def fano_and_terminal(points) -> tuple[bool, bool]:
    """(is_fano, is_terminal) from ``facets_and_flags``; a hull with
    the origin on its boundary is neither.

    Raises UnsupportedSize for a box of more than MAX_BOX_POINTS points
    and DegenerateInput for no points or points that do not span.
    """
    try:
        return facets_and_flags(points)[1:]
    except OriginOnHyperplane:
        return False, False


def is_fano(points) -> bool:
    """True iff the origin is the unique interior lattice point."""
    return fano_and_terminal(points)[0]


def is_terminal(points) -> bool:
    """True iff every lattice point of the hull is the origin or a vertex."""
    return fano_and_terminal(points)[1]


def is_gorenstein(facets: list[Facet]) -> bool:
    """True iff every primitive facet normal has offset exactly 1."""
    return all(f.offset == 1 for f in facets)


def is_simplicial(facets: list[Facet]) -> bool:
    """True iff every facet has exactly d incident vertices."""
    return all(len(f.incident) == len(f.normal) for f in facets)


def is_smooth_geometric(points, facets: list[Facet]) -> bool:
    """Simplicial with every facet's vertex matrix of determinant +-1.

    Raises DegenerateInput for no points and ValueError for a non-integer
    coordinate or a facet incident index outside the points.
    """
    points = _dimension(points)[0]
    if not is_simplicial(facets):
        return False
    for f in facets:
        if not all(0 <= k < len(points) for k in f.incident):
            raise ValueError(f"facet incident indices must lie in range({len(points)})")
        matrix = [points[k] for k in f.incident]
        if abs(det_fraction_free(matrix)) != 1:
            return False
    return True


# -- supporting hyperplane from a blocking walk ---------------------------

@dataclass(frozen=True)
class Hyperplane:
    """normal . x = 1 with normal integral."""

    normal: Vector

    offset: ClassVar[int] = 1


def witness_hyperplane(h: HatPoset, walk: Walk) -> Hyperplane:
    """Supporting hyperplane whose face contains all walk edge vectors.

    Eligible walks are balanced cycles missing a bound and balanced
    bottom-to-top paths whose level gaps fit within distances.  The
    coefficient a[x] of each walk element is a fixed base minus its
    level (a prefix sum of the steps); the base is max(level[x] - D(x))
    over the walk, the lower end of its feasible range, with D(x) =
    dist(0, x) and D = 0 on both bounds.  A bound on an eligible walk
    pins the base, since its gaps fit and make its term the maximum.
    Every other element gets the largest (or smallest) value that keeps
    the edge inequalities to walk elements valid, clamped toward zero,
    and both bounds get 0.

    The plane a . x = 1 supports the polytope iff a[lo] - a[hi] <= 1 on
    every Hasse edge (Higashitani 2015, the edge vectors form a network
    matrix), and its face holds the walk iff equality holds on every
    walk edge.  Both are checked on the plane itself, so a walk whose
    level gaps exceed the distances raises WalkNotEligible there, and so
    does an unbalanced walk.  Each step between inner walk elements but a
    cycle's closing one is tight by construction, and a tight step at a
    bound pins the base to that bound's level; so an unbalanced cycle
    fails at its closing step or a bound on it, and an unbalanced path
    at a bound, as its bounds sit at the levels 0 and sum(steps).
    """
    top = h.top
    els = walk.elements
    if walk.kind == "path" and (els[0] != 0 or els[-1] != top):
        raise WalkNotEligible("path must run from the bottom to the top")
    if walk.kind == "cycle" and 0 in els and top in els:
        raise WalkNotEligible("cycle joins both bounds")

    levels = dict(zip(els, accumulate(walk.steps, initial=0)))
    rank = h.distances[0]
    base = max(lv - (rank[x] if 0 < x < top else 0) for x, lv in levels.items())
    a = [0] * (top + 1)
    for x in els:
        if 0 < x < top:
            a[x] = base - levels[x]
    for y in range(1, top):
        if y in levels:
            continue
        from_below = max([a[x] - h.dist(x, y) for x in els if h.less(x, y)] + [0])
        from_above = min([a[x] + h.dist(y, x) for x in els if h.less(y, x)] + [0])
        a[y] = from_below if from_below else from_above

    # a walk step s from x to y is tight iff a[x] - a[y] == s
    if (any(a[lo] - a[hi] > 1 for lo, hi in h.edges)
            or any(a[x] - a[y] != s for (x, y), s in zip(walk.edge_pairs(), walk.steps))):
        raise WalkNotEligible(f"{walk.kind} level gaps exceed distances or do not sum to 0")
    return Hyperplane(tuple(a[1:top]))
