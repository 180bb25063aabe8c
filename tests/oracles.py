"""Independent brute-force oracles used to derive expected test values.

Nothing here shares algorithms with the package: chains are enumerated
from the definitions, isomorphism is tested by raw permutation search,
labeled posets come from exhaustive relation assignment, determinants
from cofactor expansion, ranks from elimination over the rationals,
facets from every d-subset in turn or from the prefix-pruned subset
search the package used before its double description, lattice points
from evaluating every facet at every point of the bounding box or from
the move-to-front box walk the package used before its split scan, hull
vertices from the rank of their tight normals over the rationals (on
the package's facets and scan, each checked against its own reference
here, so only the vertex test is independent), hulls
from qhull's combinatorics with the hyperplanes re-identified in exact
integer arithmetic, order ideals by filtering every subset, witness
walks by a recursive search over every cycle and path that filters
them afterwards (the filters are the whole-walk level-gap predicates
the package kept before its pruned search and its self-checking
witness plane, both of which are what is checked), the duality
quotient by comparing every poset's key with its dual's, the twin skip
by comparing each twin group's membership with its sorted membership,
canonical keys by the search the package used before its first
refinement stopped at the twin partition (refined to the fixpoint), and
the isomorphism classes by the stored levels the package kept before
its canonical-deletion walk, which keep the first child seen per key.
``cached_classes`` alone is no oracle: it is the package's own
``poset_classes``, cached so that the suite walks each level once.
"""
from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import mul

import networkx as nx
import numpy as np
from scipy.spatial import ConvexHull

import posetfano.geometry as geometry
from posetfano.canonical import masks_key
from posetfano.enumeration import _extensions
from posetfano import (
    DegenerateInput,
    Facet,
    HatPoset,
    OriginOnHyperplane,
    Poset,
    Walk,
    enumerate_facets,
    level_labels,
    poset_classes,
)


def saturated_chains(h: HatPoset, y: int, z: int) -> list[tuple[int, ...]]:
    """Every saturated chain y = z_0 < ... < z_s = z, by definition."""
    out: list[tuple[int, ...]] = []

    def walk(x: int, acc: list[int]) -> None:
        if x == z:
            out.append(tuple(acc))
            return
        for w in h.up[x]:
            if w == z or h.less(w, z):
                walk(w, acc + [w])

    walk(y, [y])
    return out


def maximal_chains_by_definition(h: HatPoset) -> set[tuple[int, ...]]:
    """Subsets of the bounded poset that are maximal chains, by filter."""
    n = h.d + 2
    found = set()
    for r in range(2, n + 1):
        for sub in combinations(range(n), r):
            if 0 not in sub or h.top not in sub:
                continue
            chain = sorted(sub, key=lambda x: sum(h.less(y, x) for y in sub))
            total = all(
                h.less(chain[i], chain[j])
                for i in range(len(chain))
                for j in range(i + 1, len(chain))
            )
            if not total:
                continue
            saturated = all(
                not any(h.less(a, w) and h.less(w, b) for w in range(n))
                for a, b in zip(chain, chain[1:])
            )
            if saturated:
                found.add(tuple(chain))
    return found


def relabel(p: Poset, perm) -> Poset:
    """Apply a relabeling; perm[i] is the new label of old element i.

    perm must be a permutation of 1..d presented with a dummy entry
    at index 0 (so len(perm) == d+1).
    """
    d = p.d
    if len(perm) != d + 1 or sorted(perm[1:]) != list(range(1, d + 1)):
        raise ValueError("perm must map 1..d onto 1..d")
    above = [0] * (d + 1)
    for i in range(1, d + 1):
        above[perm[i]] = sum(1 << perm[j] for j in range(1, d + 1) if p.less(i, j))
    return Poset(d, above)


def brute_isomorphic(p: Poset, q: Poset) -> bool:
    if p.d != q.d or len(p.covers) != len(q.covers):
        return False
    for perm in permutations(range(1, p.d + 1)):
        if relabel(p, (0,) + perm) == q:
            return True
    return False


def eager_covers(p: Poset) -> tuple[tuple[int, int], ...]:
    """Cover pairs by the derivation Poset once ran in its constructor.

    i < j is a cover unless j lies above some k with i < k; pairs sorted.
    """
    covers = []
    for i in range(1, p.d + 1):
        up = p._above[i]
        skip = 0
        for j in range(1, p.d + 1):
            if (up >> j) & 1:
                skip |= p._above[j]
        covers.extend((i, j) for j in range(1, p.d + 1) if (up & ~skip) >> j & 1)
    covers.sort()
    return tuple(covers)


def smaller_key_quotient(posets) -> list[Poset]:
    """The posets whose canonical key is not larger than their dual's.

    The representatives the package's duality quotient kept before its
    per-poset rule; the pinned report and facet digests hash these.
    """
    return [p for p in posets if p.canonical_key() <= p.dual().canonical_key()]


def labeled_posets(d: int):
    """All strict orders on labeled points 1..d (exhaustive assignment).

    Each unordered pair independently gets <, > or incomparable; the
    assignment survives iff the result is transitive.
    """
    pairs = list(combinations(range(1, d + 1), 2))
    out = []

    def assign(k: int, rel: list[tuple[int, int]]) -> None:
        if k == len(pairs):
            try:
                q = Poset.from_cover_relations(d, rel)
            except Exception:
                return
            if {(i, j) for i in q.elements for j in q.elements if q.less(i, j)} == set(rel):
                out.append(q)
            return
        i, j = pairs[k]
        assign(k + 1, rel)
        assign(k + 1, rel + [(i, j)])
        assign(k + 1, rel + [(j, i)])

    assign(0, [])
    return out


def cofactor_det(matrix) -> int:
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    sign = 1
    for c in range(n):
        if m[0][c]:
            minor = [row[:c] + row[c + 1:] for row in m[1:]]
            total += sign * m[0][c] * cofactor_det(minor)
        sign = -sign
    return total


def fraction_rank(rows) -> int:
    """Rank over the rationals by Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rk, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for r in range(len(rows)):
            if r != rk and rows[r][c]:
                f = rows[r][c] / rows[rk][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def minor_normal(pts: list[tuple[int, ...]]):
    """Signed (d-1)-minors of the difference rows; None if all vanish."""
    d = len(pts[0])
    rows = [[p[c] - pts[0][c] for c in range(d)] for p in pts[1:]]
    normal = []
    sign = 1
    for i in range(d):
        minor = [row[:i] + row[i + 1:] for row in rows]
        normal.append(sign * (cofactor_det(minor) if minor else 1))
        sign = -sign
    return tuple(normal) if any(normal) else None


def _integer_hyperplane(points: list[tuple[int, ...]]):
    normal = minor_normal(points)
    if normal is None:
        return None
    g = gcd(*normal)
    normal = tuple(a // g for a in normal)
    return normal, sum(a * x for a, x in zip(normal, points[0]))


def brute_facets(points) -> list[Facet]:
    """Facets from the hyperplane through every d-subset, in turn.

    Every C(n, d) subset gets its d signed minors; dependent subsets,
    repeated hyperplanes and non-supporting ones are discarded.  Same
    output and errors as ``enumerate_facets``: primitive outward
    normals sorted by (normal, offset), DegenerateInput when the points
    do not span, OriginOnHyperplane for a supporting plane through 0.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise DegenerateInput("empty point set")
    d = len(points[0])
    if fraction_rank([[x - y for x, y in zip(p, points[0])] for p in points]) != d:
        raise DegenerateInput(f"points do not affinely span dimension {d}")
    found = {}
    for subset in combinations(range(len(points)), d):
        plane = _integer_hyperplane([points[k] for k in subset])
        if plane is None:
            continue
        normal, offset = plane
        values = [sum(a * x for a, x in zip(normal, p)) for p in points]
        if min(values) < offset < max(values) or (normal, offset) in found:
            continue
        if max(values) > offset:  # flip outward
            normal = tuple(-a for a in normal)
            offset = -offset
            values = [-v for v in values]
        if offset == 0:
            raise OriginOnHyperplane(f"supporting hyperplane {normal} . x = 0")
        incident = tuple(k for k, v in enumerate(values) if v == offset)
        found[(normal, offset)] = Facet(normal, offset, incident)
    return sorted(found.values(), key=lambda f: (f.normal, f.offset))


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


def prefix_normals(rows: list[list[int]], start: int, basis):
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
                yield from prefix_normals(rows, i + 1, grown)
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


def subset_facets(points) -> list[Facet]:
    """Facets by the prefix-pruned search over affinely independent d-subsets.

    Depth first over index prefixes, the first point of a subset being
    the base of its difference rows; a dependent prefix is skipped with
    its whole subtree.  Each hyperplane met is kept when it supports.
    Same output and errors as ``enumerate_facets``.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise DegenerateInput("empty point set")
    d = len(points[0])
    if fraction_rank([[x - y for x, y in zip(p, points[0])] for p in points]) != d:
        raise DegenerateInput(f"points do not affinely span dimension {d}")
    found = {}
    for i, base in enumerate(points):
        rows = [[x - b for x, b in zip(p, base)] for p in points]
        for normal in prefix_normals(rows, i + 1, ()):
            offset = sum(a * x for a, x in zip(normal, base))
            if (normal, offset) in found or (tuple(-a for a in normal), -offset) in found:
                continue
            values = [sum(a * x for a, x in zip(normal, p)) for p in points]
            if min(values) < offset < max(values):
                continue
            if max(values) > offset:  # flip outward
                normal = tuple(-a for a in normal)
                offset = -offset
                values = [-v for v in values]
            if offset == 0:
                raise OriginOnHyperplane(f"supporting hyperplane {normal} . x = 0")
            incident = tuple(k for k, v in enumerate(values) if v == offset)
            found[(normal, offset)] = Facet(normal, offset, incident)
    return sorted(found.values(), key=lambda f: (f.normal, f.offset))


def _box_values(points, facets):
    """(q, facet values - offsets) for every integer q in the bounding box."""
    d = len(points[0])
    ranges = [range(min(p[c] for p in points), max(p[c] for p in points) + 1)
              for c in range(d)]
    for q in product(*ranges):
        yield q, [sum(a * x for a, x in zip(f.normal, q)) - f.offset for f in facets]


def box_hull_points(points, facets):
    """(q, facet values - offsets) for each lattice point q of the hull.

    Scans the integer bounding box.  A box point is rejected at its
    first violated facet, and that facet is tried first on the next
    point: neighbouring box points tend to leave the hull through the
    same facet.  Only points inside the hull get the full value vector.
    (The package's scan before the meet-in-the-middle split.)
    """
    d = len(points[0])
    lows = [min(p[c] for p in points) for c in range(d)]
    highs = [max(p[c] for p in points) for c in range(d)]
    planes = [(f.normal, f.offset) for f in facets]
    order = list(planes)
    for q in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        for k, (normal, offset) in enumerate(order):
            if sum(map(mul, normal, q)) > offset:
                if k:
                    order.insert(0, order.pop(k))
                break
        else:
            yield q, [sum(map(mul, normal, q)) - offset for normal, offset in planes]


def box_is_fano(points, facets=None) -> bool:
    """``is_fano`` by evaluating every facet at every box point."""
    points = [tuple(p) for p in points]
    if facets is None:
        try:
            facets = brute_facets(points)
        except OriginOnHyperplane:
            return False
    if any(f.offset <= 0 for f in facets):
        return False
    interior = [q for q, vals in _box_values(points, facets) if all(v < 0 for v in vals)]
    return interior == [(0,) * len(points[0])]


def box_is_terminal(points, facets=None) -> bool:
    """``is_terminal`` by evaluating every facet at every box point."""
    points = [tuple(p) for p in points]
    if facets is None:
        try:
            facets = brute_facets(points)
        except OriginOnHyperplane:
            return False
    d = len(points[0])
    for q, vals in _box_values(points, facets):
        if all(v <= 0 for v in vals) and any(q):
            tight = [f.normal for f, v in zip(facets, vals) if v == 0]
            if fraction_rank(tight) != d:
                return False
    return True


def rank_flags(points) -> tuple[bool, bool]:
    """``fano_and_terminal`` with the vertex test by rank.

    A hull lattice point other than the origin is interior when no
    facet is tight at it and a vertex when its tight normals have rank
    d.  Facets and hull points come from the package
    (``enumerate_facets`` and the split scan), so the errors are
    ``enumerate_facets``'s, and a hull with the origin on its boundary
    is neither Fano nor terminal.
    """
    points = [tuple(p) for p in points]
    try:
        facets = enumerate_facets(points)
    except OriginOnHyperplane:
        return False, False
    d = len(points[0])
    fano = all(f.offset > 0 for f in facets)
    terminal = True
    for q, values in geometry._hull_points(geometry._lattice_box(points), facets):
        if any(q):
            tight = [f.normal for f, v in zip(facets, values) if v == 0]
            fano = fano and bool(tight)
            terminal = terminal and fraction_rank(tight) == d
            if not (fano or terminal):
                break
    return fano, terminal


def qhull_exact_facets(points) -> dict[tuple[tuple[int, ...], int], tuple[int, ...]]:
    """Facets located by qhull, identified exactly over the integers.

    Returns {(outward primitive normal, offset): incident positions}.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    hull = ConvexHull(np.array(pts, dtype=float))
    facets = {}
    for simplex in hull.simplices:
        plane = _integer_hyperplane([pts[k] for k in simplex])
        if plane is None:
            continue
        normal, c = plane
        vals = [sum(a * x for a, x in zip(normal, p)) for p in pts]
        if max(vals) > c:
            normal = tuple(-a for a in normal)
            c = -c
            vals = [-v for v in vals]
        assert max(vals) == c
        facets[(normal, c)] = tuple(k for k, v in enumerate(vals) if v == c)
    return facets


def nx_cycle_count(h: HatPoset) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(h.d + 2))
    g.add_edges_from(h.edges)
    return sum(1 for c in nx.simple_cycles(g) if len(c) >= 3)


def recursive_cycles(h: HatPoset):
    """Element tuples of every simple cycle, in the classifier's order.

    Recursive: roots in increasing order, vertices above the root only,
    neighbors in sorted order, a cycle kept when its second element is
    below its last.
    """
    for root in range(h.d + 2):
        path = [root]

        def extend():
            for y in h.neighbors[path[-1]]:
                if y <= root or y in path:
                    if y == root and len(path) >= 4 and path[1] < path[-1]:
                        yield tuple(path)
                    continue
                path.append(y)
                yield from extend()
                path.pop()

        yield from extend()


def recursive_paths(h: HatPoset):
    """Element tuples of every simple bottom-to-top path, in search order."""
    path = [0]

    def extend():
        for y in h.neighbors[path[-1]]:
            if y in path:
                continue
            path.append(y)
            if y == h.top:
                yield tuple(path)
            else:
                yield from extend()
            path.pop()

    yield from extend()


def is_balanced(walk: Walk) -> bool:
    """True iff the walk has equally many ascending and descending steps."""
    return sum(walk.steps) == 0


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


def enumerate_special_paths(h: HatPoset) -> Iterator[Walk]:
    """Balanced simple bottom-to-top paths."""
    for els in recursive_paths(h):
        walk = Walk.from_elements(h, els, "path")
        if is_balanced(walk):
            yield walk


def reference_witnesses(h: HatPoset) -> list[Walk]:
    """Every witness walk by enumerate-then-filter, cycles first.

    Builds a Walk for every simple cycle and bottom-to-top path and keeps
    those that pass the predicates above (balance, avoiding a bound,
    level gaps within distances).
    """
    out = []
    for els in recursive_cycles(h):
        cycle = Walk.from_elements(h, els, "cycle")
        if is_very_special_cycle(h, cycle) and cycle_levels_compatible(
                h, cycle, level_labels(cycle)):
            out.append(cycle)
    for els in recursive_paths(h):
        path = Walk.from_elements(h, els, "path")
        if is_balanced(path) and path_levels_compatible(h, path, level_labels(path)):
            out.append(path)
    return out


def gap_free_smooth(p: Poset) -> bool:
    """The walk rule without its level-gap conditions.

    Smooth iff the bounded Hasse diagram has no balanced simple cycle
    that misses a bound and no balanced bottom-to-top path.  This rule
    gives the reference smooth counts 1 2 3 6 12 31 83 266 for d = 1..8.
    """
    h = p.hat()
    return not (any(is_very_special_cycle(h, Walk.from_elements(h, els, "cycle"))
                    for els in recursive_cycles(h))
                or any(is_balanced(Walk.from_elements(h, els, "path"))
                       for els in recursive_paths(h)))


def filtered_extensions(p: Poset) -> list[Poset]:
    """Children with a new maximal element, by filtering every subset.

    Subsets D of 1..d in increasing mask order; D is kept when it is an
    order ideal and no maximal element outside D has a larger down-set.
    """
    d = p.d
    out = []
    for r in range(1 << d):
        down = {i for i in p.elements if (r >> (i - 1)) & 1}
        if any(p.less(j, i) and j not in down for i in down for j in p.elements):
            continue
        if any(len([j for j in p.elements if p.less(j, m)]) > len(down)
               for m in p.maximal_elements if m not in down):
            continue
        pairs = [(i, j) for i in p.elements for j in p.elements if p.less(i, j)]
        out.append(Poset.from_cover_relations(d + 1, pairs + [(i, d + 1) for i in down]))
    return out


# poset_classes(d), walked once per test session: the tests that take a
# level as input read it here, and the tests of a call of poset_classes
# (its errors, fresh levels, a patched walk) call it directly
cached_classes = cache(poset_classes)


@cache
def first_seen_classes(d: int) -> tuple[Poset, ...]:
    """One Poset per isomorphism class on d elements, its key set, in
    ``sorted(key)`` order: every ``_extensions`` child of the level
    below is keyed, and the first one seen under each key, in parent
    order, is kept."""
    if d == 1:
        first = {masks_key((0, 0), (0, 0)): (0, 0)}
    else:
        first = {}
        for parent in first_seen_classes(d - 1):
            for above, below in _extensions(parent._above, parent.lower_masks()):
                first.setdefault(masks_key(above, below), above)
    reps = []
    for key in sorted(first):
        p = Poset(d, first[key])
        p._key = key
        reps.append(p)
    return tuple(reps)


def twin_prefix(p: Poset, children: list[Poset]) -> list[Poset]:
    """The children of p whose new element's down-set meets each twin
    group of p (elements with the same down- and up-set) in a prefix of
    the group, taken in index order."""
    groups: dict[tuple[frozenset, frozenset], list[int]] = {}
    for i in p.elements:
        down = frozenset(j for j in p.elements if p.less(j, i))
        up = frozenset(j for j in p.elements if p.less(i, j))
        groups.setdefault((down, up), []).append(i)
    new = p.d + 1

    def takes_prefixes(child: Poset) -> bool:
        taken = [[child.less(i, new) for i in group] for group in groups.values()]
        return all(row == sorted(row, reverse=True) for row in taken)

    return [child for child in children if takes_prefixes(child)]


# -- canonical keys refined to the fixpoint ------------------------------

def _fixpoint_rank(values: list) -> list[int]:
    index = {v: r for r, v in enumerate(sorted(set(values)))}
    return [index[v] for v in values]


def fixpoint_key(p: Poset) -> bytes:
    """canonical_key as computed when the first refinement ran to its
    fixpoint rather than stopping at the twin partition."""
    d = p.d
    masks = [(below >> 1, p._above[i] >> 1)
             for i, below in enumerate(p.lower_masks()) if i]
    downs = [tuple(j for j in range(d) if (below >> j) & 1) for below, _ in masks]
    ups = [tuple(j for j in range(d) if (above >> j) & 1) for _, above in masks]
    first: dict[tuple[int, int], int] = {}
    twin = [first.setdefault(m, i) for i, m in enumerate(masks)]
    init = [(len(downs[i]), len(ups[i])) for i in range(d)]
    best = _fixpoint_search(_fixpoint_refine(_fixpoint_rank(init), downs, ups),
                            downs, ups, twin)
    return bytes([d]) + best.to_bytes((d * d + 7) // 8, "big")


def _fixpoint_search(ranks: list[int], downs: list, ups: list, twin: list[int]) -> int:
    d, n_cells = len(ranks), max(ranks) + 1
    if n_cells < d:
        cells: list[list[int]] = [[] for _ in range(n_cells)]
        for i, r in enumerate(ranks):
            cells[r].append(i)
        for cell in cells:
            if any(twin[i] != twin[cell[0]] for i in cell):
                return min(
                    _fixpoint_search(
                        _fixpoint_refine(_fixpoint_rank(
                            [(r, 1 if i == rep else 2) for i, r in enumerate(ranks)]),
                            downs, ups),
                        downs, ups, twin)
                    for rep in cell if twin[rep] == rep
                )
    order = sorted(range(d), key=ranks.__getitem__)
    column = [0] * d
    for k, i in enumerate(order):
        column[i] = 1 << (d - 1 - k)
    bitstring = 0
    for i in order:
        bitstring = (bitstring << d) | sum(map(column.__getitem__, ups[i]))
    return bitstring


def _fixpoint_refine(ranks: list[int], downs: list, ups: list) -> list[int]:
    n_classes = max(ranks) + 1
    while n_classes < len(ranks):
        ranks = _fixpoint_rank([
            (r,
             tuple(sorted(map(ranks.__getitem__, down))),
             tuple(sorted(map(ranks.__getitem__, up))))
            for r, down, up in zip(ranks, downs, ups)
        ])
        n = max(ranks) + 1
        if n == n_classes:
            break
        n_classes = n
    return ranks
