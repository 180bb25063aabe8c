"""Isomorph-free poset generation and the classification table.

Posets on d elements are generated by extending posets on d-1 elements
with one new maximal element above an order ideal of the parent, grown
over a linear extension: an element joins an ideal that holds its
down-set and its twin before it (twins have the same down- and up-set;
index order).  A child is kept if no other maximal element has a
larger down-set.  Children are bit masks: the child's upper masks, and
its lower masks, which are the parent's plus the new element's ideal.
Keys are canonical and read the masks directly.  ``_keeps`` is the one
rule that decides which member of a {class, dual class} pair is kept; a
kept class's polytope is classified for smoothness, which the dual's
negated polytope shares.

Every class is one node of a depth-first canonical-deletion tree
(McKay, "Isomorph-free exhaustive generation", 1998).  The root is the
one-element poset, and a node's children are its extensions c = P + m
in which m is a canonical element of c (``_deletion``): one of the
maximal elements with the largest down-set (a twin of m counts as m)
whose ``_invariant`` sorts highest and, among those, whose deletion has
the smallest key.  These elements are defined up to isomorphism, so by
induction on d every class on d elements is one node: its canonical
deletions leave one class, which is one node P, whose extensions reach
every orbit of twin swaps of ideals.  From P it comes twice only if an
isomorphism of two children maps m to m or a twin, an automorphism of P
beyond twin swaps, or to a rival whose deletion has P's key; only then
does ``_accepted`` compare keys.  The rule reads only P's masks and
key, so P may be any member of its class.  At the tree's top the size
rule of ``_keeps`` drops the children that do not stand for their pair
class before ``_deletion``.  A node's key is computed only when a
child's deletion meets tied rivals, the node's pair decision is a size
tie, its siblings are compared or its caller asks, and is kept in the
node.

``poset_classes(d)`` is the nodes of size d in the tree whose top is
d + 1, so that every class is a node, and ``pair_representatives(d)``
those in the tree whose top is d; each node becomes a Poset with its
key set, in ``sorted(key)`` order, and equal mask values share one int
object.  Each call walks afresh, and the level lives as long as its
caller holds it.  ``build_table`` builds no level: it counts every row
in one walk.  Below the top a row counts the nodes ``_keeps`` keeps.  A
square (a 4-cycle of the bounded Hasse diagram that misses a bound, a
blocking walk: ``classifier.hasse_squares``) that misses 1-hat is every
descendant's, so they skip the test.  Only square-free pair classes
become Posets and reach the walk search.  The parent walks sizes up to
k = d_max - 3 and a process pool the subtrees below the nodes of size
k, each returning its pair counts and square-free masks per size; the
same pool classifies.  The pool stack (``concurrent.futures`` and
``multiprocessing``) loads with the first pool ``worker_pool`` builds,
so a process that builds none never imports it.
"""
from __future__ import annotations

import csv
import os
from contextlib import nullcontext, suppress
from functools import cache
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Callable, ContextManager, Iterable, Iterator, Sequence

from .canonical import masks_key, twin_discrete
from .classifier import classify, hasse_squares
from .errors import ParseError, UnsupportedSize
from .poset import _INTEGER, Poset, _bits

if TYPE_CHECKING:
    from concurrent.futures import Executor


@dataclass(frozen=True)
class TableRow:
    d: int
    posets: int  # classes up to isomorphism and duality
    smooth: int


def _extensions(above: Sequence[int], below: tuple[int, ...]
                ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Upper and lower masks of the poset p with these masks and a new
    maximal element added.

    The new element (index d+1) lies above an order ideal D of p and
    below nothing.  The ideals are grown over a linear extension of p,
    elements sorted stably by down-set size: x joins an ideal that
    holds x's down-set and the twin before x in index order (twins have
    the same down- and up-set).  Permuting twins is an automorphism of
    p, so the ideals skipped give repeats.  A child is kept only if |D|
    is at least the down-set size of every maximum of p outside D.
    Every class on d+1 elements arises this way from some class on d
    elements: delete a maximal element with the largest down-set, and
    extend what is left by that element's down-set.  Children come in
    increasing mask order of D.
    """
    elements = range(1, len(above))
    ideals = [0]
    latest: dict[tuple[int, int], int] = {}  # bit of the latest element with these masks
    for x in sorted(elements, key=lambda i: below[i].bit_count()):
        masks = (below[x], above[x])
        needed = below[x] | latest.get(masks, 0)
        latest[masks] = 1 << x
        ideals += [down | 1 << x for down in ideals if down & needed == needed]
    maxima = [(1 << m, below[m].bit_count()) for m in elements if not above[m]]
    new_bit = 1 << len(above)
    for down in sorted(ideals):
        size = down.bit_count()
        if any(size < s for bit, s in maxima if not down & bit):
            continue  # another maximal element has a larger down-set
        new_above = [*above, 0]
        for x in _bits(down):
            new_above[x] |= new_bit
        yield tuple(new_above), below + (down,)


def _deleted(masks: Sequence[int], x: int) -> tuple[int, ...]:
    """The masks with element x removed and the elements above it renumbered."""
    low = (1 << x) - 1
    return tuple(m & low | m >> (x + 1) << x for i, m in enumerate(masks) if i != x)


def _invariant(above: Sequence[int], below: Sequence[int], x: int) -> list[tuple[int, int]]:
    """The sorted (down-set size, up-set size) pairs of the elements below x."""
    return sorted((below[y].bit_count(), above[y].bit_count()) for y in _bits(below[x]))


def _key(node: list) -> bytes:
    """The canonical key of a deletion-tree node [key, or None until one
    is needed, upper masks, lower masks], computed on first use and kept."""
    if node[0] is None:
        node[0] = masks_key(node[1], node[2])
    return node[0]


def _deletion(above: Sequence[int], below: Sequence[int], parent: list,
              own: list[tuple[int, int]]) -> str | None:
    """How the child with these masks is accepted from the parent node as
    the canonical deletion of its last element m, whose ``_invariant``
    is ``own``; None if another deletion is canonical.

    The rivals of m are the other maximal elements with m's down-set
    size but not m's down-set (a twin of m counts as m).  m wins with no
    rival ("unique"), or if its invariant sorts above every rival's
    ("invariant"); it loses to a rival whose invariant sorts above its
    own, and against the tied rivals x it needs ``masks_key(c - x) >=
    key``, the parent's key, computed only here.  It is "tied" if some
    such key equals the parent's, since then another deletion gives the
    same parent and the class may come twice.
    """
    m = len(above) - 1
    down = below[m]
    size = down.bit_count()
    rivals = [x for x in range(1, m)
              if not above[x] and below[x] != down and below[x].bit_count() == size]
    if not rivals:
        return "unique"
    tied = []
    for x in rivals:
        invariant = _invariant(above, below, x)
        if invariant > own:
            return None
        if invariant == own:
            tied.append(x)
    if not tied:
        return "invariant"
    path = "keys"
    for x in tied:
        deleted = masks_key(_deleted(above, x), _deleted(below, x))
        if deleted < _key(parent):
            return None
        if deleted == _key(parent):
            path = "tied"
    return path


def _accepted(parent: list, top: bool) -> Iterator[tuple[list, str]]:
    """The children of the parent node: its extensions whose new element
    m is canonical (``_deletion``), one per class, each with its path:
    ``_deletion``'s, then " pair" if the pair rule needed keys and
    " dedup" if the child's key was compared with those of the parent's
    earlier children.  At the ``top`` only the children that stand for
    their pair class (``_keeps``) are kept, and the size rule drops the
    others before ``_deletion``.

    Isomorphic children give m the same ``_invariant``, so a child is
    compared only with the earlier ones that share it, and only if it
    is "tied" or the parent's refinement is not ``twin_discrete``.
    """
    m = len(parent[1])  # the new element
    twins_only = cache(lambda: twin_discrete(parent[1], parent[2]))  # asked once, if ever
    earlier: dict[tuple, list[list]] = {}  # m's invariant -> children yielded
    for above, below in _extensions(parent[1], parent[2]):
        order = _size_order(above, below) if top else -1
        if order > 0:
            continue
        own = _invariant(above, below, m)
        if (path := _deletion(above, below, parent, own)) is None:
            continue
        child = [None, above, below]
        if order == 0:
            if not _keeps(child):
                continue
            path += " pair"
        same = earlier.setdefault(tuple(own), [])
        if same and (path.startswith("tied") or not twins_only()):
            if any(_key(entry) == _key(child) for entry in same):
                continue
            path += " dedup"
        same.append(child)
        yield child, path


def _walk(parent: list, low: bool, stop: int, d_max: int
          ) -> Iterator[tuple[list, bool, bool]]:
    """The nodes below the parent node with at most ``stop`` elements,
    depth first, in a tree whose top is ``d_max``, each as (node, low
    square flag, square-free flag).  ``low`` is the parent's low square
    flag: a low square is every descendant's, which then skips the
    square test (``hasse_squares``); with ``low`` set none is run."""
    if len(parent[1]) > stop:  # the children have len(parent[1]) elements
        return
    for child, _ in _accepted(parent, len(parent[1]) == d_max):
        tops = [] if low else [y for *_, y in hasse_squares(child[1])]
        child_low = low or any(y < len(child[1]) for y in tops)
        yield child, child_low, not low and not tops
        yield from _walk(child, child_low, stop, d_max)


def _tally(walked: Iterable[tuple[list, bool, bool]], d_max: int) -> dict[int, list]:
    """Size -> [number of pair classes, upper masks of the square-free
    ones] over the walked nodes of a tree whose top is ``d_max``, where
    ``_accepted`` kept only pair classes."""
    rows: dict[int, list] = {}
    for node, _, free in walked:
        if len(node[1]) - 1 == d_max or _keeps(node):
            row = rows.setdefault(len(node[1]) - 1, [0, []])
            row[0] += 1
            if free:
                row[1].append(node[1])
    return rows


def _subtree(job: tuple[list, bool, int]) -> dict[int, list]:
    """``_tally`` of the subtree below a node, given with its low square
    flag and the tree's top."""
    node, low, d_max = job
    return _tally(_walk(node, low, d_max, d_max), d_max)


CENSUS_MAX_D = 9  # the largest poset size the census enumerates


def _classes(d: int, top: int) -> tuple[Poset, ...]:
    """A Poset, with its key set, for each node of size d in the tree
    whose top is ``top``, in ``sorted(key)`` order; equal mask values
    share one int object.  A node walked twice gives two members."""
    if not 1 <= d <= CENSUS_MAX_D:
        raise UnsupportedSize(
            f"enumeration supports 1 <= d <= {CENSUS_MAX_D}, got {d}")
    root = [None, (0, 0), (0, 0)]  # the one-element poset, self-dual
    walked = _walk(root, True, d, top) if d > 1 else [(root,)]
    masks: dict[int, int] = {}
    reps = []
    for key, above in sorted((_key(node), tuple(map(masks.setdefault, node[1], node[1])))
                             for node, *_ in walked if len(node[1]) == d + 1):
        p = Poset(d, above)
        p._key = key
        reps.append(p)
    return tuple(reps)


def poset_classes(d: int) -> tuple[Poset, ...]:
    """One representative per isomorphism class, in ``sorted(key)``
    order: the nodes of size d in the tree whose top is d + 1."""
    return _classes(d, d + 1)


def pair_representatives(d: int) -> tuple[Poset, ...]:
    """``quotient_by_duality(poset_classes(d))``: the nodes of size d in
    the tree whose top is d.  A class is one node in both trees, so the
    members agree."""
    return _classes(d, d)


def _size_order(above: Sequence[int], below: Sequence[int]) -> int:
    """-1, 0 or 1 as the sorted (down-set size, up-set size) pairs of the
    poset with these masks sort below, equal to or above the swapped
    pairs, which are its dual's.  A pair (a, b) is read as a * n + b,
    with n above every size, and index 0 adds (0, 0) to both lists."""
    n, own, swapped = len(above), [], []
    for down, up in zip(below, above):
        a, b = down.bit_count(), up.bit_count()
        own.append(a * n + b)
        swapped.append(b * n + a)
    own.sort()
    swapped.sort()
    return (own > swapped) - (own < swapped)


def _keeps(node: list) -> bool:
    """Whether the deletion-tree node stands for its {class, dual class}
    pair.

    Duality swaps each element's (down-set size, up-set size) pair, so
    the dual's sorted pairs are the swapped ones (``_size_order``).  The
    node is kept if its sorted pairs sort strictly below the swapped
    ones, and dropped before any key is computed if they sort strictly
    above; on a tie it is kept iff its key (``_key``) is not larger than
    the dual's, which is computed from the swapped masks only then.
    """
    order = _size_order(node[1], node[2])
    return order < 0 or (order == 0 and _key(node) <= masks_key(node[2], node[1]))


def quotient_by_duality(posets: Sequence[Poset]) -> list[Poset]:
    """One poset per {class, dual class} pair, each decided on its own by ``_keeps``."""
    return [p for p in posets if _keeps([p.canonical_key(), p._above, p.lower_masks()])]


def _smooth_flag(p: Poset) -> bool:
    """classify(p).smooth, a bool rather than a report to send back from a worker."""
    return classify(p).smooth


def worker_pool(jobs: int) -> ContextManager[Executor | None]:
    """A pool of ``jobs`` worker processes, at most one per CPU this
    process may run on (a pool starts them all on its first task), or a
    context giving None if that leaves at most one worker.  The pool
    stack is imported here, with the first pool, not with this module."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus)
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers)


def pool_map(fn: Callable, items: Sequence, pool: Executor | None = None) -> Iterator:
    """fn(x) for x in items, yielded in input order as the results arrive.

    Runs over the pool's workers unless pool is None, and then needs no
    pool stack.  A pool is handed every chunk at once and keeps each
    finished result until it is read; the results must be read before
    the pool shuts down.
    """
    if pool is None or len(items) < 2:
        return map(fn, items)
    # _max_workers: ProcessPoolExecutor keeps no public worker count
    chunk = max(1, len(items) // (4 * pool._max_workers))
    return pool.map(fn, items, chunksize=chunk)


def count_smooth(posets: Sequence[Poset], *, pool: Executor | None = None) -> int:
    """Number of posets whose polytope is smooth; parallel over pool if given."""
    return sum(pool_map(_smooth_flag, posets, pool))


def build_table(
    d_max: int,
    jobs: int = 1,
    out: str | None = None,
    resume: bool = False,
    log: Callable[[str], None] | None = None,
) -> list[TableRow]:
    """Poset and smooth counts for every d up to d_max.

    With ``resume``, the rows ``read_table`` accepts from ``out`` are
    returned if they reach d_max, and the file is left as it was.
    Otherwise the walk counts every row: with ``out`` set, the CSV file
    is first replaced, all or nothing, by the header, and each row is
    appended as it finishes, the rows past d_max - 3 once the pool has
    walked their subtrees.
    """
    if not 1 <= d_max <= CENSUS_MAX_D:
        raise UnsupportedSize(
            f"table supports 1 <= max d <= {CENSUS_MAX_D}, got {d_max}")
    if out and resume and os.path.exists(out) and len(rows := read_table(out)) >= d_max:
        return rows[:d_max]
    if out:
        try:
            with open(out + ".tmp", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerow(_HEADER)
            os.replace(out + ".tmp", out)
        finally:  # the file is still there only if the write or replace failed
            with suppress(OSError):
                os.remove(out + ".tmp")
    rows = []
    k = max(d_max - 3, 1)  # the parent walks sizes up to k, the pool the subtrees below
    with worker_pool(jobs) as pool:
        root = [None, (0, 0), (0, 0)]  # the one-element poset: square-free
        tree = [(root, False, True), *_walk(root, False, k, d_max)]
        found = _tally(tree, d_max)
        for d in range(1, d_max + 1):
            if d not in found:  # past k: walk the subtrees below the nodes of size k
                roots = [(node, low, d_max) for node, low, _ in tree
                         if len(node[1]) == k + 1]
                if log:
                    log(f"enumerating d={k + 1}..{d_max} in {len(roots)} subtrees")
                for subtree in pool_map(_subtree, roots, pool):
                    for size, (n, free) in subtree.items():
                        row = found.setdefault(size, [0, []])
                        row[0] += n
                        row[1] += free
            posets, free = found[d]
            reps = [Poset(d, above) for above in free]
            if log:
                shown = f"{len(reps)} square-free of {posets}" if len(reps) < posets else posets
                log(f"classifying {shown} representatives at d={d}")
            rows.append(TableRow(d, posets, count_smooth(reps, pool=pool)))
            if out:
                with open(out, "a", encoding="utf-8", newline="") as fh:
                    csv.writer(fh).writerow(astuple(rows[-1]))
    return rows


_HEADER = ["d", "posets", "smooth"]


def read_table(path: str) -> list[TableRow]:
    """Rows of a table CSV: rows d = 1, 2, ... in order, each three
    integers of the poset-file form ``-?[0-9]+`` with 0 <= smooth <=
    posets.  ParseError names the file and the bad line."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = list(csv.reader(fh))
    if records and records[0] != _HEADER:
        raise ParseError(f"{path}, line 1: expected the header {','.join(_HEADER)}")
    rows = []
    for line, record in enumerate(records[1:], start=2):
        if len(record) != 3 or not all(map(_INTEGER.fullmatch, record)):
            raise ParseError(f"{path}, line {line}: expected three integers, "
                             f"got {','.join(record)!r}")
        row = TableRow(*map(int, record))
        if row.d != len(rows) + 1 or not 0 <= row.smooth <= row.posets:
            raise ParseError(f"{path}, line {line}: expected the row d={len(rows) + 1} "
                             f"with 0 <= smooth <= posets, got {','.join(record)!r}")
        rows.append(row)
    return rows
