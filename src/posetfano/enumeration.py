"""Isomorph-free poset generation and the classification table.

Posets on d elements are generated by extending every representative
on d-1 elements with one new maximal element above an order ideal of
the parent, grown over a linear extension: an element joins an ideal
that holds its down-set and its twin before it (twins have the same
down- and up-set; index order).  A child is kept if no other maximal
element has a larger down-set.  Children are bit masks: the child's
upper masks, and its lower masks, which are the parent's plus the new
element's ideal.  Canonical keys read the masks directly and
deduplicate the results, giving exactly one representative per
isomorphism class; only representatives become Posets.
``pair_representatives`` keeps one class per {class, dual class} pair,
and each kept representative's polytope is classified for smoothness,
which the dual's negated polytope shares.  ``_pair_key`` is the one
rule that decides which member of a pair is kept.

``build_table`` stores every level it extends, but not its last one.
A stored level's row quotients it with ``quotient_by_duality``.  The
top row extends the level below with ``_pair_children``, whose workers
also flag each pair representative with a square (a 4-cycle of the
bounded Hasse diagram that misses a bound, a blocking walk: see
``classifier.hasse_squares``); every pair class is counted by its key,
and only the square-free ones become Posets and reach the walk search.

Extension and classification take an optional process pool by keyword
(``pool=None`` runs serially); ``build_table`` opens one pool for both.
Extension shards over parents: a worker returns the key and masks of
each child of one parent, and the results are merged in parent order,
keeping the first child seen under each key, the one a serial loop
keeps, so representatives and their ``sorted(key)`` order do not
depend on the pool.  ``pool_map`` yields each parent's batch in parent
order, and the merge drops it once read; with a pool, batches that
finish early wait in the pool until the merge reaches them, so only a
serial run holds one batch at a time.  A level's masks are stored
through one dict, so equal mask values share one int object rather
than one per unpickled child.
"""
from __future__ import annotations

import csv
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import astuple, dataclass
from typing import Callable, ContextManager, Iterator, Sequence

from .canonical import masks_key
from .classifier import classify, hasse_squares
from .errors import ParseError, UnsupportedSize
from .poset import Poset, _bits


@dataclass(frozen=True)
class TableRow:
    d: int
    posets: int  # classes up to isomorphism and duality
    smooth: int


def _extensions(p: Poset) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Upper and lower masks of p with a new maximal element added.

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
    above = p._above
    below = p.lower_masks()
    ideals = [0]
    latest: dict[tuple[int, int], int] = {}  # bit of the latest element with these masks
    for x in sorted(p.elements, key=lambda i: below[i].bit_count()):
        masks = (below[x], above[x])
        needed = below[x] | latest.get(masks, 0)
        latest[masks] = 1 << x
        ideals += [down | 1 << x for down in ideals if down & needed == needed]
    maxima = [(1 << m, below[m].bit_count()) for m in p.maximal_elements]
    new_bit = 1 << (p.d + 1)
    for down in sorted(ideals):
        size = down.bit_count()
        if any(size < s for bit, s in maxima if not down & bit):
            continue  # another maximal element has a larger down-set
        new_above = [*above, 0]
        for x in _bits(down):
            new_above[x] |= new_bit
        yield tuple(new_above), below + (down,)


# a child's canonical key and upper masks (None for a flagged square)
_Child = tuple[bytes, tuple[int, ...] | None]


def _keyed_children(parent: Poset) -> list[_Child]:
    """Canonical key and upper masks of every child of parent."""
    return [(masks_key(above, below), above) for above, below in _extensions(parent)]


def _pair_children(parent: Poset, squares: bool = True) -> list[_Child]:
    """``_keyed_children`` of parent restricted to pair representatives
    (``_pair_key``); with ``squares``, one with a Hasse square has None
    for masks, and a parent's low square is every child's (``hasse_squares``)."""
    low = squares and any(y <= parent.d for *_, y in hasse_squares(parent._above))
    return [(key, None if squares and (low or next(hasse_squares(above), None)) else above)
            for above, below in _extensions(parent)
            if (key := _pair_key(above, below)) is not None]


def _pair_classes(parent: Poset) -> list[_Child]:
    """``_pair_children`` of parent, every child with its masks."""
    return _pair_children(parent, squares=False)


def _representatives(d: int, batches: Iterator[list[_Child]]
                     ) -> tuple[int, tuple[Poset, ...]]:
    """The number of keys, and a Poset, with its key set, for the first
    child seen under each key that carries masks, in ``sorted(key)``
    order; equal mask values share one int object."""
    first: dict[bytes, tuple[int, ...] | None] = {}
    masks: dict[int, int] = {}
    for children in batches:
        for key, above in children:
            if key not in first:
                first[key] = above and tuple(map(masks.setdefault, above, above))
    reps = []
    for key in sorted(k for k, above in first.items() if above):
        p = Poset(d, first[key])
        p._key = key
        reps.append(p)
    return len(first), tuple(reps)


CENSUS_MAX_D = 9  # the largest poset size the census enumerates
_LEVELS: dict[int, tuple[Poset, ...]] = {}  # d -> one representative per class


def poset_classes(d: int, *, pool: Executor | None = None) -> tuple[Poset, ...]:
    """One representative per isomorphism class, deterministic order."""
    if not 1 <= d <= CENSUS_MAX_D:
        raise UnsupportedSize(
            f"enumeration supports 1 <= d <= {CENSUS_MAX_D}, got {d}")
    if d not in _LEVELS:
        if d == 1:
            _LEVELS[1] = (Poset(1, (0, 0)),)
        else:
            _LEVELS[d] = _representatives(
                d, pool_map(_keyed_children, poset_classes(d - 1, pool=pool), pool))[1]
    return _LEVELS[d]


def pair_representatives(d: int, *, pool: Executor | None = None) -> tuple[Poset, ...]:
    """``quotient_by_duality(poset_classes(d))``, without storing level d.

    A stored level is quotiented; otherwise the level below is extended
    with ``_pair_classes``.  Whether a class stands for its pair does
    not depend on which of its children is asked, so the first child
    seen under each kept key is the one the stored level would keep.
    """
    return _pair_row(d, _pair_classes, pool)[1]


def _pair_row(d: int, worker: Callable, pool: Executor | None
              ) -> tuple[int, tuple[Poset, ...]]:
    """The number of pair classes on d elements, and the representatives
    of those whose children from ``worker`` carry masks (all if stored)."""
    if d in _LEVELS or not 1 < d <= CENSUS_MAX_D:  # d = 1, or poset_classes raises
        reps = tuple(quotient_by_duality(poset_classes(d)))
        return len(reps), reps
    return _representatives(d, pool_map(worker, poset_classes(d - 1, pool=pool), pool))


def _pair_key(above: Sequence[int], below: Sequence[int],
              key: bytes | None = None) -> bytes | None:
    """The canonical key (``key``, if given) of the poset with these
    masks if it stands for its {class, dual class} pair, else None.

    Duality swaps each element's (down-set size, up-set size) pair, so
    the dual's sorted pairs are the swapped ones.  The poset is kept if
    its sorted pairs sort strictly below the swapped ones, and dropped
    before any key is computed if they sort strictly above; on a tie it
    is kept iff its key is not larger than the dual's, which is computed
    from the swapped masks only then.
    """
    sizes = [(down.bit_count(), up.bit_count()) for down, up in zip(below[1:], above[1:])]
    own, swapped = sorted(sizes), sorted(pair[::-1] for pair in sizes)
    if own > swapped:
        return None  # its dual's class stands for the pair
    if key is None:
        key = masks_key(above, below)
    return key if own < swapped or key <= masks_key(below, above) else None


def quotient_by_duality(posets: Sequence[Poset]) -> list[Poset]:
    """One poset per {class, dual class} pair, each decided on its own by ``_pair_key``."""
    return [p for p in posets
            if _pair_key(p._above, p.lower_masks(), p.canonical_key()) is not None]


def _smooth_flag(p: Poset) -> bool:
    """classify(p).smooth, False at once on a Hasse square, as in ``_pair_children``."""
    return next(hasse_squares(p._above), None) is None and classify(p).smooth


def worker_pool(jobs: int) -> ContextManager[Executor | None]:
    """A pool of ``jobs`` worker processes, at most one per CPU this
    process may run on (a pool starts them all on its first task), or a
    context giving None if that leaves at most one worker."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus)
    if workers <= 1:
        return nullcontext()
    return ProcessPoolExecutor(workers)


def pool_map(fn: Callable, items: Sequence, pool: Executor | None = None) -> Iterator:
    """fn(x) for x in items, yielded in input order as the results arrive.

    Runs over the pool's workers unless pool is None.  A pool is handed
    every chunk at once and keeps each finished result until it is read;
    the results must be read before the pool shuts down.
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

    With ``out`` set, the CSV file is first replaced, all or nothing,
    by the header and the reused rows, and each new row is appended as
    its size finishes.  With ``resume``, the rows ``read_table`` accepts
    from that file are reused, rows past d_max included, so a long run
    can be restarted; without it no row is reused.
    """
    if not 1 <= d_max <= CENSUS_MAX_D:
        raise UnsupportedSize(
            f"table supports 1 <= max d <= {CENSUS_MAX_D}, got {d_max}")
    rows = read_table(out) if out and resume and os.path.exists(out) else []
    if out:
        try:
            with open(out + ".tmp", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([_HEADER, *map(astuple, rows)])
            os.replace(out + ".tmp", out)
        finally:  # the file is still there only if the write or replace failed
            with suppress(OSError):
                os.remove(out + ".tmp")
    with worker_pool(jobs) as pool:
        for d in range(len(rows) + 1, d_max + 1):
            if log:
                log(f"enumerating d={d}")
            if d < d_max:
                poset_classes(d, pool=pool)  # stored for the next level
            posets, reps = _pair_row(d, _pair_children, pool)
            if log:
                shown = f"{len(reps)} square-free of {posets}" if len(reps) < posets else posets
                log(f"classifying {shown} representatives at d={d}")
            rows.append(TableRow(d, posets, count_smooth(reps, pool=pool)))
            if out:
                with open(out, "a", encoding="utf-8", newline="") as fh:
                    csv.writer(fh).writerow(astuple(rows[-1]))
    return rows[:d_max]


_HEADER = ["d", "posets", "smooth"]


def read_table(path: str) -> list[TableRow]:
    """Rows of a table CSV: rows d = 1, 2, ... in order, each with
    0 <= smooth <= posets.  ParseError names the file and the bad line."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = list(csv.reader(fh))
    if records and records[0] != _HEADER:
        raise ParseError(f"{path}, line 1: expected the header {','.join(_HEADER)}")
    rows = []
    for line, record in enumerate(records[1:], start=2):
        try:
            row = TableRow(*map(int, record))
        except (TypeError, ValueError):
            raise ParseError(f"{path}, line {line}: expected three integers, "
                             f"got {','.join(record)!r}") from None
        if row.d != len(rows) + 1 or not 0 <= row.smooth <= row.posets:
            raise ParseError(f"{path}, line {line}: expected the row d={len(rows) + 1} "
                             f"with 0 <= smooth <= posets, got {','.join(record)!r}")
        rows.append(row)
    return rows
