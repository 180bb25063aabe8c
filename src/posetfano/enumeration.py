"""Isomorph-free poset generation and the classification table.

Posets on d elements are generated by extending every representative
on d-1 elements with one new maximal element whose down-set is an order
ideal, kept only if no other maximal element has a larger down-set.
Canonical keys deduplicate the results, giving exactly one
representative per isomorphism class.  Counts are then quotiented by
order-duality and each representative's polytope is classified for
smoothness.
"""
from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .classifier import classify
from .errors import UnsupportedSize
from .poset import Poset, _bits


@dataclass(frozen=True)
class TableRow:
    d: int
    posets: int  # classes up to isomorphism and duality
    smooth: int


def _extensions(p: Poset) -> Iterator[Poset]:
    """Posets on d+1 elements made by adding a new maximal element to p.

    The new element (index d+1) lies above an order ideal D of p and
    below nothing.  A child is kept only if |D| is at least the down-set
    size of every other maximal element, i.e. of every maximum of p
    outside D.  Every class on d+1 elements arises this way from some
    class on d elements: delete a maximal element with the largest
    down-set, and extend what is left by that element's down-set.
    """
    d = p.d
    above = [p.above_mask(i) for i in range(d + 1)]
    below = [p.below_mask(i) for i in range(d + 1)]
    maxima = [(1 << m, below[m].bit_count()) for m in p.maximal_elements]
    new_bit = 1 << (d + 1)
    for down in (r << 1 for r in range(1 << d)):
        if any(below[i] & ~down for i in _bits(down)):
            continue  # not an order ideal
        size = down.bit_count()
        if any(size < s for bit, s in maxima if not down & bit):
            continue  # another maximal element has a larger down-set
        new_above = above + [0]
        for x in _bits(down):
            new_above[x] |= new_bit
        yield Poset(d + 1, new_above)


_LEVELS: dict[int, tuple[Poset, ...]] = {}


def poset_classes(d: int) -> tuple[Poset, ...]:
    """One representative per isomorphism class, deterministic order."""
    if not 1 <= d <= 8:
        raise UnsupportedSize(f"enumeration supports 1 <= d <= 8, got {d}")
    if d not in _LEVELS:
        if d == 1:
            _LEVELS[1] = (Poset(1, (0, 0)),)
        else:
            seen: dict[bytes, Poset] = {}
            for parent in poset_classes(d - 1):
                for child in _extensions(parent):
                    key = child.canonical_key()
                    if key not in seen:
                        seen[key] = child
            _LEVELS[d] = tuple(seen[k] for k in sorted(seen))
    return _LEVELS[d]


def quotient_by_duality(posets: Sequence[Poset]) -> list[Poset]:
    """Keep one poset per {class, dual class} pair.

    A representative survives iff its canonical key is not larger than
    its dual's, so the count is (classes + self-dual classes) / 2.
    """
    return [p for p in posets if p.canonical_key() <= p.dual().canonical_key()]


def _smooth_flag(p: Poset) -> bool:
    return classify(p).smooth


def pool_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """[fn(x) for x in items], over a pool of ``jobs`` processes when jobs > 1."""
    if jobs > 1 and len(items) > 1:
        chunk = max(1, len(items) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items, chunksize=chunk))
    return [fn(x) for x in items]


def count_smooth(posets: Sequence[Poset], jobs: int = 1) -> int:
    """Number of posets whose polytope is smooth; parallel when jobs > 1."""
    return sum(pool_map(_smooth_flag, posets, jobs))


def build_table(
    d_max: int,
    jobs: int = 1,
    out: str | None = None,
    resume: bool = False,
    log: Callable[[str], None] | None = None,
) -> list[TableRow]:
    """Poset and smooth counts for every d up to d_max.

    With ``out`` set, rows are appended to a CSV file as each size
    finishes; with ``resume``, rows already present in that file are
    reused instead of recomputed, so long runs can be restarted.
    """
    if not 1 <= d_max <= 8:
        raise UnsupportedSize(f"table supports 1 <= max d <= 8, got {d_max}")
    done: dict[int, TableRow] = {}
    if out:
        if resume and os.path.exists(out):
            done = {row.d: row for row in read_table(out)}
        elif os.path.exists(out):
            os.remove(out)
    rows: list[TableRow] = []
    for d in range(1, d_max + 1):
        if d in done:
            rows.append(done[d])
            continue
        if log:
            log(f"enumerating d={d}")
        reps = quotient_by_duality(poset_classes(d))
        if log:
            log(f"classifying {len(reps)} representatives at d={d}")
        row = TableRow(d, len(reps), count_smooth(reps, jobs=jobs))
        rows.append(row)
        if out:
            _append_rows(out, [row], header=not os.path.exists(out))
    return rows


def _append_rows(path: str, rows: Sequence[TableRow], header: bool) -> None:
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(["d", "posets", "smooth"])
        for row in rows:
            writer.writerow([row.d, row.posets, row.smooth])
        fh.flush()


def read_table(path: str) -> list[TableRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(TableRow(int(rec["d"]), int(rec["posets"]), int(rec["smooth"])))
    return rows
