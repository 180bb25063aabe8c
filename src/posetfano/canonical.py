"""Canonical labeling of posets up to isomorphism.

Individualization-refinement over the strict-order relation: elements
are first partitioned by down-set and up-set size, the partition is
refined by neighborhood color multisets until stable, and remaining
symmetric choices are resolved by branching and taking the minimal
relation-matrix encoding.  Twins (elements with the same down- and
up-set) are incomparable, and every other element is related to all
or none of them, so refinement never separates twins and swapping two
twins leaves the matrix unchanged.  Individualizing a twin thus splits
only its own cell and reaches one leaf whatever the twins' order, so
the search branches only on the lowest-rank cell that is not all twins
(once per twin group) and treats a partition whose other cells are
all twins as a leaf; the minimum over leaves is unchanged.  For the
same reason the first refinement stops as soon as its cells are as
many as the twin groups: the cells are then exactly the twin groups,
which no further round splits or reorders.  Inside a branch the
individualized twin is split from its group, so there refinement runs
to its fixpoint.  ``masks_key`` reads a poset's upper and lower masks
alone, so the enumeration keys a child without building a Poset;
``canonical_key`` is its wrapper for a Poset.  ``twin_discrete`` tells
whether the stable partition is the twin groups alone, so that every
automorphism only swaps twins.  Sizes here are tiny
(d <= 64 by type, d <= enumeration.CENSUS_MAX_D in all enumeration
paths), so no external canonicalization dependency is used.

Longest-chain heights and depths need no statistic of their own.  If a
stable cell held x and y of heights h < h', with h the least such, some
z below y has height >= h, so some w below x, of height < h, shares
z's cell: a mixed cell with a lower height than h.  Depths follow from
up-sets alike.
"""
from __future__ import annotations

from typing import Sequence

from .poset import Poset, _bits


def _rank(values: list) -> list[int]:
    """Dense ranks of the values, identical across relabelings."""
    index = {v: r for r, v in enumerate(sorted(set(values)))}
    return [index[v] for v in values]


def canonical_key(p: Poset) -> bytes:
    return masks_key(p._above, p.lower_masks())


def masks_key(above: Sequence[int], below: Sequence[int]) -> bytes:
    """canonical_key of the poset on 1..d with these upper and lower
    masks (index 0 unused); swapping the two gives the dual's key."""
    d = len(above) - 1
    best = _search(*_partition(above, below))
    return bytes([d]) + best.to_bytes((d * d + 7) // 8, "big")


def _partition(above: Sequence[int], below: Sequence[int]) -> tuple[list[int], list, list, list]:
    """The stable partition the search starts from, as ranks, with the
    down- and up-sets of index i (element i + 1) and its first twin."""
    # element i + 1 of the poset is index i here
    masks = [(down >> 1, up >> 1) for down, up in zip(below[1:], above[1:])]
    downs = [_bits(down) for down, _ in masks]
    ups = [_bits(up) for _, up in masks]
    first: dict[tuple[int, int], int] = {}
    twin = [first.setdefault(m, i) for i, m in enumerate(masks)]
    init = [(len(down), len(up)) for down, up in zip(downs, ups)]
    # len(first) is the number of twin groups
    return _refine(_rank(init), downs, ups, len(first)), downs, ups, twin


def twin_discrete(above: Sequence[int], below: Sequence[int]) -> bool:
    """Whether refinement splits the poset with these masks into its twin
    groups alone, so that every automorphism only permutes twins."""
    ranks, _, _, twin = _partition(above, below)
    return max(ranks) + 1 == len(set(twin))


def _search(ranks: list[int], downs: list, ups: list, twin: list[int]) -> int:
    """Smallest leaf encoding below a stable partition.

    ``twin[i]`` is the first index with the same down- and up-set as i.
    """
    d, n_cells = len(ranks), max(ranks) + 1
    if n_cells < d:
        cells: list[list[int]] = [[] for _ in range(n_cells)]
        for i, r in enumerate(ranks):
            cells[r].append(i)
        for cell in cells:
            if any(twin[i] != twin[cell[0]] for i in cell):
                return min(
                    _search(_refine(_rank([(r, 1 if i == rep else 2)
                                           for i, r in enumerate(ranks)]),
                                    downs, ups, d), downs, ups, twin)
                    for rep in cell if twin[rep] == rep
                )
    # a leaf: the relation matrix in rank order (twins in any), row by row
    order = sorted(range(d), key=ranks.__getitem__)
    column = [0] * d
    for k, i in enumerate(order):
        column[i] = 1 << (d - 1 - k)
    bitstring = 0
    for i in order:
        bitstring = (bitstring << d) | sum(map(column.__getitem__, ups[i]))
    return bitstring


def _refine(ranks: list[int], downs: list, ups: list, cells: int) -> list[int]:
    """Split cells by neighbor rank multisets until stable or ``cells`` cells."""
    n_classes = max(ranks) + 1
    while n_classes < cells:
        ranks = _rank([
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
