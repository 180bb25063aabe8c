"""Canonical labeling of posets up to isomorphism.

Individualization-refinement over the strict-order relation: elements
are first partitioned by order-invariant statistics, the partition is
refined by neighborhood color multisets until stable, and remaining
symmetric choices are resolved by branching and taking the minimal
relation-matrix encoding.  Elements with identical up- and down-sets
are interchangeable, so only one representative per such group is
branched on.  Sizes here are tiny (d <= 64 by type, d <= 8 in all
enumeration paths), so no external canonicalization dependency is used.
"""
from __future__ import annotations

from .poset import Poset, _bits


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _rank(values: dict[int, tuple]) -> dict[int, int]:
    """Dense ranks of the value tuples, identical across relabelings."""
    order = sorted(set(values.values()))
    index = {v: r for r, v in enumerate(order)}
    return {i: index[v] for i, v in values.items()}


def canonical_key(p: Poset) -> bytes:
    d = p.d
    if d == 1:
        return bytes([1, 0])
    above = [p.above_mask(i) for i in range(d + 1)]
    below = [p.below_mask(i) for i in range(d + 1)]
    els = list(range(1, d + 1))

    # longest-chain heights, bottom-up and top-down
    height = [0] * (d + 1)
    for i in sorted(els, key=lambda i: _popcount(below[i])):
        height[i] = max((height[j] + 1 for j in _bits(below[i])), default=0)
    depth = [0] * (d + 1)
    for i in sorted(els, key=lambda i: _popcount(above[i])):
        depth[i] = max((depth[j] + 1 for j in _bits(above[i])), default=0)

    init = {
        i: (_popcount(below[i]), _popcount(above[i]), height[i], depth[i])
        for i in els
    }
    ranks = _refine(_rank(init), els, below, above)

    best: list[bytes | None] = [None]

    def encode(ordering: list[int]) -> bytes:
        bitstring = 0
        for a in ordering:
            for b in ordering:
                bitstring = (bitstring << 1) | (1 if p.less(a, b) else 0)
        return bitstring.to_bytes((d * d + 7) // 8, "big")

    def search(ranks: dict[int, int]) -> None:
        classes: dict[int, list[int]] = {}
        for i in els:
            classes.setdefault(ranks[i], []).append(i)
        target = None
        for r in sorted(classes):
            if len(classes[r]) > 1:
                target = classes[r]
                break
        if target is None:
            enc = encode(sorted(els, key=lambda i: ranks[i]))
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        # elements with equal up- and down-sets are swappable: branch once
        groups: dict[tuple[int, int], int] = {}
        for i in target:
            groups.setdefault((below[i], above[i]), i)
        for rep in groups.values():
            forced = {i: (ranks[i], 1 if i == rep else 2) for i in els}
            search(_refine(_rank(forced), els, below, above))

    search(ranks)
    assert best[0] is not None
    return bytes([d]) + best[0]


def _refine(ranks: dict[int, int], els: list[int],
            below: list[int], above: list[int]) -> dict[int, int]:
    n_classes = len(set(ranks.values()))
    while True:
        sig = {
            i: (
                ranks[i],
                tuple(sorted(ranks[j] for j in _bits(below[i]))),
                tuple(sorted(ranks[j] for j in _bits(above[i]))),
            )
            for i in els
        }
        ranks = _rank(sig)
        n = len(set(ranks.values()))
        if n == n_classes:
            return ranks
        n_classes = n
