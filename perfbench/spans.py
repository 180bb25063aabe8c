"""Span tracing of posetfano's layers, installed from outside the package.

A traced function is replaced by a wrapper at every attribute through
which callers resolve it: each ``posetfano.*`` module binding of the
same function object (``from .classifier import classify`` makes
``posetfano.enumeration.classify`` a second binding), or the class
attribute for a method.  Spans are kept in memory as
``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (-1 at the root); they are written out only at the end.
Times and parents live in flat arrays, so a traced census's hundreds of
thousands of spans add no objects for the garbage collector to scan.
Generators that should be counted rather than timed get a wrapper that
counts the items the caller actually consumed.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``on_result(result, *args)`` runs after the span has closed, so
        the work it does is not charged to the layer.
        """
        original = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, *args)
            return result

        self._install(owner, attr, original, wrapper)

    def count_yields(self, owner, attr: str, name: str) -> None:
        """Count the items a generator function hands to its caller."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts[name] += 1
                yield item

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                module for key, module in list(sys.modules.items())
                if (key == "posetfano" or key.startswith("posetfano."))
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def restore(self) -> None:
        """Put every original function back."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def records(self):
        """Every span as (name, start, end, parent), in start order."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its child spans.

        Children of one span run one after another on one thread, so
        the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self)
        for _, start, end, parent in self.records():
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c
                for (_, start, end, _), c in zip(self.records(), covered)]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def inclusive(self, name: str) -> float:
        """Total duration of ``name`` spans not nested in another ``name`` span."""
        return sum(self.ends[i] - self.starts[i]
                   for i, n in enumerate(self.names)
                   if n == name and not self.has_ancestor(i, name))

    def calls(self, name: str) -> int:
        return self.names.count(name)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")
