"""In-memory span recorder used by the benchmark's traced run.

Spans are recorded from the benchmark's own code, around calls into the
public functions of each ``colsel`` module.  One ``Trace`` holds the spans
of one operation; they share that object as their identifier.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Trace:
    """Spans as ``[name, start, end, parent index]`` lists, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def unaccounted_frac(self, root: str = "op") -> float:
        """Share of the root span that none of its child spans covers.

        Children of one parent never overlap, because the benchmark opens
        spans one at a time, so their durations add up.
        """
        index = next(i for i, s in enumerate(self.spans) if s[0] == root)
        whole = self.spans[index][2] - self.spans[index][1]
        covered = sum(end - start for _, start, end, parent in self.spans if parent == index)
        return (whole - covered) / whole
