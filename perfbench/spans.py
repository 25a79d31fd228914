"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start_ns, end_ns, parent, key)``: ``parent`` is the
index of the span that caused it (``-1`` for a root) and ``key`` the
document or request it belongs to.  Spans stay in a list while the run
is measured and are written out once, at the end.  A span's self time is
its duration minus the time its direct children cover.

Two clocks.  A call into the program made by the benchmark's own thread
is timed on that thread's CPU clock (``cpu_ns``): on a virtual machine
the guest kernel leaves out the time the hypervisor steals from the
vCPU, which on a shared two-vCPU host swung between 2% and 46% while
this benchmark was tuned, so the figures follow the code rather than the
neighbours.  A service request spans threads, processes and waiting, so
it is timed on the wall clock (``now_ns``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

now_ns = time.perf_counter_ns
cpu_ns = time.thread_time_ns


def timed(fn, *args, **kwargs):
    """``(result, exception, start_ns, end_ns)`` of one call, on ``cpu_ns``.

    Any exception is returned rather than raised: a ``ParseFailure`` or
    ``BlackboxError`` is a verdict for the oracle to judge, and anything
    else fails the operation.
    """
    exc = None
    start = cpu_ns()
    try:
        result = fn(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - judged by the caller
        result, exc = None, error
    return result, exc, start, cpu_ns()


class Tracer:
    """Spans in memory; ``clock`` times the ones opened with ``begin``."""

    def __init__(self, clock=now_ns):
        self.spans: List[list] = []
        self._open: List[int] = []
        self._clock = clock

    def add(self, name: str, start: int, end: int, key=None, parent: Optional[int] = None) -> int:
        """Record a finished span; returns its index."""
        if parent is None:
            parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, key])
        return len(self.spans) - 1

    def begin(self, name: str, key=None) -> int:
        """Open a span that later ``add`` calls nest under until ``end``."""
        index = self.add(name, self._clock(), 0, key)
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        self._open.remove(index)

    def self_times(self) -> List[int]:
        """Self time of every span, in nanoseconds, by span index."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def by_name(self) -> Dict[str, List[int]]:
        """Span indices grouped by name."""
        groups: Dict[str, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            groups[span[0]].append(index)
        return groups

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_ns", "end_ns", "parent", "key"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )
