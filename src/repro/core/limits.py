"""Resource budgets for parsing hostile input (:class:`ParseLimits`).

The paper's pitch for interval parsing grammars is *safe* binary-format
parsing, but safety needs more than memory-safe slicing: a length-field
lie, a pointer cycle, or a deeply nested container can otherwise drive
unbounded recursion, unbounded memo/buffer growth, or an effectively
unbounded number of parse steps.  :class:`ParseLimits` is the single
knob bundle threaded through every engine:

* the reference interpreter checks depth/steps/nodes/memo size on rule
  entry and result construction,
* the staged compiler emits a shared counter-cell fuel check on rule
  entry (compiled out entirely when the budget is unlimited at compile
  time),
* ahead-of-time emitted modules vendor the step budget as a module
  global (`_MAX_STEPS`, adjustable via ``set_limits``),
* :class:`repro.core.streaming.StreamBuffer` enforces the buffered-byte
  cap on ``feed``.

Every tripped budget surfaces as :class:`repro.core.errors.LimitExceeded`
(a :class:`ParseFailure` subclass) naming the limit, never as a bare
``RecursionError``/``MemoryError`` stack trace.

A field set to ``None`` means "unlimited" for that resource;
:meth:`ParseLimits.unlimited` disables everything (the escape hatch for
trusted input or offline analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["ParseLimits", "DEFAULT_LIMITS"]


@dataclass(frozen=True)
class ParseLimits:
    """Resource budgets applied to a single parse.

    The defaults are deliberately generous — two orders of magnitude
    above what the bundled format grammars need on realistic inputs —
    so they only trip on adversarial or wildly out-of-spec data:

    ``max_depth``
        Maximum rule-recursion depth (nested non-memoized rule
        activations), counted by the reference interpreter and the
        diagnosis, lazy and recovery runs built on it.  The compiled
        engines and emitted modules do not count depth; there the parse
        guard's recursion limit (``Parser.recursion_limit``, 100,000
        frames by default) is the ceiling, reported as
        ``LimitExceeded(limit="recursion")``.  Batch compilations run
        right chains (PDF object bodies and numbers, DNS names, GIF
        block lists; :func:`repro.core.ir.right_chains`) as loops with
        no Python frame per element, so that limit no longer bounds
        them; the stream and ``record_spans`` compilations still recurse.
    ``max_steps``
        Fuel: total rule activations per parse attempt.  Bounds
        quadratic re-parsing blowups that finish "eventually".
    ``max_tree_nodes``
        Result nodes constructed per parse (tree mode).
    ``max_memo_entries``
        Packrat memo-table entries per parse.
    ``max_buffer_bytes``
        Bytes the streaming :class:`StreamBuffer` may hold at once
        (only reachable when compaction is on; with ``compact=False``
        the whole input is retained by design and counts too).
    ``max_wall_ms``
        Wall-clock budget per parse attempt, in milliseconds.  Checked
        at the existing amortized fuel-refill points (every 256 charged
        steps), so a well-behaved parse pays no extra per-rule cost and
        a runaway one is caught within one refill window.  Off by
        default: unlike the counters above it depends on machine speed,
        so it is an opt-in for deadline-driven callers (the parse
        service uses it as the in-process soft deadline).  Blackbox
        calls are not interrupted mid-flight — only parsing steps are
        charged — so a sleeping blackbox still needs an out-of-process
        hard deadline.
    """

    max_depth: Optional[int] = 10_000
    max_steps: Optional[int] = 50_000_000
    max_tree_nodes: Optional[int] = 20_000_000
    max_memo_entries: Optional[int] = 10_000_000
    max_buffer_bytes: Optional[int] = 64 * 1024 * 1024
    max_wall_ms: Optional[int] = None

    @classmethod
    def unlimited(cls) -> "ParseLimits":
        """Disable every budget (trusted input / offline analysis)."""
        return cls(
            max_depth=None,
            max_steps=None,
            max_tree_nodes=None,
            max_memo_entries=None,
            max_buffer_bytes=None,
            max_wall_ms=None,
        )

    @property
    def active(self) -> bool:
        """True when at least one budget is set."""
        return any(getattr(self, f.name) is not None for f in fields(self))

    def fuel(self) -> float:
        """Initial value for a step-budget counter cell (inf = unlimited)."""
        return float("inf") if self.max_steps is None else self.max_steps

    def deadline(self) -> float:
        """Monotonic deadline for the current attempt (inf = unlimited)."""
        if self.max_wall_ms is None:
            return float("inf")
        from time import monotonic

        return monotonic() + self.max_wall_ms / 1000.0

    def describe(self) -> str:
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            parts.append(f"{f.name}={'unlimited' if value is None else value}")
        return ", ".join(parts)


#: Shared default instance; ``Parser(limits=None)`` resolves to this.
DEFAULT_LIMITS = ParseLimits()
