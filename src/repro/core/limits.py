"""Resource budgets for parsing hostile input (:class:`ParseLimits`).

The paper's pitch for interval parsing grammars is *safe* binary-format
parsing, and its termination argument (section 3.3) names the only two
things that can make an IPG parse run unbounded: recursion and
count-driven ``for`` loops.  So one step budget charged at exactly those
points bounds a parse, and :class:`ParseLimits` holds that budget plus
the two the step count cannot see:

* every engine — the reference interpreter and the diagnosis, lazy and
  recovery runs built on it, the staged compiler in every execution mode
  and toggle setting, emitted modules and the streaming driver — charges
  the step budget at the grammar's
  :class:`~repro.core.ir.ChargePoints`, so a budget gives one verdict
  everywhere;
* ahead-of-time emitted modules vendor the step budget as a module
  global (`_MAX_STEPS`, adjustable via ``set_limits``);
* :class:`repro.core.streaming.StreamBuffer` enforces the buffered-byte
  cap on ``feed``.

Deep recursion has one ceiling on every engine: the parse guard's
recursion limit (``Parser.recursion_limit``), reported as
``LimitExceeded(limit="recursion")``.  Every tripped budget surfaces as
:class:`repro.core.errors.LimitExceeded` (a :class:`ParseFailure`
subclass) naming the limit, never as a bare
``RecursionError``/``MemoryError`` stack trace.

A field set to ``None`` means "unlimited" for that resource;
:meth:`ParseLimits.unlimited` disables everything (the escape hatch for
trusted input or offline analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["ParseLimits", "DEFAULT_LIMITS"]


@dataclass(frozen=True, kw_only=True)
class ParseLimits:
    """Resource budgets applied to a single parse (keyword-only).

    The defaults are deliberately generous — orders of magnitude above
    what the bundled format grammars need on realistic inputs — so they
    only trip on adversarial or wildly out-of-spec data:

    ``max_steps``
        Fuel per parse attempt: one step per entry of a recursive rule
        (top-level or ``where``) that is not a memo hit, and one per
        iteration of a ``for`` loop whose element is not of fixed width
        at a linear stride (:class:`~repro.core.ir.ChargePoints`).
        Every engine counts these steps alike; everything else a parse
        does is a constant factor of them, which bounds tree, memo and
        time growth too.
    ``max_buffer_bytes``
        Bytes the streaming :class:`StreamBuffer` may hold at once
        (only reachable when compaction is on; with ``compact=False``
        the whole input is retained by design and counts too).
    ``max_wall_ms``
        Wall-clock budget per parse attempt, in milliseconds.  Every
        engine reads the clock once per 256 charged steps, so a
        well-behaved parse pays no extra per-step cost and a runaway one
        is caught within one refill window.  Off by default: it depends
        on machine speed, so it is an opt-in for deadline-driven callers
        (the parse service uses it as the in-process soft deadline).
        Blackbox calls are not interrupted mid-flight — only parsing
        steps are charged — so a sleeping blackbox still needs an
        out-of-process hard deadline.
    """

    max_steps: Optional[int] = 50_000_000
    max_buffer_bytes: Optional[int] = 64 * 1024 * 1024
    max_wall_ms: Optional[int] = None

    @classmethod
    def unlimited(cls) -> "ParseLimits":
        """Disable every budget (trusted input / offline analysis)."""
        return cls(max_steps=None, max_buffer_bytes=None, max_wall_ms=None)

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


#: Shared default instance; ``Parser(limits=None)`` resolves to this.
DEFAULT_LIMITS = ParseLimits()
