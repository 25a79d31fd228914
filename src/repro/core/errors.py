"""Exception hierarchy for the IPG toolkit.

Every user-facing error raised by the library derives from :class:`IPGError`
so that applications can catch a single exception type.  The hierarchy
mirrors the pipeline stages of the paper: grammar-text parsing, attribute
checking, interval auto-completion, termination checking, and input parsing.
"""

from __future__ import annotations


class IPGError(Exception):
    """Base class for all errors raised by the IPG toolkit."""


class GrammarSyntaxError(IPGError):
    """The IPG surface syntax could not be parsed.

    Carries the line and column of the offending token when available.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class AttributeCheckError(IPGError):
    """Attribute checking failed.

    Raised when an attribute reference does not refer to a defined attribute
    (property 1 of section 3.2) or when the per-alternative dependency graph
    is cyclic (property 2 of section 3.2).
    """


class AutoCompletionError(IPGError):
    """Implicit-interval completion could not infer a missing interval."""


class TerminationCheckError(IPGError):
    """Static termination checking rejected the grammar.

    The exception message names the elementary cycle whose intervals may be
    non-decreasing (i.e. may stay at ``[0, EOI]`` forever).
    """

    def __init__(self, message: str, cycle=None):
        self.cycle = list(cycle) if cycle is not None else []
        super().__init__(message)


class ParseFailure(IPGError):
    """Parsing an input according to an IPG produced ``Fail``.

    The interpreter and generated parsers raise this from the public
    ``parse`` entry points; the internal machinery uses a ``FAIL`` sentinel
    to implement biased choice without exception overhead.

    Raising entry points diagnose failed parses (see
    :mod:`repro.core.diagnose`) and raise one of the structured
    subclasses below — :class:`TruncatedInput`, :class:`BoundsViolation`,
    :class:`GuardRejected`, or :class:`LimitExceeded` — each carrying:

    ``offset``
        Absolute byte offset of the furthest failure point (``None``
        only for :class:`LimitExceeded`, where no single byte is to
        blame).
    ``rule_stack``
        The stack of active rule names at the failure point, outermost
        first.
    ``interval``
        The violated absolute interval ``(start, end)`` when the failure
        was an interval-bounds problem, else ``None``.

    Every engine (interpreter, staged compiler, AOT modules, streaming)
    surfaces the same subclass at the same offset for the same input.
    """

    def __init__(
        self,
        message: str,
        nonterminal: str = "",
        offset: int | None = None,
        rule_stack=(),
        interval=None,
    ):
        self.nonterminal = nonterminal
        self.offset = offset
        self.rule_stack = tuple(rule_stack)
        self.interval = tuple(interval) if interval is not None else None
        super().__init__(message)


class TruncatedInput(ParseFailure):
    """The parse needed bytes past the end of the input.

    Raised when a terminal, fixed-width builtin, or interval extends
    beyond the received data — the classic truncated-file failure.
    ``offset`` is the input length (the first missing byte).
    """


class BoundsViolation(ParseFailure):
    """An interval was invalid *within* the available data.

    A length-field lie, a negative or inverted interval, or an interval
    overrunning its enclosing window even though the underlying bytes
    exist.  ``interval`` carries the offending absolute ``(start, end)``
    when known.
    """


class GuardRejected(ParseFailure):
    """The input bytes were structurally present but semantically wrong.

    A ``where``-guard evaluated false, a terminal literal mismatched
    (``offset`` is the first differing byte), a builtin rejected its
    window's content, a blackbox refused, or no switch case applied.
    """


class LimitExceeded(ParseFailure):
    """A :class:`~repro.core.limits.ParseLimits` budget was exhausted.

    ``limit`` names the tripped budget: ``"max_steps"``,
    ``"max_buffer_bytes"``, ``"wall"`` when the
    :attr:`~repro.core.limits.ParseLimits.max_wall_ms` wall-clock budget
    expired, or ``"recursion"`` when the parse guard intercepted a bare
    ``RecursionError``/``MemoryError`` — the one ceiling on recursion
    depth, on every engine.  ``offset`` is
    always ``None``: resource exhaustion has no single culprit byte.
    """

    def __init__(
        self,
        message: str,
        limit: str = "",
        nonterminal: str = "",
        rule_stack=(),
        interval=None,
    ):
        self.limit = limit
        super().__init__(
            message,
            nonterminal=nonterminal,
            offset=None,
            rule_stack=rule_stack,
            interval=interval,
        )


def render_explain(error: ParseFailure, data: bytes | None = None) -> str:
    """Multi-line human-oriented rendering of a structured parse failure.

    Used by ``repro parse --explain-error``.  Shows the failure class,
    message, byte offset with a small hex-dump context window (when the
    input bytes are provided), the violated interval, and the active
    rule stack.
    """
    lines = [f"{type(error).__name__}: {error}"]
    limit = getattr(error, "limit", "")
    if limit:
        lines.append(f"  limit:    {limit}")
    if error.offset is not None:
        lines.append(f"  offset:   {error.offset} (0x{error.offset:x})")
        if data is not None:
            # The context window is hard-clamped to 64 bytes around the
            # failure offset regardless of input size or a bogus offset —
            # rendering an error over an mmap'd multi-GB buffer must not
            # materialize more than this sliver.
            start = min(max(0, error.offset - 16), len(data))
            stop = min(len(data), max(start, error.offset + 16), start + 64)
            window = bytes(data[start:stop])
            hexes = []
            for index, byte in enumerate(window, start):
                text = f"{byte:02x}"
                hexes.append(f"[{text}]" if index == error.offset else text)
            if error.offset >= len(data):
                hexes.append("[end of input]")
            lines.append(f"  context:  {' '.join(hexes)}")
    if error.interval is not None:
        lines.append(f"  interval: [{error.interval[0]}, {error.interval[1]})")
    if error.rule_stack:
        stack = list(error.rule_stack)
        if len(stack) > 12:
            stack = stack[:4] + [f"... ({len(stack) - 8} more) ..."] + stack[-4:]
        lines.append(f"  rules:    {' > '.join(stack)}")
    return "\n".join(lines)


class NeedMoreInput(IPGError):
    """A streaming parse touched bytes (or the stream length) not yet fed.

    Raised internally by the streaming machinery
    (:mod:`repro.core.streaming`) when an engine tries to read past the
    bytes received so far, or to evaluate an expression whose value depends
    on the still-unknown total input length.  The streaming driver catches
    it, waits for more chunks (or :meth:`~repro.core.streaming.
    StreamingParse.finish`), and re-enters the parse.

    ``needed`` is the smallest number of absolutely-received bytes that
    could unblock the suspended computation, or ``None`` when only the
    final input length can (e.g. an ``EOI - k`` offset).  It is a
    scheduling hint, never a correctness requirement.

    This exception deliberately does **not** derive from
    :class:`EvaluationError`: an evaluation error fails the current
    alternative, while a suspension must abort the whole parse attempt —
    no biased-choice or guard decision may be taken on incomplete data.
    """

    def __init__(self, message: str, needed: int | None = None):
        self.needed = needed
        super().__init__(message)


class NotStreamableError(IPGError):
    """A streaming parse was requested for a grammar the §8 analysis rejects.

    Carries the :class:`~repro.core.streamability.StreamabilityReport` so
    callers can show the violations.  Pass ``force=True`` to
    :meth:`~repro.core.interpreter.Parser.stream` to run anyway — parsing
    stays correct (the engine simply buffers until the violating reads
    become possible), but the bounded-memory guarantee is lost.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class EvaluationError(IPGError):
    """An interval or attribute expression could not be evaluated.

    Examples: reference to an attribute that is not bound at evaluation time,
    a division by zero, or an array reference with an out-of-range index.
    """


class BlackboxError(IPGError):
    """A blackbox parser was referenced but not supplied, or it failed."""


class GenerationError(IPGError):
    """The parser generator could not emit code for the grammar."""


class CompilationError(IPGError):
    """The staged compiler backend could not specialize the grammar.

    :class:`~repro.core.interpreter.Parser` catches this and falls back to
    the reference interpreter, so users only ever see it when calling
    :func:`repro.core.compiler.compile_grammar` directly.
    """


class SolverError(IPGError):
    """The constraint solver was given a formula outside its fragment."""


class ServiceError(IPGError):
    """Base class for parse-service failures (:mod:`repro.service`).

    A :class:`~repro.service.ParseService` request that cannot be
    answered with a parse result — the worker hung past its deadline,
    crashed, the queue was full, or the service was shut down — resolves
    to one of the structured subclasses below instead of hanging or
    leaking a raw exception.  They deliberately do **not** derive from
    :class:`ParseFailure`: a parse failure is a verdict about the input,
    a service error is a verdict about the machinery, and callers retry
    or alert on them differently.
    """


class DeadlineExceeded(ServiceError):
    """The request's wall-clock deadline expired.

    The worker was SIGKILLed and respawned; the request was retried once
    on a fresh worker (unless retries were disabled) before degrading to
    this reply.  ``deadline_ms`` is the budget that expired.
    """

    def __init__(self, message: str, deadline_ms: int | None = None):
        self.deadline_ms = deadline_ms
        super().__init__(message)


class WorkerCrashed(ServiceError):
    """The worker process died mid-request (segfault, OOM kill, ``os._exit``).

    ``exitcode`` is the worker's exit status (negative for a signal, per
    ``multiprocessing``).  The input was quarantined to the on-disk
    crasher corpus when one is configured; the crash was isolated to the
    in-flight request and the pool was repaired.
    """

    def __init__(self, message: str, exitcode: int | None = None):
        self.exitcode = exitcode
        super().__init__(message)


class ServiceOverloaded(ServiceError):
    """The bounded request queue was full and the request was shed.

    Raised synchronously from ``submit`` — load-shedding rejects at the
    door instead of buffering unboundedly.  ``retry_after`` is a
    best-effort hint, in seconds, of when capacity should free up.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


class ServiceClosed(ServiceError):
    """The service was shut down before (or while) handling the request."""
