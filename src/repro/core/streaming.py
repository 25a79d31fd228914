"""Streaming execution over chunked input (the stream parsers of §8).

The paper sketches stream parsers as future work: when every rule's
attribute dependencies flow left to right (the analysis of
:mod:`repro.core.streamability`), a parser can consume its input
incrementally instead of requiring the whole file up front.  This module is
that execution subsystem.  It deliberately does **not** fork the parsing
engines; instead it makes the existing ones — the staged compiler
(:mod:`repro.core.compiler`) and the reference interpreter
(:mod:`repro.core.interpreter`) — stream-capable through two substitutions:

:class:`StreamBuffer`
    Replaces the ``bytes`` input.  It grows as chunks are fed, supports the
    exact indexing/slicing the engines perform, and raises
    :class:`~repro.core.errors.NeedMoreInput` for any read past the bytes
    received so far.  Once all *live* parse state is past an offset the
    driver discards the prefix, so peak buffered bytes track the largest
    suspended term, not the file size.

:class:`EOIProxy`
    Replaces the input length while it is unknown.  The batch engines seed
    every alternative with ``EOI = |s|`` and compare interval endpoints
    against it; a proxy stands for ``total + delta`` and implements exactly
    the arithmetic and comparisons the engines use.  A comparison whose
    outcome is already forced by the bytes received so far (the final length
    can only grow) is answered immediately; an undecidable one raises
    :class:`~repro.core.errors.NeedMoreInput`.  ``EOI``-anchored reads such
    as ``B[EOI - 2, EOI]`` therefore suspend until :meth:`StreamingParse.
    finish`, which is the only sound time to run them.

Because a suspension unwinds the *whole* attempt (it is never caught by
biased choice, guards or alternatives), every decision an attempt does
commit — a memoized sub-parse, a FAIL, a guard outcome — was taken on
complete information and remains valid for every extension of the stream.
That is what makes the driver's strategy sound: keep one memo table alive
across attempts (the per-rule packrat tables of both engines), re-enter the
grammar from the start symbol after each chunk, and let memo hits skip all
completed work without touching the buffer.  Re-entry is therefore cheap —
the spine of already-parsed terms is re-walked as dictionary lookups, and
only the suspended frontier term re-reads its bytes.

The public surface is :meth:`repro.Parser.parse_stream` /
:meth:`repro.Parser.stream` (feed/finish); this module holds the machinery.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .errors import IPGError, LimitExceeded, NeedMoreInput, ParseFailure
from .parsetree import ArrayNode, Node, ParseTree
from .runtime import FAIL, _guarded, _refuel

__all__ = [
    "EOIProxy",
    "StreamBuffer",
    "StreamingParse",
]


# ---------------------------------------------------------------------------
# EOIProxy — the unknown input length as a number
# ---------------------------------------------------------------------------


def _needed_for(bound: int, delta: int) -> int:
    """Received-bytes threshold at which ``total + delta`` provably > bound - 1."""
    return bound - delta


class EOIProxy:
    """``total + delta`` where ``total`` is the still-unknown stream length.

    While the stream is open the only known bound is ``total >= received``,
    so every operation either answers from that bound, or — once the stream
    is finished and ``total`` is exact — computes the real value, or raises
    :class:`~repro.core.errors.NeedMoreInput` with a scheduling hint.

    Two proxies of the same stream compare by ``delta`` (their difference is
    known exactly even while ``total`` is not), which is what lets the
    engines' memo keys ``(lo, hi)`` with ``hi = EOIProxy`` stay stable
    across parse attempts — the basis of cheap re-entry.
    """

    __slots__ = ("_buf", "_delta")

    def __init__(self, buf: "StreamBuffer", delta: int = 0):
        self._buf = buf
        self._delta = delta

    # -- resolution --------------------------------------------------------
    def _value(self) -> int:
        total = self._buf.total
        if total is None:
            raise NeedMoreInput(
                "expression depends on the total input length, which is "
                "unknown until the stream is finished"
            )
        return total + self._delta

    def _lower(self) -> int:
        """A bound ``value >= _lower()`` that is valid at all times."""
        total = self._buf.total
        base = total if total is not None else self._buf.received
        return base + self._delta

    @property
    def resolved(self) -> bool:
        return self._buf.total is not None

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            return EOIProxy(self._buf, self._delta + other)
        if isinstance(other, EOIProxy):
            return self._value() + other._value()
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return EOIProxy(self._buf, self._delta - other)
        if isinstance(other, EOIProxy):
            # The totals cancel: the difference is exact at all times.
            return self._delta - other._delta
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return other - self._value()
        return NotImplemented

    def _delegate(self, op, other, reflected=False):
        """Resolve and compute; only sound once the total is known."""
        if isinstance(other, EOIProxy):
            other = other._value()
        elif not isinstance(other, int):
            return NotImplemented
        mine = self._value()
        return op(other, mine) if reflected else op(mine, other)

    def __mul__(self, other):
        return self._delegate(lambda a, b: a * b, other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._delegate(lambda a, b: a // b, other)

    def __rfloordiv__(self, other):
        return self._delegate(lambda a, b: a // b, other, reflected=True)

    def __mod__(self, other):
        return self._delegate(lambda a, b: a % b, other)

    def __rmod__(self, other):
        return self._delegate(lambda a, b: a % b, other, reflected=True)

    def __lshift__(self, other):
        return self._delegate(lambda a, b: a << b, other)

    def __rlshift__(self, other):
        return self._delegate(lambda a, b: a << b, other, reflected=True)

    def __rshift__(self, other):
        return self._delegate(lambda a, b: a >> b, other)

    def __rrshift__(self, other):
        return self._delegate(lambda a, b: a >> b, other, reflected=True)

    def __and__(self, other):
        return self._delegate(lambda a, b: a & b, other)

    __rand__ = __and__

    def __or__(self, other):
        return self._delegate(lambda a, b: a | b, other)

    __ror__ = __or__

    def __neg__(self):
        return -self._value()

    def __abs__(self):
        return abs(self._value())

    def __int__(self):
        return self._value()

    def __index__(self):
        return self._value()

    # -- comparisons -------------------------------------------------------
    # value >= _lower() always; while the stream is open there is no upper
    # bound, so only one direction of each comparison can be decided early.
    def __gt__(self, other):
        if isinstance(other, EOIProxy):
            return self._delta > other._delta
        if not isinstance(other, int):
            return NotImplemented
        if self.resolved:
            return self._value() > other
        if self._lower() > other:
            return True
        raise NeedMoreInput(
            "comparison against the unknown total input length",
            needed=_needed_for(other + 1, self._delta),
        )

    def __ge__(self, other):
        if isinstance(other, EOIProxy):
            return self._delta >= other._delta
        if not isinstance(other, int):
            return NotImplemented
        if self.resolved:
            return self._value() >= other
        if self._lower() >= other:
            return True
        raise NeedMoreInput(
            "comparison against the unknown total input length",
            needed=_needed_for(other, self._delta),
        )

    def __lt__(self, other):
        if isinstance(other, EOIProxy):
            return self._delta < other._delta
        if not isinstance(other, int):
            return NotImplemented
        if self.resolved:
            return self._value() < other
        if self._lower() >= other:
            return False
        raise NeedMoreInput(
            "comparison against the unknown total input length",
            needed=_needed_for(other, self._delta),
        )

    def __le__(self, other):
        if isinstance(other, EOIProxy):
            return self._delta <= other._delta
        if not isinstance(other, int):
            return NotImplemented
        if self.resolved:
            return self._value() <= other
        if self._lower() > other:
            return False
        raise NeedMoreInput(
            "comparison against the unknown total input length",
            needed=_needed_for(other + 1, self._delta),
        )

    def __eq__(self, other):
        if isinstance(other, EOIProxy):
            return self._buf is other._buf and self._delta == other._delta
        if not isinstance(other, int):
            return NotImplemented
        if self.resolved:
            return self._value() == other
        if self._lower() > other:
            return False
        raise NeedMoreInput(
            "equality against the unknown total input length",
            needed=_needed_for(other + 1, self._delta),
        )

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __bool__(self):
        if self.resolved:
            return self._value() != 0
        if self._lower() >= 1:
            return True
        raise NeedMoreInput(
            "truthiness of a value depending on the unknown total input length",
            needed=_needed_for(1, self._delta),
        )

    def __hash__(self):
        # Stable across feeds and across finish(): memo keys built from this
        # proxy must keep hitting after more chunks arrive.
        return hash(("EOIProxy", self._delta))

    def __repr__(self):  # pragma: no cover - debugging aid
        sign = "+" if self._delta >= 0 else ""
        suffix = f" = {self._value()}" if self.resolved else ""
        return f"<EOI{sign}{self._delta}{suffix}>"


# ---------------------------------------------------------------------------
# StreamBuffer — the growing input
# ---------------------------------------------------------------------------




class StreamBuffer:
    """The incrementally fed input of one streaming parse.

    Supports exactly the read patterns of the two engines — integer
    indexing and ``[start:stop]`` slicing with Python ``bytes`` clipping
    semantics once the stream is finished — plus:

    * reads past the received bytes raise
      :class:`~repro.core.errors.NeedMoreInput` (with the offset that would
      unblock them) while the stream is still open;
    * :meth:`discard_below` drops an already-consumed prefix; offsets stay
      absolute, so parse state never notices.  Reads below the discard
      watermark raise — they would mean the compaction policy was unsound
      for this grammar (see :class:`StreamingParse`);
    * per-attempt read tracking (:attr:`min_read`): the driver compacts to
      the lowest offset the attempt touched *or suspended on*, which is
      exactly the data a deterministic re-entry can revisit.
    """

    __slots__ = ("_data", "_base", "total", "min_read", "max_buffered", "max_bytes")

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self._data = bytearray()
        self._base = 0
        #: Hard cap on simultaneously buffered bytes
        #: (ParseLimits.max_buffer_bytes); ``None`` = unlimited.
        self.max_bytes = max_bytes
        #: Final stream length; ``None`` until :meth:`finish`.
        self.total: Optional[int] = None
        #: Lowest offset read (or suspended on) during the current attempt.
        self.min_read: Optional[int] = None
        #: High-water mark of bytes simultaneously buffered (for benchmarks).
        self.max_buffered = 0

    # -- feeding -----------------------------------------------------------
    @property
    def received(self) -> int:
        """Number of stream bytes received so far (monotone)."""
        return self._base + len(self._data)

    @property
    def buffered(self) -> int:
        """Number of bytes currently held in memory."""
        return len(self._data)

    def feed(self, chunk: bytes) -> None:
        if self.total is not None:
            raise IPGError("cannot feed a finished stream")
        if (
            self.max_bytes is not None
            and len(self._data) + len(chunk) > self.max_bytes
        ):
            raise LimitExceeded(
                f"streaming buffer would exceed max_buffer_bytes="
                f"{self.max_bytes} ({len(self._data)} held, "
                f"{len(chunk)}-byte chunk): the grammar (or compact=False) "
                f"retains more input than the budget allows",
                limit="max_buffer_bytes",
            )
        self._data += chunk
        if len(self._data) > self.max_buffered:
            self.max_buffered = len(self._data)

    def finish(self) -> None:
        if self.total is None:
            self.total = self.received

    # -- compaction --------------------------------------------------------
    def begin_attempt(self) -> None:
        self.min_read = None

    def _note(self, offset: int) -> None:
        if self.min_read is None or offset < self.min_read:
            self.min_read = offset

    def discard_below(self, offset: int) -> None:
        """Drop buffered bytes below ``offset`` (clamped to what exists)."""
        offset = min(offset, self.received)
        if offset > self._base:
            del self._data[: offset - self._base]
            self._base = offset

    def _resolve_endpoint(self, value) -> int:
        """Coerce a read endpoint (int or proxy) to an absolute offset.

        An unresolved ``EOI``-relative endpoint suspends — but first pins
        its current *lower bound* as a read: the eventual position is
        ``total + delta >= received + delta``, so retaining bytes from that
        bound onwards is exactly what the resolved read will need.  Without
        the pin, an EOI-anchored tail term would leave ``min_read`` empty
        and compaction would either stall (buffering the whole input) or
        discard the tail the final read revisits.
        """
        if isinstance(value, EOIProxy):
            if value.resolved:
                return value._value()
            self._note(max(0, value._lower()))
            raise NeedMoreInput(
                "read at an EOI-relative offset of an unfinished stream"
            )
        return int(value)

    def _compacted(self, offset: int) -> IPGError:
        return IPGError(
            f"streaming read at offset {offset} below the compaction "
            f"watermark {self._base}: this grammar revisits bytes after "
            f"later terms consumed them; re-run with compact=False"
        )

    # -- reads -------------------------------------------------------------
    def __len__(self) -> int:
        if self.total is None:
            raise NeedMoreInput("len() of a stream whose end has not been fed")
        return self.total

    def __getitem__(self, key) -> Union[bytes, int]:
        if isinstance(key, slice):
            if key.step is not None:
                raise IPGError("stream buffers do not support strided slices")
            start = 0 if key.start is None else self._resolve_endpoint(key.start)
            if start < 0:
                raise IPGError("negative stream offsets are not supported")
            # Record the read's origin before the stop endpoint gets a
            # chance to suspend: the re-entry performs the same read, so
            # the bytes at ``start`` must survive compaction.
            self._note(start)
            if key.stop is None:
                if self.total is None:
                    raise NeedMoreInput("open-ended read of an unfinished stream")
                stop = self.total
            else:
                stop = self._resolve_endpoint(key.stop)
            if stop < 0:
                raise IPGError("negative stream offsets are not supported")
            if self.total is not None:
                start = min(start, self.total)
                stop = min(stop, self.total)
            if start >= stop:
                return b""
            if stop > self.received:  # only reachable while unfinished
                raise NeedMoreInput(
                    f"read of [{start}, {stop}) but only {self.received} "
                    f"byte(s) received",
                    needed=stop,
                )
            if start < self._base:
                raise self._compacted(start)
            return bytes(self._data[start - self._base : stop - self._base])
        position = self._resolve_endpoint(key)
        if position < 0:
            raise IPGError("negative stream offsets are not supported")
        self._note(position)
        if self.total is not None:
            if position >= self.total:
                raise IndexError("stream index out of range")
        elif position >= self.received:
            raise NeedMoreInput(
                f"read of byte {position} but only {self.received} received",
                needed=position + 1,
            )
        if position < self._base:
            raise self._compacted(position)
        return self._data[position - self._base]

    @property
    def end(self) -> EOIProxy:
        """The end-of-stream position, as a (possibly unresolved) number."""
        return EOIProxy(self, 0)


# ---------------------------------------------------------------------------
# Tree resolution — replace proxies once the total length is known
# ---------------------------------------------------------------------------


def _resolve_stream_tree(tree: ParseTree) -> ParseTree:
    """Replace every :class:`EOIProxy` in node environments with its value.

    Nodes parsed over an ``EOI``-bounded window before the stream end was
    known carry proxies for ``EOI`` (and ``start``, when untouched) in their
    environments; after :meth:`StreamBuffer.finish` every proxy resolves.
    Memoized nodes are shared sub-DAGs, so the walk tracks identities both
    for correctness of cost and because patching is in-place.
    """
    seen = set()
    stack: List[ParseTree] = [tree]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, Node):
            env = current.env
            for key, value in env.items():
                if type(value) is EOIProxy:
                    env[key] = value._value()
            stack.extend(current.children)
        elif isinstance(current, ArrayNode):
            stack.extend(current.elements)
    return tree


# ---------------------------------------------------------------------------
# The feed()/finish() driver
# ---------------------------------------------------------------------------


class _StreamSession:
    """The feed/attempt/compaction/finish logic of one streaming parse.

    Written once for :class:`StreamingParse` and for the ``StreamingParse``
    of every emitted parser module (which vendors this class, see
    :mod:`repro.core.codegen`).  A subclass sets up ``self._state`` and
    supplies the engine-specific steps:

    ``_call_engine()``
        Run one attempt of the start symbol over ``self.buffer`` and return
        its result (FAIL on rejection); may raise ``NeedMoreInput``.
    ``_reset_budget()``
        Re-arm the step/wall budget of the persistent engine state.
    ``_raise_failure(data)``
        Raise the classified failure of a rejected, never-compacted stream
        whose complete input is ``data``.
    """

    def __init__(self, start, compact, max_bytes, recursion_limit, emit="tree"):
        self._start = start
        self._compact = compact
        #: Execution mode: "tree" (full parse tree), "spans" (root node
        #: with env only) or None (validate only).
        self._emit = emit
        self._recursion_limit = recursion_limit
        self.buffer = StreamBuffer(max_bytes=max_bytes)
        self._result = None
        self._failed = False
        self._done = False
        self._finished_tree: Optional[Node] = None
        #: Received-bytes threshold below which another attempt cannot make
        #: progress; ``None`` means only finish() can unblock the parse.
        self._wait_until: Optional[int] = 0
        #: Received bytes when the last attempt ran (re-attempt pacing).
        self._last_attempt_received = 0
        #: Number of parse re-entries performed (observability/benchmarks).
        self.attempts = 0

    def _attempt(self) -> bool:
        self.attempts += 1
        buffer = self.buffer
        self._last_attempt_received = buffer.received
        buffer.begin_attempt()
        # The step budget is per *attempt*: re-entries replay decided
        # sub-parses as memo hits, so a cumulative budget would punish
        # fine-grained chunking instead of hostile input.  Each attempt is
        # individually bounded, which is what rules out hangs.  The wall
        # deadline restarts too: the budget bounds parsing work per
        # attempt, not time spent waiting for the producer's next chunk.
        self._reset_budget()
        try:
            result = _guarded(
                self._recursion_limit, self._start, self._call_engine
            )
        except NeedMoreInput as suspension:
            self._wait_until = suspension.needed
            if self._compact and buffer.min_read is not None:
                buffer.discard_below(buffer.min_read)
            return False
        self._done = True
        if result is FAIL:
            # Every decision of the attempt was definitive, so no extension
            # of the stream can match: record the rejection now.
            self._failed = True
        else:
            self._result = result
        if self._compact:
            buffer.discard_below(buffer.received)
        return True

    # -- public API --------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the parse outcome is already determined (matched or not)."""
        return self._done

    @property
    def max_buffered(self) -> int:
        """High-water mark of bytes simultaneously buffered."""
        return self.buffer.max_buffered

    def feed(self, chunk: bytes) -> bool:
        """Feed one chunk; returns True once the outcome is determined.

        Feeding after the outcome is known is allowed (the remaining bytes
        still count towards the total length) and costs no memory.
        """
        self.buffer.feed(chunk)
        if self._done:
            if self._compact:
                self.buffer.discard_below(self.buffer.received)
            return True
        if self._wait_until is None:
            # Only finish() can unblock the parse (an EOI-relative read or
            # length comparison).  Re-entering cannot complete it — but the
            # pinned lower bound of an EOI-relative read *moves forward* as
            # bytes arrive, so with compaction on we still re-enter each
            # time the stream doubles: the refreshed pin lets the buffer
            # shed the middle instead of retaining everything until finish,
            # at a total re-entry cost logarithmic in the stream length.
            if self._compact and self.buffer.received >= 2 * max(
                1, self._last_attempt_received
            ):
                return self._attempt()
            return False
        # Probe re-entry: attempt after every chunk, even when the previous
        # suspension asked for more bytes than have arrived (_wait_until).
        # The re-entry replays the decided spine as memo hits and suspends
        # at the same frontier read, but it *refreshes the compaction
        # watermark*: the bytes of chunks that arrived since the last
        # attempt and precede the suspended term are discarded immediately
        # instead of accumulating until the term completes.  That tightens
        # the peak-buffer floor from two chunks + the largest in-flight
        # term to one chunk + the largest in-flight term, at the cost of
        # one (cheap) re-entry per chunk.
        return self._attempt()

    def finish(self):
        """Mark end of stream and return the parse result for ``emit``.

        The full tree for ``emit="tree"``, the children-less root node for
        ``emit="spans"``, or ``True`` for validate-only streams.  Raises
        :class:`~repro.core.errors.ParseFailure` when the stream does not
        match the grammar.  Idempotent: later calls return the same result.
        """
        if self._finished_tree is not None:
            return self._finished_tree
        self.buffer.finish()
        if not self._done:
            self._attempt()
        if not self._done:  # pragma: no cover - defensive
            raise IPGError("internal error: parse still suspended after finish()")
        if self._failed:
            # Diagnose over the full input when nothing was ever compacted
            # (always true with compact=False): the classified error then
            # matches the batch engines byte for byte.  Diagnosing over a
            # partial buffer would see a different EOI, so a compacted
            # stream degrades to an unclassified failure instead.
            if self.buffer._base == 0:
                self._raise_failure(bytes(self.buffer._data))
            raise ParseFailure(
                f"input of length {self.buffer.total} does not match "
                f"nonterminal {self._start!r} (bytes below offset "
                f"{self.buffer._base} were compacted away; re-run with "
                f"compact=False, or batch-parse, for a classified error)",
                nonterminal=self._start,
            )
        if self._emit is None:
            self._finished_tree = True
        else:
            self._finished_tree = _resolve_stream_tree(self._result)
        return self._finished_tree


class StreamingParse(_StreamSession):
    """One in-flight streaming parse (created by :meth:`repro.Parser.stream`).

    Feed chunks with :meth:`feed`; obtain the final tree with
    :meth:`finish`.  The session owns a :class:`StreamBuffer` and one
    persistent engine state — the compiled backend's per-rule memo tables,
    or one interpreter :class:`~repro.core.interpreter._Run` — so that each
    re-entry after a suspension replays completed work as memo hits instead
    of re-parsing.

    ``compact=True`` (default) discards buffered bytes below the lowest
    offset the previous attempt read, keeping peak memory proportional to
    the largest suspended term.  This is sound for grammars whose reads
    only move forward.  The §8 analysis rejects the common violating
    shapes (value-derived offsets, backwards arithmetic, start-anchors,
    decreasing constants) but is *necessary rather than sufficient*: a
    grammar that slips past it — or is ``force``-streamed — and revisits
    bytes below the watermark is detected by the buffer and stopped with a
    descriptive error asking for ``compact=False``.  A wrong tree is never
    produced either way.

    Retention caveat: only *rule* results are memoized, so a builtin or
    terminal placed directly in the start rule's alternative is re-read on
    every re-entry and pins the buffer from its offset onwards.  Formats
    that want bounded streaming memory should wrap leading header fields
    in a sub-rule (as the bundled DNS and IPv4 grammars do) — correctness
    is unaffected either way.
    """

    def __init__(
        self,
        parser,
        start: str,
        compact: bool = True,
        emit: Optional[str] = "tree",
    ):
        from .interpreter import _Run  # deferred: interpreter imports us lazily

        limits = getattr(parser, "limits", None)
        super().__init__(
            start,
            compact,
            limits.max_buffer_bytes if limits is not None else None,
            parser.recursion_limit,
            emit,
        )
        self._parser = parser
        # The compiled engine streams through a dedicated fully-memoized
        # variant (``stream=True``, see repro.core.ir.analyze): the
        # batch compilation elides memo tables for non-recursive rules,
        # which would force every re-entry to re-read bytes compaction
        # already discarded.  Non-"tree" emit modes elide tree
        # construction in every engine.
        self._compiled = parser._engine(tree=emit == "tree", stream=True)
        if self._compiled is not None:
            self._state = self._compiled.new_state()
            self._run = None
        else:
            self._state = None
            self._run = _Run(parser, self.buffer, build_tree=emit == "tree")

    def _call_engine(self):
        buffer = self.buffer
        if self._run is not None:
            return self._run.parse_nonterminal(self._start, 0, buffer.end, None, None)
        return self._compiled.run_nonterminal(
            buffer, self._start, 0, buffer.end, self._state
        )

    def _reset_budget(self):
        if self._run is not None:
            self._run.reset_budgets()
        elif self._compiled.fuel_slot is not None:
            limits = self._compiled.limits
            _refuel(
                self._state[self._compiled.fuel_slot],
                limits.fuel(),
                None if limits.max_wall_ms is None else limits.deadline(),
            )

    def _raise_failure(self, data):
        from .diagnose import diagnose_parser

        raise diagnose_parser(self._parser, data, self._start)
