"""The IPG parsing engine: a direct implementation of the big-step semantics.

This module implements the judgments of Figure 8 (and Figure 15 for arrays)
as a recursive-descent interpreter:

* ``s ⊢ A ⇓ R``               →  :meth:`_Run.parse_nonterminal`
* ``s, A ⊢ alt... ⇓ R``        →  biased choice over alternatives
* ``s, A, E, Tr ⊢ tm... ⇓ R``  →  sequential execution of (reordered) terms
* ``s, A, E, Tr ⊢ tm ⇓ E', R`` →  :meth:`_Run._exec_term`

Key behaviours taken from the paper:

* every alternative starts with ``E = {EOI ↦ |s|, start ↦ |s|, end ↦ 0}``;
* terminals and nonterminals evaluate their interval first and parse only
  the local input confined by it (zero-copy: ``lo``/``hi`` offsets into one
  shared buffer, with ``as_buffer`` views, never a byte copy);
* a nonterminal's ``start``/``end`` are re-based by ``+l`` into the caller's
  coordinates, and ``updStartEnd`` widens the caller's window only when the
  callee actually touched input (``end ≠ 0``);
* choice is biased: the first successful alternative wins;
* results are memoized on ``(nonterminal, lo, hi)`` as in PEG packrat
  parsing, giving the O(n²) bound of section 3.3.

The public entry point is :class:`Parser`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .ast import (
    Alternative,
    Grammar,
    Rule,
    Term,
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from .attrcheck import check_grammar
from .autocomplete import complete_grammar
from .buffers import as_buffer
from .builtins import BUILTIN_FAIL, BUILTINS, BlackboxCallable, is_builtin
from .env import EvalContext, initial_env, upd_start_end_in_place
from .errors import (
    BlackboxError,
    CompilationError,
    EvaluationError,
    IPGError,
    LimitExceeded,
)
from .grammar_parser import parse_grammar
from .ir import charge_points
from .limits import DEFAULT_LIMITS, ParseLimits
from .parsetree import ArrayNode, Leaf, Node, ParseTree
from .runtime import (
    _RECURSION_LIMIT,
    FAIL,
    _call_blackbox,
    _guarded,
    _limit_refill,
    _refuel,
    _wrap_outcome,
)


class _LocalRules:
    """A linked scope of ``where`` local rules visible to an invocation."""

    __slots__ = ("rules", "parent")

    def __init__(self, rules: Dict[str, Rule], parent: Optional["_LocalRules"]):
        self.rules = rules
        self.parent = parent

    def lookup(self, name: str) -> Optional[Rule]:
        scope: Optional[_LocalRules] = self
        while scope is not None:
            if name in scope.rules:
                return scope.rules[name]
            scope = scope.parent
        return None


def prepare_grammar(grammar: Union[Grammar, str]) -> Grammar:
    """Run the front-end pipeline: parse text, complete intervals, check."""
    if isinstance(grammar, str):
        grammar = parse_grammar(grammar)
    if not grammar.completed:
        complete_grammar(grammar)
    if not grammar.checked:
        check_grammar(grammar)
    return grammar


class Parser:
    """A parser for one Interval Parsing Grammar.

    Parameters
    ----------
    grammar:
        Either IPG source text or an already constructed
        :class:`~repro.core.ast.Grammar`.  Interval auto-completion and
        attribute checking are run automatically if they have not been.
    blackboxes:
        Mapping from blackbox nonterminal names to Python callables
        (section 3.4).  Each callable receives the bytes of its interval.
    memoize:
        Enable packrat-style memoization of nonterminal results.
    recursion_limit:
        Python recursion limit to install while parsing; IPG rules such as
        the GIF ``Blocks`` list are deliberately recursive.  All parses of
        the process share one guard (:func:`~repro.core.runtime._guarded`):
        it raises the limit when it is lower, never lowers it, and gives
        the caller's value back when the last parse in any thread, on any
        engine or emitted module, finishes.  Before CPython 3.11 it
        raises the limit no higher than the C stack holds
        (``RLIMIT_STACK`` / 440 bytes), so a deeper input raises
        :class:`~repro.core.errors.LimitExceeded` instead of crashing.
    backend:
        ``"compiled"`` (the default) stages the grammar into specialized
        Python closures via :mod:`repro.core.backends.closures`;
        ``"interpreted"`` uses the reference tree-walking interpreter.
        Both produce identical parse trees; when the closure compiler
        cannot specialize a construct the parser silently falls back to
        the interpreter (the :attr:`backend` attribute reports the engine
        actually in use).
    first_byte_dispatch:
        Enable first-byte dispatch (:mod:`repro.core.firstsets`) in the
        compiled backend: rules whose alternatives have distinguishable
        admissible first bytes consult a byte-indexed jump table instead
        of trying alternatives in order.  On by default; dispatch
        preserves biased order among the admitted alternatives, so trees
        are identical either way (the flag exists for differential
        testing and as an escape hatch).  The interpreter always runs the
        plain reference semantics and ignores it.
    bulk_fixed_shape:
        Enable fixed-shape vectorization (:mod:`repro.core.shapes`) in the
        compiled backend: rules whose byte layout is statically fixed
        decode through precompiled ``struct`` plans — fused fixed
        prefixes and bulk-decoded fixed-stride arrays.  On by default;
        plans are observably identical to the per-term path (the flag
        exists for differential testing and as an escape hatch).  The
        interpreter ignores it.
    limits:
        :class:`~repro.core.limits.ParseLimits` resource budgets applied
        to every parse (``None`` selects the production defaults).  Pass
        ``ParseLimits.unlimited()`` to disable budgeting for trusted
        input.  Tripped budgets raise
        :class:`~repro.core.errors.LimitExceeded`.  Reassigning
        :attr:`limits` takes effect at the next parse on every engine.
    """

    BACKENDS = ("compiled", "interpreted")

    #: Valid values of the ``emit`` execution-mode argument.
    EMIT_MODES = ("tree", "spans", None)

    def __init__(
        self,
        grammar: Union[Grammar, str],
        blackboxes: Optional[Dict[str, BlackboxCallable]] = None,
        memoize: bool = True,
        recursion_limit: int = _RECURSION_LIMIT,
        backend: str = "compiled",
        first_byte_dispatch: bool = True,
        bulk_fixed_shape: bool = True,
        limits: Optional[ParseLimits] = None,
    ):
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.grammar = prepare_grammar(grammar)
        self.blackboxes = dict(blackboxes or {})
        self.memoize = memoize
        self.recursion_limit = recursion_limit
        self.limits = DEFAULT_LIMITS if limits is None else limits
        self.requested_backend = backend
        self.backend = backend
        self.first_byte_dispatch = bool(first_byte_dispatch)
        self.bulk_fixed_shape = bool(bulk_fixed_shape)
        #: Compiled engines by variant ``(tree, stream, spans)``; only
        #: :meth:`_engine` reads or fills it.
        self._engines: Dict[tuple, object] = {}
        self._validated_starts: set = set()
        self._streamability = None
        if backend == "compiled":
            try:
                self._engine()
            except CompilationError:
                # Automatic fallback: constructs the compiler does not yet
                # specialize run on the reference interpreter instead.
                self.backend = "interpreted"

    def _engine(
        self,
        tree: bool = True,
        stream: bool = False,
        spans: Optional[frozenset] = None,
    ):
        """The compiled engine of one execution variant (cached).

        ``tree=False`` selects tree elision (``emit="spans"``/``None``);
        ``stream`` the variant the streaming driver re-enters; ``spans``
        — a frozenset of top-level rule names — the ``record_spans``
        variant, whose parses keep their trail in the last slot of their
        state.  Returns ``None`` on the interpreter backend.

        Each variant is staged on first use.  Batch variants run the
        parser's ``first_byte_dispatch``/``bulk_fixed_shape`` toggles plus
        single-use inlining; the stream variant is the same compilation with
        ``stream=True`` (complete memoization, no inlining, cached dispatch
        decisions).  The ``record_spans`` variant is unmemoized and runs no
        pass at all, so every rule and alternative is reached through a
        late-bound module global that
        :func:`~repro.core.backends.closures.instrument_span_recording` can
        wrap.

        Every lookup also binds the engine to the current :attr:`limits`:
        an engine staged under other limits is rebound in place, and
        re-staged only when the new limits need the fuel cell its code was
        staged without.
        """
        key = (tree, stream, spans)
        engine = self._engines.get(key)
        if engine is not None and engine.limits is self.limits:
            return engine
        if self.backend != "compiled":
            return None
        if engine is None or not engine.set_limits(self.limits):
            # Deferred imports: avoids an import cycle.
            from .compiler import Optimizations, compile_grammar

            if spans is not None:
                optimizations = Optimizations.none()
            else:
                optimizations = Optimizations(
                    first_byte_dispatch=self.first_byte_dispatch,
                    bulk_fixed_shape=self.bulk_fixed_shape,
                )
            engine = compile_grammar(
                self.grammar,
                memoize=self.memoize and spans is None,
                blackboxes=self.blackboxes,
                optimizations=optimizations,
                elide_tree=not tree,
                stream=stream,
                limits=self.limits,
            )
            if spans is not None:
                from .backends.closures import instrument_span_recording

                instrument_span_recording(engine, spans)
            self._engines[key] = engine
        return engine

    def _run_window(self, name, data, lo, hi, tree=True, spans=None):
        """``s[lo, hi] ⊢ name`` on this parser's engine, under the parse guard.

        The one engine choice: the compiled variant when the grammar
        compiled, else the reference :class:`_Run`; ``tree=False`` elides
        the tree.  Returns a :class:`Node` or ``FAIL``, or ``(result,
        trail)`` under ``spans`` (a frozenset of top-level rules): with
        memoization and the decode fast paths off, ``trail`` holds the
        ``(rule, abs_start, abs_end)`` of each committed occurrence in
        post-order, the same on every engine.
        """
        if spans is None:
            compiled = self._engine(tree=tree)
        else:
            compiled = self._engine(spans=spans)
        if compiled is not None:
            run = compiled.run_nonterminal
            args = (data, name, lo, hi)
            if spans is not None:
                trail = []
                state = compiled.new_state()
                state.append(trail)
                args += (state,)
        else:
            engine = _Run(self, data, build_tree=tree, span_rules=spans)
            trail = engine.spans
            run = engine.parse_nonterminal
            args = (name, lo, hi, None, None)
        result = _guarded(self.recursion_limit, name, run, *args)
        return result if spans is None else (result, trail)

    def register_blackbox(self, name: str, parser: BlackboxCallable) -> None:
        """Register (or replace) the implementation of a blackbox parser.

        The compiled backend resolves blackboxes through this parser's live
        registry, so registration after construction works for both engines.
        """
        self.blackboxes[name] = parser

    def _validate_blackboxes(self, start: str) -> None:
        """Check that every blackbox reachable from ``start`` is registered.

        Runs once per start symbol, at the first ``parse()``/``try_parse()``
        call, and raises :class:`~repro.core.errors.BlackboxError` naming the
        missing implementations — instead of failing deep inside a parse (or
        silently accepting a mis-configured parser whose blackbox branch is
        never reached by the inputs at hand).
        """
        if start in self._validated_starts:
            return
        missing = sorted(
            _reachable_blackboxes(self.grammar, start) - set(self.blackboxes)
        )
        if missing:
            raise BlackboxError(
                f"grammar uses blackbox parser(s) {missing} reachable from "
                f"{start!r} but no implementation was registered; pass "
                f"blackboxes=... or call register_blackbox()"
            )
        self._validated_starts.add(start)

    # -- public parsing API ---------------------------------------------------
    def parse(
        self,
        data: bytes,
        start: Optional[str] = None,
        emit: Optional[str] = "tree",
        record_spans=None,
    ):
        """Parse ``data`` and return the parse result for ``emit``.

        ``emit`` selects the execution mode:

        * ``"tree"`` (default) — the full parse tree, as always;
        * ``"spans"`` — the root :class:`~repro.core.parsetree.Node` with
          its complete attribute environment (``start``/``end`` spans and
          every computed attribute) but **no children**: the engines run a
          tree-elision fast path that skips all ``Node``/``Leaf``/
          ``ArrayNode`` construction and payload copies;
        * ``None`` — validate only: returns ``True`` on success, same fast
          path, nothing is retained.

        ``record_spans`` — a set of top-level rule names — switches the
        return value to ``(tree, spans)`` where ``spans`` is the list of
        ``(rule, start, end)`` byte-offset triples of every *committed*
        occurrence of those rules, in completion (post) order.  Recording
        runs with memoization and the decode fast paths disabled so each
        occurrence really executes; spans from abandoned alternatives are
        discarded.  Only combined with ``emit="tree"``.

        Raises a structured :class:`~repro.core.errors.ParseFailure`
        subclass when the grammar does not accept the input: the failed
        parse is re-run through the diagnostic interpreter
        (:mod:`repro.core.diagnose`) to classify the furthest failure
        point, so the exception carries the failure class
        (:class:`~repro.core.errors.TruncatedInput`, ...), byte offset,
        rule stack, and violated interval.
        """
        result = self.try_parse(data, start, emit=emit, record_spans=record_spans)
        failed = (result[0] if record_spans is not None else result) is None
        if failed:
            from .diagnose import diagnose_parser

            raise diagnose_parser(self, data, start or self.grammar.start)
        return result

    def try_parse(
        self,
        data: bytes,
        start: Optional[str] = None,
        emit: Optional[str] = "tree",
        record_spans=None,
    ):
        """Like :meth:`parse` but returns ``None`` on non-matching input
        (``(None, [])`` under ``record_spans``).

        Configuration errors still raise: an unknown start symbol
        (:class:`~repro.core.errors.IPGError`) or a reachable blackbox with
        no registered implementation
        (:class:`~repro.core.errors.BlackboxError`).
        """
        if emit not in self.EMIT_MODES:
            raise ValueError(
                f"unknown emit mode {emit!r}; expected one of {self.EMIT_MODES}"
            )
        start_name = start or self.grammar.start
        spans = None
        if record_spans is not None:
            if emit != "tree":
                raise ValueError(
                    'record_spans requires emit="tree" (the recording '
                    "engines always run the tree-building path)"
                )
            spans = frozenset(record_spans)
            unknown = sorted(
                name for name in spans if not self.grammar.has_rule(name)
            )
            if unknown:
                raise IPGError(
                    f"record_spans names unknown top-level rule(s) {unknown}; "
                    f"builtins and blackboxes have no rule spans"
                )
        data = as_buffer(data)
        self._validate_blackboxes(start_name)
        result = self._run_window(
            start_name, data, 0, len(data), tree=emit == "tree", spans=spans
        )
        if spans is not None:
            return (None, []) if result[0] is FAIL else result
        if result is FAIL:
            return None
        if emit is None:
            return True
        assert isinstance(result, Node)
        return result

    def accepts(self, data: bytes, start: Optional[str] = None) -> bool:
        """Whether the grammar accepts ``data`` (tree-elision fast path)."""
        return self.try_parse(data, start, emit=None) is not None

    def parse_recover(
        self,
        data,
        start: Optional[str] = None,
        *,
        max_errors: Optional[int] = None,
    ):
        """Parse ``data``, salvaging everything that parses.

        Returns a :class:`~repro.core.recover.RecoveredDocument`: a normal
        parse tree in which failed subtrees are replaced by
        :class:`~repro.core.recover.ErrorNode` leaves carrying the same
        structured taxonomy diagnosis :meth:`parse` would have raised,
        plus the window-ordered ``errors`` list and salvage accounting
        (``salvaged_bytes`` / ``error_bytes``).  Input that parses cleanly
        costs one normal engine pass and comes back with ``errors == []``.

        Never raises for input-shaped problems — a wholly unrecoverable
        document (or a tripped :class:`~repro.core.limits.ParseLimits`
        budget) degrades to a root ``ErrorNode`` — but configuration
        errors (unknown start symbol, unregistered reachable blackbox)
        still raise like every other entry point.  ``max_errors`` bounds
        acceptable degradation: when the recovered document carries more
        errors, the original structured diagnosis is raised as if
        recovery were off.
        """
        from . import recover as _recover

        return _recover.parse_recover(self, data, start, max_errors=max_errors)

    def parse_lazy(
        self,
        data,
        start: Optional[str] = None,
        *,
        lazy_threshold: Optional[int] = None,
        recover: bool = False,
    ):
        """Parse ``data`` lazily: validate now, decode subtrees on access.

        Returns the root :class:`~repro.core.lazytree.LazyNode` of a tree
        whose structure decodes on demand — validation runs immediately
        (one tree-elision pass, same cost as ``emit=None``; non-matching
        input raises the identical structured
        :class:`~repro.core.errors.ParseFailure` subclass as
        :meth:`parse`), but a subtree's children are only materialized by
        re-entering the engines on its recorded input window the first
        time they are accessed.  Over an mmap'd file this gives
        random access to multi-gigabyte inputs at near-``--validate``
        cost plus the bytes actually touched.

        ``lazy_threshold`` is the minimum window size (bytes) at which a
        top-level-rule invocation is left as a stub instead of being
        decoded with its parent; defaults to
        :data:`~repro.core.lazytree.DEFAULT_LAZY_THRESHOLD`.  ``0`` stubs
        every top-level rule invocation (useful for pinning decode
        granularity in tests); a threshold larger than the input degrades
        to a fully eager decode on first access.

        The document-wide decode log lives on ``root.document``
        (:class:`~repro.core.lazytree.LazyDocument`): ``decoded`` holds
        one ``(rule, lo, hi, charged_bytes)`` entry per materialization
        and ``decoded_bytes`` their running total.  A fully materialized
        lazy tree compares equal to :meth:`parse`'s tree.

        ``recover=True`` composes laziness with
        :meth:`parse_recover`-style degradation: a stub whose window
        fails to decode on access (an injected I/O fault, a buffer whose
        bytes changed after validation) materializes as a single
        :class:`~repro.core.recover.ErrorNode` child instead of raising.
        The validating pass is unchanged — non-matching input still
        raises up front.
        """
        from .lazytree import DEFAULT_LAZY_THRESHOLD, LazyDocument

        if lazy_threshold is None:
            lazy_threshold = DEFAULT_LAZY_THRESHOLD
        document = LazyDocument(
            self, data, lazy_threshold=lazy_threshold, recover=recover
        )
        return document.parse(start)

    # -- streaming API --------------------------------------------------------
    def streamability_report(self):
        """The §8 stream-parser analysis for this grammar (cached)."""
        if self._streamability is None:
            from .streamability import analyze_streamability

            self._streamability = analyze_streamability(self.grammar)
        return self._streamability

    def stream(
        self,
        start: Optional[str] = None,
        *,
        force: bool = False,
        compact: bool = True,
        emit: Optional[str] = "tree",
    ):
        """Begin a streaming parse; returns a feed()/finish() session.

        The grammar must pass the §8 streamability analysis
        (:meth:`streamability_report`) unless ``force=True`` — a forced
        stream still parses correctly, but reads that the analysis would
        have flagged simply buffer input until the stream is finished, so
        the bounded-memory property is lost.  A forced stream left with the
        default ``compact=True`` may additionally detect, mid-stream, that
        the grammar re-reads bytes the compaction policy already discarded;
        that raises a descriptive error asking for ``compact=False``, which
        disables discarding of already-consumed bytes entirely (see
        :class:`~repro.core.streaming.StreamingParse`).

        Both backends stream: the compiled engine re-enters its specialized
        closures against persistent per-rule memo tables; the interpreter
        serves as the reference implementation for differential testing.
        """
        from .errors import NotStreamableError
        from .streaming import StreamingParse

        if emit not in self.EMIT_MODES:
            raise ValueError(
                f"unknown emit mode {emit!r}; expected one of {self.EMIT_MODES}"
            )
        start_name = start or self.grammar.start
        self._validate_blackboxes(start_name)
        if not force:
            report = self.streamability_report()
            if not report.streamable:
                raise NotStreamableError(
                    f"grammar is not streamable: {report.summary()}; pass "
                    f"force=True to stream anyway (unbounded buffering)",
                    report=report,
                )
        return StreamingParse(self, start_name, compact=compact, emit=emit)

    def parse_stream(
        self,
        chunks,
        start: Optional[str] = None,
        *,
        force: bool = False,
        compact: bool = True,
        emit: Optional[str] = "tree",
    ):
        """Parse an iterable of byte chunks incrementally.

        Produces a tree identical to ``parse(b"".join(chunks))`` without
        ever requiring the whole input in memory, for any chunking of the
        input (including 1-byte chunks and empty chunks).  Raises
        :class:`~repro.core.errors.ParseFailure` when the input does not
        match and :class:`~repro.core.errors.NotStreamableError` when the
        grammar fails the §8 analysis (unless ``force=True``).

        A wrong tree is never produced.  The §8 analysis is necessary
        rather than sufficient for *compacted* streaming: an adversarial
        grammar can slip past it (its position checks are not a full
        symbolic reach analysis) and still revisit bytes that compaction
        already discarded — that is detected at runtime and stopped with a
        descriptive error naming ``compact=False``, under which the
        identical-tree guarantee is unconditional.
        """
        session = self.stream(start, force=force, compact=compact, emit=emit)
        for chunk in chunks:
            session.feed(chunk)
        return session.finish()


class _Run:
    """State for parsing a single input buffer (memo table, blackboxes).

    ``build_tree=False`` selects the tree-elision mode: the run keeps the
    complete attribute semantics (node environments, element lists for
    array references) but never appends children, so no ``Leaf`` or
    ``ArrayNode`` is allocated and builtin/blackbox payloads are dropped.
    The run is the plain reference semantics: alternatives are tried in
    biased order and every term executes, whatever the parser's
    ``first_byte_dispatch``/``bulk_fixed_shape`` toggles say.
    """

    __slots__ = (
        "parser",
        "grammar",
        "data",
        "memo",
        "memoize",
        "build",
        "limits",
        "fuel",
        "charges",
        "stack",
        "span_rules",
        "spans",
    )

    def __init__(
        self,
        parser: Parser,
        data: bytes,
        build_tree: bool = True,
        span_rules: Optional[frozenset] = None,
    ):
        self.parser = parser
        self.grammar = parser.grammar
        self.data = data
        self.memo: Dict[tuple, object] = {}
        # Span recording disables memoization: the recorded trail is then
        # exactly the committed derivation, identical across engines by
        # construction (see Parser._try_parse_recording).
        self.span_rules = span_rules
        self.spans: Optional[List[tuple]] = [] if span_rules is not None else None
        self.memoize = parser.memoize and span_rules is None
        self.build = build_tree
        # The step and wall budgets: the compiled engines' fuel cell
        # (runtime._limit_refill), charged at the grammar's charge points,
        # or None when neither budget is set.  The rule-name stack is
        # popped on success only — a suspension (NeedMoreInput) aborts the
        # attempt, and the streaming driver calls reset_budgets() before
        # re-entering.
        limits = parser.limits
        self.limits = limits
        if limits is None or (limits.max_steps is None and limits.max_wall_ms is None):
            self.fuel = None
        else:
            self.fuel = [0, 0, None]
            self.charges = charge_points(self.grammar)
            self.stack: List[str] = []
            self.reset_budgets()

    def reset_budgets(self) -> None:
        """Restore per-attempt budgets (streaming re-entry).

        The step budget is per parse *attempt*: a stream re-enters from
        the start symbol after every suspension, replaying decided
        sub-parses as memo hits, so a cumulative budget would punish
        fine-grained chunking rather than adversarial input.  Each
        attempt is individually bounded, which is what rules out hangs.
        The rule stack is cleared because suspension unwinds without
        popping.
        """
        if self.fuel is not None:
            limits = self.limits
            deadline = None if limits.max_wall_ms is None else limits.deadline()
            _refuel(self.fuel, limits.fuel(), deadline)
            del self.stack[:]

    def _refill(self) -> None:
        """The charge that emptied the hot counter: refill it or raise.

        Same slow path as the compiled engines, so the wall clock is read
        at the same 256-charge cadence; the error carries the rule stack.
        """
        try:
            _limit_refill(self.fuel)
        except LimitExceeded as exc:
            exc.nonterminal = self.stack[-1]
            exc.rule_stack = tuple(self.stack)
            raise

    # -- nonterminal dispatch -------------------------------------------------
    def parse_nonterminal(
        self,
        name: str,
        lo: int,
        hi: int,
        outer_ctx: Optional[EvalContext],
        local_rules: Optional[_LocalRules],
    ):
        """``s[lo, hi] ⊢ name ⇓ R`` with scoping for local rules."""
        # 1. local (where) rules — never memoized, see the enclosing context.
        if local_rules is not None:
            local = local_rules.lookup(name)
            if local is not None:
                return self._parse_rule(local, lo, hi, outer_ctx, local_rules)
        # 2. top-level rules — memoizable, independent of the caller context.
        if self.grammar.has_rule(name):
            key = (name, lo, hi)
            if self.memoize and key in self.memo:
                return self.memo[key]
            result = self._parse_rule(self.grammar.rule(name), lo, hi, None, None)
            if self.memoize:
                self.memo[key] = result
            spans = self.spans
            if spans is not None and result is not FAIL and name in self.span_rules:
                spans.append(
                    (name, lo + result.env["start"], lo + result.env["end"])
                )
            return result
        # 3. builtin integer / raw parsers (the `btoi` specialization).
        if is_builtin(name):
            return self._parse_builtin(name, lo, hi)
        # 4. blackbox parsers.
        if name in self.grammar.blackboxes:
            return self._parse_blackbox(name, lo, hi)
        raise IPGError(f"no rule, builtin or blackbox for nonterminal {name!r}")

    def _parse_rule(
        self,
        rule: Rule,
        lo: int,
        hi: int,
        outer_ctx: Optional[EvalContext],
        local_rules: Optional[_LocalRules],
    ):
        """Budget-checked rule entry: a fuel charge for a recursive rule.

        The stack is popped on *success only*: when a budget trips (or a
        stream suspends) the whole attempt aborts, so the un-popped names
        are exactly the active-rule stack the error should carry.
        """
        fuel = self.fuel
        if fuel is None:
            return self._run_rule(rule, lo, hi, outer_ctx, local_rules)
        stack = self.stack
        stack.append(rule.name)
        if id(rule) in self.charges.rules:
            fuel[0] -= 1
            if fuel[0] < 0:
                self._refill()
        result = self._run_rule(rule, lo, hi, outer_ctx, local_rules)
        stack.pop()
        return result

    def _run_rule(
        self,
        rule: Rule,
        lo: int,
        hi: int,
        outer_ctx: Optional[EvalContext],
        local_rules: Optional[_LocalRules],
    ):
        spans = self.spans
        checkpoint = len(spans) if spans is not None else 0
        for alternative in rule.alternatives:
            result = self._parse_alternative(
                rule.name, alternative, lo, hi, outer_ctx, local_rules
            )
            if result is not FAIL:
                return result
            if spans is not None:
                # Discard spans recorded inside the failed alternative —
                # only the committed derivation is reported.
                del spans[checkpoint:]
        return FAIL

    def _parse_alternative(
        self,
        name: str,
        alternative: Alternative,
        lo: int,
        hi: int,
        outer_ctx: Optional[EvalContext],
        local_rules: Optional[_LocalRules],
    ):
        ctx = EvalContext(initial_env(hi - lo), outer=outer_ctx)
        children: List[ParseTree] = []
        if alternative.local_rules:
            local_rules = _LocalRules(
                {rule.name: rule for rule in alternative.local_rules}, local_rules
            )
        for term in alternative.terms:
            try:
                ok = self._exec_term(term, ctx, children, lo, hi, local_rules)
            except EvaluationError:
                # A failing interval/attribute computation (division by zero,
                # out-of-range array index, unbound attribute at runtime)
                # fails the alternative, like the invalid-interval case of the
                # binary-number example in section 2.
                return FAIL
            if not ok:
                return FAIL
        return Node(name, ctx.snapshot_env(), children)

    # -- term execution ---------------------------------------------------------
    def _exec_term(
        self,
        term: Term,
        ctx: EvalContext,
        children: List[ParseTree],
        lo: int,
        hi: int,
        local_rules: Optional[_LocalRules],
    ) -> bool:
        if isinstance(term, TermAttrDef):
            ctx.bind(term.name, term.expr.evaluate(ctx))
            return True
        if isinstance(term, TermGuard):
            return term.expr.evaluate(ctx) != 0
        if isinstance(term, TermTerminal):
            return self._exec_terminal(term, ctx, children, lo, hi)
        if isinstance(term, TermNonterminal):
            return self._exec_nonterminal(term, ctx, children, lo, hi, local_rules)
        if isinstance(term, TermArray):
            return self._exec_array(term, ctx, children, lo, hi, local_rules)
        if isinstance(term, TermSwitch):
            return self._exec_switch(term, ctx, children, lo, hi, local_rules)
        raise IPGError(f"unknown term kind {type(term).__name__}")  # pragma: no cover

    def _interval(self, term, ctx: EvalContext, length: int):
        """Evaluate a term's interval; returns ``(l, r)`` or ``None`` if invalid."""
        left = term.interval.left.evaluate(ctx)
        right = term.interval.right.evaluate(ctx)
        if not 0 <= left <= right <= length:
            return None
        return left, right

    def _exec_terminal(
        self,
        term: TermTerminal,
        ctx: EvalContext,
        children: List[ParseTree],
        lo: int,
        hi: int,
    ) -> bool:
        bounds = self._interval(term, ctx, hi - lo)
        if bounds is None:
            return False
        left, right = bounds
        literal = term.value
        if right - left < len(literal):
            return False
        absolute = lo + left
        if self.data[absolute : absolute + len(literal)] != literal:
            return False
        upd_start_end_in_place(ctx.env, left, left + len(literal), literal != b"")
        if self.build:
            children.append(Leaf(literal))
        return True

    def _exec_nonterminal(
        self,
        term: TermNonterminal,
        ctx: EvalContext,
        children: List[ParseTree],
        lo: int,
        hi: int,
        local_rules: Optional[_LocalRules],
    ) -> bool:
        bounds = self._interval(term, ctx, hi - lo)
        if bounds is None:
            return False
        left, right = bounds
        result = self.parse_nonterminal(term.name, lo + left, lo + right, ctx, local_rules)
        if result is FAIL:
            return False
        adjusted = _rebase(result, left)
        upd_start_end_in_place(
            ctx.env, adjusted.env["start"], adjusted.env["end"], result.env["end"] != 0
        )
        ctx.record_node(adjusted)
        if self.build:
            children.append(adjusted)
        return True

    def _exec_array(
        self,
        term: TermArray,
        ctx: EvalContext,
        children: List[ParseTree],
        lo: int,
        hi: int,
        local_rules: Optional[_LocalRules],
    ) -> bool:
        # The loop bounds are evaluated before the fresh element list becomes
        # visible, so they may still reference a previous same-named array.
        first = term.start.evaluate(ctx)
        stop = term.stop.evaluate(ctx)
        element_name = term.element.name
        elements: List[Node] = []
        had_binding = term.var in ctx.env
        saved = ctx.env.get(term.var)
        had_array = element_name in ctx.arrays
        saved_array = ctx.arrays.get(element_name)
        # Make the (initially empty) array visible so that element intervals
        # may reference earlier elements (e.g. `CDE(i - 1).end`).  Each array
        # term gets its own list: a second `for` term with the same element
        # name must not append into (or read from) the first term's elements,
        # and a partial parse must not leak into a previously bound array.
        ctx.arrays[element_name] = elements
        fuel = self.fuel
        if fuel is not None and id(term) in self.charges.bulk:
            fuel = None  # fixed-width elements at a stride: bounded by the window
        completed = False
        try:
            for index in range(first, stop):
                if fuel is not None:
                    fuel[0] -= 1
                    if fuel[0] < 0:
                        self._refill()
                ctx.env[term.var] = index
                bounds = self._interval(term.element, ctx, hi - lo)
                if bounds is None:
                    return False
                left, right = bounds
                result = self.parse_nonterminal(
                    element_name, lo + left, lo + right, ctx, local_rules
                )
                if result is FAIL:
                    return False
                adjusted = _rebase(result, left)
                upd_start_end_in_place(
                    ctx.env,
                    adjusted.env["start"],
                    adjusted.env["end"],
                    result.env["end"] != 0,
                )
                elements.append(adjusted)
            completed = True
        finally:
            if had_binding:
                ctx.env[term.var] = saved
            else:
                ctx.env.pop(term.var, None)
            if not completed:
                if had_array:
                    ctx.arrays[element_name] = saved_array
                else:
                    ctx.arrays.pop(element_name, None)
        if self.build:
            children.append(ArrayNode(element_name, elements))
        return True

    def _exec_switch(
        self,
        term: TermSwitch,
        ctx: EvalContext,
        children: List[ParseTree],
        lo: int,
        hi: int,
        local_rules: Optional[_LocalRules],
    ) -> bool:
        for case in term.cases:
            if case.condition is None or case.condition.evaluate(ctx) != 0:
                return self._exec_nonterminal(
                    case.target, ctx, children, lo, hi, local_rules
                )
        return False

    # -- builtins / blackboxes -------------------------------------------------
    def _parse_builtin(self, name: str, lo: int, hi: int):
        outcome = BUILTINS[name].parse(self.data, lo, hi)
        if outcome is BUILTIN_FAIL:
            return FAIL
        attrs, end, payload = outcome
        return _wrap_outcome(name, attrs, end, payload if self.build else None, hi - lo)

    def _parse_blackbox(self, name: str, lo: int, hi: int):
        return _call_blackbox(
            self.parser.blackboxes, name, self.data, lo, hi, not self.build
        )


def _rebase(node: Node, offset: int) -> Node:
    """Re-base a callee node's ``start``/``end`` into the caller's coordinates.

    Rule T-NTSucc: ``Node(B, E_B[start ↦ l + E_B[start], end ↦ l + E_B[end]], ...)``.
    The original node is left untouched because it may be memoized.

    Lazy stubs (:class:`~repro.core.lazytree.LazyNode`) rebase through
    their own method — reading ``node.children`` here would force the
    stub to decode, defeating the point of its existence.
    """
    if type(node) is not Node:
        return node.rebased(offset)
    env = dict(node.env)
    env["start"] = offset + node.env.get("start", 0)
    env["end"] = offset + node.env.get("end", 0)
    rebased = Node(node.name, env, node.children)
    return rebased


def _reachable_blackboxes(grammar: Grammar, start: str) -> set:
    """Blackbox names reachable from ``start`` through the grammar's rules.

    Mirrors the interpreter's dynamic dispatch: local (``where``) rules are
    visible only inside the alternative that declares them (and nested
    deeper), and shadow same-named top-level rules, builtins and blackboxes.
    A blackbox declared but not reachable from ``start`` is not required to
    have an implementation.
    """
    found: set = set()
    seen: set = set()

    def visit_name(name: str, locals_chain: Dict[str, Rule]) -> None:
        local = locals_chain.get(name)
        if local is not None:
            visit_rule(local, locals_chain)
            return
        if grammar.has_rule(name):
            # Top-level rules never see the caller's local scope (the
            # interpreter passes local_rules=None for them).
            visit_rule(grammar.rule(name), {})
            return
        if is_builtin(name):
            return
        if name in grammar.blackboxes:
            found.add(name)

    def visit_rule(rule: Rule, locals_chain: Dict[str, Rule]) -> None:
        # Resolution depends on the locals chain, so the recursion guard
        # must too: the same rule reached under different chains can resolve
        # a name to different targets (e.g. a nested where-rule shadowing a
        # blackbox on one path but not another).
        key = (
            id(rule),
            tuple(sorted((name, id(local)) for name, local in locals_chain.items())),
        )
        if key in seen:
            return
        seen.add(key)
        for alternative in rule.alternatives:
            chain = locals_chain
            if alternative.local_rules:
                chain = dict(locals_chain)
                chain.update({local.name: local for local in alternative.local_rules})
            for term in alternative.terms:
                if isinstance(term, TermNonterminal):
                    visit_name(term.name, chain)
                elif isinstance(term, TermArray):
                    visit_name(term.element.name, chain)
                elif isinstance(term, TermSwitch):
                    for case in term.cases:
                        visit_name(case.target.name, chain)

    visit_name(start, {})
    return found


def parse(
    grammar: Union[Grammar, str],
    data: bytes,
    start: Optional[str] = None,
    blackboxes: Optional[Dict[str, BlackboxCallable]] = None,
    backend: str = "compiled",
) -> Node:
    """One-shot convenience: build a :class:`Parser` and parse ``data``."""
    return Parser(grammar, blackboxes=blackboxes, backend=backend).parse(data, start)
