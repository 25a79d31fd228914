"""Failure diagnosis: classify *why* and *where* a parse failed.

The engines parse fast: biased choice is implemented with a ``FAIL``
sentinel and no bookkeeping, so a failed parse initially knows nothing
beyond "the start symbol produced Fail".  When a raising entry point
(:meth:`Parser.parse`, an AOT module's ``parse``, a streaming session's
``finish``) needs a structured error, it re-runs the input through the
**diagnostic interpreter** in this module: a subclass of the reference
interpreter's ``_Run`` that records every primitive failure it
encounters and keeps the *furthest* one (the classic furthest-failure
heuristic of PEG error reporting).

Because every engine funnels failures through this one implementation —
the plain reference interpreter, run memoized — the error class and byte
offset are identical across the interpreter, the staged compiler, AOT
modules and streaming by construction;
``tests/engine_matrix.py::assert_error_agree`` locks that in.

Classification (ties at the same offset resolved by priority
truncation > bounds > guard):

* :class:`TruncatedInput` — the parse needed bytes past the end of the
  received input (interval reaching past EOF, terminal or fixed-width
  builtin hanging over the end).  Offset = input length.
* :class:`BoundsViolation` — an interval invalid *within* the data:
  negative/inverted, overrunning its enclosing window although the
  underlying bytes exist (the length-field-lie case), or an interval
  expression that failed to evaluate.
* :class:`GuardRejected` — bytes present but wrong: terminal literal
  mismatch (offset = first differing byte), guard false, builtin
  content rejection, blackbox refusal, no switch case.

:class:`LimitExceeded` is *not* produced here — engines raise it
natively when a budget trips (it aborts the parse rather than failing
an alternative); its ``offset`` is always ``None`` so engines trivially
agree on it.  The diagnosis itself runs under the parser's budgets: an
input that exhausts them during re-analysis surfaces as the same
``LimitExceeded`` from every engine.

Diagnosis is a cold path: it costs one reference-interpreter run over
the failing input, only ever after a parse already failed.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .ast import Grammar, TermAttrDef, TermGuard
from .buffers import as_buffer
from .builtins import BUILTINS, BlackboxCallable
from .env import upd_start_end_in_place
from .errors import (
    BoundsViolation,
    EvaluationError,
    GuardRejected,
    LimitExceeded,
    ParseFailure,
    TruncatedInput,
)
from .interpreter import FAIL, Parser, _Run, prepare_grammar
from .limits import ParseLimits
from .parsetree import Leaf
from .runtime import _guarded

__all__ = ["diagnose_parser", "diagnose_failure"]

#: Tie-break priority at equal offsets.
_RANK_GUARD = 1
_RANK_BOUNDS = 2
_RANK_TRUNCATED = 3


class _DiagRun(_Run):
    """Reference-interpreter run instrumented for furthest-failure tracking.

    ``_win`` holds the absolute window ``(lo, hi)`` of the term currently
    executing (saved/restored around every term so array loops see their
    own window after parsing an element); ``rstack`` is an always-on
    rule-name stack (independent of the budget machinery, which only
    tracks it under a step or wall budget and only keeps it on abort).
    """

    __slots__ = ("rstack", "best", "_win")

    def __init__(self, parser, data, build_tree=False):
        super().__init__(parser, data, build_tree=build_tree)
        # Canonical configuration: always memoized, whatever the parser's
        # memoize flag, so every engine's failure diagnoses identically.
        self.memoize = True
        self.rstack = []
        self.best = None
        self._win = (0, len(data))

    # -- recording ----------------------------------------------------------
    def _record(self, offset, rank, cls, message, interval=None):
        best = self.best
        if best is not None and (offset, rank) <= (best[0], best[1]):
            return
        nonterminal = self.rstack[-1] if self.rstack else ""
        self.best = (offset, rank, cls, message, nonterminal, tuple(self.rstack), interval)

    def _as_exception(self, start: str) -> ParseFailure:
        if self.best is None:
            return ParseFailure(
                f"input of length {len(self.data)} does not match nonterminal "
                f"{start!r}",
                nonterminal=start,
            )
        offset, _rank, cls, message, in_rule, rule_stack, interval = self.best
        # ``nonterminal`` stays the *requested* start symbol — "parsing
        # {start} failed" — matching what callers asked for; the rule the
        # failure happened inside lives in the message and rule_stack.
        return cls(
            f"{message} (in rule {in_rule!r} at offset {offset})"
            if in_rule
            else f"{message} (at offset {offset})",
            nonterminal=start,
            offset=offset,
            rule_stack=rule_stack,
            interval=interval,
        )

    # -- instrumented execution ---------------------------------------------
    def _parse_rule(self, rule, lo, hi, outer_ctx, local_rules):
        rstack = self.rstack
        rstack.append(rule.name)
        try:
            return super()._parse_rule(rule, lo, hi, outer_ctx, local_rules)
        finally:
            rstack.pop()

    def _exec_term(self, term, ctx, children, lo, hi, local_rules):
        # _win must be restored on exit: an array loop evaluates element
        # intervals *between* element parses, and the nested parse ran
        # terms in a different window.
        saved = self._win
        self._win = (lo, hi)
        try:
            if isinstance(term, TermGuard):
                return self._exec_guard(term, ctx, lo)
            if isinstance(term, TermAttrDef):
                try:
                    ctx.bind(term.name, term.expr.evaluate(ctx))
                except EvaluationError:
                    self._record(
                        lo + ctx.env.get("end", 0),
                        _RANK_GUARD,
                        GuardRejected,
                        f"attribute {term.name!r} failed to evaluate",
                    )
                    raise
                return True
            return super()._exec_term(term, ctx, children, lo, hi, local_rules)
        finally:
            self._win = saved

    def _exec_guard(self, term, ctx, lo):
        try:
            value = term.expr.evaluate(ctx)
        except EvaluationError:
            self._record(
                lo + ctx.env.get("end", 0),
                _RANK_GUARD,
                GuardRejected,
                "guard expression failed to evaluate",
            )
            raise
        if value == 0:
            self._record(
                lo + ctx.env.get("end", 0),
                _RANK_GUARD,
                GuardRejected,
                "a where-guard evaluated false",
            )
            return False
        return True

    def _interval(self, term, ctx, length):
        lo, _hi = self._win
        data_len = len(self.data)
        try:
            left = term.interval.left.evaluate(ctx)
            right = term.interval.right.evaluate(ctx)
        except EvaluationError:
            self._record(
                lo,
                _RANK_BOUNDS,
                BoundsViolation,
                "interval expression failed to evaluate",
            )
            raise
        if left < 0 or right < left:
            self._record(
                lo,
                _RANK_BOUNDS,
                BoundsViolation,
                f"invalid interval [{left}, {right})",
                interval=(lo + left, lo + right),
            )
            return None
        if right > length:
            if lo + right > data_len:
                self._record(
                    data_len,
                    _RANK_TRUNCATED,
                    TruncatedInput,
                    f"interval [{left}, {right}) needs "
                    f"{lo + right - data_len} bytes past end of input",
                    interval=(lo + left, lo + right),
                )
            else:
                self._record(
                    lo + min(left, length),
                    _RANK_BOUNDS,
                    BoundsViolation,
                    f"interval [{left}, {right}) overruns its "
                    f"{length}-byte enclosing window",
                    interval=(lo + left, lo + right),
                )
            return None
        return left, right

    def _exec_terminal(self, term, ctx, children, lo, hi):
        bounds = self._interval(term, ctx, hi - lo)
        if bounds is None:
            return False
        left, right = bounds
        literal = term.value
        absolute = lo + left
        if right - left < len(literal):
            if absolute + len(literal) > len(self.data):
                self._record(
                    len(self.data),
                    _RANK_TRUNCATED,
                    TruncatedInput,
                    f"terminal {literal!r} needs "
                    f"{absolute + len(literal) - len(self.data)} bytes past "
                    f"end of input",
                )
            else:
                self._record(
                    absolute,
                    _RANK_BOUNDS,
                    BoundsViolation,
                    f"window [{left}, {right}) too small for terminal "
                    f"{literal!r}",
                    interval=(absolute, lo + right),
                )
            return False
        window = self.data[absolute : absolute + len(literal)]
        if window != literal:
            diff = 0
            while literal[diff] == window[diff]:
                diff += 1
            self._record(
                absolute + diff,
                _RANK_GUARD,
                GuardRejected,
                f"expected {literal!r}, found byte 0x{window[diff]:02x}",
            )
            return False
        upd_start_end_in_place(ctx.env, left, left + len(literal), literal != b"")
        if self.build:
            children.append(Leaf(literal))
        return True

    def _exec_switch(self, term, ctx, children, lo, hi, local_rules):
        for case in term.cases:
            if case.condition is None or case.condition.evaluate(ctx) != 0:
                return self._exec_nonterminal(
                    case.target, ctx, children, lo, hi, local_rules
                )
        self._record(
            lo + ctx.env.get("end", 0),
            _RANK_GUARD,
            GuardRejected,
            "no switch case applied",
        )
        return False

    def _parse_builtin(self, name, lo, hi):
        result = super()._parse_builtin(name, lo, hi)
        if result is FAIL:
            size = BUILTINS[name].size
            if size is not None and hi - lo < size:
                if lo + size > len(self.data):
                    self._record(
                        len(self.data),
                        _RANK_TRUNCATED,
                        TruncatedInput,
                        f"builtin {name} needs {size} bytes, "
                        f"{len(self.data) - lo} available",
                    )
                else:
                    self._record(
                        lo,
                        _RANK_BOUNDS,
                        BoundsViolation,
                        f"window of {hi - lo} bytes too small for "
                        f"{size}-byte builtin {name}",
                        interval=(lo, hi),
                    )
            else:
                self._record(
                    lo,
                    _RANK_GUARD,
                    GuardRejected,
                    f"builtin {name} rejected its {hi - lo}-byte window",
                )
        return result

    def _parse_blackbox(self, name, lo, hi):
        result = super()._parse_blackbox(name, lo, hi)
        if result is FAIL:
            self._record(
                lo,
                _RANK_GUARD,
                GuardRejected,
                f"blackbox {name} rejected its {hi - lo}-byte window",
            )
        return result


def _run_diagnosis(
    parser: Parser, data, start: str, lo: int = 0, hi: Optional[int] = None
) -> ParseFailure:
    """Classify the failed parse of ``start`` over ``[lo, hi)`` (default:
    all of ``data``); returns the exception, never raises it."""
    hi = len(data) if hi is None else hi
    run = _DiagRun(parser, data, build_tree=False)
    run._win = (lo, hi)
    try:
        result = _guarded(
            parser.recursion_limit, start, run.parse_nonterminal,
            start, lo, hi, None, None,
        )
    except LimitExceeded as exc:
        return exc
    if result is not FAIL:
        # Defensive: the fast engine failed but the reference run
        # succeeded.  Report the failure without a bogus classification.
        return ParseFailure(
            f"window [{lo}, {hi}) does not match nonterminal {start!r}, "
            f"but the reference run accepts it (engines out of sync?)",
            nonterminal=start,
        )
    return run._as_exception(start)


def diagnose_parser(parser: Parser, data: bytes, start: str) -> ParseFailure:
    """Diagnose a failed ``parser.parse(data, start)``; returns the exception.

    The caller raises the result (keeping the raise site in the engine's
    own entry point).
    """
    return _run_diagnosis(parser, as_buffer(data), start)


#: Prepared grammars keyed by source text (AOT modules re-diagnose
#: through their embedded ``GRAMMAR_SOURCE`` — parse the text once).
_PREPARED: Dict[str, Grammar] = {}


def diagnose_failure(
    grammar: Union[Grammar, str],
    data: bytes,
    start: Optional[str] = None,
    blackboxes: Optional[Dict[str, BlackboxCallable]] = None,
    limits: Optional[ParseLimits] = None,
) -> ParseFailure:
    """Diagnose a failed parse given only the grammar (text or object).

    Used by ahead-of-time emitted modules, which embed their grammar
    source and call back into this function (when the ``repro`` package
    is importable) to produce the same structured error the in-process
    engines raise.
    """
    if isinstance(grammar, str):
        prepared = _PREPARED.get(grammar)
        if prepared is None:
            prepared = _PREPARED[grammar] = prepare_grammar(grammar)
        grammar = prepared
    parser = Parser(
        grammar, blackboxes=blackboxes, backend="interpreted", limits=limits
    )
    return _run_diagnosis(parser, as_buffer(data), start or grammar.start)
