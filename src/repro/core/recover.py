"""Error-recovering partial parsing: salvage trees instead of failing whole.

A traffic-facing parser's second production requirement (after surviving
malformed input *cleanly*, :mod:`repro.core.diagnose`) is degrading
*gracefully*: a large ELF with one corrupt section, or a ZIP with one bad
member, should yield the 99% that parses — not a single
:class:`~repro.core.errors.ParseFailure`.

The interval discipline makes this tractable with a soundness argument
instead of a heuristic.  Every top-level rule invocation is fully
determined by its ``(rule, lo, hi)`` window over the input (the exact
property :mod:`repro.core.lazytree` exploits), so recovery is a
**window-driven layer over the existing engines** rather than a fourth
engine:

1. every top-level-rule window is first *probed* through the parser's
   configured fast engine (compiled or interpreter — the same
   tree-elision re-entry the lazy layer uses).  Windows that probe clean
   decode through that engine and contribute ordinary subtrees;
2. only windows the fast engine **rejects** enter recovery mode: the
   reference interpreter re-runs the rule's alternatives, and a child
   window that still fails is replaced by an :class:`ErrorNode` leaf
   carrying the taxonomy diagnosis of that window
   (:class:`~repro.core.diagnose._DiagRun`, so the error class/offset
   match what ``parse()`` would have raised);
3. resync points come from (a) sibling windows already committed in the
   parent spine — the interval discipline hands them to us for free, (b)
   fixed-shape stride info (:func:`repro.core.shapes.rule_shape`): a bad
   record in a bulk array consumes exactly one record width, and (c)
   bounded FIRST-set byte scanning (:mod:`repro.core.firstsets`) to find
   the next plausible record start inside a length-field-lied container.

Because the probe outcomes are identical across engines (the error-parity
contract locked in by ``tests/engine_matrix.py``), and the recovery-mode
spine is one shared implementation, **recovered trees are identical on
every backend**: clean windows decode through the configured engine
(identical trees by the existing engine contracts), error windows are
produced by this one layer.

Soundness rules ("never fabricate structure"):

* an :class:`ErrorNode` carries only the special attributes (``EOI``,
  ``start``, ``end``); any later reference to a user attribute of the
  failed subtree raises :class:`~repro.core.errors.EvaluationError`,
  which fails the enclosing alternative exactly like an unparseable
  input would — degradation cascades upward instead of inventing values;
* substitution is only allowed for a *proper* sub-window of the
  enclosing rule's window: an alternative may not "recover" by claiming
  its entire window as one error (the parent decides that, with its own
  sibling context);
* a window only enters recovery mode after the normal engines rejected
  it, so recovery never changes the parse of an input that parses.

Blackbox exceptions and I/O faults (``OSError`` from an mmap'd buffer or
an injected fault, see ``tools/faultline.py``) are captured at window
boundaries and become :class:`ErrorNode`\\ s too, instead of escaping
:meth:`~repro.core.interpreter.Parser.parse_recover`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .buffers import as_buffer
from .env import EvalContext, initial_env, upd_start_end_in_place
from .errors import (
    BlackboxError,
    BoundsViolation,
    EvaluationError,
    LimitExceeded,
    TruncatedInput,
)
from .interpreter import FAIL, _LocalRules, _rebase, _Run
from .parsetree import ArrayNode, Node, ParseTree, tree_to_jsonable
from .runtime import _guarded

__all__ = [
    "ErrorNode",
    "RecoveredDocument",
    "parse_recover",
    "diagnose_window",
    "document_to_jsonable",
    "jsonables_equal",
]

#: Exceptions captured at window boundaries and converted into
#: :class:`ErrorNode`\ s: a raising blackbox (wrapped by the engines as
#: :class:`BlackboxError`) and I/O faults from the underlying buffer
#: (a page-in error on an mmap'd file, an injected fault).
_CAPTURED = (BlackboxError, OSError)

#: Bound on the FIRST-set resync scan: how many bytes past a failed
#: window's start are searched for a plausible record restart.
DEFAULT_RESYNC_SCAN_BYTES = 65536

#: Bound on how many FIRST-admissible candidate offsets are
#: actually probed through the fast engine during one resync scan.
DEFAULT_RESYNC_PROBES = 32

_NOTHING = object()


class ErrorNode(Node):
    """A parse-tree leaf standing in for a subtree that failed to parse.

    Occupies the failed invocation's window ``[lo, hi)`` (absolute input
    offsets) and carries the structured ``error`` diagnosing it — a
    :class:`~repro.core.errors.ParseFailure` subclass from the taxonomy,
    a :class:`~repro.core.errors.BlackboxError`, or the ``OSError`` of a
    captured I/O fault.

    The environment holds **only** the special attributes (``EOI``,
    ``start``, ``end`` spanning the window): reading a user attribute of
    a failed subtree through the grammar raises
    :class:`~repro.core.errors.EvaluationError` and fails the enclosing
    alternative — recovery never fabricates attribute values.
    """

    __slots__ = ("window", "error")

    def __init__(self, name: str, lo: int, hi: int, error: Exception):
        self.name = name
        self.env = {"EOI": hi - lo, "start": 0, "end": hi - lo}
        self.children = []
        self.window = (lo, hi)
        self.error = error

    @property
    def error_class(self) -> str:
        return type(self.error).__name__

    @property
    def error_offset(self) -> Optional[int]:
        return getattr(self.error, "offset", None)

    def rebased(self, offset: int) -> "ErrorNode":
        """Re-based wrapper (T-NTSucc); the absolute window is unchanged."""
        clone = ErrorNode.__new__(ErrorNode)
        clone.name = self.name
        env = dict(self.env)
        env["start"] = offset + self.env.get("start", 0)
        env["end"] = offset + self.env.get("end", 0)
        clone.env = env
        clone.children = []
        clone.window = self.window
        clone.error = self.error
        return clone

    def jsonable_record(self) -> dict:
        """This node's record in :func:`~repro.core.parsetree.tree_to_jsonable`."""
        lo, hi = self.window
        return {
            "error_node": self.name,
            "window": [lo, hi],
            "class": self.error_class,
            "offset": self.error_offset,
            "message": str(self.error),
            "env": dict(self.env),
        }

    def __eq__(self, other: object) -> bool:
        # Strict: an ErrorNode never equals a plain Node (and vice versa —
        # Python dispatches to this subclass __eq__ first for mixed
        # comparisons), so a recovered tree can't spuriously match an
        # eager tree.  Errors compare by class and offset: message texts
        # are diagnostic, the (class, offset) pair is the contract.
        return (
            isinstance(other, ErrorNode)
            and self.name == other.name
            and self.window == other.window
            and self.env == other.env
            and self.error_class == other.error_class
            and self.error_offset == other.error_offset
        )

    def __hash__(self) -> int:
        return hash(("ErrorNode", self.name, self.window, self.error_class))

    def __repr__(self) -> str:
        lo, hi = self.window
        return f"ErrorNode({self.name}, [{lo}, {hi}), {self.error_class})"

    def pretty(self, indent: int = 0, max_leaf: int = 16) -> str:
        pad = "  " * indent
        lo, hi = self.window
        return (
            f"{pad}<error {self.name} [{lo}, {hi}) "
            f"{self.error_class}: {self.error}>"
        )


class RecoveredDocument:
    """The result of :meth:`~repro.core.interpreter.Parser.parse_recover`.

    Attributes
    ----------
    root:
        A normal parse tree in which failed subtrees are replaced by
        :class:`ErrorNode` leaves.  The whole-document failure case is an
        ``ErrorNode`` root.
    errors:
        The committed tree's :class:`ErrorNode`\\ s, ordered by window.
    salvaged_bytes / error_bytes:
        Salvage accounting: ``error_bytes`` is the union length of the
        error windows, ``salvaged_bytes`` the rest of the input.
    """

    def __init__(self, root: Node, errors: List[ErrorNode], input_length: int):
        self.root = root
        self.errors = list(errors)
        self.input_length = input_length
        self.error_bytes = _union_length([e.window for e in self.errors])
        self.salvaged_bytes = input_length - self.error_bytes

    @property
    def ok(self) -> bool:
        """Whether the input parsed with no errors at all."""
        return not self.errors

    def summary(self) -> str:
        n = self.input_length
        share = 100.0 * self.salvaged_bytes / n if n else 100.0
        lines = [
            f"salvaged {self.salvaged_bytes}/{n} bytes ({share:.1f}%), "
            f"{len(self.errors)} error(s)"
        ]
        for error in self.errors:
            lo, hi = error.window
            where = (
                f" at offset {error.error_offset}"
                if error.error_offset is not None
                else ""
            )
            lines.append(
                f"  {error.error_class}{where}  "
                f"{error.name} [{lo}, {hi})  {error.error}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RecoveredDocument({self.root.name}, {len(self.errors)} error(s), "
            f"{self.salvaged_bytes}/{self.input_length} bytes salvaged)"
        )


def _union_length(windows: List[Tuple[int, int]]) -> int:
    """Total length of the union of the (possibly overlapping) windows."""
    total = 0
    end = None
    for lo, hi in sorted(windows):
        if end is None or lo >= end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def collect_errors(root: ParseTree) -> List[ErrorNode]:
    """The committed tree's error nodes, window-ordered and de-duplicated.

    A memoized recovered subtree can be committed in more than one place
    (re-based wrappers of one underlying parse); one report per distinct
    ``(window, rule, class, offset, message)`` suffices.  The message
    participates so two *different* faults that clamp to the same
    (possibly empty) window — two directory entries both lying past EOF,
    say — are still reported separately.
    """
    found: Dict[tuple, ErrorNode] = {}
    stack: List[ParseTree] = [root]
    while stack:  # iterative: salvaged trees can be deeper than walk() recurses
        tree = stack.pop()
        if isinstance(tree, ErrorNode):
            key = (
                tree.window,
                tree.name,
                tree.error_class,
                tree.error_offset,
                str(tree.error),
            )
            found.setdefault(key, tree)
        elif isinstance(tree, ArrayNode):
            stack.extend(tree.elements)
        elif isinstance(tree, Node):
            stack.extend(tree.children)
    return [found[key] for key in sorted(found, key=lambda k: (k[0], k[1]))]


def diagnose_window(parser, data, name: str, lo: int, hi: int) -> Exception:
    """The taxonomy diagnosis of one failed window (absolute offsets).

    The per-window analogue of :func:`repro.core.diagnose.diagnose_parser`:
    re-runs the window through the diagnostic interpreter and returns —
    never raises — the structured exception classifying its furthest
    failure point.  Captured faults and tripped budgets come back as the
    diagnosis themselves.
    """
    from .diagnose import _run_diagnosis

    try:
        return _run_diagnosis(parser, data, name, lo, hi)
    except _CAPTURED as exc:
        return exc


# ---------------------------------------------------------------------------
# The recovery engine layer
# ---------------------------------------------------------------------------


class _RecoverRun(_Run):
    """A reference-interpreter run that salvages instead of failing.

    Structure (see the module docstring): top-level rule windows are
    probed through the parser's configured fast engine and decode through
    it when clean; a rejected window re-runs its alternatives here with
    the substitution hooks active (``self.recovering > 0``), replacing
    child windows that still fail with :class:`ErrorNode` leaves.

    The base memo is off: recovered results memoize in ``rmemo``
    instead.  This is a cold path — it only ever runs on windows the
    optimized engines already rejected.
    """

    __slots__ = (
        "rmemo",
        "active",
        "recovering",
        "rule_window",
        "spilled_ctxs",
        "first_cache",
        "shape_cache",
    )

    def __init__(self, parser, data):
        super().__init__(parser, data, build_tree=True)
        self.memoize = False
        #: (name, lo, hi) -> recovered result (tree, ErrorNode-bearing
        #: tree, or FAIL).  Deterministic per key, so safe to reuse even
        #: when first computed inside a later-abandoned alternative.
        self.rmemo: Dict[tuple, object] = {}
        #: Keys currently being recovered (left-recursion guard: the
        #: normal engines' memoization never sees recovery re-entries).
        self.active: set = set()
        self.recovering = 0
        #: Window of the rule whose alternatives are currently being
        #: retried — the no-total-loss bound for substitution.
        self.rule_window: Optional[Tuple[int, int]] = None
        #: id()s of alternative contexts whose window tail has already
        #: been claimed by a rest-error (emitted inside an array term):
        #: later failing terms of that alternative lie inside the
        #: declared error region and are skipped, not re-spilled.
        self.spilled_ctxs: set = set()
        self.first_cache: Dict[str, Optional[frozenset]] = {}
        self.shape_cache: Dict[str, object] = {}

    # -- engine re-entry (the lazytree pattern) -----------------------------
    def _probe_ok(self, name: str, lo: int, hi: int) -> bool:
        """Whether the configured fast engine accepts ``(name, lo, hi)``.

        Identical across backends by the error-parity contract, which is
        what makes recovered trees engine-independent.  Captured faults
        count as rejection (recovery mode will pin them down).
        """
        try:
            result = self.parser._run_window(name, self.data, lo, hi, tree=False)
        except _CAPTURED:
            return False
        return result is not FAIL

    def _decode_clean(self, name: str, lo: int, hi: int):
        """Decode a probed-clean window through the configured engine."""
        try:
            return self.parser._run_window(name, self.data, lo, hi)
        except _CAPTURED:
            # A fault the probe did not hit (e.g. an injected fail-once
            # read): fall through to recovery mode rather than escaping.
            return FAIL

    def _diagnose_window(self, name: str, lo: int, hi: int) -> Exception:
        """The taxonomy diagnosis of one failed window (absolute offsets)."""
        return diagnose_window(self.parser, self.data, name, lo, hi)

    # -- nonterminal dispatch -----------------------------------------------
    def parse_nonterminal(self, name, lo, hi, outer_ctx, local_rules):
        if (
            local_rules is None or local_rules.lookup(name) is None
        ) and self.grammar.has_rule(name):
            return self._recover_rule(name, lo, hi)
        return super().parse_nonterminal(name, lo, hi, outer_ctx, local_rules)

    def _recover_rule(self, name: str, lo: int, hi: int, assume_failed=False):
        key = (name, lo, hi)
        cached = self.rmemo.get(key, _NOTHING)
        if cached is not _NOTHING:
            return cached
        if not assume_failed and self._probe_ok(name, lo, hi):
            result = self._decode_clean(name, lo, hi)
            if result is not FAIL:
                self.rmemo[key] = result
                return result
        if key in self.active:
            # Recovery re-entered the same window (recursive rule whose
            # interval did not shrink): fail this path, the outer attempt
            # owns the window.  Not memoized — only the settled outcome is.
            return FAIL
        self.active.add(key)
        self.recovering += 1
        try:
            # Through _parse_rule, not _run_rule: the step budget
            # stays armed during recovery (a LimitExceeded aborts the whole
            # recovery attempt and degrades the document — see
            # parse_recover — instead of cascading per-window).
            result = self._parse_rule(self.grammar.rule(name), lo, hi, None, None)
        except _CAPTURED:
            # An I/O fault (or blackbox raise outside a substitutable
            # position) aborted the retry: the window is unrecoverable.
            result = FAIL
        finally:
            self.recovering -= 1
            self.active.discard(key)
        if result is FAIL:
            result = self._resync(name, lo, hi)
        else:
            # Substitution succeeded, but compare against a FIRST-set
            # resync and keep whichever salvages strictly more bytes: a
            # cons-list over a garbage prefix "recovers" by cascading one
            # mis-aligned ErrorNode per cell (zero or near-zero salvage),
            # where skipping to the next admissible record start re-parses
            # the whole tail cleanly.  Ties keep the substitution result —
            # its errors are localized to the structure, not one prefix.
            salvage = self._salvage_of(result, lo, hi)
            if salvage < hi - lo:
                resynced = self._resync(name, lo, hi)
                if resynced is not FAIL and self._salvage_of(resynced, lo, hi) > salvage:
                    result = resynced
        self.rmemo[key] = result
        return result

    def _salvage_of(self, result, lo: int, hi: int) -> int:
        """Bytes of ``[lo, hi)`` a recovered result does NOT claim as errors."""
        if result is FAIL:
            return -1
        return (hi - lo) - _union_length([e.window for e in collect_errors(result)])

    def _run_rule(self, rule, lo, hi, outer_ctx, local_rules):
        saved = self.rule_window
        self.rule_window = (lo, hi)
        try:
            return super()._run_rule(rule, lo, hi, outer_ctx, local_rules)
        finally:
            self.rule_window = saved

    def _parse_alternative(self, name, alternative, lo, hi, outer_ctx, local_rules):
        """Recovery-mode alternative execution with a *spill* fallback.

        Child-window substitution (:meth:`_exec_nonterminal` /
        :meth:`_exec_array`) handles the localized failures.  Everything
        it cannot localize — an interval reaching past a truncated input,
        an attribute reference poisoned by an earlier error, a failed
        guard or literal — would otherwise fail the whole alternative and
        throw away every sibling already parsed.  Instead, the first such
        failure *spills*: the un-consumed tail of the rule's window
        becomes one :class:`ErrorNode` carrying the window's taxonomy
        diagnosis, subsequent failing terms are skipped (they lie in the
        declared error region), and the alternative commits with the
        salvaged prefix.  Spilling is restricted to context-free
        (top-level) invocations — a ``where``-local alternative fails
        normally and lets the enclosing top-level window recover — and
        never claims the entire window (the no-total-loss rule), so a
        genuinely hopeless alternative still fails over to the next one
        and to the rule-level resync scan.
        """
        if not self.recovering:
            return super()._parse_alternative(
                name, alternative, lo, hi, outer_ctx, local_rules
            )
        ctx = EvalContext(initial_env(hi - lo), outer=outer_ctx)
        children: List[ParseTree] = []
        if alternative.local_rules:
            local_rules = _LocalRules(
                {rule.name: rule for rule in alternative.local_rules}, local_rules
            )
        can_spill = outer_ctx is None and self.grammar.has_rule(name)
        spilled = False
        try:
            for term in alternative.terms:
                try:
                    ok = self._exec_term(term, ctx, children, lo, hi, local_rules)
                except EvaluationError:
                    ok = False
                if ok:
                    continue
                if spilled or id(ctx) in self.spilled_ctxs:
                    continue
                if not can_spill:
                    return FAIL
                rest = self._rest_error(
                    name, ctx, lo, hi, self._diagnose_window(name, lo, hi)
                )
                if rest is None:
                    return FAIL
                upd_start_end_in_place(
                    ctx.env, rest.env["start"], rest.env["end"], True
                )
                if self.build:
                    children.append(rest)
                spilled = True
        finally:
            self.spilled_ctxs.discard(id(ctx))
        return Node(name, ctx.snapshot_env(), children)

    # -- substitution -------------------------------------------------------
    def _substitutable(self, name: str, local_rules) -> bool:
        """Whether a failed ``name`` window may become an :class:`ErrorNode`.

        Only context-free invocations qualify: top-level rules and
        blackboxes are fully determined by their window, so the diagnosis
        re-entry can re-run them with no outer scope.  A ``where``-local
        rule (or a builtin leaf) failing simply fails its alternative —
        the enclosing *top-level* window is the recovery unit.
        """
        if local_rules is not None and local_rules.lookup(name) is not None:
            return False
        return self.grammar.has_rule(name) or name in self.grammar.blackboxes

    def _substitute(self, name: str, lo: int, hi: int) -> Optional[ErrorNode]:
        """An :class:`ErrorNode` for the failed child window, if allowed.

        Empty windows carry no salvageable bytes, and an alternative may
        not claim its rule's *entire* window as one error — the parent
        spine (or the document root) makes that call with its own sibling
        context; allowing it here would commit the first alternative's
        total loss before later alternatives (or the resync scan) get a
        chance.
        """
        if lo >= hi:
            return None
        if self.rule_window is not None and (lo, hi) == self.rule_window:
            return None
        return ErrorNode(name, lo, hi, self._diagnose_window(name, lo, hi))

    def _exec_nonterminal(self, term, ctx, children, lo, hi, local_rules):
        if not self.recovering:
            return super()._exec_nonterminal(term, ctx, children, lo, hi, local_rules)
        bounds = self._interval(term, ctx, hi - lo)
        if bounds is None:
            return False
        left, right = bounds
        result = self.parse_nonterminal(term.name, lo + left, lo + right, ctx, local_rules)
        if result is FAIL:
            if not self._substitutable(term.name, local_rules):
                return False
            result = self._substitute(term.name, lo + left, lo + right)
            if result is None:
                return False
        adjusted = _rebase(result, left)
        upd_start_end_in_place(
            ctx.env, adjusted.env["start"], adjusted.env["end"], result.env["end"] != 0
        )
        ctx.record_node(adjusted)
        if self.build:
            children.append(adjusted)
        return True

    def _exec_array(self, term, ctx, children, lo, hi, local_rules):
        if not self.recovering:
            return super()._exec_array(term, ctx, children, lo, hi, local_rules)
        first = term.start.evaluate(ctx)
        stop = term.stop.evaluate(ctx)
        element_name = term.element.name
        elements: List[Node] = []
        had_binding = term.var in ctx.env
        saved = ctx.env.get(term.var)
        had_array = element_name in ctx.arrays
        saved_array = ctx.arrays.get(element_name)
        ctx.arrays[element_name] = elements
        completed = False
        try:
            for index in range(first, stop):
                ctx.env[term.var] = index
                failed_locate: Optional[Exception] = None
                try:
                    left = term.element.interval.left.evaluate(ctx)
                    right = term.element.interval.right.evaluate(ctx)
                except EvaluationError:
                    # The element's interval references a poisoned (failed)
                    # predecessor or an unbound attribute: the loop cannot
                    # locate this element at all.
                    left = right = None
                    failed_locate = BoundsViolation(
                        f"interval of element {element_name}({index}) "
                        f"failed to evaluate",
                        nonterminal=element_name,
                        offset=lo + ctx.env.get("end", 0),
                    )
                if failed_locate is None and not 0 <= left <= right <= hi - lo:
                    failed_locate = self._locate_error(
                        element_name, index, lo, hi, left, right
                    )
                if failed_locate is not None:
                    if left is not None:
                        # The element *was* located but its declared
                        # interval is invalid (an offset lie, a record
                        # past EOF): that one element becomes an error —
                        # clamped into the window, possibly empty when the
                        # record lies entirely elsewhere — and the loop
                        # continues with its siblings.  One lying
                        # directory entry must not write off the rest.
                        # (No _substitutable guard: the diagnosis is
                        # already in hand, nothing re-enters the engine,
                        # so even where-local elements are safe here.)
                        substituted = self._clamped_element_error(
                            element_name, lo, hi, left, right, failed_locate
                        )
                        if substituted is not None:
                            upd_start_end_in_place(
                                ctx.env,
                                substituted.env["start"],
                                substituted.env["end"],
                                substituted.env["end"] != substituted.env["start"],
                            )
                            elements.append(substituted)
                            continue
                    # Rest-is-error: everything this term has not consumed
                    # yet becomes one error window and the loop stops —
                    # the maximal valid prefix of the records is kept.
                    rest = self._rest_error(element_name, ctx, lo, hi, failed_locate)
                    if rest is None:
                        return False
                    elements.append(rest)
                    upd_start_end_in_place(
                        ctx.env, rest.env["start"], rest.env["end"], True
                    )
                    # The enclosing alternative's window tail is now a
                    # declared error region; its later failing terms are
                    # skipped rather than failing the alternative.
                    self.spilled_ctxs.add(id(ctx))
                    break
                result = self.parse_nonterminal(
                    element_name, lo + left, lo + right, ctx, local_rules
                )
                if result is FAIL:
                    if not self._substitutable(element_name, local_rules):
                        return False
                    result = self._substitute_element(
                        element_name, lo + left, lo + right
                    )
                    if result is None:
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

    def _locate_error(self, name, index, lo, hi, left, right) -> Exception:
        """Classify an element interval that is invalid within its window."""
        data_len = len(self.data)
        if 0 <= left <= right and lo + right > data_len:
            return TruncatedInput(
                f"element {name}({index}) needs interval [{left}, {right}) "
                f"reaching {lo + right - data_len} byte(s) past end of input",
                nonterminal=name,
                offset=data_len,
                interval=(lo + left, lo + right),
            )
        return BoundsViolation(
            f"invalid interval [{left}, {right}) for element {name}({index}) "
            f"in a {hi - lo}-byte window",
            nonterminal=name,
            offset=min(max(lo + left, lo), data_len) if left >= 0 else lo,
            interval=(lo + left, lo + right),
        )

    def _rest_error(self, name, ctx, lo, hi, error) -> Optional[ErrorNode]:
        """One error window covering the bytes after the last good element."""
        rest_lo = lo + ctx.env.get("end", 0)
        if rest_lo >= hi:
            return None
        if self.rule_window is not None and (rest_lo, hi) == self.rule_window:
            return None
        node = ErrorNode(name, rest_lo, hi, error)
        # As a direct (un-rebased) child its env must be parent-relative.
        node.env["start"] = rest_lo - lo
        node.env["end"] = hi - lo
        return node

    def _clamped_element_error(
        self, name, lo, hi, left, right, error
    ) -> Optional[ErrorNode]:
        """ErrorNode for a located element whose interval is invalid.

        Valid element intervals satisfy ``0 <= left <= right <= hi - lo``,
        so the clamp of an invalid one into ``[lo, hi)`` never claims
        bytes a sibling legitimately parses; a record pointing entirely
        outside the window clamps to an empty window that still carries
        the diagnosis.
        """
        clamped_lo = min(max(lo + left, lo), hi)
        clamped_hi = min(max(lo + right, clamped_lo), hi)
        if self.rule_window is not None and (clamped_lo, clamped_hi) == self.rule_window:
            return None  # no-total-loss: never declare the whole rule an error
        node = ErrorNode(name, clamped_lo, clamped_hi, error)
        # As a direct (un-rebased) child its env must be parent-relative.
        node.env["start"] = clamped_lo - lo
        node.env["end"] = clamped_hi - lo
        return node

    def _substitute_element(self, name, lo, hi) -> Optional[ErrorNode]:
        """Element substitution, stride-clamped for fixed-shape records.

        When the element rule has a statically fixed byte shape and its
        window is open-ended (larger than one record), the error consumes
        exactly one record width — the next iteration resumes right after
        the skipped record instead of writing off the rest of the table.
        """
        if lo >= hi:
            return None
        shape = self._element_shape(name)
        clamped = hi
        if shape is not None and 0 < shape.needed < hi - lo:
            clamped = lo + shape.needed
        if self.rule_window is not None and (lo, clamped) == self.rule_window:
            return None
        return ErrorNode(name, lo, clamped, self._diagnose_window(name, lo, clamped))

    def _element_shape(self, name: str):
        shape = self.shape_cache.get(name, _NOTHING)
        if shape is _NOTHING:
            if self.grammar.has_rule(name):
                from .shapes import rule_shape

                shape = rule_shape(self.grammar, name)
            else:
                shape = None
            self.shape_cache[name] = shape
        return shape

    # -- blackboxes ---------------------------------------------------------
    def _parse_blackbox(self, name, lo, hi):
        try:
            return super()._parse_blackbox(name, lo, hi)
        except _CAPTURED:
            if self.recovering:
                # The raise becomes a plain rejection here; the enclosing
                # term substitutes an ErrorNode whose diagnosis re-raises
                # and captures the underlying exception.
                return FAIL
            raise

    # -- FIRST-set resync ---------------------------------------------------
    def _first_bytes(self, name: str) -> Optional[frozenset]:
        cached = self.first_cache.get(name, _NOTHING)
        if cached is not _NOTHING:
            return cached
        table = getattr(self.parser, "_recover_first_sets", None)
        if table is None:
            from .firstsets import first_sets

            table = first_sets(self.grammar)
            self.parser._recover_first_sets = table
        alternatives = table.get(name)
        result: Optional[frozenset] = None
        if alternatives:
            admissible: Optional[set] = set()
            for alt in alternatives:
                if alt.admissible is None:
                    admissible = None  # any byte: scanning is meaningless
                    break
                admissible |= alt.admissible
            result = frozenset(admissible) if admissible is not None else None
        self.first_cache[name] = result
        return result

    def _resync(self, name: str, lo: int, hi: int):
        """Last resort for a window whose alternatives all failed: scan
        forward for the next FIRST-admissible byte at which the rule
        re-parses cleanly, and commit ``[ErrorNode(prefix), suffix]``.

        Bounded: at most ``DEFAULT_RESYNC_SCAN_BYTES`` bytes are examined
        and at most ``DEFAULT_RESYNC_PROBES`` candidate offsets probed, so
        a window of garbage costs O(scan) plus a handful of engine probes,
        not O(n²).
        """
        if hi - lo < 2:
            return FAIL
        admissible = self._first_bytes(name)
        if not admissible:
            return FAIL
        data = self.data
        limit = min(hi, lo + 1 + DEFAULT_RESYNC_SCAN_BYTES)
        probes = 0
        for q in range(lo + 1, limit):
            try:
                byte = data[q]
            except _CAPTURED:
                return FAIL
            if byte not in admissible:
                continue
            probes += 1
            if probes > DEFAULT_RESYNC_PROBES:
                return FAIL
            if not self._probe_ok(name, q, hi):
                continue
            suffix = self._decode_clean(name, q, hi)
            if suffix is FAIL:
                continue
            error = ErrorNode(name, lo, q, self._diagnose_window(name, lo, hi))
            rebased = _rebase(suffix, q - lo)
            env = {
                "EOI": hi - lo,
                "start": 0,
                "end": (q - lo) + suffix.env.get("end", 0),
            }
            # Specials only: the resynced parse does not cover the whole
            # window, so the rule's user attributes would be lies.
            return Node(name, env, [error, rebased])
        return FAIL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_recover(
    parser,
    data,
    start: Optional[str] = None,
    *,
    max_errors: Optional[int] = None,
) -> RecoveredDocument:
    """Parse ``data``, salvaging what parses; the implementation behind
    :meth:`repro.core.interpreter.Parser.parse_recover`.

    Never raises for input-shaped problems: an unrecoverable document (or
    a tripped resource budget) comes back as a :class:`RecoveredDocument`
    whose root is a single :class:`ErrorNode`.  Configuration errors — an
    unknown start symbol, a reachable blackbox with no implementation —
    still raise, exactly like every other entry point.  ``max_errors``
    bounds the degradation a caller will accept: one error more and the
    original structured diagnosis is raised as if recovery were off.
    """
    buffer = as_buffer(data)
    start_name = start or parser.grammar.start
    parser._validate_blackboxes(start_name)
    n = len(buffer)
    # Fast path: input that parses takes exactly the normal engine route
    # (recovery never changes the parse of a clean input).
    try:
        tree = parser.try_parse(buffer, start_name)
    except _CAPTURED:
        tree = None
    except LimitExceeded as exc:
        return _degraded(start_name, n, exc)
    if tree is not None:
        return RecoveredDocument(tree, [], n)
    run = _RecoverRun(parser, buffer)
    try:
        root = _guarded(
            parser.recursion_limit, start_name, run._recover_rule,
            start_name, 0, n, True,
        )
        if root is FAIL:
            root = ErrorNode(
                start_name, 0, n, run._diagnose_window(start_name, 0, n)
            )
    except (LimitExceeded, *_CAPTURED) as exc:
        # A tripped budget, or a fault that escaped every window
        # boundary: the document degrades instead of raising.
        return _degraded(start_name, n, exc)
    errors = collect_errors(root)
    if max_errors is not None and len(errors) > max_errors:
        from .diagnose import diagnose_parser

        raise diagnose_parser(parser, buffer, start_name)
    return RecoveredDocument(root, errors, n)


def _degraded(start_name: str, n: int, error: Exception) -> RecoveredDocument:
    root = ErrorNode(start_name, 0, n, error)
    return RecoveredDocument(root, [root], n)


# ---------------------------------------------------------------------------
# Serialization (recovered-tree goldens, cross-engine comparison)
# ---------------------------------------------------------------------------


def jsonables_equal(a, b) -> bool:
    """Deep equality over jsonable structures, iterative.

    Salvaged trees can be deeper than the recursion limit the *caller*
    runs at (the engines parse under raised headroom), so ``==`` on two
    :func:`document_to_jsonable` results can overflow where this won't.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, dict):
            if not isinstance(y, dict) or x.keys() != y.keys():
                return False
            for key in x:
                stack.append((x[key], y[key]))
        elif isinstance(x, list):
            if not isinstance(y, list) or len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def document_to_jsonable(document: RecoveredDocument):
    """JSON-compatible form of a recovered document (goldens, diffing)."""
    return {
        "input_length": document.input_length,
        "salvaged_bytes": document.salvaged_bytes,
        "error_bytes": document.error_bytes,
        "errors": [
            {
                "rule": e.name,
                "window": list(e.window),
                "class": e.error_class,
                "offset": e.error_offset,
                "message": str(e.error),
            }
            for e in document.errors
        ],
        "tree": tree_to_jsonable(document.root),
    }
