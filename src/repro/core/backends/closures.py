"""The staged compiler backend: IPG grammars -> specialized Python closures.

The reference interpreter (:mod:`repro.core.interpreter`) executes every term
through an ``isinstance`` dispatch chain and re-walks each interval, guard
and attribute expression per parse.  This module removes that interpretive
overhead by *staging* the grammar once, at :class:`~repro.core.interpreter.
Parser` construction time, into plain Python functions:

* every expression is rendered to inline Python source by
  :mod:`repro.core.exprcomp` (constant folding, attribute names interned
  into function locals — a slot-based environment instead of per-term dict
  operations);
* every alternative becomes one flat function with term dispatch resolved
  at compile time: terminal byte-compares are inlined slice comparisons,
  fixed-width builtin integers (the paper's ``btoi`` specialization) are
  inlined ``int.from_bytes`` calls, rule calls are direct function calls;
* ``updStartEnd`` and the ``{EOI, start, end}`` specials live in locals and
  the final node environment is built with a single dict display;
* packrat memoization uses per-nonterminal tables allocated fresh per parse
  in a state list threaded through the calls, so concurrent and reentrant
  parses are isolated like the interpreter's per-run memo.

``where`` local rules compile to module-level functions taking an explicit
closure-cell list (:mod:`repro.core.exprcomp`): the declaring alternative
mirrors its locals into the cell list as they are bound, so hot loops (ELF
sections, ZIP entries) never pay function construction per invocation.

Packrat memo tables are specialized from the whole-grammar analysis
(:func:`repro.core.ir.analyze`), with no toggle:

* **dense memo tables** — rules whose every call site pins the right
  interval endpoint to the (unrebound) ``EOI`` special are always invoked
  with the same ``hi`` within one parse, so their memo key collapses from
  a ``(lo, hi)`` tuple to the bare ``lo`` offset (a flat ``lo``-indexed
  array was measured as well; its O(input-length) per-parse allocation
  loses whenever call sites are sparser than one per byte, so the
  ``lo``-keyed table remains a dict);
* **memo elision** — in batch compilations, rules that cannot recur (no
  cycle through the nonterminal dependency graph, computed with
  :func:`repro.core.cycles.recursive_vertices`) skip memoization entirely:
  a correct parse re-derives their result, it never corrupts it.  The
  stream variant (``stream=True``) memoizes every top-level rule instead.

Three optimization passes, individually toggleable through
:class:`Optimizations`, specialize further:

* **single-use inlining** — a rule with one alternative referenced from
  exactly one call site (a plain nonterminal term like ``FileName ->
  Bytes``, an array element like ELF's ``Sym``, or a switch-case target)
  is expanded into that call site, eliminating the call, the memo probe
  and the environment rebase copy (never in the stream variant).  The
  same pass runs each right chain (:func:`repro.core.ir.right_chains`)
  as one rule function with a forward and a backward loop over its
  levels instead of two calls per level (:meth:`_GrammarCompiler.
  _chain_body`), and builds the subtree of each fixed term of a chain
  step or an inlined array element (:func:`repro.core.ir.fixed_terms`)
  once per loop entry;
* **first-byte dispatch** — where the FIRST-set analysis
  (:mod:`repro.core.firstsets`) proves the window's first byte
  discriminates between alternatives, the dispatcher jumps through a
  256-entry tuple table (or a 256-byte admissibility mask for
  single-alternative rules), emitted as one ``_table`` call, instead of
  trying alternatives in order;
* **bulk fixed shapes** — statically fixed layouts
  (:mod:`repro.core.shapes`) decode with one precompiled ``struct`` call
  per fixed prefix or fixed-stride array; which prefixes and arrays do is
  an analysis fact (:func:`repro.core.ir.analyze`).

A separate **tree-elision** compilation (``compile_grammar(...,
elide_tree=True)``) backs ``Parser.parse(data, emit="spans"|None)``: the
generated alternatives keep the full attribute semantics but skip all
children lists, ``Leaf`` payload copies and ``ArrayNode`` wrappers,
returning env-carrying node shells only.

The compiled backend produces parse trees *identical* (``==``) to the
interpreter; the cross-engine matrix (``tests/engine_matrix.py``) enforces
this differentially on every bundled format grammar, on property-based
workloads, and with every optimization pass toggled on and off.
Constructs the compiler cannot specialize raise
:class:`~repro.core.errors.CompilationError`, which the ``Parser`` turns
into a silent fallback to the interpreter.

Public API:

``compile_grammar(grammar, memoize=True, blackboxes=None, optimizations=None,
elide_tree=False, stream=False)``
    Stage a prepared grammar and return a :class:`CompiledGrammar`.

``CompiledGrammar.to_source()``
    Render the staged grammar as a **standalone importable module** (see
    :mod:`repro.core.codegen`), the ahead-of-time output of
    ``repro compile``.
"""

from __future__ import annotations

import os
import re
import threading
from collections import Counter
from dataclasses import dataclass
from time import monotonic as _monotonic
from typing import Dict, List, Optional, Set, Tuple, Union

from ..ast import (
    Alternative,
    Grammar,
    Interval,
    Rule,
    Term,
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from ..buffers import as_buffer
from ..builtins import BUILTINS, is_builtin
from ..errors import CompilationError, IPGError
from ..expr import Num
from ..exprcomp import (
    SPECIALS,
    LoopVar,
    Namer,
    Scope,
    cells_path,
    compile_expr,
    fold,
)
from ..interpreter import FAIL, prepare_grammar
from ..limits import DEFAULT_LIMITS, ParseLimits
from .. import runtime
from ..parsetree import Leaf
from ..runtime import (
    _FIXED_INTS,
    _RECURSION_LIMIT,
    _aidx_env,
    _call_blackbox,
    _guarded,
    _make_builtin_runner,
    _make_builtin_runner_elided,
)
from ..ir import Optimizations, analyze as analyze_grammar

# ---------------------------------------------------------------------------
# Per-compilation bindings (the shared helpers live in repro.core.runtime)
# ---------------------------------------------------------------------------

#: The file name of staged grammar code in tracebacks.
_FILENAME = "<ipg-compiled-grammar>"

#: Serializes :meth:`CompiledGrammar.stage_all` across threads.
_STAGING = threading.Lock()


def _staging_after_fork():
    # The lock may have been held by another thread at the fork; a child
    # staging an engine that thread left half staged re-runs it whole.
    global _STAGING
    _STAGING = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_staging_after_fork)

#: The helpers every staged grammar's namespace starts from.
_RUNTIME_NAMESPACE: Dict[str, object] = {
    name: getattr(runtime, name) for name in runtime.__all__
}


def _make_wall_deadline(max_wall_ms):
    """Build the per-parse deadline thunk the generated ``_fuel()`` calls."""
    if max_wall_ms is None:
        return lambda: None
    budget = max_wall_ms / 1000.0

    def _wall_deadline():
        return _monotonic() + budget

    return _wall_deadline


def _limit_globals(limits: ParseLimits) -> Dict[str, object]:
    """The module globals a staged grammar's ``_fuel()`` reads its budgets from."""
    return {
        "_MAX_STEPS": limits.fuel(),
        "_wall_deadline": _make_wall_deadline(limits.max_wall_ms),
    }


def _make_blackbox_runner(blackboxes, elide_tree=False):
    """Blackbox dispatch closed over the parser's *live* registry dict."""

    def _bb(name, data, lo, hi):
        return _call_blackbox(blackboxes, name, data, lo, hi, elide_tree)

    return _bb


def _indent(lines: List[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line if line else line for line in lines]


def _tuple_src(items: List[str]) -> str:
    """Render a tuple display of source operands."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _table_src(row: List[str]) -> str:
    """Render a 256-entry row of source operands as one ``_table`` call.

    The most frequent operand is the default; every maximal run of other
    operands becomes one ``(lo, hi, operand)`` argument.
    """
    default = Counter(row).most_common(1)[0][0]
    runs = []
    start = 0
    while start < 256:
        end = start + 1
        while end < 256 and row[end] == row[start]:
            end += 1
        if row[start] != default:
            runs.append(f"({start}, {end}, {row[start]})")
        start = end
    return f"_table({', '.join([default] + runs)})"


_RETURN_FAIL = re.compile(r"^(\s*)return FAIL$")


def _raise_on_fail(lines: List[str]) -> List[str]:
    """Turn an alternative body's ``return FAIL`` exits into raises.

    A right chain runs its step inline, inside the loop of its rule
    function, where ``return FAIL`` would fail the whole rule: raised
    instead, the failure reaches the handler that maps evaluation
    errors to the step's failure, exactly like the step function's own.
    """
    out = []
    for line in lines:
        match = _RETURN_FAIL.match(line)
        out.append(f"{match.group(1)}raise EvaluationError" if match else line)
    return out


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _live_across(before: List[str], after: List[str]) -> List[str]:
    """The locals ``before`` binds that ``after`` mentions, sorted.

    The bound names come from compiling ``before`` as a function body
    (its locals and the ones its lambdas capture); every identifier of
    ``after`` counts as a use, which can only keep a local too many.
    """
    body = "\n".join(" " + line for line in before)
    module = compile(f"def _():\n{body}\n", "<chain>", "exec")
    code = next(const for const in module.co_consts if hasattr(const, "co_varnames"))
    bound = set(code.co_varnames) | set(code.co_cellvars)
    return sorted(bound & set(_IDENTIFIER.findall("\n".join(after))))


@dataclass
class _ChainStep:
    """A right chain's step alternative, split around its self-call."""

    #: Window locals and children initialisation (cannot fail).
    head: List[str]
    #: The terms before the self-call and its interval check.
    prefix: List[str]
    #: The self-call's left endpoint: the inner level starts at ``lo + left``.
    left: str
    #: Rebase of the inner level's result ``_v`` and the terms after it.
    suffix: List[str]
    #: The step's node expression.
    node: str
    #: Builds of the step's fixed subtrees, run once before the loops.
    hoisted: List[str]


# ---------------------------------------------------------------------------
# The grammar compiler
# ---------------------------------------------------------------------------

#: Owner of the generated module's ``_ENTRY`` block (see ``split``).
_ENTRY_BLOCK = object()


class _ChildSink:
    """Destination of an alternative's children, chosen per alternative.

    ``display``
        The child sequence is static (no switch/array terms): child
        expressions are collected at compile time and the final node is
        built with a single list display — no per-child ``.append`` calls.
    ``append``
        A switch or array term makes the sequence dynamic: fall back to a
        list local plus appends.
    ``none``
        Tree elision: children are never materialized and every node
        shares the module-level empty list ``_E``.
    """

    __slots__ = ("mode", "var", "items")

    def __init__(self, mode: str, var: Optional[str] = None):
        self.mode = mode
        self.var = var
        self.items: List[str] = []

    def add(self, expr: Optional[str], body: List[str]) -> None:
        if self.mode == "append":
            body.append(f"{self.var}.append({expr})")
        elif self.mode == "display":
            self.items.append(expr)

    def init_lines(self) -> List[str]:
        return [f"{self.var} = []"] if self.mode == "append" else []

    def final_expr(self) -> str:
        if self.mode == "append":
            return self.var
        if self.mode == "display":
            return "[" + ", ".join(self.items) + "]"
        return "_E"


class _GrammarCompiler:
    """Translates one prepared grammar into a module of specialized closures."""

    def __init__(
        self,
        grammar: Grammar,
        memoize: bool = True,
        optimizations: Optional[Optimizations] = None,
        elide_tree: bool = False,
        stream: bool = False,
        max_steps: Optional[int] = None,
        wall_clock: bool = False,
    ):
        self.grammar = grammar
        self.memoize = memoize
        self.opts = optimizations if optimizations is not None else Optimizations()
        #: Step budget (ParseLimits.max_steps): when set, every rule
        #: dispatcher decrements a shared per-parse counter cell (state
        #: slot 0, kind ``"c"``) and raises LimitExceeded on exhaustion —
        #: one list op on the memo-miss path.  ``None`` compiles the
        #: check out entirely.
        self.max_steps = max_steps
        #: Wall-clock budget (ParseLimits.max_wall_ms): when set, the fuel
        #: cell is still allocated (even with max_steps=None) so the
        #: amortized _limit_refill slow path can compare monotonic time
        #: against the per-parse deadline in ``cell[2]``.
        self.wall_clock = wall_clock
        self.fuel_slot: Optional[int] = None
        #: Where the fuel checks go (:class:`repro.core.ir.ChargePoints`).
        self.charges = None
        #: The variant the streaming driver re-enters.  Besides complete
        #: memoization (see :func:`repro.core.ir.analyze`), it remembers
        #: each dispatch decision in a per-parse ``lo``-keyed table instead
        #: of re-reading ``data[lo]`` on every re-entry: the byte at a
        #: given offset never changes, and the re-read of an in-flight
        #: spine rule would pin the compaction watermark at its window
        #: start (whole-stream buffering).  Batch parses read directly —
        #: cheaper than a dict probe when every rule runs exactly once per
        #: window.  Fused decodes stay flat-only and slice-based, so a read
        #: past the received bytes suspends.
        self.stream = stream
        #: Tree elision: generated alternatives keep the full attribute
        #: semantics (envs, records, arrays-of-envs) but never build
        #: children lists, Leafs or ArrayNodes — the execution mode behind
        #: ``Parser.parse(data, emit="spans"|None)``.
        self.elide = elide_tree
        #: Rule name -> firstsets.DispatchPlan for byte-indexed choice, and
        #: id(local Rule) -> plan for where-rule dispatch.
        self.dispatch_plans: Dict[str, object] = {}
        self.local_plans: Dict[int, object] = {}
        #: Fixed-shape struct plans (see :func:`repro.core.ir.analyze`):
        #: (top-level rule, alt index) -> fused prefix plan, and
        #: id(TermArray) -> bulk-decoding decision.
        self.prefix_plans: Dict[Tuple[str, int], object] = {}
        self.array_plans: Dict[int, object] = {}
        #: Right-chain rules run as one loop (see :func:`repro.core.ir.
        #: right_chains`): rule name -> ChainPlan.
        self.chains: Dict[str, object] = {}
        #: Terms built once per loop entry (see :func:`repro.core.ir.
        #: fixed_terms`): id(TermNonterminal) -> FixedTerm.
        self.fixed: Dict[int, object] = {}
        #: Where the loop being emitted builds its fixed subtrees: the
        #: lines run at its entry, or ``None`` outside chain steps and
        #: array element bodies.
        self._hoist: Optional[List[str]] = None
        self.namer = Namer()
        self.rule_fns: Dict[str, str] = {}
        #: Memo-table slot kinds of the per-parse state list ``st``:
        #: ``"d"`` for a ``(lo, hi)``-keyed table, ``"l"`` for a dense
        #: bare-``lo``-keyed one.  Fresh per parse, so parses are isolated
        #: like the interpreter's per-run memo — reentrancy/thread safe.
        self.memo_slots: List[str] = []
        #: Rule name -> "dict" | "dense" | "skipped" | "unmemoized".
        self.memo_modes: Dict[str, str] = {}
        #: Constants (prebuilt Leaf objects, builtin runners) injected into
        #: the generated module's globals.
        self.constants: Dict[str, object] = {}
        self._leaf_cache: Dict[bytes, str] = {}
        self._runner_cache: Dict[str, str] = {}
        self._tokens: Dict[str, str] = {}
        self._token_used: set = set()
        #: struct format -> module-level ``struct.Struct`` constant name; the
        #: definitions are emitted as plain source (``_sh0 = _struct.Struct(
        #: '<IBBHQQ')``) so ahead-of-time emission vendors them for free.
        self._struct_cache: Dict[str, str] = {}
        self._struct_lines: List[str] = []
        #: Deterministic per-compilation plan numbering: shape-plan attr
        #: locals must not depend on process-global analysis order, or two
        #: emissions of the same grammar would differ textually.  Keyed by
        #: ``id(plan)`` with the plan kept alive alongside its uid: a plan
        #: built for one bulk array and then dropped would otherwise free
        #: an id that a later plan can reuse, inheriting the stale uid.
        self._plan_uids: Dict[int, Tuple[int, object]] = {}
        #: Rules whose alternatives decode a fused fixed-shape prefix, and
        #: array element rules lowered to bulk struct decoding.
        self.shaped_rules: Set[str] = set()
        self.bulk_arrays: Set[str] = set()
        #: Module-level where-rule definitions awaiting emission.
        self._deferred: List[str] = []
        #: The generated module as ``(owner, text)`` blocks: a top-level
        #: rule owns its alternatives, tables, rule function and where-rule
        #: definitions; ``None`` owns the prelude (see :meth:`split`).
        self.blocks: List[Tuple[object, str]] = []
        #: Top-level rule -> the top-level rules its block calls, and the
        #: set of the rule being emitted.
        self.calls: Dict[str, Set[str]] = {}
        self._calls: Set[str] = set()
        #: Rules the current compilation may expand inline.
        self._inline: Set[str] = set()
        #: Names of rules currently being expanded (cycle guard).
        self._inlining: Set[str] = set()
        #: Input-window variables of the function/expansion being compiled.
        self._lo = "lo"
        self._hi = "hi"
        #: Terms / where-rule presence of the alternative currently being
        #: compiled (bulk array lowering scans them for element references).
        self._current_alternative_terms: Optional[List[Term]] = None
        self._current_alternative_locals = False

    # -- naming ------------------------------------------------------------
    def _token(self, raw: str) -> str:
        """A collision-free identifier fragment for a grammar-level name."""
        cached = self._tokens.get(raw)
        if cached is not None:
            return cached
        token = re.sub(r"\W", "_", raw) or "x"
        while token in self._token_used:
            token = f"{token}_{len(self._token_used)}"
        self._token_used.add(token)
        self._tokens[raw] = token
        return token

    def _leaf_const(self, value: bytes) -> str:
        name = self._leaf_cache.get(value)
        if name is None:
            name = f"_k{len(self._leaf_cache)}"
            self._leaf_cache[value] = name
            self.constants[name] = Leaf(value)
        return name

    def _builtin_runner(self, name: str) -> str:
        var = self._runner_cache.get(name)
        if var is None:
            var = f"_bi_{self._token(name)}"
            self._runner_cache[name] = var
            maker = _make_builtin_runner_elided if self.elide else _make_builtin_runner
            self.constants[var] = maker(name)
        return var

    def _struct_const(self, fmt: str) -> str:
        """Module-level ``struct.Struct`` constant for one format string."""
        var = self._struct_cache.get(fmt)
        if var is None:
            var = f"_sh{len(self._struct_cache)}"
            self._struct_cache[fmt] = var
            self._struct_lines.append(f"{var} = _struct.Struct({fmt!r})")
        return var

    def _assign_plan_uid(self, plan) -> None:
        """Renumber a shape plan for deterministic generated-local names."""
        numbered = self._plan_uids.get(id(plan))
        if numbered is None:
            numbered = self._plan_uids[id(plan)] = (len(self._plan_uids), plan)
        plan.uid = numbered[0]

    def _abs(self, offset: str) -> str:
        """Render the absolute input position of relative ``offset``."""
        return self._lo if offset == "0" else f"{self._lo} + {offset}"

    def _mirror(self, scope: Scope, local: str, body: List[str]) -> None:
        """Mirror a (re)bound local into the scope's closure-cell list."""
        if scope.has_locals:
            body.append(f"{scope.cell_local}[{scope.cell(local)}] = {local}")

    def _make_sink(self, alternative: Alternative, fid: str) -> _ChildSink:
        """Pick the children representation for one alternative's node."""
        if self.elide:
            return _ChildSink("none")
        if any(
            isinstance(term, (TermArray, TermSwitch)) for term in alternative.terms
        ):
            return _ChildSink("append", f"_ch{fid}")
        return _ChildSink("display")

    # -- top level ---------------------------------------------------------
    def _check_dynamic_shadowing(self) -> None:
        """Reject grammars whose where-rule dispatch is call-site dependent.

        The interpreter resolves the nonterminals a local rule's body uses
        through the *caller's* local-rule chain; the compiler binds them
        lexically at the declaration site.  The two differ only when a
        nested where-scope re-declares a name that an outer-declared local
        rule's body references (the outer rule may then be invoked from
        inside the nested scope; see
        :func:`repro.core.firstsets.where_shadowing_conflict`).  That shape
        gets a CompilationError so the Parser falls back to the interpreter.
        """
        from ..firstsets import where_shadowing_conflict

        conflict = where_shadowing_conflict(self.grammar)
        if conflict is not None:
            raise CompilationError(f"{conflict}, which is not specialized yet")

    def compile(self) -> str:
        self._check_dynamic_shadowing()
        if self.max_steps is not None or self.wall_clock:
            # Reserve slot 0 of the per-parse state for the fuel cell so
            # every dispatcher shares one counter (allocated by
            # _new_state from the module-global _MAX_STEPS, which
            # set_limits() can rebind in emitted modules).  A wall-clock
            # budget alone also needs the cell: _MAX_STEPS stays inf,
            # so refills never exhaust, but each one checks the
            # deadline stashed in cell[2].
            self.fuel_slot = len(self.memo_slots)
            self.memo_slots.append("c")
        # The analyze stage (repro.core.ir): one shared fact set instead of
        # per-backend re-derivation, fuel placement included.
        analysis = analyze_grammar(
            self.grammar,
            memoize=self.memoize,
            optimizations=self.opts,
            stream=self.stream,
        )
        self.charges = analysis.charges
        self._inline = set(analysis.inline)
        self.dispatch_plans = dict(analysis.dispatch_plans)
        self.local_plans = dict(analysis.local_plans)
        self.prefix_plans = analysis.prefix_plans
        self.array_plans = analysis.array_plans
        self.chains = analysis.chains
        self.fixed = analysis.fixed
        self.memo_modes.update(analysis.memo_modes)

        blocks = self.blocks
        blocks.append(
            (
                None,
                '"""Module staged by repro.core.compiler — one closure per alternative."""'
                "\n\n",
            )
        )
        for index, name in enumerate(self.grammar.rules):
            self.rule_fns[name] = f"_r{index}_{self._token(name)}"
        for name, rule in self.grammar.rules.items():
            self._calls = self.calls[name] = set()
            lines = self._compile_rule(
                rule,
                self.rule_fns[name],
                parent_scope=None,
                bindings={},
                memo_mode=self.memo_modes[name],
                toplevel=True,
            )
            lines.append("")
            lines += self._deferred
            self._deferred = []
            blocks.append((name, "\n".join(lines) + "\n"))
        lines = []
        if self._struct_lines:
            lines += self._struct_lines
            lines.append("")
        lines.append(f"_SLOTS = {''.join(self.memo_slots)!r}")
        lines.append("")
        if self.fuel_slot is not None:
            # Two-tier fuel cell: hot countdown (kept <= 256 so the
            # per-rule decrement stays in the cached small-int range and
            # never allocates) plus the rest of the budget, charged by
            # _limit_refill every 256 rule entries.
            lines.append("def _fuel():")
            lines.append("    _t = 256 if _MAX_STEPS > 256 else _MAX_STEPS")
            lines.append("    return [_t, _MAX_STEPS - _t, _wall_deadline()]")
            lines.append("")
        lines.append("def _new_state():")
        if self.fuel_slot is not None:
            lines.append(
                "    return [(_fuel() if _k == 'c' else {}) for _k in _SLOTS]"
            )
        else:
            lines.append("    return [{} for _k in _SLOTS]")
        lines.append("")
        blocks.append((None, "\n".join(lines) + "\n"))
        blocks.append((_ENTRY_BLOCK, self._entry_line(self.rule_fns)))
        return "".join(text for _owner, text in blocks)

    def _entry_line(self, names) -> str:
        entries = ", ".join(f"{name!r}: {self.rule_fns[name]}" for name in names)
        return f"_ENTRY = {{{entries}}}\n"

    def split(self, start: str) -> Tuple[str, Optional[str], int]:
        """Split the module into what a parse from ``start`` runs and the rest.

        Returns ``(staged, deferred, size)``.  ``staged`` is the prelude
        (struct constants, ``_SLOTS``, ``_fuel``, ``_new_state``) plus the
        blocks of every rule reachable from ``start`` through rule calls,
        with an ``_ENTRY`` of those rules; ``size`` counts its characters.
        ``deferred`` holds every other rule's block and the full
        ``_ENTRY``, or is ``None`` when nothing is left.  Each text keeps
        the other's blocks as blank lines, so both compile with the line
        numbers of :meth:`compile`'s source.
        """
        reached = {start} & set(self.calls)
        pending = list(reached)
        while pending:
            for callee in self.calls[pending.pop()] - reached:
                reached.add(callee)
                pending.append(callee)
        if len(reached) == len(self.calls):
            source = "".join(text for _owner, text in self.blocks)
            return source, None, len(source)
        staged: List[str] = []
        deferred: List[str] = []
        size = 0
        for owner, text in self.blocks:
            if owner is _ENTRY_BLOCK:
                names = [name for name in self.rule_fns if name in reached]
                staged.append(self._entry_line(names))
                deferred.append(text)
                size += len(text)
            elif owner is None or owner in reached:
                staged.append(text)
                deferred.append("\n" * text.count("\n"))
                size += len(text)
            else:
                staged.append("\n" * text.count("\n"))
                deferred.append(text)
        return "".join(staged), "".join(deferred), size

    def _compile_rule(
        self,
        rule: Rule,
        fn_name: str,
        parent_scope: Optional[Scope],
        bindings: Dict[str, Tuple[str, Scope]],
        memo_mode: str,
        toplevel: bool,
    ) -> List[str]:
        """Emit the alternative functions plus the biased-choice dispatcher."""
        token = self._token(rule.name)
        alt_fns = [
            self.namer.fresh(f"_alt_{token}_") for _ in rule.alternatives
        ]
        # Where rules thread the declaring scope's cell list through an
        # explicit trailing argument.
        args = "st, data, lo, hi" if toplevel else "st, data, lo, hi, _cells"
        chain = self.chains.get(rule.name) if toplevel else None
        lines: List[str] = []
        for alt_index, (alternative, alt_fn) in enumerate(
            zip(rule.alternatives, alt_fns)
        ):
            is_step = chain is not None and alt_index == chain.step
            compiled = self._compile_alternative(
                rule.name,
                alternative,
                alt_fn,
                parent_scope,
                bindings,
                alt_index=alt_index,
                toplevel=toplevel,
                chain_call=chain.call if is_step else None,
            )
            if is_step:
                step = compiled  # runs inline in the rule's loop: no function
                continue
            lines += compiled
            lines.append("")
        if toplevel:
            plan = self.dispatch_plans.get(rule.name)
        else:
            plan = self.local_plans.get(id(rule))
        # Table constants are named after the (unique) dispatcher function:
        # distinct where-rules may share a bare rule name.
        table_token = fn_name[1:]
        cache_slot = None
        if chain is not None:
            lines += self._emit_chain_table(plan, alt_fns, chain.step, table_token)
            lines.append("")
            lines.append(f"def {fn_name}({args}):")
            lines += _indent(
                self._chain_body(
                    step, chain, plan, table_token, memo_mode, len(alt_fns)
                )
            )
            return lines
        if plan is not None:
            lines += self._emit_dispatch_table(plan, alt_fns, table_token)
            lines.append("")
            if self.stream:
                cache_slot = len(self.memo_slots)
                self.memo_slots.append("b")
        body: List[str] = []
        # Fuel check: one counter decrement per activation of a
        # recursive rule, top-level or where, placed after the memo probe
        # (memo hits replay free, as on every engine).
        fuel_check: List[str] = []
        if self.fuel_slot is not None and id(rule) in self.charges.rules:
            fuel_check = [
                f"_c = st[{self.fuel_slot}]",
                "_c[0] -= 1",
                "if _c[0] < 0:",
                "    _limit_refill(_c)",
            ]
        if memo_mode in ("dict", "dense"):
            if not toplevel:  # pragma: no cover - local rules are never memoized
                raise CompilationError("local rules cannot be memoized")
            slot = len(self.memo_slots)
            self.memo_slots.append("d" if memo_mode == "dict" else "l")
            body.append(f"_m = st[{slot}]")
            if memo_mode == "dict":
                body.append("_key = (lo, hi)")
            else:
                # Dense: every invocation shares this parse's hi, so the
                # (lo, hi) memo key collapses to the bare lo offset — no
                # tuple allocation, no composite hashing.  (A flat
                # lo-indexed array was measured too: its O(input length)
                # per-parse allocation loses whenever call sites are
                # sparser than one per byte, which every bundled format's
                # are, so the lo-keyed table stays a dict.)
                body.append("_key = lo")
            body.append("_v = _m.get(_key, _MISS)")
            body.append("if _v is not _MISS:")
            body.append("    return _v")
            body += fuel_check
            body += self._attempt_lines(plan, alt_fns, table_token, args, cache_slot)
            body.append("_m[_key] = _v")
            body.append("return _v")
        elif plan is not None:
            body += fuel_check
            body += self._attempt_lines(plan, alt_fns, table_token, args, cache_slot)
            body.append("return _v")
        elif len(alt_fns) == 1:
            body += fuel_check
            body.append(f"return {alt_fns[0]}({args})")
        else:
            body += fuel_check
            body.append(f"_v = {alt_fns[0]}({args})")
            for alt_fn in alt_fns[1:]:
                body.append("if _v is FAIL:")
                body.append(f"    _v = {alt_fn}({args})")
            body.append("return _v")
        lines.append(f"def {fn_name}({args}):")
        lines += _indent(body)
        return lines

    def _emit_dispatch_table(
        self, plan, alt_fns: List[str], token: str, render=None
    ) -> List[str]:
        """Emit the module-level jump table for one rule's biased choice.

        Multi-alternative rules get a 256-entry tuple of (shared)
        alternative-function tuples plus an empty-window tuple;
        single-alternative rules collapse to a 256-byte admissibility mask.
        ``render`` (entry -> source) replaces the function tuples with
        other row constants; right chains use it.  Each table, FIRST₂ row
        and mask is one line, a call of the runtime's ``_table`` (a
        default entry plus byte ranges; see :func:`_table_src`) that
        builds the tuple when the module executes.  Everything is plain
        source, so ahead-of-time emission (:mod:`repro.core.codegen`)
        vendors the tables as module-level constants for free.
        """
        lines: List[str] = []
        if render is None and len(alt_fns) == 1:
            mask = _table_src(["1" if entry else "0" for entry in plan.table])
            lines.append(f"_fbm_{token} = bytes({mask})")
            lines.append(f"_fbe_{token} = {1 if plan.empty else 0}")
            return lines
        groups: Dict[Tuple[int, ...], str] = {}
        order: List[Tuple[int, ...]] = []
        entries = list(plan.table) + [plan.empty]
        if plan.pair_table:
            for _offset, row in plan.pair_table.values():
                entries.extend(row)
        for entry in entries:
            if entry not in groups:
                groups[entry] = f"_fb{len(groups)}_{token}"
                order.append(entry)
        for entry in order:
            if render is None:
                rendered = _tuple_src([alt_fns[index] for index in entry])
            else:
                rendered = render(entry)
            lines.append(f"{groups[entry]} = {rendered}")
        table = _table_src([groups[entry] for entry in plan.table])
        lines.append(f"_fbt_{token} = {table}")
        lines.append(f"_fbe_{token} = {groups[plan.empty]}")
        if plan.pair_table:
            # FIRST₂ prefix-probe refinement: per refined first byte, the
            # probe offset plus a 256-entry row over the probed byte.
            lines.append(f"_fp_{token} = {{")
            for byte in sorted(plan.pair_table):
                offset, row = plan.pair_table[byte]
                rendered = _table_src([groups[entry] for entry in row])
                lines.append(f"    {byte}: ({offset}, {rendered}),")
            lines.append("}")
        return lines

    def _attempt_lines(
        self,
        plan,
        alt_fns: List[str],
        token: str,
        args: str,
        cache_slot: Optional[int] = None,
    ) -> List[str]:
        """Byte-dispatched biased choice, leaving the outcome in ``_v``.

        Reading ``data[lo]`` (and comparing ``lo < hi``) is exactly as
        streaming-safe as the alternatives themselves: on a
        :class:`~repro.core.streaming.StreamBuffer` an undecidable read
        suspends via ``NeedMoreInput`` after pinning its offset for the
        compaction policy, and the whole attempt unwinds — no decision is
        committed on incomplete information.  With ``cache_slot`` set (the
        streaming variant), each successful decision is remembered in a
        per-parse ``lo``-keyed table so re-entries of in-flight rules never
        touch the buffer again — the read of a spine rule's first byte on
        every attempt would otherwise pin the compaction watermark at its
        window start.
        """
        if plan is None:
            body = [f"_v = {alt_fns[0]}({args})"]
            for alt_fn in alt_fns[1:]:
                body.append("if _v is FAIL:")
                body.append(f"    _v = {alt_fn}({args})")
            return body
        if len(alt_fns) == 1:
            if cache_slot is None:
                probe = [
                    "if lo < hi:",
                    f"    _ok = _fbm_{token}[data[lo]]",
                ]
            else:
                probe = [
                    "if lo < hi:",
                    f"    _dc = st[{cache_slot}]",
                    "    _ok = _dc.get(lo)",
                    "    if _ok is None:",
                    f"        _ok = _fbm_{token}[data[lo]]",
                    "        _dc[lo] = _ok",
                ]
            return probe + [
                "else:",
                f"    _ok = _fbe_{token}",
                f"_v = {alt_fns[0]}({args}) if _ok else FAIL",
            ]
        return self._row_lines(plan, token, cache_slot) + [
            "_v = FAIL",
            "for _f in _fs:",
            f"    _v = _f({args})",
            "    if _v is not FAIL:",
            "        break",
        ]

    def _row_lines(
        self, plan, token: str, cache_slot: Optional[int] = None
    ) -> List[str]:
        """Leave the jump-table row of the window's first byte(s) in ``_fs``."""
        if plan.pair_table:
            decide = [
                "_b = data[lo]",
                f"_t2 = _fp_{token}.get(_b)",
                "if _t2 is None:",
                f"    _fs = _fbt_{token}[_b]",
                "elif lo + _t2[0] < hi:",
                "    _fs = _t2[1][data[lo + _t2[0]]]",
                "else:",
                f"    _fs = _fbt_{token}[_b]",
            ]
        else:
            decide = [f"_fs = _fbt_{token}[data[lo]]"]
        if cache_slot is None:
            probe = ["if lo < hi:"] + _indent(decide)
        else:
            probe = [
                "if lo < hi:",
                f"    _dc = st[{cache_slot}]",
                "    _fs = _dc.get(lo)",
                "    if _fs is None:",
            ]
            probe += _indent(decide, 2)
            probe.append("        _dc[lo] = _fs")
        return probe + ["else:", f"    _fs = _fbe_{token}"]

    # -- right chains ------------------------------------------------------
    def _emit_chain_table(
        self, plan, alt_fns: List[str], step: int, token: str
    ) -> List[str]:
        """The rows of a right chain's choice, as ``(before, step, after)``.

        Each row holds the admitted alternative functions before the step,
        whether the step is admitted, and the admitted ones after it.
        Without a dispatch plan, one row ``_fbs_`` admits everything.
        """

        def render(entry) -> str:
            before = _tuple_src([alt_fns[index] for index in entry if index < step])
            after = _tuple_src([alt_fns[index] for index in entry if index > step])
            return f"({before}, {1 if step in entry else 0}, {after})"

        if plan is None:
            return [f"_fbs_{token} = {render(range(len(alt_fns)))}"]
        return self._emit_dispatch_table(plan, alt_fns, token, render)

    def _chain_body(
        self,
        step: _ChainStep,
        chain,
        plan,
        token: str,
        memo_mode: str,
        alternatives: int,
    ) -> List[str]:
        """The body of a right chain's rule function: two loops, no recursion.

        The forward loop runs one level per iteration, in the order the
        recursion entered them: memo probe, fuel charge, jump-table row,
        the alternatives before the step, then the step's prefix, which
        pushes the level's frame (its ``lo``, row and the locals its
        suffix reads) and moves ``lo`` to the inner level.  A memo hit or
        a level decided without the step ends it.  The backward loop pops
        the frames innermost first and finishes each level as the
        recursion's return path did: the step's suffix on the inner
        result, the alternatives after the step when that fails, and the
        memo store.
        """
        memo = memo_mode in ("dict", "dense")
        key = "(lo, hi)" if memo_mode == "dict" else "lo"
        before = chain.step > 0
        after = chain.step < alternatives - 1

        def trial(row: str) -> List[str]:
            return [
                f"for _f in {row}:",
                "    _v = _f(st, data, lo, hi)",
                "    if _v is not FAIL:",
                "        break",
            ]

        prefix = _raise_on_fail(step.prefix)
        # ``_own`` is the node the previous backward iteration built: the
        # suffix shifts it in place instead of copying it.
        suffix = _raise_on_fail(step.suffix) + [f"_v = {step.node}", "_own = _v"]
        live = _live_across(step.head + prefix, suffix)
        frame = ", ".join(["_cf", "lo"] + (["_post"] if after else []) + live)
        body: List[str] = []
        level: List[str] = []
        if memo:
            slot = len(self.memo_slots)
            self.memo_slots.append("d" if memo_mode == "dict" else "l")
            body.append(f"_m = st[{slot}]")
            # A tuple is a level this function's loop shifted in place.
            level += [
                f"_v = _m.get({key}, _MISS)",
                "if _v is not _MISS:",
                "    if _v.__class__ is tuple:",
                "        _v = _unshift(_v)",
                "    break",
            ]
        if self.fuel_slot is not None:
            body.append(f"_c = st[{self.fuel_slot}]")
            level += ["_c[0] -= 1", "if _c[0] < 0:", "    _limit_refill(_c)"]
        body += step.hoisted
        body.append("_cf = None")
        if plan is None:
            level.append(f"_pre, _stp, _post = _fbs_{token}")
        else:
            level += self._row_lines(plan, token)
            level.append("_pre, _stp, _post = _fs")
        level.append("_v = FAIL")
        undecided = ["if _stp:"]
        undecided += _indent(step.head + ["try:"])
        undecided += _indent(
            prefix + [f"_cf = {frame}", f"lo += {step.left}", "continue"], 2
        )
        undecided += _indent(
            ["except (EvaluationError, KeyError, NameError):", "    pass"]
        )
        if after:
            undecided += trial("_post")
        if before:
            level += trial("_pre")
            level += ["if _v is FAIL:"] + _indent(undecided)
        else:
            level += undecided
        if memo:
            level.append(f"_m[{key}] = _v")
        level.append("break")
        body += ["while True:"] + _indent(level)
        body.append("_own = None")
        back = [f"{frame} = _cf", "if _v is not FAIL:"]
        back += _indent(["try:"] + _indent(suffix))
        back += _indent(
            ["except (EvaluationError, KeyError, NameError):", "    _v = FAIL"]
        )
        if after:
            back += ["if _v is FAIL:"] + _indent(trial("_post"))
        if memo:
            back.append(f"_m[{key}] = _v")
        body += ["while _cf is not None:"] + _indent(back)
        body.append("return _v")
        return body

    # -- alternatives ------------------------------------------------------
    def _compile_alternative(
        self,
        rule_name: str,
        alternative: Alternative,
        fn_name: str,
        parent_scope: Optional[Scope],
        bindings: Dict[str, Tuple[str, Scope]],
        alt_index: int = 0,
        toplevel: bool = False,
        chain_call: Optional[int] = None,
    ):
        """The ``def`` of one alternative function.

        With ``chain_call``, a right chain's step instead, split around
        its self-call (see :meth:`_alternative_inner`).
        """
        saved_frame = (self._lo, self._hi, self._hoist)
        self._lo, self._hi = "lo", "hi"
        self._hoist = [] if chain_call is not None else None
        try:
            inner = self._alternative_inner(
                rule_name,
                alternative,
                parent_scope,
                bindings,
                alt_index=alt_index,
                toplevel=toplevel,
                chain_call=chain_call,
            )
        finally:
            self._lo, self._hi, self._hoist = saved_frame
        if chain_call is not None:
            return inner
        args = "st, data, lo, hi" if toplevel else "st, data, lo, hi, _cells"
        return [f"def {fn_name}({args}):"] + _indent(inner)

    def _alternative_inner(
        self,
        rule_name: str,
        alternative: Alternative,
        parent_scope: Optional[Scope],
        bindings: Dict[str, Tuple[str, Scope]],
        alt_index: int = 0,
        toplevel: bool = False,
        chain_call: Optional[int] = None,
    ):
        """The body lines of one alternative function.

        With ``chain_call`` (the index of a right chain's self-call) the
        body comes back split around that call as a :class:`_ChainStep`.
        """
        fid = self.namer.fresh("")
        scope = Scope(fid, parent_scope)
        sink = self._make_sink(alternative, fid)
        # Local (where) rules are visible to the terms and to each other;
        # function names are fixed before term compilation, bodies are
        # compiled afterwards so they close over the fully populated scope.
        local_bindings = dict(bindings)
        pending_locals: List[Tuple[Rule, str]] = []
        for local in alternative.local_rules:
            local_fn = self.namer.fresh(f"_w_{self._token(local.name)}_")
            local_bindings[local.name] = (local_fn, scope)
            pending_locals.append((local, local_fn))
        scope.has_locals = bool(pending_locals)
        if pending_locals:
            # Local rule bodies resolve enclosing arrays statically, which is
            # only equivalent to the interpreter's dynamic chain walk when
            # each element name has a single `for` term in this alternative;
            # with duplicates, hand the grammar to the interpreter instead.
            element_names = [
                term.element.name
                for term in alternative.terms
                if isinstance(term, TermArray)
            ]
            if len(element_names) != len(set(element_names)):
                raise CompilationError(
                    f"rule {rule_name!r}: where-rules combined with multiple "
                    f"same-named array terms are not specialized yet"
                )

        body: List[str] = []
        attr_order: List[str] = []
        saved_current = (self._current_alternative_terms, self._current_alternative_locals)
        self._current_alternative_terms = alternative.terms
        self._current_alternative_locals = bool(alternative.local_rules)
        try:
            plan = self.prefix_plans.get((rule_name, alt_index)) if toplevel else None
            if plan is not None:
                self._emit_fused_prefix(
                    plan, alternative, scope, body, attr_order, sink
                )
            consumed = plan.covered if plan else 0
            for index, term in enumerate(alternative.terms[consumed:], consumed):
                if index == chain_call:
                    prefix, body = body, []
                    chain_left = self._emit_chain_call(term, scope, prefix, body, sink)
                    continue
                self._emit_term(term, scope, local_bindings, body, attr_order, sink)
        finally:
            self._current_alternative_terms, self._current_alternative_locals = (
                saved_current
            )

        # Loop variables go out of scope after their array term, but local
        # rules are *called* from inside the loop, where the binding is live:
        # their bodies must observe the loop-variable local (ELF's `Sec` and
        # ZIP's `Entry` both reference the enclosing `i`).  Outside the loop
        # the local holds _UB (pre-initialised below, re-poisoned by
        # _emit_array), and the read falls through to the enclosing scope's
        # binding — or fails — exactly like the interpreter's env chain after
        # the binding is popped.
        loop_var_locals: List[str] = []
        for term in alternative.terms:
            if isinstance(term, TermArray) and term.var not in scope.names:
                local = f"_v{scope.fid}_{self._token(term.var)}"
                loop_var_locals.append(local)
                scope.names[term.var] = LoopVar(local, term.var)

        local_defs: List[str] = []
        for local, local_fn in pending_locals:
            local_defs += self._compile_rule(
                local,
                local_fn,
                scope,
                local_bindings,
                memo_mode="skipped",
                toplevel=False,
            )

        env_items = [
            f"'EOI': {scope.eoi}",
            f"'start': {scope.start}",
            f"'end': {scope.end}",
        ]
        env_items += [f"{name!r}: {scope.names[name]}" for name in attr_order]

        preamble: List[str] = []
        if pending_locals:
            # Where-rule bodies may read this scope's record locals before
            # the recording term ran; pre-initialise them so cross-scope
            # resolution can fall through on None instead of crashing.
            record_vars = [var for var, _certain in scope.node_envs.values()]
            record_vars += list(scope.arrays.values())
            for var in record_vars:
                preamble.append(f"{var} = None")
                self._mirror(scope, var, preamble)
            for var in loop_var_locals:
                preamble.append(f"{var} = _UB")
                self._mirror(scope, var, preamble)

        inner: List[str] = [
            f"_hl{fid} = hi - lo",
            f"{scope.eoi} = _hl{fid}",
            f"{scope.start} = _hl{fid}",
            f"{scope.end} = 0",
        ]
        inner += sink.init_lines()
        if scope.has_locals:
            parent_cells = "_cells" if parent_scope is not None else "None"
            slots = ", ".join(["_UB"] * len(scope.cell_slots))
            init = f"[{parent_cells}, {slots}]" if slots else f"[{parent_cells}]"
            inner.append(f"{scope.cell_local} = {init}")
            self._deferred += local_defs
        inner += preamble
        node = (
            f"_mk_node({rule_name!r}, {{{', '.join(env_items)}}}, "
            f"{sink.final_expr()})"
        )
        if chain_call is not None:
            return _ChainStep(inner, prefix, chain_left, body, node, self._hoist)
        inner.append("try:")
        inner += _indent(body if body else ["pass"])
        # KeyError covers missing node attributes, NameError covers
        # references evaluated before their defining term ran (both are
        # EvaluationError in the interpreter and fail the alternative).
        inner.append("except (EvaluationError, KeyError, NameError):")
        inner.append("    return FAIL")
        inner.append(f"return {node}")
        return inner

    # -- fixed-shape vectorization -----------------------------------------
    def _emit_fused_prefix(
        self,
        plan,
        alternative: Alternative,
        scope: Scope,
        body: List[str],
        attr_order: List[str],
        sink: _ChildSink,
    ) -> None:
        """Decode a fixed-layout prefix with one precompiled struct.

        Replaces the covered terms' per-field interval checks, slices and
        ``int.from_bytes`` calls with a single bounds check plus one
        ``Struct.unpack_from`` (``unpack`` over a slice on streams, where a
        read past the received bytes must suspend).  Attribute and guard
        steps run over the unpacked tuple; tree children are built from the
        same tuple as display expressions.
        """
        from ..shapes import emit_plan_code

        self.shaped_rules.add(plan.rule_name)
        self._assign_plan_uid(plan)
        fid = scope.fid
        hl = f"_hl{fid}"
        if plan.needed:
            body.append(f"if {hl} < {plan.needed}:")
            body.append("    return FAIL")
        tup = self.namer.fresh("_t")
        if plan.nslots:
            sconst = self._struct_const(plan.fmt)
            if self.stream:
                body.append(
                    f"{tup} = {sconst}.unpack("
                    f"data[{self._lo}:{self._abs(repr(plan.size))}])"
                )
            else:
                body.append(f"{tup} = {sconst}.unpack_from(data, {self._lo})")
        code = emit_plan_code(
            plan,
            slot_var=tup,
            eoi_src=hl,
            abs_base=self._lo,
            build=sink.mode != "none",
            leaf_const=self._leaf_const,
        )
        body += code.lines
        for name, local in code.attr_locals.items():
            scope.names[name] = local
            if name not in attr_order:
                attr_order.append(name)
        for child in code.child_exprs:
            sink.add(child, body)
        # Materialize node envs / element lists only for names the remaining
        # (uncovered) terms actually reference.
        later_refs = set()
        for term in alternative.terms[plan.covered :]:
            later_refs |= {name for tag, name in term.references() if tag == "nt"}
        for name in plan.recorded_names():
            if name in later_refs and scope.node_envs.get(name) is None:
                record = f"_nv{fid}_{self._token(name)}"
                body.append(f"{record} = {code.env_src(name)}")
                scope.node_envs[name] = (record, True)
        for name in plan.array_names():
            if name in later_refs:
                var = self.namer.fresh(f"_ar{fid}_{self._token(name)}")
                body.append(f"{var} = {code.array_src(name)}")
                scope.arrays[name] = var
        if plan.touch:
            # The prefix runs first: the specials still hold their initial
            # values, so the statically known span assigns directly.
            body.append(f"{scope.start} = {plan.start}")
            body.append(f"{scope.end} = {plan.end}")

    def _try_emit_bulk_array(
        self,
        term: TermArray,
        scope: Scope,
        body: List[str],
        sink: _ChildSink,
    ) -> bool:
        """Lower a fixed-stride array of a fixed-shape rule to bulk decoding.

        Batch compilations run one ``Struct.iter_unpack`` over a zero-copy
        ``memoryview`` of the interval; streaming compilations decode
        record-at-a-time from a resumable per-parse state slot, consuming
        ``floor(available / width)`` records per re-entry and suspending at
        a record boundary — a resumed array never re-reads records earlier
        attempts already decoded, preserving the compaction guarantee.
        """
        decision = self.array_plans[id(term)]
        if decision.shape is None:
            return False
        from ..shapes import emit_plan_code

        element, stride = decision.element, decision.stride
        interval = term.element.interval
        plan = decision.instantiate(self.grammar)
        self.bulk_arrays.add(element)
        self._assign_plan_uid(plan)
        fid = scope.fid
        first = self.namer.fresh("_t")
        stop = self.namer.fresh("_t")
        body.append(f"{first} = {compile_expr(term.start, scope, self.namer)}")
        body.append(f"{stop} = {compile_expr(term.stop, scope, self.namer)}")
        elements = self.namer.fresh(f"_ar{fid}_{self._token(element)}")
        body.append(f"{elements} = []")
        self._mirror(scope, elements, body)
        scope.arrays[element] = elements
        # Whether anything observes the element list (`E(i).attr` references
        # anywhere in the alternative, or where-rules that may): when not,
        # validate-only runs decode nothing but the guards.
        referenced = self._current_alternative_locals
        for other in self._current_alternative_terms or ():
            if referenced:
                break
            referenced = ("nt", element) in other.references()
        build_nodes = sink.mode != "none"
        keep = build_nodes or referenced
        checks = plan.checks_anything
        count = self.namer.fresh("_t")
        body.append(f"{count} = {stop} - {first}")
        outer: List[str] = []
        # The element window at the loop's first index anchors the bulk
        # bounds check: left endpoints grow by `stride` per record, so the
        # first left >= 0 and the last right <= EOI cover every record.
        prior = scope.names.get(term.var)
        scope.names[term.var] = first
        try:
            left_src = compile_expr(interval.left, scope, self.namer)
        finally:
            if prior is None:
                scope.names.pop(term.var, None)
            else:
                scope.names[term.var] = prior
        base_rel = self.namer.fresh("_t")
        outer.append(f"{base_rel} = {left_src}")
        stream_loop = self.stream and (
            sink.mode != "none" or referenced or plan.checks_anything
        )
        if stream_loop:
            # Streams check the window bound one record boundary at a time
            # (inside the loop): against an EOIProxy the aggregate check
            # would pin the whole array before the first record decodes.
            outer.append(f"if {base_rel} < 0:")
            outer.append("    return FAIL")
        else:
            outer.append(
                f"if {base_rel} < 0 or {base_rel} + {count} * {stride} > _hl{fid}:"
            )
            outer.append("    return FAIL")
        base = self.namer.fresh("_t")
        outer.append(f"{base} = {self._abs(base_rel)}")
        padded = plan.fmt
        if stride > plan.size and plan.nslots:
            padded = plan.fmt + f"{stride - plan.size}x"
        loop: List[str] = []
        tup = self.namer.fresh("_t")
        ro = self.namer.fresh("_t")
        rr = self.namer.fresh("_t")
        if keep or checks:
            code = emit_plan_code(
                plan,
                slot_var=tup,
                eoi_src=repr(stride),
                abs_base=ro,
                build=build_nodes,
                leaf_const=self._leaf_const,
            )
            need_rel = keep
            if self.stream:
                slot = len(self.memo_slots)
                self.memo_slots.append("a")
                state = self.namer.fresh("_t")
                outer.append(f"{state} = st[{slot}].get(({self._lo}, {self._hi}))")
                outer.append(f"if {state} is None:")
                outer.append(f"    {state} = [0, {elements}]")
                outer.append(f"    st[{slot}][({self._lo}, {self._hi})] = {state}")
                outer.append(f"{elements} = {state}[1]")
                self._mirror(scope, elements, outer)
                index = self.namer.fresh("_t")
                outer.append(f"for {index} in range({state}[0], {count}):")
                loop.append(
                    f"if {base_rel} + ({index} + 1) * {stride} > _hl{fid}:"
                )
                loop.append("    return FAIL")
                loop.append(f"{ro} = {base} + {index} * {stride}")
                if plan.nslots:
                    sconst = self._struct_const(padded if padded else plan.fmt)
                    loop.append(f"{tup} = {sconst}.unpack(data[{ro}:{ro} + {stride}])")
            else:
                if plan.nslots:
                    sconst = self._struct_const(padded)
                    outer.append(f"{ro} = {base}")
                    outer.append(
                        f"for {tup} in {sconst}.iter_unpack("
                        f"memoryview(data)[{base}:{base} + {count} * {stride}]):"
                    )
                else:
                    index = self.namer.fresh("_t")
                    outer.append(f"for {index} in range({count}):")
                    loop.append(f"{ro} = {base} + {index} * {stride}")
            if need_rel:
                loop.append(f"{rr} = {ro} - {self._lo}")
            loop += code.lines
            if keep:
                env_items = [f"'EOI': {stride}"]
                if plan.touch:
                    env_items.append(f"'start': {rr} + {plan.start}")
                    env_items.append(f"'end': {rr} + {plan.end}")
                else:
                    env_items.append(f"'start': {rr} + {stride}")
                    env_items.append(f"'end': {rr}")
                for name, local in code.attr_locals.items():
                    env_items.append(f"{name!r}: {local}")
                env = f"{{{', '.join(env_items)}}}"
                if build_nodes:
                    children = f"[{', '.join(code.child_exprs)}]"
                    loop.append(
                        f"{elements}.append(_mk_node({element!r}, {env}, {children}))"
                    )
                else:
                    loop.append(f"{elements}.append({env})")
            if self.stream:
                loop.append(f"{state}[0] = {index} + 1")
            elif plan.nslots:
                loop.append(f"{ro} += {stride}")
            outer += _indent(loop)
        if plan.touch:
            svar = self.namer.fresh("_t")
            evar = self.namer.fresh("_t")
            outer.append(f"{svar} = {base_rel} + {plan.start}")
            outer.append(f"if {svar} < {scope.start}:")
            outer.append(f"    {scope.start} = {svar}")
            outer.append(f"{evar} = {base_rel} + ({count} - 1) * {stride} + {plan.end}")
            outer.append(f"if {evar} > {scope.end}:")
            outer.append(f"    {scope.end} = {evar}")
        body.append(f"if {count} > 0:")
        body += _indent(outer)
        if sink.mode != "none":
            sink.add(f"_mk_array({element!r}, {elements})", body)
        return True

    def _emit_inline_rawbytes(
        self,
        name: str,
        left: str,
        right: str,
        scope: Scope,
        body: List[str],
    ) -> Tuple[Optional[str], str]:
        """Inline the ``Raw``/``Bytes`` builtins (zero-call skip/keep).

        Both accept their whole window: the env is a single display in the
        caller's coordinates (``start = left``, ``end = right`` regardless
        of emptiness), eliding the runner call, the callee node, and the
        rebase copy.  ``Bytes`` keeps its payload ``Leaf`` in tree mode;
        tree-elided parses drop it exactly like the elided runner.
        """
        try:
            wconst = int(right) - int(left)
        except ValueError:
            wconst = None
        if wconst is not None:
            wsrc = repr(wconst)
        else:
            wsrc = self.namer.fresh("_w")
            body.append(f"{wsrc} = {right} - {left}")
        env = self.namer.fresh("_e")
        body.append(
            f"{env} = {{'EOI': {wsrc}, 'start': {left}, 'end': {right}, "
            f"'len': {wsrc}, 'val': {wsrc}}}"
        )
        if self.elide:
            node = None
        else:
            node = self.namer.fresh("_d")
            if name == "Bytes":
                payload = f"[_mk_leaf(data[{self._abs(left)}:{self._lo} + {right}])]"
            else:
                payload = "[]"
            body.append(f"{node} = _mk_node({name!r}, {env}, {payload})")
        if wconst == 0:
            return node, env
        if wconst is not None:
            updates = [
                f"if {left} < {scope.start}:",
                f"    {scope.start} = {left}",
                f"if {right} > {scope.end}:",
                f"    {scope.end} = {right}",
            ]
            body += updates
        else:
            body.append(f"if {wsrc}:")
            body += _indent(
                [
                    f"if {left} < {scope.start}:",
                    f"    {scope.start} = {left}",
                    f"if {right} > {scope.end}:",
                    f"    {scope.end} = {right}",
                ]
            )
        return node, env

    # -- terms -------------------------------------------------------------
    def _emit_term(
        self,
        term: Term,
        scope: Scope,
        bindings: Dict[str, Tuple[str, Scope]],
        body: List[str],
        attr_order: List[str],
        sink: _ChildSink,
    ) -> None:
        if isinstance(term, TermAttrDef):
            source = compile_expr(term.expr, scope, self.namer)
            if term.name in SPECIALS:
                body.append(f"{scope.special(term.name)} = {source}")
            else:
                local = f"_v{scope.fid}_{self._token(term.name)}"
                body.append(f"{local} = {source}")
                self._mirror(scope, local, body)
                scope.names[term.name] = local
                if term.name not in attr_order:
                    attr_order.append(term.name)
            return
        if isinstance(term, TermGuard):
            body.append(f"if {compile_expr(term.expr, scope, self.namer)} == 0:")
            body.append("    return FAIL")
            return
        if isinstance(term, TermTerminal):
            self._emit_terminal(term, scope, body, sink)
            return
        if isinstance(term, TermNonterminal):
            fixed = self.fixed.get(id(term))
            if fixed is not None and self._hoist is not None:
                self._emit_fixed_term(term, fixed, scope, body, sink)
                return
            left, right = self._emit_interval(term.interval, scope, body)
            node, env = self._emit_nt_parse(
                term.name, left, right, scope, bindings, body, allow_inline=True
            )
            self._record_call(term.name, node, env, scope, body, sink)
            return
        if isinstance(term, TermArray):
            self._emit_array(term, scope, bindings, body, sink)
            return
        if isinstance(term, TermSwitch):
            self._emit_switch(term, scope, bindings, body, sink)
            return
        raise CompilationError(f"cannot compile term kind {type(term).__name__}")

    def _record_call(
        self,
        name: str,
        node: Optional[str],
        env: str,
        scope: Scope,
        body: List[str],
        sink: _ChildSink,
    ) -> None:
        """Record a nonterminal term's env for ``name.attr`` and its child."""
        record = f"_nv{scope.fid}_{self._token(name)}"
        body.append(f"{record} = {env}")
        self._mirror(scope, record, body)
        scope.node_envs[name] = (record, True)
        sink.add(node, body)

    def _emit_fixed_term(
        self,
        term: TermNonterminal,
        fixed,
        scope: Scope,
        body: List[str],
        sink: _ChildSink,
    ) -> None:
        """A term whose subtree the grammar fixes (:func:`repro.core.ir.fixed_terms`).

        The subtree is built once, at the entry of the loop running the
        term (``self._hoist``), never across parses; each iteration checks
        the window and the literals, updates the span and shares it.
        """
        self._emit_interval(term.interval, scope, body)
        for offset, literal in fixed.checks:
            body.append(self._mismatch(self._abs(repr(offset)), literal))
            body.append("    return FAIL")
        if fixed.span is not None:
            start, end = fixed.span
            body.append(f"if {start} < {scope.start}:")
            body.append(f"    {scope.start} = {start}")
            body.append(f"if {end} > {scope.end}:")
            body.append(f"    {scope.end} = {end}")
        tree = fixed.tree
        env = self.namer.fresh("_fe")
        self._hoist.append(f"{env} = {self._fixed_env(tree)}")
        node = None
        if not self.elide:
            node = self.namer.fresh("_fd")
            self._hoist.append(
                f"{node} = _mk_node({tree.name!r}, {env}, {self._fixed_children(tree)})"
            )
        self._record_call(term.name, node, env, scope, body, sink)

    @staticmethod
    def _fixed_env(tree) -> str:
        return "{" + ", ".join(f"{key!r}: {value!r}" for key, value in tree.env) + "}"

    def _fixed_children(self, tree) -> str:
        children = [
            self._leaf_const(child)
            if isinstance(child, bytes)
            else f"_mk_node({child.name!r}, {self._fixed_env(child)}, "
            f"{self._fixed_children(child)})"
            for child in tree.children
        ]
        return "[" + ", ".join(children) + "]"

    def _emit_chain_call(
        self,
        term: TermNonterminal,
        scope: Scope,
        prefix: List[str],
        suffix: List[str],
        sink: _ChildSink,
    ) -> str:
        """Split a right chain's step at its self-call; return the left endpoint.

        The interval check ends the prefix.  The suffix starts from the
        inner level's result, which the rule's loop leaves in ``_v``, and
        goes on exactly like the code after a recursive call.
        """
        left, _right = self._emit_interval(term.interval, scope, prefix)
        result = self.namer.fresh("_n")
        suffix.append(f"{result} = _v")
        # The inner level's memo entry records the in-place shift.
        mode = self.memo_modes[term.name]
        inner = self._abs(left)
        record = ""
        if mode == "dense":
            record = f"_m[{inner}] = {result}, {left}"
        elif mode == "dict":
            record = f"_m[({inner}, hi)] = {result}, {left}"
        node, env = self._emit_rebase(
            term.name, left, result, scope, suffix, shift=record
        )
        self._record_call(term.name, node, env, scope, suffix, sink)
        return left

    def _emit_interval(
        self, interval: Interval, scope: Scope, body: List[str]
    ) -> Tuple[str, str]:
        """Evaluate an interval into (left, right) source operands.

        Emits the ``0 <= l <= r <= |s|`` validity check of the semantics,
        specialised when one or both endpoints are compile-time constants.
        """
        if interval.left is None or interval.right is None:
            raise CompilationError("interval was not auto-completed")
        length = f"_hl{scope.fid}"
        left = fold(interval.left)
        right = fold(interval.right)
        left_const = left.value if isinstance(left, Num) else None
        right_const = right.value if isinstance(right, Num) else None
        if left_const is not None and right_const is not None:
            if left_const < 0 or right_const < left_const:
                body.append("return FAIL")
            else:
                body.append(f"if {right_const} > {length}:")
                body.append("    return FAIL")
            return repr(left_const), repr(right_const)
        if left_const is not None:
            right_var = self.namer.fresh("_t")
            body.append(f"{right_var} = {compile_expr(right, scope, self.namer)}")
            if left_const < 0:
                body.append("return FAIL")
            else:
                body.append(
                    f"if {right_var} < {left_const} or {right_var} > {length}:"
                )
                body.append("    return FAIL")
            return repr(left_const), right_var
        left_var = self.namer.fresh("_t")
        body.append(f"{left_var} = {compile_expr(left, scope, self.namer)}")
        if right_const is not None:
            body.append(
                f"if {left_var} < 0 or {left_var} > {right_const} "
                f"or {right_const} > {length}:"
            )
            body.append("    return FAIL")
            return left_var, repr(right_const)
        right_var = self.namer.fresh("_t")
        body.append(f"{right_var} = {compile_expr(right, scope, self.namer)}")
        body.append(
            f"if {left_var} < 0 or {right_var} < {left_var} "
            f"or {right_var} > {length}:"
        )
        body.append("    return FAIL")
        return left_var, right_var

    @staticmethod
    def _plus(operand: str, amount: int) -> str:
        """Render ``operand + amount``, folding when the operand is a literal."""
        if amount == 0:
            return operand
        try:
            return repr(int(operand) + amount)
        except ValueError:
            return f"{operand} + {amount}"

    @staticmethod
    def _add(left: str, right: str) -> str:
        """Render ``left + right``, folding literal operands."""
        try:
            return repr(int(left) + int(right))
        except ValueError:
            if left == "0":
                return right
            if right == "0":
                return left
            return f"{left} + {right}"

    def _emit_terminal(
        self, term: TermTerminal, scope: Scope, body: List[str], sink: _ChildSink
    ) -> None:
        left, right = self._emit_interval(term.interval, scope, body)
        literal = term.value
        width = len(literal)
        try:
            fits = int(right) - int(left) >= width
        except ValueError:
            fits = None
        if fits is None:
            body.append(f"if {right} - {left} < {width}:")
            body.append("    return FAIL")
        elif not fits:
            body.append("return FAIL")
        if literal:
            position = self.namer.fresh("_p")
            body.append(f"{position} = {self._abs(left)}")
            body.append(self._mismatch(position, literal))
            body.append("    return FAIL")
            # updStartEnd with [left, left + |s|), touched.
            body.append(f"if {left} < {scope.start}:")
            body.append(f"    {scope.start} = {left}")
            end = self._plus(left, width)
            body.append(f"if {end} > {scope.end}:")
            body.append(f"    {scope.end} = {end}")
        if sink.mode != "none":
            sink.add(self._leaf_const(literal), body)

    @staticmethod
    def _mismatch(position: str, literal: bytes) -> str:
        """The ``if`` line testing ``literal`` against the input at ``position``."""
        if len(literal) == 1:
            # Single-byte magic (block introducers, terminators): an
            # integer compare instead of a one-byte slice allocation.
            return f"if data[{position}] != {literal[0]}:"
        return f"if data[{position}:{position} + {len(literal)}] != {literal!r}:"

    def _emit_nt_parse(
        self,
        name: str,
        left: str,
        right: str,
        scope: Scope,
        bindings: Dict[str, Tuple[str, Scope]],
        body: List[str],
        allow_inline: bool = False,
    ) -> Tuple[str, str]:
        """Emit the parse of nonterminal ``name`` over ``[left, right)``.

        Returns ``(node_var, env_var)`` for the caller-rebased node.
        Dispatch follows the interpreter's resolution order: local rules,
        top-level rules, builtins, blackboxes.
        """
        lo_arg = self._abs(left)
        hi_arg = f"{self._lo} + {right}"
        fixed = _FIXED_INTS.get(name) if name not in bindings else None
        if (
            fixed is not None
            and not self.grammar.has_rule(name)
            and name in BUILTINS
        ):
            return self._emit_fixed_int(name, fixed, left, right, scope, body)
        if (
            self.opts.bulk_fixed_shape
            and name in ("Raw", "Bytes")
            and name not in bindings
            and not self.grammar.has_rule(name)
        ):
            return self._emit_inline_rawbytes(name, left, right, scope, body)
        if (
            allow_inline
            and name in self._inline
            and name not in bindings
            and name not in self._inlining
        ):
            return self._emit_inline_rule(name, left, right, scope, body)
        if name in bindings:
            fn, declaring = bindings[name]
            call = f"{fn}(st, data, {lo_arg}, {hi_arg}, {cells_path(scope, declaring)})"
        elif self.grammar.has_rule(name):
            call = f"{self.rule_fns[name]}(st, data, {lo_arg}, {hi_arg})"
            self._calls.add(name)
        elif is_builtin(name):
            call = f"{self._builtin_runner(name)}(data, {lo_arg}, {hi_arg})"
        elif name in self.grammar.blackboxes:
            call = f"_bb({name!r}, data, {lo_arg}, {hi_arg})"
        else:
            raise CompilationError(
                f"no rule, builtin or blackbox for nonterminal {name!r}"
            )
        result = self.namer.fresh("_n")
        body.append(f"{result} = {call}")
        body.append(f"if {result} is FAIL:")
        body.append("    return FAIL")
        return self._emit_rebase(name, left, result, scope, body)

    def _emit_rebase(
        self,
        name: str,
        left: str,
        result: str,
        scope: Scope,
        body: List[str],
        shift: Optional[str] = None,
    ) -> Tuple[Optional[str], str]:
        """Rebase the callee node ``result`` to ``left`` in the caller (T-NTSucc).

        Returns ``(node_var, env_var)``; updates the caller's span.  With
        ``shift`` (a right chain's self-call), a ``result`` that is the
        loop's ``_own`` node is shifted in place instead of copied, and
        ``shift`` (a statement, or empty) records the shift in its memo
        entry.
        """
        env = self.namer.fresh("_e")
        untouched = self.namer.fresh("_z")
        if left == "0":
            # Rebasing by 0 is the identity: reuse the callee's node and
            # env unchanged.  Sharing with the memo table is safe: the
            # one env ever mutated is a right chain's level, shifted by
            # the backward loop that built it, one iteration later,
            # before any other code can read it (its memo entry then
            # records the shift, and a hit copies).  This elides one dict
            # copy and one node allocation per leading-term rule call.
            start = self.namer.fresh("_x")
            body.append(f"{env} = {result}.env")
            body.append(f"{untouched} = {env}['end']")
            body.append(f"if {untouched}:")
            body.append(f"    {start} = {env}['start']")
            body.append(f"    if {start} < {scope.start}:")
            body.append(f"        {scope.start} = {start}")
            body.append(f"    if {untouched} > {scope.end}:")
            body.append(f"        {scope.end} = {untouched}")
            return (None if self.elide else result), env
        start = self.namer.fresh("_x")
        end = self.namer.fresh("_y")
        node = None if self.elide else self.namer.fresh("_d")
        if shift is None:
            body.append(f"{env} = dict({result}.env)")
        else:
            own = [f"{env} = {result}.env"]
            copy = [f"{env} = dict({result}.env)"]
            if node is not None:
                own.append(f"{node} = {result}")
                copy.append(f"{node} = _mk_node({name!r}, {env}, {result}.children)")
            if shift:
                own.append(shift)
            body.append(f"if {result} is _own:")
            body += _indent(own) + ["else:"] + _indent(copy)
        body.append(f"{untouched} = {env}['end']")
        body.append(f"{start} = {left} + {env}['start']")
        body.append(f"{end} = {left} + {untouched}")
        body.append(f"{env}['start'] = {start}")
        body.append(f"{env}['end'] = {end}")
        if node is not None and shift is None:
            body.append(f"{node} = _mk_node({name!r}, {env}, {result}.children)")
        body.append(f"if {untouched}:")
        body.append(f"    if {start} < {scope.start}:")
        body.append(f"        {scope.start} = {start}")
        body.append(f"    if {end} > {scope.end}:")
        body.append(f"        {scope.end} = {end}")
        return node, env

    def _emit_inline_rule(
        self,
        name: str,
        left: str,
        right: str,
        scope: Scope,
        body: List[str],
    ) -> Tuple[str, str]:
        """Expand a single-use single-alternative rule into its call site.

        The expansion runs with its own window locals and a fresh scope
        (``parent=None`` — a top-level rule sees no caller context).  A
        ``return FAIL`` inside the expansion fails the caller's alternative,
        which is observably identical to the callee failing and the caller
        propagating it; exceptions reach the caller's ``except`` the same
        way the callee's own handler would have mapped them to FAIL.
        """
        rule = self.grammar.rule(name)
        alternative = rule.alternatives[0]
        ilo = self.namer.fresh("_o")
        ihi = self.namer.fresh("_h")
        body.append(f"{ilo} = {self._abs(left)}")
        body.append(f"{ihi} = {self._lo} + {right}")
        saved_frame = (self._lo, self._hi)
        saved_current = (self._current_alternative_terms, self._current_alternative_locals)
        self._lo, self._hi = ilo, ihi
        self._inlining.add(name)
        self._current_alternative_terms = alternative.terms
        self._current_alternative_locals = False
        try:
            iscope = Scope(self.namer.fresh(""), None)
            fid = iscope.fid
            sink = self._make_sink(alternative, fid)
            body.append(f"_hl{fid} = {ihi} - {ilo}")
            body.append(f"{iscope.eoi} = _hl{fid}")
            body.append(f"{iscope.start} = _hl{fid}")
            body.append(f"{iscope.end} = 0")
            body += sink.init_lines()
            attr_order: List[str] = []
            plan = self.prefix_plans.get((name, 0))
            if plan is not None:
                self._emit_fused_prefix(plan, alternative, iscope, body, attr_order, sink)
            consumed = plan.covered if plan else 0
            for term in alternative.terms[consumed:]:
                self._emit_term(term, iscope, {}, body, attr_order, sink)
        finally:
            self._inlining.discard(name)
            self._lo, self._hi = saved_frame
            self._current_alternative_terms, self._current_alternative_locals = (
                saved_current
            )
        # Rebase into the caller's coordinates while building the node
        # (T-NTSucc), saving the non-inlined path's env copy.
        start = self.namer.fresh("_x")
        end = self.namer.fresh("_y")
        body.append(f"{start} = {self._add(left, iscope.start)}")
        body.append(f"{end} = {self._add(left, iscope.end)}")
        env_items = [
            f"'EOI': {iscope.eoi}",
            f"'start': {start}",
            f"'end': {end}",
        ]
        env_items += [f"{n!r}: {iscope.names[n]}" for n in attr_order]
        env = self.namer.fresh("_e")
        body.append(f"{env} = {{{', '.join(env_items)}}}")
        if self.elide:
            node = None
        else:
            node = self.namer.fresh("_d")
            body.append(f"{node} = _mk_node({name!r}, {env}, {sink.final_expr()})")
        body.append(f"if {iscope.end}:")
        body.append(f"    if {start} < {scope.start}:")
        body.append(f"        {scope.start} = {start}")
        body.append(f"    if {end} > {scope.end}:")
        body.append(f"        {scope.end} = {end}")
        return node, env

    def _emit_fixed_int(
        self,
        name: str,
        spec: Tuple[int, str, bool],
        left: str,
        right: str,
        scope: Scope,
        body: List[str],
    ) -> Tuple[str, str]:
        """Fully inline a fixed-width integer builtin (btoi specialization)."""
        width, byteorder, signed = spec
        try:
            fits = int(right) - int(left) >= width
        except ValueError:
            fits = None
        if fits is None:
            body.append(f"if {right} - {left} < {width}:")
            body.append("    return FAIL")
        elif not fits:
            body.append("return FAIL")
        position = self.namer.fresh("_p")
        body.append(f"{position} = {self._abs(left)}")
        if self.elide and width == 1 and not signed:
            # No Leaf is kept, so the one-byte window never materializes.
            window = None
            value = f"data[{position}]"
        else:
            window = self.namer.fresh("_w")
            body.append(f"{window} = data[{position}:{position} + {width}]")
            if width == 1 and not signed:
                value = f"{window}[0]"
            elif signed:
                value = f"_ifb({window}, {byteorder!r}, signed=True)"
            else:
                value = f"_ifb({window}, {byteorder!r})"
        env = self.namer.fresh("_e")
        end = self._plus(left, width)
        try:
            eoi = repr(int(right) - int(left))
        except ValueError:
            eoi = f"{right} - {left}"
        body.append(
            f"{env} = {{'EOI': {eoi}, 'start': {left}, 'end': {end}, 'val': {value}}}"
        )
        if self.elide:
            node = None
        else:
            node = self.namer.fresh("_d")
            body.append(f"{node} = _mk_node({name!r}, {env}, [_mk_leaf({window})])")
        body.append(f"if {left} < {scope.start}:")
        body.append(f"    {scope.start} = {left}")
        body.append(f"if {end} > {scope.end}:")
        body.append(f"    {scope.end} = {end}")
        return node, env

    def _emit_array(
        self,
        term: TermArray,
        scope: Scope,
        bindings: Dict[str, Tuple[str, Scope]],
        body: List[str],
        sink: _ChildSink,
    ) -> None:
        if self._try_emit_bulk_array(term, scope, body, sink):
            return
        element = term.element.name
        # Loop bounds are evaluated before the (fresh) element list becomes
        # visible, so references to a previous same-named array still
        # resolve to that previous list here.
        first = self.namer.fresh("_t")
        stop = self.namer.fresh("_t")
        body.append(f"{first} = {compile_expr(term.start, scope, self.namer)}")
        body.append(f"{stop} = {compile_expr(term.stop, scope, self.namer)}")
        elements = self.namer.fresh(f"_ar{scope.fid}_{self._token(element)}")
        body.append(f"{elements} = []")
        self._mirror(scope, elements, body)
        scope.arrays[element] = elements

        loop_var = f"_v{scope.fid}_{self._token(term.var)}"
        prior = scope.names.get(term.var)
        saved = None
        if prior is not None:
            # The loop variable shadows an attribute of the same name; the
            # interpreter restores the old binding after the loop.
            saved = self.namer.fresh("_s")
            body.append(f"{saved} = {loop_var}")
        scope.names[term.var] = loop_var

        loop: List[str] = []
        if self.fuel_slot is not None and id(term) not in self.charges.bulk:
            # Count-driven loops are the one place a lying length field
            # buys unbounded iterations without consuming input (an
            # element may match empty), so each iteration is charged even
            # when the element rule itself carries no entry check.
            cell = self.namer.fresh("_t")
            loop.append(f"{cell} = st[{self.fuel_slot}]")
            loop.append(f"{cell}[0] -= 1")
            loop.append(f"if {cell}[0] < 0:")
            loop.append(f"    _limit_refill({cell})")
        # Where-rules called from inside the loop read the live index
        # through the cell.
        self._mirror(scope, loop_var, loop)
        left, right = self._emit_interval(term.element.interval, scope, loop)
        saved_hoist, self._hoist = self._hoist, []
        try:
            node, env = self._emit_nt_parse(
                element, left, right, scope, bindings, loop, allow_inline=True
            )
            hoisted = self._hoist
        finally:
            self._hoist = saved_hoist
        # Tree-elided element lists hold bare envs (read through the
        # _aidx_env runtime variant); tree-building ones hold the nodes.
        loop.append(f"{elements}.append({env if self.elide else node})")
        body += hoisted
        body.append(f"for {loop_var} in range({first}, {stop}):")
        body += _indent(loop)

        if prior is not None:
            body.append(f"{loop_var} = {saved}")
            self._mirror(scope, loop_var, body)
            scope.names[term.var] = prior
        else:
            if scope.has_locals:
                # Re-poison the local so where-rules invoked after the loop
                # observe a popped binding and fall through to the enclosing
                # scope (see the loop-variable handling in
                # _alternative_inner).
                body.append(f"{loop_var} = _UB")
                self._mirror(scope, loop_var, body)
            del scope.names[term.var]
        if sink.mode != "none":
            sink.add(f"_mk_array({element!r}, {elements})", body)

    def _emit_switch(
        self,
        term: TermSwitch,
        scope: Scope,
        bindings: Dict[str, Tuple[str, Scope]],
        body: List[str],
        sink: _ChildSink,
    ) -> None:
        # Switch-case targets are recorded conditionally: pre-initialise the
        # record locals to None so Dot references fall through to enclosing
        # scopes when the branch did not run (see exprcomp.resolve_dot).
        for case in term.cases:
            name = case.target.name
            entry = scope.node_envs.get(name)
            if entry is None:
                record = f"_nv{scope.fid}_{self._token(name)}"
                body.append(f"{record} = None")
                self._mirror(scope, record, body)
                scope.node_envs[name] = (record, False)
        first = True
        has_default = False
        for case in term.cases:
            branch: List[str] = []
            left, right = self._emit_interval(case.target.interval, scope, branch)
            node, env = self._emit_nt_parse(
                case.target.name, left, right, scope, bindings, branch,
                allow_inline=True,
            )
            record, _certain = scope.node_envs[case.target.name]
            branch.append(f"{record} = {env}")
            self._mirror(scope, record, branch)
            sink.add(node, branch)
            if case.condition is None:
                has_default = True
                body.append("else:" if not first else "if 1:")
                body += _indent(branch)
                break  # cases after a default are unreachable
            keyword = "if" if first else "elif"
            condition = compile_expr(case.condition, scope, self.namer)
            body.append(f"{keyword} {condition} != 0:")
            body += _indent(branch)
            first = False
        if not has_default:
            body.append("else:")
            body.append("    return FAIL")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


class CompiledGrammar:
    """A grammar staged into specialized closures, ready to parse.

    Produced by :func:`compile_grammar`; used by
    :class:`~repro.core.interpreter.Parser` when ``backend="compiled"``.
    The whole generated module source is kept on :attr:`source` for
    inspection and debugging; :meth:`to_source` renders a fully standalone
    module.  Only part of :attr:`source` is compiled up front: the prelude
    and the closure of the start rule (:attr:`staged_bytes` of it).  The
    first request for any other rule compiles the rest
    (:meth:`stage_all`).
    """

    __slots__ = (
        "grammar",
        "source",
        "memoize",
        "optimizations",
        "memo_modes",
        "blackboxes",
        "elide_tree",
        "inlined_rules",
        "dispatched_rules",
        "shaped_rules",
        "bulk_arrays",
        "limits",
        "fuel_slot",
        "staged_bytes",
        "_entry",
        "_deferred",
        "_new_state",
        "_bb",
        "_leaf_consts",
        "_builtin_runner_names",
    )

    def __init__(
        self,
        grammar: Grammar,
        source: str,
        namespace: Dict[str, object],
        memoize: bool,
        blackboxes: Dict[str, object],
        compiler: _GrammarCompiler,
        limits: Optional[ParseLimits] = None,
        deferred: Optional[str] = None,
        staged_bytes: int = 0,
    ):
        self.grammar = grammar
        self.source = source
        #: Characters of :attr:`source` compiled so far: the start rule's
        #: closure at construction, all of it after :meth:`stage_all`.
        self.staged_bytes = staged_bytes
        #: The rest of the module, compiled by :meth:`stage_all`.
        self._deferred = deferred
        self.memoize = memoize
        #: ParseLimits this compilation was specialized for.  max_steps
        #: is enforced by the fuel cell at state slot :attr:`fuel_slot`
        #: (None when compiled out), charged at every recursive rule
        #: entry and counted loop iteration (:class:`repro.core.ir.
        #: ChargePoints`), so tree and memo growth are transitively
        #: bounded by it; RecursionError/MemoryError are mapped by the
        #: parse guard.
        self.limits = DEFAULT_LIMITS if limits is None else limits
        self.fuel_slot = compiler.fuel_slot
        self.optimizations = compiler.opts
        #: Rule name -> "dict" | "dense" | "skipped" | "unmemoized":
        #: how each rule's packrat memo was specialized.
        self.memo_modes = dict(compiler.memo_modes)
        self.blackboxes = blackboxes
        #: Whether this compilation elides parse-tree construction (the
        #: engine behind ``Parser.parse(..., emit="spans"|None)``).
        self.elide_tree = compiler.elide
        #: Rules expanded into their single call site.
        self.inlined_rules = frozenset(compiler._inline)
        #: Rules whose biased choice goes through a first-byte jump table.
        self.dispatched_rules = frozenset(compiler.dispatch_plans)
        #: Rules with a fused fixed-shape prefix, and array element rules
        #: lowered to bulk struct decoding (Optimizations.bulk_fixed_shape).
        self.shaped_rules = frozenset(compiler.shaped_rules)
        self.bulk_arrays = frozenset(compiler.bulk_arrays)
        self._entry = namespace["_ENTRY"]
        self._new_state = namespace["_new_state"]
        self._bb = namespace["_bb"]
        #: Constant metadata for ahead-of-time emission (codegen):
        #: generated global name -> Leaf bytes / builtin name.
        self._leaf_consts = {
            var: value for value, var in compiler._leaf_cache.items()
        }
        self._builtin_runner_names = {
            var: name for name, var in compiler._runner_cache.items()
        }

    def set_limits(self, limits: ParseLimits) -> bool:
        """Enforce ``limits`` from the next parse on.

        Rebinds the module globals ``_MAX_STEPS`` and ``_wall_deadline``
        that each parse's fresh fuel cell is seeded from — the seam an
        emitted module's ``set_limits`` uses.  Returns ``False`` and
        changes nothing when ``limits`` need a fuel cell this compilation
        was staged without (it was staged with every step and wall budget
        off); restage with the new limits instead.
        """
        if self.fuel_slot is None and (
            limits.max_steps is not None or limits.max_wall_ms is not None
        ):
            return False
        self._new_state.__globals__.update(_limit_globals(limits))
        self.limits = limits
        return True

    def new_state(self) -> list:
        """Allocate a fresh per-parse memo state list.

        One table per memoized rule; parses are isolated from each other
        exactly like the interpreter's per-run ``_Run`` — including
        reentrant parses started from inside a blackbox and concurrent
        parses on the same parser.  The streaming driver keeps one state
        alive across re-entries instead.
        """
        return self._new_state()

    def stage_all(self) -> Dict[str, object]:
        """Compile the rules a parse from the start symbol never reaches.

        :func:`compile_grammar` stages only the start rule's closure; the
        first request for any other rule compiles the rest of
        :attr:`source` into the same namespace, once, under a lock, and
        publishes the full ``_ENTRY`` table in one assignment.  Returns it.
        """
        with _STAGING:
            deferred = self._deferred
            if deferred is not None:
                namespace = self._new_state.__globals__
                exec(compile(deferred, _FILENAME, "exec"), namespace)
                self.staged_bytes = len(self.source)
                self._entry = namespace["_ENTRY"]
                self._deferred = None
        return self._entry

    def run_builtin(self, name: str, data, lo, hi):
        """Run a builtin start symbol, honouring this compilation's mode."""
        maker = _make_builtin_runner_elided if self.elide_tree else _make_builtin_runner
        return maker(name)(data, lo, hi)

    def run_nonterminal(self, data, name: str, lo: int, hi: int, state=None):
        """``s[lo, hi] ⊢ name ⇓ R`` through the compiled closures, unguarded.

        The caller runs it under the parse guard
        (:func:`~repro.core.runtime._guarded`), as
        :meth:`parse_nonterminal` and ``Parser`` do.  A rule runs on
        ``state`` when given (a :meth:`new_state` list the caller keeps),
        else on a fresh one.
        """
        fn = self._entry.get(name)
        if fn is None and self._deferred is not None and self.grammar.has_rule(name):
            fn = self.stage_all().get(name)
        if fn is not None:
            return fn(self._new_state() if state is None else state, data, lo, hi)
        if is_builtin(name):
            return self.run_builtin(name, data, lo, hi)
        if name in self.grammar.blackboxes:
            return self._bb(name, data, lo, hi)
        raise IPGError(f"no rule, builtin or blackbox for nonterminal {name!r}")

    def parse_nonterminal(self, data, name: str, lo: int, hi: int):
        """:meth:`run_nonterminal` under the parse guard's default headroom."""
        return _guarded(
            _RECURSION_LIMIT, name, self.run_nonterminal, data, name, lo, hi
        )

    def parse(self, data: bytes, name: Optional[str] = None):
        """Parse ``data`` whole, raising a structured error on failure.

        The raising counterpart of :meth:`parse_nonterminal` for callers
        using a :class:`CompiledGrammar` directly (without a ``Parser``):
        failures are diagnosed through :mod:`repro.core.diagnose` exactly
        like ``Parser.parse``, so every engine reports the same error
        class and offset.
        """
        from ..diagnose import diagnose_failure  # deferred: avoids a cycle

        data = as_buffer(data)
        start = name or self.grammar.start
        result = self.parse_nonterminal(data, start, 0, len(data))
        if result is FAIL:
            raise diagnose_failure(
                self.grammar,
                data,
                start=start,
                blackboxes=self.blackboxes,
                limits=self.limits,
            )
        return result

    def to_source(self, module_doc: Optional[str] = None) -> str:
        """Render this grammar as a standalone importable parser module.

        The emitted module vendors the runtime this engine runs on
        (:mod:`repro.core.runtime`) and needs no ``repro`` import at parse
        time (when ``repro`` *is* importable it reuses its parse-tree
        classes, so emitted trees compare ``==`` to the other engines').  Tree-elided compilations emit with the
        elision baked in (``_ELIDE_TREE = True``), and the module also
        embeds a fully-memoized stream variant plus the vendored
        incremental driver (``stream()`` / ``parse_stream()``).  See
        :mod:`repro.core.codegen`.
        """
        # Deferred imports: codegen/streamability import from this module.
        from ..codegen import render_standalone_module
        from ..streamability import analyze_streamability

        streamable = analyze_streamability(self.grammar).streamable
        try:
            stream_compiled = compile_grammar(
                self.grammar,
                memoize=self.memoize,
                blackboxes=self.blackboxes,
                optimizations=self.optimizations,
                elide_tree=self.elide_tree,
                stream=True,
                limits=self.limits,
            )
        except CompilationError:
            stream_compiled = None  # module ships batch-only
        return render_standalone_module(
            self,
            module_doc=module_doc,
            stream_compiled=stream_compiled,
            streamable=streamable,
        )

    def load_module(self, name: str = "ipg_aot_parser"):
        """Emit :meth:`to_source` and execute it as a fresh in-memory module.

        The ahead-of-time path without the filesystem: the returned module
        object exposes the standalone API (``parse``/``try_parse``/
        ``register_blackbox``/``START``).  Blackboxes registered with this
        :class:`CompiledGrammar` are pre-registered on the module.  Used by
        the cross-engine test matrix and the speedup benchmark; writing
        :meth:`to_source` to a file and importing it behaves identically.
        """
        import types

        module = types.ModuleType(name)
        exec(compile(self.to_source(), f"<{name}>", "exec"), module.__dict__)
        for blackbox_name, implementation in self.blackboxes.items():
            module.register_blackbox(blackbox_name, implementation)
        return module


def instrument_span_recording(compiled: CompiledGrammar, span_rules) -> None:
    """Instrument a *dedicated* compilation to record committed rule spans.

    Wraps the compilation's namespace globals so that every alternative
    function truncates the trail on failure (discarding spans recorded
    inside abandoned alternatives) and every top-level rule in
    ``span_rules`` appends ``(name, abs_start, abs_end)`` on success — the
    same committed-derivation semantics as the interpreter's native span
    trail.

    Requirements on ``compiled`` (the caller builds it this way; see
    ``Parser._engine``): ``memoize=False`` (every occurrence must
    execute) and ``Optimizations.none()`` — so every rule and alternative
    exists as a module-level function reached through a *late-bound global
    name* this function can rebind, and no decode fast path skips sub-rule
    calls.

    The trail is per parse: the wrappers append to the last slot of the
    per-parse state, ``st[-1]``, so the caller appends a fresh list to each
    :meth:`CompiledGrammar.new_state` and runs the parse on that state.
    Concurrent and reentrant parses on one engine never share a trail.
    """
    compiled.stage_all()
    namespace = compiled._new_state.__globals__

    def _wrap_alt(fn):
        # *extra: `where`-rule alternatives take trailing closure-cell
        # arguments beyond the (state, data, lo, hi) convention.
        def run(st, data, lo, hi, *extra):
            spans = st[-1]
            mark = len(spans)
            result = fn(st, data, lo, hi, *extra)
            if result is FAIL:
                del spans[mark:]
            return result

        run.__wrapped__ = fn
        return run

    def _wrap_rule(fn, rule_name):
        def run(st, data, lo, hi):
            result = fn(st, data, lo, hi)
            if result is not FAIL:
                env = result.env
                st[-1].append((rule_name, lo + env["start"], lo + env["end"]))
            return result

        run.__wrapped__ = fn
        return run

    for global_name, value in list(namespace.items()):
        if global_name.startswith("_alt_") and callable(value):
            namespace[global_name] = _wrap_alt(value)
    # Recording wraps exactly the _ENTRY functions (top-level rules): a
    # `where` rule shadowing a recorded name must not record, matching the
    # scope-first lookup of the other engines.
    entry = compiled._entry
    recorded = {
        id(fn): name for name, fn in entry.items() if name in span_rules
    }
    for global_name, value in list(namespace.items()):
        rule_name = recorded.get(id(value))
        if rule_name is not None:
            wrapped = _wrap_rule(value, rule_name)
            namespace[global_name] = wrapped
            entry[rule_name] = wrapped


def compile_grammar(
    grammar: Union[Grammar, str],
    memoize: bool = True,
    blackboxes: Optional[Dict[str, object]] = None,
    optimizations: Optional[Optimizations] = None,
    elide_tree: bool = False,
    stream: bool = False,
    limits: Optional[ParseLimits] = None,
) -> CompiledGrammar:
    """Stage ``grammar`` into specialized Python closures.

    Raises :class:`~repro.core.errors.CompilationError` when the grammar
    contains a construct the compiler cannot specialize; ``Parser`` treats
    that as a cue to fall back to the reference interpreter.
    ``optimizations`` selects the pass set (all passes by default).

    ``elide_tree=True`` compiles the tree-elision fast path: the generated
    alternatives keep the complete attribute semantics (environments,
    records, arrays of element environments) but never build children
    lists, ``Leaf`` payloads or ``ArrayNode`` wrappers — rule results are
    env-carrying shells sharing one empty children tuple.  It backs
    ``Parser.parse(data, emit="spans"|None)`` and ``accepts``.

    ``stream=True`` compiles the variant the streaming driver re-enters:
    every top-level rule is memoized and nothing is inlined, whatever
    ``optimizations`` says, so a re-entry after a suspension replays each
    decided sub-parse as a memo hit; first-byte dispatch decisions are
    memoized per parse, so re-entries never re-read already-dispatched
    bytes — required for the compaction guarantee of compacted streams.

    The returned engine's ``source`` is the whole generated module, but
    only its prelude (``_SLOTS``, ``_fuel``, ``_new_state``, the struct
    constants) and the blocks of the rules a parse from the start symbol
    can call are compiled here (:meth:`_GrammarCompiler.split`).  The
    rest is compiled on the first request for another rule
    (:meth:`CompiledGrammar.stage_all`).
    """
    prepared = prepare_grammar(grammar)
    registry = blackboxes if blackboxes is not None else {}
    resolved_limits = DEFAULT_LIMITS if limits is None else limits
    compiler = _GrammarCompiler(
        prepared,
        memoize=memoize,
        optimizations=optimizations,
        elide_tree=elide_tree,
        stream=stream,
        max_steps=resolved_limits.max_steps,
        wall_clock=resolved_limits.max_wall_ms is not None,
    )
    source = compiler.compile()
    staged, deferred, staged_bytes = compiler.split(prepared.start)
    namespace = dict(_RUNTIME_NAMESPACE)
    namespace.update(_limit_globals(resolved_limits))
    namespace["_bb"] = _make_blackbox_runner(registry, elide_tree=elide_tree)
    if elide_tree:
        namespace["_aidx"] = _aidx_env
    namespace.update(compiler.constants)
    try:
        exec(compile(staged, _FILENAME, "exec"), namespace)
    except CompilationError:
        raise
    except Exception as exc:  # defensive: never crash the Parser constructor
        raise CompilationError(
            f"staging the grammar failed ({type(exc).__name__}: {exc})"
        ) from exc
    return CompiledGrammar(
        prepared,
        source,
        namespace,
        memoize,
        registry,
        compiler,
        limits=resolved_limits,
        deferred=deferred,
        staged_bytes=staged_bytes,
    )
