"""FIRST-set static analysis for interval grammars (first-byte dispatch).

Biased choice makes every multi-alternative rule a trial-and-backtrack
loop: alternatives run in order until one succeeds, even when the very
first input byte already rules most of them out.  Production parser
generators win exactly this race with precomputed dispatch tables; this
module is the analysis that makes the same move sound for IPGs.

For every rule — top-level *and* ``where`` local (local rules resolve
their nonterminals through the lexical declaration chain, which the
shadowing check below proves call-site independent) — it computes, per
alternative, the set of **admissible first bytes**: a conservative
over-approximation of

    { s[lo]  |  the alternative can succeed on some window s[lo, hi) }

together with a ``requires_byte`` flag ("no successful parse of this
alternative leaves the window empty").  The derivation walks the
alternative's (reordered, i.e. execution-ordered) terms:

* a terminal ``"abc"[0, e]`` admits exactly ``{0x61}``;
* a nonterminal ``A[0, e]`` admits FIRST(A), computed as a least fixpoint
  over the rule graph (recursion converges; an alternative that can never
  succeed ends up with the empty set);
* builtin nonterminals contribute their intrinsic sets (``BinInt`` admits
  ``{0x30, 0x31}``, fixed-width integers admit any byte but require one);
* ``btoi``-guarded alternatives — a leading 1- or 2-byte integer builtin
  whose value is constrained by later ``guard``/defaultless ``switch``
  terms (DNS's ``Pointer``/``Label`` shape) — are narrowed by compiling
  the constraints once per alternative into a Python loop over candidate
  values and running it for every candidate first byte;
* anything undecidable (arrays, blackboxes, non-constant left endpoints,
  attribute-dependent intervals) falls back to "any byte".

On top of FIRST₁, a **FIRST₂ refinement** tracks the statically known
constant *prefix* of each alternative (a leading terminal, or the common
prefix of a leading rule's alternatives) and, where the first byte alone
cannot discriminate, probes the first byte offset at which the prefixes
*do* differ.  ZIP's ``"PK\\x01\\x02"`` / ``"PK\\x03\\x04"`` /
``"PK\\x05\\x06"`` records all collide on ``0x50`` (and again on ``K``);
the refinement dispatches on byte offset 2, where they split.  Windows too
short to reach the probe offset fall back to the first-byte entry, so no
read is ever speculative.

Soundness contract used by the engines: when the current window's first
byte (or two-byte prefix, where tracked) is not admissible for an
alternative — or the window is shorter than the alternative provably
requires — the alternative is guaranteed to **fail cleanly**: it cannot
succeed and it cannot raise anything an ordinary failing attempt would
not (blackbox-reaching shapes are never constrained below "any", so
skipping is unobservable).  The only visible difference is for grammars
with non-terminating left recursion, where skipping a provably-dead
alternative turns an eventual ``RecursionError`` into the clean rejection
the grammar denotes.

:func:`dispatch_plans` turns the per-alternative sets into 256-entry jump
tables (byte -> ordered tuple of alternative indices still worth trying,
plus a separate entry for the empty window, plus optional prefix-probe
refinement rows), emitted into the compiled closures by
:mod:`repro.core.compiler` and consulted by the interpreter's rule loop;
:func:`local_dispatch_plans` provides the same tables for ``where`` local
rules (keyed by rule object identity).  Biased order is preserved inside
every table entry, so dispatch-enabled and dispatch-disabled engines
produce identical trees.  Analyses and plans are cached on the (prepared)
``Grammar`` instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .ast import (
    Alternative,
    Grammar,
    Rule,
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from .builtins import BUILTINS
from .errors import EvaluationError
from .expr import BinOp, Cond, Dot, Expr, Name, Num
from .exprcomp import binop_source, cond_source, fold
from .runtime import _div, _mod, _shift_l, _shift_r

__all__ = [
    "AltFirst",
    "DispatchPlan",
    "first_sets",
    "local_first_sets",
    "dispatch_plans",
    "local_dispatch_plans",
    "where_shadowing_conflict",
]

#: Whitespace-or-digit bytes: the only admissible openers of ``AsciiInt``
#: (its parser strips ASCII whitespace, then requires a non-empty digit run).
_ASCII_INT_FIRST = frozenset(
    b for b in range(256) if 0x30 <= b <= 0x39 or not bytes((b,)).strip()
)

#: Intrinsic first-byte sets of the variable-width builtins.  ``None`` means
#: any byte; the second component is ``requires_byte``.
_BUILTIN_FIRST = {
    "Raw": (None, False),  # accepts the empty window
    "Bytes": (None, False),
    "AsciiInt": (_ASCII_INT_FIRST, True),
    "BinInt": (frozenset((0x30, 0x31)), True),
}

#: Maximum fixed-integer width the guard narrowing enumerates.  Width 2
#: runs the compiled constraints on at most 256*256 candidate values per
#: alternative (DNS's ``Pointer`` takes ~5 ms); wider integers are left
#: unconstrained.
_NARROW_MAX_WIDTH = 2

_FULL = frozenset(range(256))

#: Longest constant prefix the analysis tracks (probe offsets stay small).
_MAX_PREFIX = 8

#: Lattice top for the prefix component of the fixpoint: stronger than any
#: concrete prefix; weakens to the common prefix as alternatives join.
_TOP_PREFIX = object()

#: Fixpoint seed / element type: (admissible, requires_byte, prefix) — the
#: first two as in FIRST₁, ``prefix`` the statically known constant prefix
#: of every successful parse (``None`` = unconstrained beyond the first
#: byte; ``_TOP_PREFIX`` only while iterating).
_BOTTOM = (frozenset(), True, _TOP_PREFIX)
_ANY = (None, False, None)


def _merge_prefix(current, incoming):
    """Join two prefix facts (``None`` absorbs; common prefix otherwise)."""
    if current is _TOP_PREFIX:
        return incoming
    if incoming is _TOP_PREFIX:
        return current
    if current is None or incoming is None:
        return None
    if current == incoming:
        return current
    limit = min(len(current), len(incoming))
    for index in range(limit):
        if current[index] != incoming[index]:
            return current[:index] or None
    return current[:limit] or None


@dataclass(frozen=True)
class AltFirst:
    """Admissible first bytes (and two-byte prefixes) of one alternative.

    ``admissible`` is ``None`` for "any byte" (the conservative fallback),
    otherwise a frozenset of byte values.  ``requires_byte`` holds when no
    successful parse of the alternative leaves the window empty, so the
    alternative can be skipped outright on ``lo == hi``.  ``prefix`` is the
    FIRST₂ refinement: the statically known constant prefix every
    successful parse starts with (``None`` when nothing beyond the first
    byte is known; when set, ``admissible == {prefix[0]}``).
    """

    admissible: Optional[frozenset]
    requires_byte: bool
    prefix: Optional[bytes] = None

    def admits(self, byte: int) -> bool:
        return self.admissible is None or byte in self.admissible

    def admits_at(self, offset: int, byte: int) -> bool:
        """Whether ``byte`` at ``offset`` is compatible with the prefix."""
        if self.prefix is None or len(self.prefix) <= offset:
            return True
        return self.prefix[offset] == byte


@dataclass(frozen=True)
class DispatchPlan:
    """A byte-indexed jump table for one rule's biased choice.

    ``table[b]`` lists (in biased order) the indices of the alternatives
    still worth trying when the window's first byte is ``b``; ``empty``
    lists the ones to try when the window is empty.  ``pair_table`` (when
    the FIRST₂ prefix refinement discriminates) maps a first byte to
    ``(probe_offset, row)``: ``row[b]`` is the entry when the window's
    byte at ``probe_offset`` is ``b``; windows too short to reach the
    probe fall back to ``table``.  Plans are only built when at least one
    entry prunes something.
    """

    table: Tuple[Tuple[int, ...], ...]  # 256 entries
    empty: Tuple[int, ...]
    alternatives: int
    pair_table: Optional[Dict[int, Tuple[int, Tuple[Tuple[int, ...], ...]]]] = None


class _Unsupported(Exception):
    """A constraint expression left the fragment the narrower understands."""


def _evaluable(expr: Expr) -> bool:
    """Whether ``expr`` stays inside the narrower's sound fragment."""
    return all(
        isinstance(node, (Num, Name, Dot, BinOp, Cond)) for node in expr.walk()
    )


def _const(expr: Optional[Expr]) -> Optional[int]:
    if expr is None:
        return None
    folded = fold(expr)
    return folded.value if isinstance(folded, Num) else None


# ---------------------------------------------------------------------------
# Lexical where-rule resolution
# ---------------------------------------------------------------------------


def where_shadowing_conflict(grammar: Grammar) -> Optional[str]:
    """Detect call-site-dependent ``where``-rule dispatch.

    The interpreter resolves the nonterminals a local rule's body uses
    through the *caller's* local-rule chain; lexical (declaration-site)
    resolution — which both the compiler and the local-rule FIRST analysis
    rely on — agrees with it unless a nested where-scope re-declares a name
    that an outer-declared local rule's body references.  Returns a
    description of the first conflict, or ``None`` when lexical resolution
    is sound for the whole grammar.
    """

    def used_names(alternative: Alternative) -> set:
        names: set = set()
        for term in alternative.terms:
            if isinstance(term, TermNonterminal):
                names.add(term.name)
            elif isinstance(term, TermArray):
                names.add(term.element.name)
            elif isinstance(term, TermSwitch):
                names.update(case.target.name for case in term.cases)
        return names

    def walk(alternative: Alternative, outer_used: set) -> Optional[str]:
        if not alternative.local_rules:
            return None
        declared = {rule.name for rule in alternative.local_rules}
        shadowed = declared & outer_used
        if shadowed:
            return (
                f"where-rule(s) {sorted(shadowed)} shadow names referenced "
                f"by enclosing where-rules; dispatch would depend on the "
                f"call site"
            )
        # References in an alternative lexically see the where-scopes that
        # same alternative declares, so only usages from *other* bodies at
        # this level (plus everything outer) are dangerous for the scopes
        # nested inside it.
        bodies = [
            (inner, used_names(inner))
            for rule in alternative.local_rules
            for inner in rule.alternatives
        ]
        for inner, _own in bodies:
            dangerous = set(outer_used)
            for other, other_used in bodies:
                if other is not inner:
                    dangerous |= other_used
            conflict = walk(inner, dangerous)
            if conflict is not None:
                return conflict
        return None

    for rule in grammar.iter_rules():
        for alternative in rule.alternatives:
            conflict = walk(alternative, set())
            if conflict is not None:
                return conflict
    return None


def _rule_universe(grammar: Grammar) -> List[Tuple[Rule, Dict[str, Rule], bool]]:
    """Every rule with its lexical local-rule chain.

    Yields ``(rule, chain, toplevel)`` where ``chain`` maps the local-rule
    names visible *inside* the rule's alternatives (before the
    alternatives' own ``where`` blocks, which are added per alternative).
    """
    universe: List[Tuple[Rule, Dict[str, Rule], bool]] = []

    def walk(rule: Rule, chain: Dict[str, Rule], toplevel: bool) -> None:
        universe.append((rule, chain, toplevel))
        for alternative in rule.alternatives:
            if not alternative.local_rules:
                continue
            local_chain = dict(chain)
            local_chain.update(
                {local.name: local for local in alternative.local_rules}
            )
            for local in alternative.local_rules:
                walk(local, local_chain, False)

    for rule in grammar.iter_rules():
        walk(rule, {}, True)
    return universe


def _alt_chain(alternative: Alternative, chain: Dict[str, Rule]) -> Dict[str, Rule]:
    if not alternative.local_rules:
        return chain
    merged = dict(chain)
    merged.update({local.name: local for local in alternative.local_rules})
    return merged


# ---------------------------------------------------------------------------
# The per-alternative derivation
# ---------------------------------------------------------------------------


def _target_first(
    grammar: Grammar,
    target: TermNonterminal,
    chain: Dict[str, Rule],
    rule_first: Dict[int, tuple],
    resolvable: bool,
) -> Tuple[Optional[frozenset], bool, object, bool]:
    """First info of one nonterminal occurrence.

    Returns ``(admissible, requires_byte, prefix, transparent)``;
    ``transparent`` flags a provably-empty occurrence (``[0, 0]`` window of
    a rule that can match emptiness), after which the walk may continue to
    the next term.
    """
    left = _const(target.interval.left)
    if left is None:
        return None, False, None, False
    if left < 0:
        # The interval validity check fails unconditionally: the
        # alternative can never succeed.
        return frozenset(), True, _TOP_PREFIX, False
    name = target.name
    local = chain.get(name)
    if local is not None and not resolvable:
        # Dynamic shadowing somewhere in the grammar: treat the local rule
        # opaquely (only the interval-validity facts remain usable).
        admissible, requires, prefix = _ANY
    elif local is not None:
        admissible, requires, prefix = rule_first[id(local)]
    elif grammar.has_rule(name):
        admissible, requires, prefix = rule_first[id(grammar.rule(name))]
    elif name in BUILTINS:
        spec = BUILTINS[name]
        if spec.size is not None:
            admissible, requires, prefix = None, True, None
        else:
            admissible, requires = _BUILTIN_FIRST.get(name, (None, False))
            prefix = None
    else:
        # Blackboxes (and unresolvable names, which raise at parse time):
        # the interval validity check still runs before they do, so the
        # nonzero-left fact below stays usable; their *content* is never
        # constrained, so skipping can never hide their effects.
        if left == 0:
            return None, False, None, False
        admissible, requires, prefix = _ANY
    if left > 0:
        # 0 < left <= right <= |window| forces a non-empty window even
        # though the first byte itself is unconstrained.
        return None, True, None, False
    right = _const(target.interval.right)
    if right == 0 and not requires:
        # A [0, 0] occurrence of an emptiness-accepting target consumes
        # nothing: the *next* term constrains the first byte.
        return None, False, None, True
    return admissible, requires, prefix, False


def _alternative_first(
    grammar: Grammar,
    alternative: Alternative,
    chain: Dict[str, Rule],
    rule_first: Dict[int, tuple],
    resolvable: bool,
    narrow_cache: Dict[int, tuple],
) -> AltFirst:
    for position, term in enumerate(alternative.terms):
        if isinstance(term, (TermAttrDef, TermGuard)):
            # Pure bookkeeping before the first consuming term; failures
            # here are EvaluationErrors the engines map to a clean FAIL.
            continue
        if isinstance(term, TermTerminal):
            left = _const(term.interval.left)
            if left is None:
                return AltFirst(None, False)
            if left < 0:
                return AltFirst(frozenset(), True)
            if left > 0:
                return AltFirst(None, True)
            if term.value:
                value = term.value[:_MAX_PREFIX]
                prefix = value if len(value) >= 2 else None
                return AltFirst(frozenset((value[0],)), True, prefix)
            continue  # empty literal at 0: consumes nothing
        if isinstance(term, TermNonterminal):
            admissible, requires, prefix, transparent = _target_first(
                grammar, term, chain, rule_first, resolvable
            )
            if transparent:
                continue
            if prefix is _TOP_PREFIX or (prefix is not None and len(prefix) < 2):
                prefix = None
            if (
                admissible is None
                and requires
                and term.name not in chain
                and not grammar.has_rule(term.name)
                # Narrowing equates the builtin's decoded bytes with the
                # window's first bytes, which is only true at offset 0.
                and _const(term.interval.left) == 0
            ):
                narrowed = _narrow_by_guards(
                    grammar, alternative, position, chain, narrow_cache
                )
                if narrowed is not None:
                    return AltFirst(narrowed, True)
            return AltFirst(admissible, requires, prefix)
        if isinstance(term, TermSwitch):
            merged: Optional[frozenset] = frozenset()
            merged_prefix: object = _TOP_PREFIX
            requires_all = True
            for case in term.cases:
                admissible, requires, prefix, transparent = _target_first(
                    grammar, case.target, chain, rule_first, resolvable
                )
                if transparent:
                    admissible, requires, prefix = None, False, None
                if admissible is None:
                    merged = None
                elif merged is not None:
                    merged = merged | admissible
                merged_prefix = _merge_prefix(merged_prefix, prefix)
                requires_all = requires_all and requires
            if merged_prefix is _TOP_PREFIX or (
                merged_prefix is not None and len(merged_prefix) < 2
            ):
                merged_prefix = None
            return AltFirst(merged, requires_all, merged_prefix)
        # Arrays may iterate zero times and their element interval depends
        # on the loop variable: no sound first-byte information.
        return AltFirst(None, False)
    # No consuming term: the alternative may succeed on the empty window.
    return AltFirst(None, False)


# ---------------------------------------------------------------------------
# btoi-guard narrowing
# ---------------------------------------------------------------------------


def _narrow_by_guards(
    grammar: Grammar,
    alternative: Alternative,
    position: int,
    chain: Dict[str, Rule],
    cache: Dict[int, Optional[frozenset]],
) -> Optional[frozenset]:
    """Narrow a leading fixed-int builtin by later guard/switch constraints.

    Returns the admissible first-byte set, or ``None`` when no constraint
    narrows anything (or the shape is not analyzable).  The result is
    cached per term object: it does not depend on the rule fixpoint.
    """
    key = id(alternative.terms[position])
    if key not in cache:
        cache[key] = _narrow(grammar, alternative, position, chain)
    return cache[key]


def _narrow(
    grammar: Grammar, alternative: Alternative, position: int, chain: Dict[str, Rule]
) -> Optional[frozenset]:
    name = alternative.terms[position].name
    spec = BUILTINS.get(name)
    if (
        spec is None
        or spec.size is None
        or spec.byteorder is None
        or spec.signed
        or spec.size > _NARROW_MAX_WIDTH
    ):
        return None
    # ``name.val`` must refer to this very record throughout the
    # alternative: any other term that (re-)records or shadows the name
    # makes the reference ambiguous.
    records = 0
    for other in alternative.terms:
        if isinstance(other, TermNonterminal) and other.name == name:
            records += 1
        elif isinstance(other, TermArray) and other.element.name == name:
            return None
        elif isinstance(other, TermSwitch):
            if any(case.target.name == name for case in other.cases):
                return None
    if records != 1:
        return None
    program = _ConstraintProgram(name)
    try:
        program.walk(grammar, alternative, position, chain)
        admits_any = program.compile()
    except (RecursionError, SyntaxError):
        # An expression nested deeper than Python compiles ("too many
        # nested parentheses"): leave the alternative unconstrained.
        return None
    if admits_any is None:
        return None
    if not program.uses_value:
        # Constant constraints: one evaluation decides every candidate.
        return None if admits_any((0,)) else frozenset()
    if spec.size == 1:
        candidates = [(first_byte,) for first_byte in range(256)]
    elif spec.byteorder == "big":
        candidates = [range(high << 8, (high << 8) + 256) for high in range(256)]
    else:  # little-endian: the first byte is the low byte
        candidates = [range(low, 65536, 256) for low in range(256)]
    admissible = frozenset(
        first_byte
        for first_byte, values in enumerate(candidates)
        if admits_any(values)
    )
    return None if len(admissible) == 256 else admissible


def _clean_failure_target(
    grammar: Grammar, name: str, chain: Dict[str, Rule]
) -> bool:
    """Whether a consuming nonterminal occurrence is effect-free.

    Guard narrowing may only use constraints that execute *before* any
    term with observable effects: a pruned alternative must behave exactly
    like one that ran and failed cleanly.  Builtins fail cleanly and have
    no effects; everything else — rules (which may transitively reach
    blackboxes, undefined names, or non-termination), local rules,
    blackboxes, undefined names — ends the symbolic walk.
    """
    return (
        name not in chain
        and not grammar.has_rule(name)
        and name in BUILTINS
    )


def _unsupported() -> int:
    raise _Unsupported()


def _defined(value: Optional[int]) -> int:
    """Read an attribute whose definition may have left the fragment."""
    if value is None:
        raise _Unsupported()
    return value


#: Globals of every compiled constraint program.
_PROGRAM_GLOBALS = {
    "EvaluationError": EvaluationError,
    "_Unsupported": _Unsupported,
    "_unsupported": _unsupported,
    "_defined": _defined,
    "_div": _div,
    "_mod": _mod,
    "_shift_l": _shift_l,
    "_shift_r": _shift_r,
}

class _ConstraintProgram:
    """An alternative's constraints on the builtin's value, as Python.

    :meth:`walk` runs once per alternative and settles, from the grammar
    alone, what the reference interpreter would resolve per candidate
    value: a plain name reads the latest attribute definition before it
    (or leaves the fragment when there is none), ``<builtin>.val`` reads
    the candidate once the walk has passed the builtin term, and any other
    reference leaves the fragment.  Leaving the fragment raises
    :class:`_Unsupported` at the point of evaluation, so short-circuit
    operators and conditionals keep the interpreter's order: a definition
    that leaves it unbinds its attribute, a guard that leaves it is no
    constraint, and a switch case that leaves it counts as taken.
    :class:`~repro.core.errors.EvaluationError` keeps its interpreter
    meaning: the candidate value fails.  :meth:`compile` turns the result
    into ``admits_any(values) -> bool``, a loop over candidate values.
    """

    def __init__(self, name: str):
        self.name = name
        self.value_known = False
        self.uses_value = False
        #: Attribute name -> the Python local holding its latest definition.
        self.bound: Dict[str, str] = {}
        #: Locals whose definition may leave the fragment (``None`` then).
        self.poisonable: set = set()
        self.locals = 0
        self.lines: List[str] = []

    def walk(
        self,
        grammar: Grammar,
        alternative: Alternative,
        position: int,
        chain: Dict[str, Rule],
    ) -> None:
        for index, term in enumerate(alternative.terms):
            if index == position:
                self.value_known = True
            elif isinstance(term, TermAttrDef):
                self.define(term.name, term.expr)
            elif isinstance(term, TermGuard):
                self.guard(term.expr)
            elif isinstance(term, TermTerminal):
                continue  # pure byte compare: fails cleanly, no effects
            elif isinstance(term, TermNonterminal):
                if not _clean_failure_target(grammar, term.name, chain):
                    return  # potentially effectful: later constraints unusable
            elif isinstance(term, TermSwitch):
                # Conditions evaluate before any target parses, so a
                # defaultless switch constrains — but its chosen target may
                # be effectful, so the walk stops afterwards either way.
                if all(case.condition is not None for case in term.cases):
                    self.switch([case.condition for case in term.cases])
                return
            else:
                return  # arrays (and anything new): stop conservatively

    def define(self, name: str, expr: Expr) -> None:
        if not _evaluable(expr):
            self.bound.pop(name, None)
            return
        source, leaves = self.render(expr)
        self.locals += 1
        local = f"a{self.locals}"
        if leaves:
            self.poisonable.add(local)
        self.emit([f"{local} = {source}"], leaves, f"{local} = None")
        self.bound[name] = local

    def guard(self, expr: Expr) -> None:
        if _evaluable(expr):
            source, leaves = self.render(expr)
            self.emit([f"if {source} == 0:", "    continue"], leaves, "pass")

    def switch(self, conditions: List[Expr]) -> None:
        for condition in conditions:
            if not _evaluable(condition):
                self.lines.append("return True")  # undecidable: assume reachable
                return
            source, leaves = self.render(condition)
            self.emit([f"if {source} != 0:", "    return True"], leaves, "return True")
        self.lines.append("continue")  # no case taken: the switch fails

    def emit(self, statement: List[str], leaves: bool, on_unsupported: str) -> None:
        """Append a statement of the loop body over candidate values ``v``.

        ``continue`` rejects ``v``; ``return True`` admits it.  A statement
        that may leave the fragment runs ``on_unsupported`` when it does.
        """
        if leaves:
            statement = [
                "try:",
                *("    " + line for line in statement),
                "except _Unsupported:",
                "    " + on_unsupported,
            ]
        self.lines += statement

    def render(self, expr: Expr) -> Tuple[str, bool]:
        """Python source of ``expr`` and whether it may leave the fragment."""
        if isinstance(expr, Num):
            return repr(expr.value), False
        if isinstance(expr, Name):
            local = self.bound.get(expr.ident)
            if local is None:
                return "_unsupported()", True
            if local in self.poisonable:
                return f"_defined({local})", True
            return local, False
        if isinstance(expr, Dot):
            if expr.nonterminal == self.name and expr.attr == "val" and self.value_known:
                self.uses_value = True
                return "v", False
            return "_unsupported()", True
        if isinstance(expr, Cond):
            condition, leaves_c = self.render(expr.condition)
            then, leaves_t = self.render(expr.then)
            otherwise, leaves_o = self.render(expr.otherwise)
            return (
                cond_source(condition, then, otherwise),
                leaves_c or leaves_t or leaves_o,
            )
        left, leaves_l = self.render(expr.left)
        right, leaves_r = self.render(expr.right)
        return binop_source(expr.op, left, right), leaves_l or leaves_r

    def compile(self):
        """``admits_any(values) -> bool``, or ``None`` when nothing constrains."""
        if not self.lines:
            return None
        body = "\n".join("            " + line for line in self.lines)
        source = (
            "def admits_any(values):\n"
            "    for v in values:\n"
            "        try:\n"
            f"{body}\n"
            "        except EvaluationError:\n"
            "            continue\n"
            "        return True\n"
            "    return False\n"
        )
        namespace = dict(_PROGRAM_GLOBALS)
        exec(compile(source, "<ipg-guard-narrowing>", "exec"), namespace)
        return namespace["admits_any"]


# ---------------------------------------------------------------------------
# Whole-grammar fixpoint + dispatch plans
# ---------------------------------------------------------------------------


def _compute_first_sets(grammar: Grammar) -> None:
    """Run the least fixpoint over every rule (top-level and local).

    Admissible/pair sets grow from the empty set, ``requires_*`` flags
    shrink from ``True``.  The grammar must be prepared (intervals
    auto-completed); results are cached on the grammar instance — top-level
    infos by name, local-rule infos by rule object identity.
    """
    universe = _rule_universe(grammar)
    resolvable = where_shadowing_conflict(grammar) is None
    rule_first: Dict[int, tuple] = {id(rule): _BOTTOM for rule, _c, _t in universe}
    narrow_cache: Dict[int, Optional[frozenset]] = {}
    alt_infos: Dict[int, Tuple[AltFirst, ...]] = {}
    changed = True
    while changed:
        changed = False
        for rule, chain, _toplevel in universe:
            if not resolvable and chain:
                # Local rules under dynamic shadowing keep the conservative
                # "any byte" info (their callers treat them opaquely too).
                alt_infos[id(rule)] = tuple(
                    AltFirst(None, False) for _ in rule.alternatives
                )
                continue
            infos = tuple(
                _alternative_first(
                    grammar,
                    alternative,
                    _alt_chain(alternative, chain),
                    rule_first,
                    resolvable,
                    narrow_cache,
                )
                for alternative in rule.alternatives
            )
            alt_infos[id(rule)] = infos
            merged: Optional[frozenset] = frozenset()
            merged_prefix: object = _TOP_PREFIX
            requires = True
            for info in infos:
                if info.admissible is None:
                    merged = None
                elif merged is not None:
                    merged = merged | info.admissible
                merged_prefix = _merge_prefix(merged_prefix, info.prefix)
                requires = requires and info.requires_byte
            summary = (merged, requires, merged_prefix)
            if summary != rule_first[id(rule)]:
                rule_first[id(rule)] = summary
                changed = True
    grammar._first_sets_cache = {
        name: alt_infos[id(grammar.rule(name))] for name in grammar.rules
    }
    grammar._local_first_cache = [
        (rule, alt_infos[id(rule)]) for rule, _chain, toplevel in universe if not toplevel
    ]


def first_sets(grammar: Grammar) -> Dict[str, Tuple[AltFirst, ...]]:
    """Per-alternative first-byte info for every top-level rule."""
    cached = getattr(grammar, "_first_sets_cache", None)
    if cached is None:
        _compute_first_sets(grammar)
        cached = grammar._first_sets_cache
    return cached


def local_first_sets(grammar: Grammar) -> List[Tuple[Rule, Tuple[AltFirst, ...]]]:
    """Per-alternative first-byte info for every ``where`` local rule."""
    cached = getattr(grammar, "_local_first_cache", None)
    if cached is None:
        _compute_first_sets(grammar)
        cached = grammar._local_first_cache
    return cached


def _plan_for(infos: Tuple[AltFirst, ...]) -> Optional[DispatchPlan]:
    """Build one rule's jump table, or ``None`` when nothing prunes.

    The bytes are split into classes whose members every alternative
    admits alike, so each entry (and prefix-probe row) is built once per
    class rather than once per byte.
    """
    full = tuple(range(len(infos)))
    classes: List[Tuple[frozenset, Tuple[int, ...]]] = [(_FULL, ())]
    for index, info in enumerate(infos):
        refined = []
        for members, entry in classes:
            inside = members if info.admissible is None else members & info.admissible
            if inside:
                refined.append((inside, entry + (index,)))
            if len(inside) < len(members):
                refined.append((members - inside, entry))
        classes = refined
    table: List[Tuple[int, ...]] = [()] * 256
    for members, entry in classes:
        for byte in members:
            table[byte] = entry
    empty = tuple(
        index for index, info in enumerate(infos) if not info.requires_byte
    )
    pair_table: Dict[int, Tuple[int, Tuple[Tuple[int, ...], ...]]] = {}
    if len(infos) > 1:
        # Prefix-probe refinement rows: for a first byte whose entry still
        # lists several alternatives with known constant prefixes, probe
        # the first offset at which the prefixes discriminate.  (Single-
        # alternative rules keep their flat 256-byte masks: an extra dict
        # probe on every invocation would tax the happy path more than the
        # earlier rejection saves.)
        for members, entry in classes:
            probe = _probe_row(infos, entry) if len(entry) > 1 else None
            if probe is not None:
                pair_table.update(dict.fromkeys(members, probe))
        pair_table = dict(sorted(pair_table.items()))
    if all(entry == full for _members, entry in classes) and not pair_table:
        return None
    return DispatchPlan(tuple(table), empty, len(infos), pair_table or None)


def _probe_row(
    infos: Tuple[AltFirst, ...], base: Tuple[int, ...]
) -> Optional[Tuple[int, Tuple[Tuple[int, ...], ...]]]:
    """The best ``(probe_offset, row)`` splitting the entry ``base``."""
    longest = max(
        (len(infos[i].prefix) for i in base if infos[i].prefix is not None),
        default=0,
    )
    best = None
    for offset in range(1, longest):
        # Alternative index -> the byte its prefix fixes at ``offset``.
        fixed = {
            i: infos[i].prefix[offset]
            for i in base
            if infos[i].prefix is not None and len(infos[i].prefix) > offset
        }
        if not fixed:
            continue  # every row entry would equal ``base``
        row = [tuple(i for i in base if i not in fixed)] * 256
        for second in set(fixed.values()):
            row[second] = tuple(i for i in base if fixed.get(i, second) == second)
        # Prefer the offset that narrows entries the most (ZIP's PK
        # records all share byte 1 = 'K'; byte 2 splits them).
        score = max(map(len, row))
        if best is None or score < best[0]:
            best = (score, offset, tuple(row))
    return None if best is None else (best[1], best[2])


def dispatch_plans(grammar: Grammar) -> Dict[str, DispatchPlan]:
    """Jump tables for every top-level rule where dispatch prunes work.

    A plan is built only when the byte table (or its FIRST₂ refinement)
    actually discriminates — some byte admits fewer alternatives than the
    full biased list.  Rules whose alternatives all admit any byte are
    omitted even when the empty-window entry would prune: consulting their
    table would read a byte the alternatives themselves might never touch,
    which costs time in batch mode and would add spurious reads to
    streams.  (Pruning tables on streamed rules are handled separately:
    the streaming engines memoize each dispatch decision per parse, so a
    re-entered in-flight rule never re-reads its first bytes — a re-read
    would pin the compaction watermark at its window start.)  Cached on
    the grammar instance.
    """
    cached = getattr(grammar, "_dispatch_plans_cache", None)
    if cached is not None:
        return cached
    plans: Dict[str, DispatchPlan] = {}
    for name, infos in first_sets(grammar).items():
        plan = _plan_for(infos)
        if plan is not None:
            plans[name] = plan
    grammar._dispatch_plans_cache = plans
    return plans


def local_dispatch_plans(grammar: Grammar) -> List[Tuple[Rule, DispatchPlan]]:
    """Jump tables for ``where`` local rules (keyed by rule identity).

    Local rules resolve lexically (see :func:`where_shadowing_conflict`;
    under a conflict every local rule keeps the conservative "any byte"
    info and no plan is built).  Cached on the grammar instance.
    """
    cached = getattr(grammar, "_local_dispatch_plans_cache", None)
    if cached is not None:
        return cached
    plans: List[Tuple[Rule, DispatchPlan]] = []
    for rule, infos in local_first_sets(grammar):
        plan = _plan_for(infos)
        if plan is not None:
            plans.append((rule, plan))
    grammar._local_dispatch_plans_cache = plans
    return plans
