"""Whole-grammar analysis facts shared by the engine and ``--explain``.

The compilation pipeline has two stages:

``analyze``
    Run the whole-grammar analyses once — call-site collection, the
    step-budget charge points every engine shares (:func:`charge_points`:
    the recursion fixpoint and the bulk-eligible loops), the EOI-anchoring
    fixpoint, single-use inline candidates, right chains
    (:func:`right_chains`), fixed terms (:func:`fixed_terms`), FIRST-set
    dispatch plans (:mod:`repro.core.firstsets`), fixed-shape struct plans
    (:mod:`repro.core.shapes`) — and record the resulting *facts* in a
    :class:`GrammarAnalysis`.  No pass patches source strings or
    re-derives another pass's decisions.

    Right chains ride on the ``inline_single_use`` pass, so batch
    compilations run them as loops with no Python frame per element and
    ``Parser.recursion_limit`` no longer bounds their length; the stream
    and ``record_spans`` compilations, which never inline, still recurse.

``emit``
    :mod:`repro.core.backends.closures` — the staged source-emitting
    compiler behind ``backend="compiled"`` and AOT ``to_source()`` —
    reads the grammar AST plus those facts and emits specialized closures.

:func:`explain_plan` renders the same two inputs for humans
(``repro compile --explain`` and the golden dumps under
``tests/golden_ir/``): per rule its memo mode, fuel placement, right-chain
loop, fixed-shape decoder and dispatch table, per alternative its struct
plan (or why it has none), then one line per term —

==========  ===========================================================
``attr``    bind an attribute to an expression's value
``guard``   fail the alternative when the expression evaluates to 0
``lit``     match literal bytes inside an interval
``call``    parse a nonterminal confined to an interval; ``fixed`` when
            its subtree is built once per loop entry (:func:`fixed_terms`)
``array``   ``for v = s to t do A[l, r]``, with the statically proven
            element ``stride`` when there is one and the ``bulk`` struct
            plan when the array is bulk-decoded
``switch``  the first case whose condition is non-zero wins
==========  ===========================================================

Expressions print in IPG surface syntax (:meth:`Expr.to_source`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
from .builtins import BUILTINS, is_builtin
from .cycles import recursive_vertices
from .errors import IPGError
from .expr import Dot, Name, Num

@dataclass(frozen=True)
class Optimizations:
    """Toggle set for the compilation passes.

    Every combination produces identical parse trees (enforced by
    ``tests/test_compiler_passes.py``); the flags only trade compile-time
    analysis and generated-code shape for parse speed.  Memo specialization
    is not a toggle: :func:`analyze` derives it from the compilation kind.
    """

    #: Expand single-use single-alternative rules into their call site,
    #: and run right chains (:func:`right_chains`) as loops.
    inline_single_use: bool = True
    #: Replace ordered trial-and-backtrack with byte-indexed jump tables
    #: where the FIRST-set analysis (:mod:`repro.core.firstsets`) prunes
    #: alternatives.
    first_byte_dispatch: bool = True
    #: Vectorize statically fixed layouts (:mod:`repro.core.shapes`): fused
    #: struct decodes for fixed prefixes, bulk decoding for fixed-stride
    #: arrays, inlined ``Raw``/``Bytes`` builtins.
    bulk_fixed_shape: bool = True

    @classmethod
    def none(cls) -> "Optimizations":
        """The unoptimized baseline: every pass off."""
        return cls(False, False, False)


# ---------------------------------------------------------------------------
# Analyze: whole-grammar facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One static invocation of a nonterminal inside some rule body."""

    caller: Rule  # the (top-level or local) rule containing the call
    top: str  # name of the enclosing top-level rule
    kind: str  # "nt" | "array" | "switch"
    target_kind: str  # "local" | "top" | "other"
    target: object  # Rule for "local", the name otherwise
    eoi_right: bool  # right endpoint is the unrebound EOI special
    term: object  # the TermNonterminal, TermArray or TermSwitch making the call


def collect_sites(grammar: Grammar) -> Tuple[List[CallSite], List[Rule]]:
    """Enumerate every call site, resolving where-rule shadowing lexically.

    The closure backend rejects call-site-dependent dispatch up front
    (``_check_dynamic_shadowing``), so lexical resolution here agrees with
    the interpreter's dynamic chain walk for every grammar that actually
    gets compiled.
    """
    sites: List[CallSite] = []
    rules: List[Rule] = []

    def walk(rule: Rule, top: str, chain: Dict[str, Rule]) -> None:
        rules.append(rule)
        for alternative in rule.alternatives:
            local_chain = chain
            if alternative.local_rules:
                local_chain = dict(chain)
                local_chain.update(
                    {local.name: local for local in alternative.local_rules}
                )
            rebound = False
            for term in alternative.terms:
                if isinstance(term, TermAttrDef):
                    if term.name == "EOI":
                        rebound = True
                    continue
                targets: List[Tuple[str, object, str, bool]] = []
                if isinstance(term, TermNonterminal):
                    targets.append((term.name, term.interval.right, "nt", False))
                elif isinstance(term, TermArray):
                    # The element interval is evaluated with the loop
                    # variable bound; a loop variable named EOI shadows the
                    # special for the element site.
                    targets.append(
                        (
                            term.element.name,
                            term.element.interval.right,
                            "array",
                            term.var == "EOI",
                        )
                    )
                elif isinstance(term, TermSwitch):
                    targets.extend(
                        (case.target.name, case.target.interval.right, "switch", False)
                        for case in term.cases
                    )
                for name, right, kind, shadowed in targets:
                    eoi_right = (
                        not rebound
                        and not shadowed
                        and isinstance(right, Name)
                        and right.ident == "EOI"
                    )
                    if name in local_chain:
                        target_kind, target = "local", local_chain[name]
                    elif grammar.has_rule(name):
                        target_kind, target = "top", name
                    else:
                        target_kind, target = "other", name
                    sites.append(
                        CallSite(rule, top, kind, target_kind, target, eoi_right, term)
                    )
            for local in alternative.local_rules:
                walk(local, top, local_chain)

    for name, rule in grammar.rules.items():
        walk(rule, name, {})
    return sites, rules


@dataclass(frozen=True)
class ChargePoints:
    """Where a parse charges its step budget (``ParseLimits.max_steps``).

    Only recursion and count-driven loops can make an IPG parse run
    unbounded, so every engine charges one step at exactly these points
    and nowhere else:

    * each entry of a recursive rule, top-level or ``where``, after the
      memo probe (a memo hit replays free);
    * each iteration of a ``for`` loop, unless its element is
      bulk-eligible: a top-level rule of fixed width at a linear stride
      of at least one byte, so every iteration consumes bytes of a
      bounds-checked window.  The exemption holds whether or not an
      engine actually bulk-decodes the loop.

    The rest of a parse is straight-line bodies whose work is a constant
    factor of these charges.  The fact depends on the grammar alone, not
    on the engine, the execution mode or :class:`Optimizations`, so one
    budget gives one verdict on every engine.
    """

    #: ``id()`` of every recursive rule, top-level and ``where``.
    rules: FrozenSet[int]
    #: id(TermArray) -> the element rule's fixed plan at the loop's
    #: stride, for the loops charged nothing.
    bulk: Dict[int, object]


def charge_points(grammar: Grammar) -> ChargePoints:
    """The grammar's :class:`ChargePoints`, computed once and cached on it.

    Needs only the call sites, the rule-level recursion fixpoint and the
    struct plans of ``for`` elements, so the interpreter learns its
    charge points without running :func:`analyze`.
    """
    cached = getattr(grammar, "_charge_points_cache", None)
    if cached is not None:
        return cached
    from .shapes import linear_stride, rule_shape

    sites, all_rules = collect_sites(grammar)
    graph: Dict[int, Set[int]] = {id(rule): set() for rule in all_rules}
    bulk: Dict[int, object] = {}
    for site in sites:
        if site.target_kind == "other":
            continue
        target = (
            site.target if site.target_kind == "local" else grammar.rule(site.target)
        )
        graph[id(site.caller)].add(id(target))
        if site.kind == "array" and site.target_kind == "top":
            interval = site.term.element.interval
            stride = linear_stride(interval.left, interval.right, site.term.var)
            shape = None if stride is None else rule_shape(grammar, site.target, stride)
            if shape is not None:
                bulk[id(site.term)] = shape
    cached = ChargePoints(frozenset(recursive_vertices(graph)), bulk)
    grammar._charge_points_cache = cached
    return cached


def eoi_anchored_rule_names(grammar: Grammar, sites: List[CallSite]) -> Set[str]:
    """Top-level rules whose every invocation has ``hi ==`` the parse's EOI.

    Greatest fixpoint: a rule stays anchored only while every call site
    pins the right endpoint to the caller's unrebound ``EOI`` *and* the
    caller itself is anchored (so the caller's ``EOI`` is the top-level
    one).  Entry-point invocations (``parse(start=...)``) use
    ``hi = len(data)`` and are anchored by construction.  For anchored
    rules the memo key ``(lo, hi)`` collapses to ``lo``.
    """
    anchored: Dict[int, bool] = {}
    rule_sites = [site for site in sites if site.target_kind in ("local", "top")]
    for site in rule_sites:
        anchored[id(site.caller)] = True
        target = site.target if site.target_kind == "local" else grammar.rule(site.target)
        anchored[id(target)] = True
    for name in grammar.rules:
        anchored[id(grammar.rule(name))] = True
    changed = True
    while changed:
        changed = False
        for site in rule_sites:
            target = (
                site.target
                if site.target_kind == "local"
                else grammar.rule(site.target)
            )
            if anchored[id(target)] and (
                not site.eoi_right or not anchored[id(site.caller)]
            ):
                anchored[id(target)] = False
                changed = True
    return {name for name in grammar.rules if anchored[id(grammar.rule(name))]}


def inline_candidates(
    grammar: Grammar, sites: List[CallSite], recursive: Set[str]
) -> Set[str]:
    """Rules expandable into their (unique) call site.

    Conditions: exactly one alternative, no local rules, referenced from
    exactly one call site grammar-wide, and the rule is not recursive
    (which also rules out mutual inlining cycles).  The site may be a
    plain nonterminal term, an array element, or a switch-case target:
    the expansion runs with its own window locals and a parentless scope,
    which is exactly the context a top-level rule sees from any of the
    three (the interpreter passes no caller context either, and a loop
    iteration or switch branch failing mid-expansion fails the caller's
    alternative just like a propagated callee FAIL).
    """
    uses: Dict[str, int] = {}
    for site in sites:
        if site.target_kind == "top":
            uses[site.target] = uses.get(site.target, 0) + 1
    candidates: Set[str] = set()
    for name, rule in grammar.rules.items():
        if (
            uses.get(name) == 1
            and name not in recursive
            and len(rule.alternatives) == 1
            and not rule.alternatives[0].local_rules
        ):
            candidates.add(name)
    return candidates


def consuming_nonterminals(grammar: Grammar) -> Set[str]:
    """Nonterminals whose parsing always touches at least one input byte.

    Computed as a least fixpoint: a rule consumes when *every* alternative
    contains a non-empty terminal, a fixed-size builtin, or a nonterminal
    already known to consume.  This is the syntactic check the paper uses to
    justify adding ``A.end > 0`` (:mod:`repro.core.termination`), and the
    proof that a right chain's ``X.end`` step advances (:func:`right_chains`).
    """
    names = {rule.name for rule, _parent in grammar.iter_all_rules()}
    rules = {rule.name: rule for rule, _parent in grammar.iter_all_rules()}
    consuming: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in names:
            if name in consuming:
                continue
            if _rule_consumes(rules[name], consuming):
                consuming.add(name)
                changed = True
    return consuming


def _rule_consumes(rule: Rule, consuming: Set[str]) -> bool:
    return all(_alternative_consumes(alt, consuming) for alt in rule.alternatives)


def _alternative_consumes(alternative: Alternative, consuming: Set[str]) -> bool:
    local_names = alternative.local_rule_names()
    for term in alternative.terms:
        if isinstance(term, TermTerminal) and term.value:
            return True
        if isinstance(term, TermNonterminal):
            name = term.name
            if name in consuming and name not in local_names:
                return True
            if is_builtin(name) and BUILTINS[name].size:
                return True
            # Local rules: conservatively check their own alternatives.
            for local in alternative.local_rules:
                if local.name == name and _rule_consumes(local, consuming):
                    return True
    return False


@dataclass(frozen=True)
class ChainPlan:
    """How a right-chain rule's step alternative splits around its self-call."""

    #: Index of the step: the one alternative that calls the rule itself.
    step: int
    #: Index of the self-call among the step's terms; only attribute
    #: definitions and guards follow it.
    call: int


def right_chains(grammar: Grammar, sites: List[CallSite]) -> Dict[str, ChainPlan]:
    """Top-level rules the closure backend runs as a loop instead of recursing.

    A rule ``R`` is a right chain when exactly one alternative, the step,
    calls ``R``: once, as a plain nonterminal term at ``[e, EOI]`` with the
    unrebound ``EOI`` (so every level shares the caller's ``hi``), followed
    only by attribute definitions and guards, and with no where-rules.
    The step must provably advance, or the loop could spin where the
    recursion overflowed: ``e`` is a constant >= 1, or ``X.end`` of a
    nonterminal term of the step before the self-call whose rule always
    consumes a byte (the fact behind :mod:`repro.core.termination`'s
    ``X.end > 0`` extension).  PDF's ``ObjBody`` and ``Num``, DNS's
    ``Name`` and GIF's ``Blocks`` and ``SubBlocks`` are right chains;
    left-recursive rules such as PDF's ``BNum`` are not.
    """
    from .exprcomp import fold

    consuming = consuming_nonterminals(grammar)
    local_names = {
        rule.name for rule, parent in grammar.iter_all_rules() if parent is not None
    }

    def always_consumes(name: str) -> bool:
        # A where-rule sharing the name makes the consumption fact ambiguous.
        if name in local_names:
            return False
        if grammar.has_rule(name):
            return name in consuming
        return is_builtin(name) and bool(BUILTINS[name].size)

    self_calls: Dict[str, List[CallSite]] = {}
    for site in sites:
        if site.target_kind == "top" and site.target == site.top:
            self_calls.setdefault(site.top, []).append(site)
    chains: Dict[str, ChainPlan] = {}
    for name, calls in self_calls.items():
        rule = grammar.rule(name)
        site = calls[0]
        if (
            len(calls) != 1
            or site.caller is not rule
            or site.kind != "nt"
            or not site.eoi_right
        ):
            continue
        step = next(
            index
            for index, alternative in enumerate(rule.alternatives)
            if any(term is site.term for term in alternative.terms)
        )
        alternative = rule.alternatives[step]
        call = next(
            index for index, term in enumerate(alternative.terms) if term is site.term
        )
        prefix = alternative.terms[:call]
        if alternative.local_rules or not all(
            isinstance(term, (TermAttrDef, TermGuard))
            for term in alternative.terms[call + 1 :]
        ):
            continue
        left = fold(site.term.interval.left)
        if isinstance(left, Num):
            advances = left.value >= 1
        else:
            advances = (
                isinstance(left, Dot)
                and left.attr == "end"
                and always_consumes(left.nonterminal)
                and any(
                    isinstance(term, TermNonterminal) and term.name == left.nonterminal
                    for term in prefix
                )
            )
        if advances:
            chains[name] = ChainPlan(step, call)
    return chains


@dataclass(frozen=True)
class FixedTree:
    """A subtree the grammar fixes: a node, or literal ``bytes`` for a leaf."""

    name: str
    #: The node's env items, ``start``/``end`` in its caller's window.
    env: Tuple[Tuple[str, int], ...]
    children: Tuple[object, ...]  # FixedTree | bytes


@dataclass(frozen=True)
class FixedTerm:
    """A nonterminal term whose whole subtree the grammar determines.

    The emitter builds :attr:`tree` once per entry of the loop running
    the term (a right chain's levels, an array's elements) and shares it
    between iterations; each iteration still checks the window and the
    literals.
    """

    tree: FixedTree
    #: ``(offset in the caller's window, literal)`` the input must match.
    checks: Tuple[Tuple[int, bytes], ...]
    #: The caller's span update ``(start, end)``; ``None`` when the
    #: subtree touches no byte.
    span: Optional[Tuple[int, int]]


def _fixed_subtree(grammar: Grammar, name: str, left: int, right: int, inline):
    """``(tree, checks, span)`` of ``name`` at the constant ``[left, right]``.

    ``None`` unless the subtree is determined by the grammar: the builtin
    ``Raw``, or a rule inlined at its one call site (``inline``) with a
    single alternative of literals, fixed nonterminals at constant
    windows and constant attributes: no guard, switch, array, special
    rebinding or payload leaf.  Literal and window checks that could
    never pass also give ``None``: the term is left to the plain path.
    """
    from .exprcomp import SPECIALS, fold

    width = right - left
    if not grammar.has_rule(name):
        if name != "Raw":
            return None
        env = ("EOI", width), ("start", left), ("end", right), ("len", width)
        tree = FixedTree(name, env + (("val", width),), ())
        return tree, (), ((left, right) if width else None)
    if name not in inline:
        return None
    start, end = width, 0
    attrs: Dict[str, int] = {}
    children: List[object] = []
    checks: List[Tuple[int, bytes]] = []
    for term in grammar.rule(name).alternatives[0].terms:
        if isinstance(term, TermAttrDef):
            value = fold(term.expr)
            if term.name in SPECIALS or not isinstance(value, Num):
                return None
            attrs[term.name] = value.value
            continue
        if not isinstance(term, (TermTerminal, TermNonterminal)):
            return None
        lo, hi = fold(term.interval.left), fold(term.interval.right)
        if not (isinstance(lo, Num) and isinstance(hi, Num)):
            return None
        lo, hi = lo.value, hi.value
        if not 0 <= lo <= hi <= width:
            return None
        if isinstance(term, TermTerminal):
            if hi - lo < len(term.value):
                return None
            children.append(term.value)
            if term.value:
                checks.append((left + lo, term.value))
                start, end = min(start, lo), max(end, lo + len(term.value))
            continue
        inner = _fixed_subtree(grammar, term.name, lo, hi, inline)
        if inner is None:
            return None
        tree, inner_checks, span = inner
        children.append(tree)
        checks += [(left + offset, literal) for offset, literal in inner_checks]
        if span is not None:
            start, end = min(start, span[0]), max(end, span[1])
    env = (("EOI", width), ("start", left + start), ("end", left + end))
    tree = FixedTree(name, env + tuple(attrs.items()), tuple(children))
    return tree, tuple(checks), ((left + start, left + end) if end else None)


def fixed_terms(
    grammar: Grammar,
    sites: List[CallSite],
    inline: Set[str],
    chains: Dict[str, ChainPlan],
    prefix_plans: Dict[Tuple[str, int], object],
    array_plans: Dict[int, "ArrayPlan"],
) -> Dict[int, FixedTerm]:
    """Terms built once per loop entry: id(TermNonterminal) -> FixedTerm.

    The candidates are the terms a loop runs once per iteration: those
    before a right chain's self-call, and those of an array element
    inlined at its ``for`` (not bulk-decoded).  Terms a fused struct
    prefix decodes are left to it.  PDF's ``ObjBody`` step ``AnyByte[0,
    1] -> Raw[0, 1]`` is the bundled example.
    """
    from .exprcomp import fold

    bodies: List[Tuple[List[object], int]] = []
    for name, chain in chains.items():
        covered = getattr(prefix_plans.get((name, chain.step)), "covered", 0)
        terms = grammar.rule(name).alternatives[chain.step].terms[: chain.call]
        bodies.append((terms, covered))
    for site in sites:
        if (
            site.kind == "array"
            and site.target_kind == "top"
            and site.target in inline
            and array_plans[id(site.term)].shape is None
        ):
            covered = getattr(prefix_plans.get((site.target, 0)), "covered", 0)
            bodies.append((grammar.rule(site.target).alternatives[0].terms, covered))
    fixed: Dict[int, FixedTerm] = {}
    for terms, covered in bodies:
        for term in terms[covered:]:
            if not isinstance(term, TermNonterminal):
                continue
            left, right = fold(term.interval.left), fold(term.interval.right)
            if not (isinstance(left, Num) and isinstance(right, Num)):
                continue
            if not 0 <= left.value <= right.value:
                continue
            found = _fixed_subtree(grammar, term.name, left.value, right.value, inline)
            if found is not None:
                fixed[id(term)] = FixedTerm(*found)
    return fixed


@dataclass(frozen=True)
class ArrayPlan:
    """The bulk-decoding decision for one ``for`` array term."""

    #: The element nonterminal.
    element: str
    #: Statically proven element stride, or ``None``.
    stride: Optional[int]
    #: The element rule's fixed plan at ``width=stride`` when the array is
    #: bulk-decoded (one struct decode per record), else ``None``.
    shape: Optional[object]

    def instantiate(self, grammar: Grammar):
        """A fresh element plan for one emission of a bulk-decoded array.

        The emitter numbers the attribute locals of each plan instance in
        emission order, and an inlined rule's body is emitted twice (as its
        own function and at its call site): each emission needs its own
        instance for the generated code to stay the same.
        """
        from .shapes import rule_shape

        return rule_shape(grammar, self.element, width=self.stride)


@dataclass
class GrammarAnalysis:
    """The shared facts every emission backend consumes.

    One :func:`analyze` call per compilation: the closure emitter and
    :func:`explain_plan` read the same object.
    """

    grammar: Grammar
    memoize: bool
    opts: Optimizations
    sites: List[CallSite]
    all_rules: List[Rule]
    #: The recursive top-level rules (memoized in batch compilations).
    recursive: Set[str]
    #: Where every engine charges the step budget (:func:`charge_points`).
    charges: ChargePoints
    anchored: Set[str]
    inline: Set[str]
    #: Rule name -> "dict" | "dense" | "skipped" | "unmemoized".
    memo_modes: Dict[str, str]
    #: Top-level rule name -> firstsets.DispatchPlan (only pruning plans).
    dispatch_plans: Dict[str, object]
    #: id(local Rule) -> firstsets.DispatchPlan for where-rule dispatch.
    local_plans: Dict[int, object]
    #: (top-level rule, alternative index) -> the shapes.AltShape analysed
    #: for that alternative (flat-only in a stream analysis); empty when
    #: ``bulk_fixed_shape`` is off.
    alt_shapes: Dict[Tuple[str, int], object]
    #: The subset the emitter decodes as one fused struct prefix: plans
    #: covering at least one term with enough slots to be worthwhile.
    prefix_plans: Dict[Tuple[str, int], object]
    #: id(TermArray) -> ArrayPlan, for every array term of every rule.
    array_plans: Dict[int, ArrayPlan]
    #: Top-level rule name -> ChainPlan for the right chains the closure
    #: backend runs as loops; empty in stream analyses and when
    #: ``inline_single_use`` is off.
    chains: Dict[str, ChainPlan]
    #: id(TermNonterminal) -> FixedTerm for the terms the closure backend
    #: builds once per loop entry (:func:`fixed_terms`); empty in stream
    #: analyses and when ``inline_single_use`` is off.
    fixed: Dict[int, FixedTerm]


def analyze(
    grammar: Grammar,
    *,
    memoize: bool = True,
    optimizations: Optional[Optimizations] = None,
    stream: bool = False,
) -> GrammarAnalysis:
    """Run every whole-grammar analysis pass once and record the facts.

    The memo-mode policy is exactly the staged compiler's: ``unmemoized``
    when memoization is off, ``skipped`` for non-recursive rules of a batch
    compilation, ``dense`` (a ``lo``-keyed table) for EOI-anchored rules,
    ``dict`` otherwise.

    ``stream=True`` analyzes the variant the streaming driver re-enters.
    Streaming soundness leans on *complete* memoization: after a
    suspension the engine re-enters from the start symbol and every
    already-decided sub-parse must replay as a memo hit, never by
    re-reading bytes the compaction policy may have discarded.  So a
    stream compilation memoizes every top-level rule and inlines nothing,
    whatever ``optimizations`` says.
    """
    opts = optimizations if optimizations is not None else Optimizations()
    sites, all_rules = collect_sites(grammar)
    charges = charge_points(grammar)
    recursive = {
        name for name, rule in grammar.rules.items() if id(rule) in charges.rules
    }
    anchored = eoi_anchored_rule_names(grammar, sites)
    inline = (
        inline_candidates(grammar, sites, recursive)
        if opts.inline_single_use and not stream
        else set()
    )
    memo_modes: Dict[str, str] = {}
    for name in grammar.rules:
        if not memoize:
            memo_modes[name] = "unmemoized"
        elif not stream and name not in recursive:
            memo_modes[name] = "skipped"
        elif name in anchored:
            memo_modes[name] = "dense"
        else:
            memo_modes[name] = "dict"
    dispatch_plans: Dict[str, object] = {}
    local_plans: Dict[int, object] = {}
    if opts.first_byte_dispatch:
        from .firstsets import dispatch_plans as _plans
        from .firstsets import local_dispatch_plans

        dispatch_plans = _plans(grammar)
        local_plans = {id(rule): plan for rule, plan in local_dispatch_plans(grammar)}
    alt_shapes, prefix_plans, array_plans = _struct_plans(
        grammar, sites, charges, opts, stream
    )
    chains: Dict[str, ChainPlan] = {}
    if opts.inline_single_use and not stream:
        chains = {
            name: plan
            for name, plan in right_chains(grammar, sites).items()
            if getattr(prefix_plans.get((name, plan.step)), "covered", 0) <= plan.call
        }
    fixed = fixed_terms(grammar, sites, inline, chains, prefix_plans, array_plans)
    return GrammarAnalysis(
        grammar=grammar,
        memoize=memoize,
        opts=opts,
        sites=sites,
        all_rules=all_rules,
        recursive=recursive,
        charges=charges,
        anchored=anchored,
        inline=inline,
        memo_modes=memo_modes,
        dispatch_plans=dispatch_plans,
        local_plans=local_plans,
        alt_shapes=alt_shapes,
        prefix_plans=prefix_plans,
        array_plans=array_plans,
        chains=chains,
        fixed=fixed,
    )


def _struct_plans(
    grammar: Grammar,
    sites: List[CallSite],
    charges: ChargePoints,
    opts: Optimizations,
    stream: bool,
):
    """Every fixed-shape decision the emitter takes (:mod:`repro.core.shapes`).

    A top-level alternative fuses its covered prefix into one struct decode
    when the plan is worthwhile (a plan of an alternative with where-rules
    covers nothing).  A stream analysis plans flat-only prefixes: absorbing
    a nested *rule* would replace a memoized call with inline reads that
    re-run on every stream re-entry and pin the compaction watermark at
    the window start.  An array is bulk-decoded when its element interval
    has a fixed stride and the element is a top-level rule fully fixed at
    that width: exactly the loops :func:`charge_points` exempts.
    """
    from .shapes import alternative_shape, linear_stride

    alt_shapes: Dict[Tuple[str, int], object] = {}
    prefix_plans: Dict[Tuple[str, int], object] = {}
    if opts.bulk_fixed_shape:
        for name, rule in grammar.rules.items():
            for index in range(len(rule.alternatives)):
                plan = alternative_shape(grammar, name, index, flat_only=stream)
                alt_shapes[name, index] = plan
                if plan.covered and plan.worthwhile:
                    prefix_plans[name, index] = plan
    array_plans: Dict[int, ArrayPlan] = {}
    for site in sites:
        if site.kind != "array":
            continue
        element = site.term.element
        interval = element.interval
        stride = linear_stride(interval.left, interval.right, site.term.var)
        shape = charges.bulk.get(id(site.term)) if opts.bulk_fixed_shape else None
        array_plans[id(site.term)] = ArrayPlan(element.name, stride, shape)
    return alt_shapes, prefix_plans, array_plans


# ---------------------------------------------------------------------------
# Explain: human-readable dump of grammar + analysis (repro compile --explain)
# ---------------------------------------------------------------------------


def _byte_ranges(bytes_: List[int]) -> str:
    """Render a sorted byte list as compact hex ranges (0x30-0x39,0x41)."""
    parts = []
    index = 0
    while index < len(bytes_):
        start = end = bytes_[index]
        while index + 1 < len(bytes_) and bytes_[index + 1] == end + 1:
            index += 1
            end = bytes_[index]
        parts.append(f"0x{start:02x}" if start == end else f"0x{start:02x}-0x{end:02x}")
        index += 1
    return ",".join(parts)


def _explain_dispatch(plan, out: List[str], indent: str) -> None:
    """Dump a :class:`repro.core.firstsets.DispatchPlan` as compact rows."""
    groups: Dict[tuple, List[int]] = {}
    for byte, entry in enumerate(plan.table):
        groups.setdefault(entry, []).append(byte)
    # Most common entry becomes the default row for a compact dump.
    default = max(groups, key=lambda entry: len(groups[entry]))
    out.append(f"{indent}dispatch: default -> {list(default)}")
    for entry, bytes_ in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if entry == default:
            continue
        out.append(f"{indent}  {_byte_ranges(bytes_)} -> {list(entry)}")
    out.append(f"{indent}  empty-window -> {list(plan.empty)}")
    if plan.pair_table:
        for byte in sorted(plan.pair_table):
            offset, row = plan.pair_table[byte]
            rows: Dict[tuple, List[int]] = {}
            for probed, entry in enumerate(row):
                rows.setdefault(entry, []).append(probed)
            row_default = max(rows, key=lambda entry: len(rows[entry]))
            refinements = [
                f"{_byte_ranges(bytes_)} -> {list(entry)}"
                for entry, bytes_ in sorted(rows.items(), key=lambda kv: kv[1][0])
                if entry != row_default
            ]
            out.append(
                f"{indent}  first2 0x{byte:02x}: probe +{offset}, "
                f"default -> {list(row_default)}; " + "; ".join(refinements)
            )


def _explain_interval(interval, what: str, path: str) -> str:
    """``[l, r]``; the interval must be auto-completed."""
    if interval.left is None or interval.right is None:
        raise IPGError(
            f"cannot explain {path}: interval of {what} is incomplete; "
            f"run interval auto-completion first"
        )
    return f"[{interval.left.to_source()}, {interval.right.to_source()}]"


def _explain_shape(plan) -> str:
    return f"struct[{plan.fmt!r}, {plan.needed}B]"


def _explain_alt(analysis: GrammarAnalysis, key: Tuple[str, int]) -> str:
    """The struct plan of a top-level alternative, or why it has none."""
    plan = analysis.prefix_plans.get(key)
    if plan is not None:
        return f" struct {plan.describe()}"
    plan = analysis.alt_shapes.get(key)
    if plan is None:
        return ""
    if plan.covered or plan.full:
        return f" not fused ({plan.describe()}; too few slots)"
    return f" not fixed ({plan.stop_reason})"


def _explain_term(analysis: GrammarAnalysis, term, path: str) -> str:
    if isinstance(term, TermAttrDef):
        return f"attr   {term.name} = {term.expr.to_source()}"
    if isinstance(term, TermGuard):
        return f"guard  {term.expr.to_source()}"
    if isinstance(term, TermTerminal):
        interval = _explain_interval(term.interval, repr(term.value), path)
        return f"lit    {term.value!r} {interval}"
    if isinstance(term, TermNonterminal):
        interval = _explain_interval(term.interval, term.name, path)
        fixed = " fixed" if id(term) in analysis.fixed else ""
        return f"call   {term.name} {interval}{fixed}"
    if isinstance(term, TermArray):
        element = term.element
        interval = _explain_interval(element.interval, element.name, path)
        plan = analysis.array_plans[id(term)]
        return (
            f"array  for {term.var} = {term.start.to_source()} to "
            f"{term.stop.to_source()} do {element.name} {interval}"
            + (f" stride={plan.stride}" if plan.stride is not None else "")
            + (f" bulk={_explain_shape(plan.shape)}" if plan.shape else "")
        )
    if isinstance(term, TermSwitch):
        cases = " / ".join(
            (
                "default : "
                if case.condition is None
                else f"{case.condition.to_source()} : "
            )
            + f"{case.target.name} "
            + _explain_interval(case.target.interval, case.target.name, path)
            for case in term.cases
        )
        return f"switch {cases}"
    raise IPGError(f"unknown term kind {type(term).__name__}")  # pragma: no cover


def _explain_rule(
    analysis: GrammarAnalysis,
    rule: Rule,
    path: str,
    toplevel: bool,
    out: List[str],
    depth: int,
) -> None:
    indent = "  " * depth
    if toplevel:
        memo = analysis.memo_modes[rule.name]
        dispatch = analysis.dispatch_plans.get(rule.name)
    else:
        # Where-rule names can shadow each other, so their dispatch plans
        # are keyed by rule identity.
        memo = "local"
        dispatch = analysis.local_plans.get(id(rule))
    fuel = id(rule) in analysis.charges.rules
    facts = [f"memo={memo}", "fuel=charged" if fuel else "fuel=free"]
    if toplevel and rule.name in analysis.chains:
        facts.append("chain")
    if toplevel and len(rule.alternatives) == 1:
        # The whole body decodes with one struct call.
        plan = analysis.prefix_plans.get((rule.name, 0))
        if plan is not None and plan.full:
            facts.append(f"decoder={_explain_shape(plan)}")
    out.append(f"{indent}rule {path}: {' '.join(facts)}")
    if dispatch is not None:
        _explain_dispatch(dispatch, out, indent + "  ")
    for index, alternative in enumerate(rule.alternatives):
        alt_path = f"{path}/a{index}"
        plan = _explain_alt(analysis, (rule.name, index)) if toplevel else ""
        out.append(f"{indent}  alt {index}:{plan}")
        for term in alternative.terms:
            out.append(f"{indent}    {_explain_term(analysis, term, alt_path)}")
        for local in alternative.local_rules:
            _explain_rule(
                analysis, local, f"{alt_path}/{local.name}", False, out, depth + 2
            )


def explain_plan(analysis: GrammarAnalysis) -> str:
    """Render a grammar and its analysis facts for humans.

    One ``rule`` line per (top-level or where-) rule with its memo mode,
    fuel placement, ``chain`` for a right chain run as a loop and
    whole-body struct decoder, then its dispatch table,
    one ``alt`` line per alternative with its struct plan — layout, bytes,
    covered terms and stop reason — or why it has none, and one line per
    term.  This is ``repro compile --explain`` and the golden dumps under
    ``tests/golden_ir/``.
    """
    grammar = analysis.grammar
    opts = analysis.opts
    options = {
        "memoize": analysis.memoize,
        "first_byte_dispatch": opts.first_byte_dispatch,
        "bulk_fixed_shape": opts.bulk_fixed_shape,
    }
    out: List[str] = [
        f"start: {grammar.start}",
        "options: "
        + " ".join(f"{key}={value}" for key, value in sorted(options.items())),
    ]
    if grammar.blackboxes:
        out.append("blackboxes: " + ", ".join(sorted(grammar.blackboxes)))
    for name, rule in grammar.rules.items():
        _explain_rule(analysis, rule, name, True, out, 0)
    return "\n".join(out) + "\n"
