"""Whole-grammar analysis facts shared by the engine and ``--explain``.

The compilation pipeline has two stages:

``analyze``
    Run the whole-grammar analyses once — call-site collection, recursion
    and EOI-anchoring fixpoints, single-use inline candidates, FIRST-set
    dispatch plans (:mod:`repro.core.firstsets`), fixed-shape layout plans
    (:mod:`repro.core.shapes`) — and record the resulting *facts* in a
    :class:`GrammarAnalysis`.  No pass patches source strings or
    re-derives another pass's decisions.

``emit``
    :mod:`repro.core.backends.closures` — the staged source-emitting
    compiler behind ``backend="compiled"`` and AOT ``to_source()`` —
    reads the grammar AST plus those facts and emits specialized closures.

:func:`explain_plan` renders the same two inputs for humans
(``repro compile --explain`` and the golden dumps under
``tests/golden_ir/``): per rule its memo mode, fuel placement, fixed-shape
decoder and dispatch table, then one line per term —

==========  ===========================================================
``attr``    bind an attribute to an expression's value
``guard``   fail the alternative when the expression evaluates to 0
``lit``     match literal bytes inside an interval
``call``    parse a nonterminal confined to an interval
``array``   ``for v = s to t do A[l, r]``, with the statically proven
            element ``stride`` when there is one
``switch``  the first case whose condition is non-zero wins
==========  ===========================================================

Expressions print in IPG surface syntax (:meth:`Expr.to_source`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .ast import (
    Grammar,
    Rule,
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from .cycles import recursive_vertices
from .errors import IPGError
from .expr import Name

@dataclass(frozen=True)
class Optimizations:
    """Toggle set for the compilation passes.

    Every combination produces identical parse trees (enforced by
    ``tests/test_compiler_passes.py``); the flags only trade compile-time
    analysis and generated-code shape for parse speed.
    """

    #: Compile ``where`` local rules to module-level functions with explicit
    #: closure-cell lists instead of per-invocation nested ``def`` s.
    module_level_where: bool = True
    #: Collapse the memo key of rules whose ``hi`` is always ``EOI`` from a
    #: ``(lo, hi)`` tuple to the bare ``lo`` offset.
    dense_memo: bool = True
    #: Skip memo tables for rules that cannot recur.
    skip_nonrecursive_memo: bool = True
    #: Expand single-use single-alternative rules into their call site.
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
        """The PR-1 baseline: no optimization passes."""
        return cls(False, False, False, False, False, False)


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
                        CallSite(rule, top, kind, target_kind, target, eoi_right)
                    )
            for local in alternative.local_rules:
                walk(local, top, local_chain)

    for name, rule in grammar.rules.items():
        walk(rule, name, {})
    return sites, rules


def recursive_rule_names(grammar: Grammar, sites: List[CallSite]) -> Set[str]:
    """Top-level rules that can (transitively) re-enter themselves."""
    graph: Dict[str, Set[str]] = {name: set() for name in grammar.rules}
    for site in sites:
        if site.target_kind == "top":
            graph[site.top].add(site.target)
    return set(recursive_vertices(graph))


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
    recursive: Set[str]
    anchored: Set[str]
    inline: Set[str]
    #: Rule name -> "dict" | "dense" | "skipped" | "unmemoized".
    memo_modes: Dict[str, str]
    #: Top-level rule name -> firstsets.DispatchPlan (only pruning plans).
    dispatch_plans: Dict[str, object]
    #: id(local Rule) -> firstsets.DispatchPlan for where-rule dispatch.
    local_plans: Dict[int, object]
    #: Rule name -> full worthwhile AltShape plan (one struct decode).
    full_shapes: Dict[str, object]


def analyze(
    grammar: Grammar,
    *,
    memoize: bool = True,
    optimizations: Optional[Optimizations] = None,
) -> GrammarAnalysis:
    """Run every whole-grammar analysis pass once and record the facts.

    The memo-mode policy is exactly the staged compiler's: ``unmemoized``
    when memoization is off, ``skipped`` for non-recursive rules under
    ``skip_nonrecursive_memo``, ``dense`` for EOI-anchored rules under
    ``dense_memo``, ``dict`` otherwise.
    """
    opts = optimizations if optimizations is not None else Optimizations()
    sites, all_rules = collect_sites(grammar)
    recursive = recursive_rule_names(grammar, sites)
    anchored = (
        eoi_anchored_rule_names(grammar, sites) if opts.dense_memo else set()
    )
    inline = (
        inline_candidates(grammar, sites, recursive)
        if opts.inline_single_use
        else set()
    )
    memo_modes: Dict[str, str] = {}
    for name in grammar.rules:
        if not memoize:
            memo_modes[name] = "unmemoized"
        elif opts.skip_nonrecursive_memo and name not in recursive:
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
    full_shapes: Dict[str, object] = {}
    if opts.bulk_fixed_shape:
        from .shapes import alternative_shape

        for name, rule in grammar.rules.items():
            if len(rule.alternatives) != 1:
                continue
            plan = alternative_shape(grammar, name, 0)
            if plan.full and plan.worthwhile:
                full_shapes[name] = plan
    return GrammarAnalysis(
        grammar=grammar,
        memoize=memoize,
        opts=opts,
        sites=sites,
        all_rules=all_rules,
        recursive=recursive,
        anchored=anchored,
        inline=inline,
        memo_modes=memo_modes,
        dispatch_plans=dispatch_plans,
        local_plans=local_plans,
        full_shapes=full_shapes,
    )


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


def _explain_term(term, path: str) -> str:
    from .shapes import linear_stride

    if isinstance(term, TermAttrDef):
        return f"attr   {term.name} = {term.expr.to_source()}"
    if isinstance(term, TermGuard):
        return f"guard  {term.expr.to_source()}"
    if isinstance(term, TermTerminal):
        interval = _explain_interval(term.interval, repr(term.value), path)
        return f"lit    {term.value!r} {interval}"
    if isinstance(term, TermNonterminal):
        interval = _explain_interval(term.interval, term.name, path)
        return f"call   {term.name} {interval}"
    if isinstance(term, TermArray):
        element = term.element
        interval = _explain_interval(element.interval, element.name, path)
        stride = linear_stride(element.interval.left, element.interval.right, term.var)
        return (
            f"array  for {term.var} = {term.start.to_source()} to "
            f"{term.stop.to_source()} do {element.name} {interval}"
            + (f" stride={stride}" if stride is not None else "")
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
        fuel = rule.name in analysis.recursive
        dispatch = analysis.dispatch_plans.get(rule.name)
    else:
        # Where-rule names can shadow each other, so their dispatch plans
        # are keyed by rule identity.
        memo, fuel = "local", True
        dispatch = analysis.local_plans.get(id(rule))
    facts = [f"memo={memo}", "fuel=charged" if fuel else "fuel=free"]
    if toplevel and rule.name in analysis.full_shapes:
        shape = analysis.full_shapes[rule.name]
        facts.append(f"decoder=struct[{shape.fmt!r}, {shape.needed}B]")
    out.append(f"{indent}rule {path}: {' '.join(facts)}")
    if dispatch is not None:
        _explain_dispatch(dispatch, out, indent + "  ")
    for index, alternative in enumerate(rule.alternatives):
        alt_path = f"{path}/a{index}"
        out.append(f"{indent}  alt {index}:")
        for term in alternative.terms:
            out.append(f"{indent}    {_explain_term(term, alt_path)}")
        for local in alternative.local_rules:
            _explain_rule(
                analysis, local, f"{alt_path}/{local.name}", False, out, depth + 2
            )


def explain_plan(analysis: GrammarAnalysis) -> str:
    """Render a grammar and its analysis facts for humans.

    One ``rule`` line per (top-level or where-) rule with its memo mode,
    fuel placement and fixed-shape decoder, then its dispatch table and one
    line per term.  This is ``repro compile --explain`` and the golden dumps
    under ``tests/golden_ir/``.
    """
    grammar = analysis.grammar
    opts = analysis.opts
    options = {
        "memoize": analysis.memoize,
        "first_byte_dispatch": opts.first_byte_dispatch,
        "bulk_fixed_shape": opts.bulk_fixed_shape,
        "dense_memo": opts.dense_memo,
        "skip_nonrecursive_memo": opts.skip_nonrecursive_memo,
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
