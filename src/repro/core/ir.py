"""The plan IR connecting grammar analysis to the emission backends.

The compilation pipeline is structured as three stages:

``analyze``
    Run the whole-grammar analyses once — call-site collection, recursion
    and EOI-anchoring fixpoints, single-use inline candidates, FIRST-set
    dispatch plans (:mod:`repro.core.firstsets`), fixed-shape layout plans
    (:mod:`repro.core.shapes`) — and record the resulting *facts* in a
    :class:`GrammarAnalysis`.  Every backend consumes the same facts; no
    pass patches source strings or re-derives another pass's decisions.

``lower``
    Translate the grammar plus its analysis into per-rule IR programs
    (:class:`GrammarPlan` / :class:`RuleIR` / :class:`AltIR`): flat tagged
    tuples for match/guard/bind/call/array/switch steps, expression trees
    lowered to pure-data programs, dispatch tables and struct plans
    attached as table entries, memo modes and fuel-charge sites recorded
    per rule.  The IR is plain data, rendered for humans by
    :func:`explain_plan` (``repro compile --explain`` and the golden IR
    dumps under ``tests/golden_ir/``).

``emit``
    :mod:`repro.core.backends.closures` — the staged source-emitting
    compiler behind ``backend="compiled"`` and AOT ``to_source()`` —
    consumes the same analysis facts and emits specialized closures.

Op vocabulary (first element tags the op; expressions are nested tuples):

====================  =====================================================
``("attr", n, e)``     bind attribute ``n`` to the value of ``e``
``("guard", e)``       fail the alternative when ``e`` evaluates to 0
``("lit", l, r, b)``   match literal bytes ``b`` inside interval ``[l, r)``
``("call", n, l, r)``  parse nonterminal ``n`` confined to ``[l, r)``
``("array", v, s, t, n, l, r, w)``
                       ``for v = s to t do n[l, r]``; ``w`` is the
                       statically proven element stride (or ``None``)
``("switch", cases)``  first case whose condition is non-zero wins;
                       each case is ``(cond | None, n, l, r)``
====================  =====================================================

Expression programs: ``("num", v)``, ``("name", id)``, ``("dot", A, a)``,
``("idx", A, a, e)``, ``("bin", op, e1, e2)``, ``("cond", c, t, e)`` and
``("exists", var, array, c, t, e)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

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
from .cycles import recursive_vertices
from .errors import IPGError
from .expr import BinOp, Cond, Dot, Exists, Expr, Index, Name, Num

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

    One :func:`analyze` call replaces the per-backend re-derivation the
    pre-IR pipeline did: the closure emitter, the interpreter's plan
    consumers and :func:`lower` all read the same object.
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
    #: Lazily computed §8 streamability verdict (None until requested).
    _streamable: Optional[bool] = field(default=None, repr=False)

    @property
    def streamable(self) -> bool:
        if self._streamable is None:
            from .streamability import analyze_streamability

            self._streamable = bool(analyze_streamability(self.grammar).streamable)
        return self._streamable


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
# Lower: grammar + analysis -> per-rule IR programs
# ---------------------------------------------------------------------------


def lower_expr(expr: Expr) -> tuple:
    """Lower an expression AST to a pure-data program."""
    if isinstance(expr, Num):
        return ("num", expr.value)
    if isinstance(expr, Name):
        return ("name", expr.ident)
    if isinstance(expr, Dot):
        return ("dot", expr.nonterminal, expr.attr)
    if isinstance(expr, Index):
        return ("idx", expr.nonterminal, expr.attr, lower_expr(expr.index))
    if isinstance(expr, BinOp):
        return ("bin", expr.op, lower_expr(expr.left), lower_expr(expr.right))
    if isinstance(expr, Cond):
        return (
            "cond",
            lower_expr(expr.condition),
            lower_expr(expr.then),
            lower_expr(expr.otherwise),
        )
    if isinstance(expr, Exists):
        return (
            "exists",
            expr.var,
            expr._target_array(),
            lower_expr(expr.condition),
            lower_expr(expr.then),
            lower_expr(expr.otherwise),
        )
    raise IPGError(f"cannot lower expression {expr!r}")  # pragma: no cover


def render_expr(prog: tuple) -> str:
    """Render a lowered expression program back to surface-ish syntax."""
    tag = prog[0]
    if tag == "num":
        return str(prog[1])
    if tag == "name":
        return prog[1]
    if tag == "dot":
        return f"{prog[1]}.{prog[2]}"
    if tag == "idx":
        return f"{prog[1]}({render_expr(prog[3])}).{prog[2]}"
    if tag == "bin":
        return f"({render_expr(prog[2])} {prog[1]} {render_expr(prog[3])})"
    if tag == "cond":
        return (
            f"({render_expr(prog[1])} ? {render_expr(prog[2])}"
            f" : {render_expr(prog[3])})"
        )
    if tag == "exists":
        return (
            f"(exists {prog[1]} . {render_expr(prog[3])} ? "
            f"{render_expr(prog[4])} : {render_expr(prog[5])})"
        )
    raise IPGError(f"unknown expression tag {tag!r}")  # pragma: no cover


@dataclass
class DispatchIR:
    """A first-byte (and FIRST₂) dispatch table, as plain data.

    ``table`` has 256 entries of alternative-index tuples; ``empty`` is the
    entry for zero-length windows; ``pair`` maps a first byte to
    ``(probe_offset, row)`` with another 256-entry row over the probed
    byte.  Mirrors :class:`repro.core.firstsets.DispatchPlan` minus the
    analysis-only bits.
    """

    table: Tuple[Tuple[int, ...], ...]
    empty: Tuple[int, ...]
    alternatives: int
    pair: Optional[Dict[int, Tuple[int, Tuple[Tuple[int, ...], ...]]]] = None

    @classmethod
    def from_plan(cls, plan) -> "DispatchIR":
        pair = None
        if plan.pair_table:
            pair = {
                byte: (offset, tuple(tuple(entry) for entry in row))
                for byte, (offset, row) in plan.pair_table.items()
            }
        return cls(
            table=tuple(tuple(entry) for entry in plan.table),
            empty=tuple(plan.empty),
            alternatives=plan.alternatives,
            pair=pair,
        )


@dataclass
class AltIR:
    """One lowered alternative: a flat op program plus local rules."""

    ops: Tuple[tuple, ...]
    locals: Tuple["RuleIR", ...] = ()


@dataclass
class RuleIR:
    """One lowered rule: alternatives, dispatch table, memo/fuel facts.

    ``decoder`` marks rules whose whole body is a worthwhile fixed-shape
    struct plan: one struct decode covers the rule instead of the ops
    (the closure backend fuses it as a fixed prefix spanning the body).
    ``fuel`` marks the rules whose entry charges the step budget (the
    recursive ones — everything else is a DAG of straight-line bodies
    whose work is a constant factor of those charges).
    """

    name: str
    path: str
    alts: Tuple[AltIR, ...]
    memo: str  # "dict" | "dense" | "skipped" | "unmemoized" | "local"
    fuel: bool
    dispatch: Optional[DispatchIR]
    decoder: bool = False


@dataclass
class GrammarPlan:
    """The lowered IR of a whole grammar, with its source and analysis."""

    start: str
    blackboxes: Tuple[str, ...]
    rules: Dict[str, RuleIR]
    options: Dict[str, object]
    grammar: Grammar
    analysis: GrammarAnalysis


def _lower_interval(term, what: str) -> Tuple[tuple, tuple]:
    interval = term.interval
    if interval.left is None or interval.right is None:
        raise IPGError(
            f"cannot lower {what}: interval of {term!r} is incomplete; "
            f"run interval auto-completion first"
        )
    return lower_expr(interval.left), lower_expr(interval.right)


def _lower_alternative(
    grammar: Grammar,
    analysis: GrammarAnalysis,
    alternative: Alternative,
    path: str,
) -> AltIR:
    from .shapes import linear_stride

    ops: List[tuple] = []
    for term in alternative.terms:
        if isinstance(term, TermAttrDef):
            ops.append(("attr", term.name, lower_expr(term.expr)))
        elif isinstance(term, TermGuard):
            ops.append(("guard", lower_expr(term.expr)))
        elif isinstance(term, TermTerminal):
            left, right = _lower_interval(term, path)
            ops.append(("lit", left, right, term.value))
        elif isinstance(term, TermNonterminal):
            left, right = _lower_interval(term, path)
            ops.append(("call", term.name, left, right))
        elif isinstance(term, TermArray):
            left, right = _lower_interval(term.element, path)
            stride = linear_stride(
                term.element.interval.left, term.element.interval.right, term.var
            )
            ops.append(
                (
                    "array",
                    term.var,
                    lower_expr(term.start),
                    lower_expr(term.stop),
                    term.element.name,
                    left,
                    right,
                    stride,
                )
            )
        elif isinstance(term, TermSwitch):
            cases = []
            for case in term.cases:
                left, right = _lower_interval(case.target, path)
                cases.append(
                    (
                        None if case.condition is None else lower_expr(case.condition),
                        case.target.name,
                        left,
                        right,
                    )
                )
            ops.append(("switch", tuple(cases)))
        else:  # pragma: no cover
            raise IPGError(f"unknown term kind {type(term).__name__}")
    locals_ir = tuple(
        _lower_rule(grammar, analysis, local, f"{path}/{local.name}", toplevel=False)
        for local in alternative.local_rules
    )
    return AltIR(ops=tuple(ops), locals=locals_ir)


def _lower_rule(
    grammar: Grammar,
    analysis: GrammarAnalysis,
    rule: Rule,
    path: str,
    toplevel: bool,
) -> RuleIR:
    plan = (
        analysis.dispatch_plans.get(rule.name)
        if toplevel
        else analysis.local_plans.get(id(rule))
    )
    alts = tuple(
        _lower_alternative(grammar, analysis, alternative, f"{path}/a{index}")
        for index, alternative in enumerate(rule.alternatives)
    )
    return RuleIR(
        name=rule.name,
        path=path,
        alts=alts,
        memo=analysis.memo_modes[rule.name] if toplevel else "local",
        fuel=(rule.name in analysis.recursive) if toplevel else True,
        dispatch=None if plan is None else DispatchIR.from_plan(plan),
        decoder=toplevel and rule.name in analysis.full_shapes,
    )


def lower(
    grammar: Grammar,
    *,
    memoize: bool = True,
    optimizations: Optional[Optimizations] = None,
    analysis: Optional[GrammarAnalysis] = None,
) -> GrammarPlan:
    """Lower a prepared grammar to its per-rule IR programs."""
    if analysis is None:
        analysis = analyze(grammar, memoize=memoize, optimizations=optimizations)
    rules = {
        name: _lower_rule(grammar, analysis, rule, name, toplevel=True)
        for name, rule in grammar.rules.items()
    }
    opts = analysis.opts
    options: Dict[str, object] = {
        "memoize": analysis.memoize,
        "first_byte_dispatch": opts.first_byte_dispatch,
        "bulk_fixed_shape": opts.bulk_fixed_shape,
        "dense_memo": opts.dense_memo,
        "skip_nonrecursive_memo": opts.skip_nonrecursive_memo,
    }
    return GrammarPlan(
        start=grammar.start,
        blackboxes=tuple(sorted(grammar.blackboxes)),
        rules=rules,
        options=options,
        grammar=grammar,
        analysis=analysis,
    )


# ---------------------------------------------------------------------------
# Explain: human-readable IR dump (repro compile --explain, golden dumps)
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


def _explain_dispatch(dispatch: DispatchIR, out: List[str], indent: str) -> None:
    groups: Dict[tuple, List[int]] = {}
    for byte, entry in enumerate(dispatch.table):
        groups.setdefault(entry, []).append(byte)
    # Most common entry becomes the default row for a compact dump.
    default = max(groups, key=lambda entry: len(groups[entry]))
    out.append(f"{indent}dispatch: default -> {list(default)}")
    for entry, bytes_ in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if entry == default:
            continue
        out.append(f"{indent}  {_byte_ranges(bytes_)} -> {list(entry)}")
    out.append(f"{indent}  empty-window -> {list(dispatch.empty)}")
    if dispatch.pair:
        for byte in sorted(dispatch.pair):
            offset, row = dispatch.pair[byte]
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


def _explain_op(op: tuple) -> str:
    tag = op[0]
    if tag == "attr":
        return f"attr   {op[1]} = {render_expr(op[2])}"
    if tag == "guard":
        return f"guard  {render_expr(op[1])}"
    if tag == "lit":
        return f"lit    {op[3]!r} [{render_expr(op[1])}, {render_expr(op[2])}]"
    if tag == "call":
        return f"call   {op[1]} [{render_expr(op[2])}, {render_expr(op[3])}]"
    if tag == "array":
        stride = f" stride={op[7]}" if op[7] is not None else ""
        return (
            f"array  for {op[1]} = {render_expr(op[2])} to {render_expr(op[3])} "
            f"do {op[4]} [{render_expr(op[5])}, {render_expr(op[6])}]{stride}"
        )
    if tag == "switch":
        cases = " / ".join(
            (f"{render_expr(cond)} : " if cond is not None else "default : ")
            + f"{name} [{render_expr(left)}, {render_expr(right)}]"
            for cond, name, left, right in op[1]
        )
        return f"switch {cases}"
    raise IPGError(f"unknown op tag {tag!r}")  # pragma: no cover


def _explain_rule(rule: RuleIR, plan: GrammarPlan, out: List[str], depth: int) -> None:
    indent = "  " * depth
    facts = [f"memo={rule.memo}"]
    facts.append("fuel=charged" if rule.fuel else "fuel=free")
    if rule.decoder:
        shape = plan.analysis.full_shapes[rule.name]
        facts.append(f"decoder=struct[{shape.fmt!r}, {shape.needed}B]")
    out.append(f"{indent}rule {rule.path}: {' '.join(facts)}")
    if rule.dispatch is not None:
        _explain_dispatch(rule.dispatch, out, indent + "  ")
    for index, alt in enumerate(rule.alts):
        out.append(f"{indent}  alt {index}:")
        for op in alt.ops:
            out.append(f"{indent}    {_explain_op(op)}")
        for local in alt.locals:
            _explain_rule(local, plan, out, depth + 2)


def explain_plan(plan: GrammarPlan) -> str:
    """Render the full per-rule IR for humans (``repro compile --explain``)."""
    out: List[str] = [
        f"start: {plan.start}",
        "options: "
        + " ".join(f"{key}={value}" for key, value in sorted(plan.options.items())),
    ]
    if plan.blackboxes:
        out.append("blackboxes: " + ", ".join(plan.blackboxes))
    for rule in plan.rules.values():
        _explain_rule(rule, plan, out, 0)
    return "\n".join(out) + "\n"
