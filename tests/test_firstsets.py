"""Unit tests for the FIRST-set analysis behind first-byte dispatch.

The soundness contract (an alternative is pruned only when it provably
cannot succeed on the window at hand) is exercised differentially by the
cross-engine matrix; this module pins down the *analysis* itself —
disjointness on the shapes dispatch exists for, conservative fallbacks on
everything undecidable, empty-window handling, and the btoi-guard
narrowing of DNS-style tag bytes.
"""

import pytest

from repro.core.ast import (
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from repro.core.builtins import BUILTINS
from repro.core.errors import EvaluationError
from repro.core.expr import BinOp, Cond, Dot, Exists, Index, Name, Num
from repro.core.firstsets import (
    DispatchPlan,
    _alt_chain,
    _clean_failure_target,
    _evaluable,
    _narrow,
    _plan_for,
    _rule_universe,
    dispatch_plans,
    first_sets,
    local_first_sets,
)
from repro.core.grammar_parser import parse_grammar
from repro.core.interpreter import prepare_grammar
from repro.formats import registry


def sets_for(grammar_text: str):
    return first_sets(prepare_grammar(grammar_text))


def plans_for(grammar_text: str):
    return dispatch_plans(prepare_grammar(grammar_text))


class TestTerminalAndRuleFirsts:
    def test_terminal_literal_first_byte(self):
        infos = sets_for('S -> "abc"[0, 3] ;')["S"]
        assert infos[0].admissible == frozenset((ord("a"),))
        assert infos[0].requires_byte

    def test_disjoint_alternatives(self):
        infos = sets_for('S -> "x"[0, 1] / "y"[0, 1] ;')["S"]
        assert infos[0].admissible == frozenset((ord("x"),))
        assert infos[1].admissible == frozenset((ord("y"),))

    def test_rule_reference_unions_alternatives(self):
        infos = sets_for(
            'S -> T[0, EOI] ; T -> "a"[0, 1] / "b"[0, 1] ;'
        )["S"]
        assert infos[0].admissible == frozenset((ord("a"), ord("b")))

    def test_recursive_rule_converges(self):
        # Blocks -> Block Blocks / Block converges to FIRST(Block).
        infos = sets_for(
            'Blocks -> Block[0, EOI] / "z"[0, 1] ; '
            'Block -> "a"[0, 1] Blocks[1, EOI] / "b"[0, 1] ;'
        )["Blocks"]
        assert infos[0].admissible == frozenset((ord("a"), ord("b")))
        assert infos[1].admissible == frozenset((ord("z"),))

    def test_nonzero_left_requires_byte_but_unconstrained(self):
        infos = sets_for('S -> "m"[2, 3] ;')["S"]
        assert infos[0].admissible is None
        assert infos[0].requires_byte

    def test_empty_terminal_is_transparent(self):
        infos = sets_for('S -> ""[0, 0] "k"[0, 1] ;')["S"]
        assert infos[0].admissible == frozenset((ord("k"),))

    def test_empty_alternative_does_not_require_a_byte(self):
        infos = sets_for('S -> "x"[0, 1] S[1, EOI] / ""[0, 0] ;')["S"]
        assert infos[0].requires_byte
        assert not infos[1].requires_byte
        plan = plans_for('S -> "x"[0, 1] S[1, EOI] / ""[0, 0] ;')["S"]
        # On the empty window only the empty alternative survives.
        assert plan.empty == (1,)
        assert plan.table[ord("x")] == (0, 1)
        assert plan.table[ord("y")] == (1,)


class TestConservativeFallbacks:
    def test_dynamic_left_endpoint_is_any(self):
        infos = sets_for(
            "S -> U8[0, 1] {n = U8.val} T[n, EOI] ; T -> \"t\"[0, 1] ;"
        )["S"]
        # The *first* consumer is U8 (fixed int): any byte, requires one.
        assert infos[0].admissible is None
        assert infos[0].requires_byte

    def test_array_term_is_any_and_not_required(self):
        infos = sets_for(
            'S -> for i = 0 to 3 do E[i, i + 1] ; E -> "e"[0, 1] ;'
        )["S"]
        assert infos[0].admissible is None
        assert not infos[0].requires_byte

    def test_blackbox_is_never_constrained(self):
        infos = sets_for("blackbox B ; S -> B[0, EOI] ;")["S"]
        assert infos[0].admissible is None
        assert not infos[0].requires_byte

    def test_raw_accepts_empty(self):
        infos = sets_for("S -> Raw[0, EOI] ;")["S"]
        assert infos[0].admissible is None
        assert not infos[0].requires_byte

    def test_binint_first_bytes(self):
        infos = sets_for("S -> BinInt[0, EOI] ;")["S"]
        assert infos[0].admissible == frozenset((0x30, 0x31))
        assert infos[0].requires_byte

    def test_local_rule_targets_resolve_lexically(self):
        # Where-rule targets used to stay "any byte"; the local-rule FIRST
        # analysis now resolves them through the declaration chain.
        infos = sets_for(
            'S -> E[0, EOI] where { E -> "e"[0, 1] ; } ;'
        )["S"]
        assert infos[0].admissible == frozenset((ord("e"),))
        assert infos[0].requires_byte

    def test_local_rule_targets_stay_any_under_dynamic_shadowing(self):
        # A nested where-scope re-declares a name an outer-declared local
        # rule's body references: lexical resolution would disagree with
        # the interpreter's dynamic chain walk, so the analysis falls back
        # to "any byte" everywhere a local is involved.
        grammar = (
            "S -> R[0, EOI] "
            'where { R -> Q[0, 1] ; A -> "x"[0, 1] where { Q -> "q"[0, 1] ; } ; } ; '
            'Q -> "z"[0, 1] ;'
        )
        from repro.core.firstsets import where_shadowing_conflict

        prepared = prepare_grammar(grammar)
        assert where_shadowing_conflict(prepared) is not None
        infos = first_sets(prepared)["S"]
        assert infos[0].admissible is None


class TestGuardNarrowing:
    def test_width_one_guard_via_attribute(self):
        # The GIF SubBlock shape: U8 {len = U8.val} guard(len > 0).
        infos = sets_for(
            "S -> U8[0, 1] {len = U8.val} guard(len > 0) Raw[1, EOI] ;"
        )["S"]
        assert infos[0].admissible == frozenset(range(1, 256))

    def test_width_one_direct_dot_guard(self):
        infos = sets_for("S -> U8[0, 1] guard(U8.val = 7) ;")["S"]
        assert infos[0].admissible == frozenset((7,))

    def test_width_two_big_endian_guard(self):
        # The DNS Pointer shape: U16BE guard(val >= 49152) -> {0xC0..0xFF}.
        infos = sets_for(
            "S -> U16BE[0, 2] {t = U16BE.val} guard(t >= 49152) ;"
        )["S"]
        assert infos[0].admissible == frozenset(range(0xC0, 0x100))

    def test_width_two_little_endian_guard_constrains_low_byte(self):
        # Little-endian: the first byte is the LOW byte; val % 256 = 5
        # pins it exactly.
        infos = sets_for(
            "S -> U16LE[0, 2] {t = U16LE.val} guard(t % 256 = 5) ;"
        )["S"]
        assert infos[0].admissible == frozenset((5,))

    def test_switch_without_default_narrows(self):
        infos = sets_for(
            "S -> U8[0, 1] {t = U8.val} "
            'switch(t = 1 : A[1, EOI] / t = 2 : B[1, EOI]) ; '
            'A -> "a"[0, 1] ; B -> "b"[0, 1] ;'
        )["S"]
        assert infos[0].admissible == frozenset((1, 2))

    def test_switch_with_default_does_not_narrow(self):
        infos = sets_for(
            "S -> U8[0, 1] {t = U8.val} "
            'switch(t = 1 : A[1, EOI] / B[1, EOI]) ; '
            'A -> "a"[0, 1] ; B -> "b"[0, 1] ;'
        )["S"]
        assert infos[0].admissible is None

    def test_builtin_at_nonzero_offset_is_not_narrowed(self):
        # The guard constrains byte 1, not byte 0: narrowing must not
        # equate the decoded value with the window's first byte.
        infos = sets_for(
            "S -> U8[1, 2] {t = U8.val} guard(t >= 128) Raw[0, EOI] ;"
        )["S"]
        assert infos[0].admissible is None
        assert infos[0].requires_byte
        from repro import Parser

        grammar = "S -> U8[1, 2] {t = U8.val} guard(t >= 128) Raw[0, EOI] ;"
        data = b"\x00\xff"  # byte 0 would fail the (misapplied) mask
        for backend in ("compiled", "interpreted"):
            assert Parser(grammar, backend=backend).try_parse(data) is not None

    def test_duplicate_record_disables_narrowing(self):
        # Two U8 terms: U8.val in the guard refers to the *second* record,
        # so no first-byte conclusion may be drawn.
        infos = sets_for(
            "S -> U8[0, 1] U8[1, 2] guard(U8.val = 9) ;"
        )["S"]
        assert infos[0].admissible is None

    def test_unsupported_expression_is_ignored(self):
        # exists/array references leave the narrower's fragment: the guard
        # must be ignored, not misinterpreted.
        infos = sets_for(
            "S -> U8[0, 1] {n = U8.val} "
            "for i = 0 to n do E[1 + i, 2 + i] "
            "guard(exists j . E(j).v = 1 ? 1 : 0) ; "
            "E -> U8[0, 1] {v = U8.val} ;"
        )["S"]
        assert infos[0].admissible is None
        assert infos[0].requires_byte

    def test_guard_that_always_fails_empties_the_set(self):
        infos = sets_for("S -> U8[0, 1] guard(0) ;")["S"]
        assert infos[0].admissible == frozenset()

    def test_guard_after_terminal_still_narrows(self):
        # Terminals fail cleanly and have no effects: constraints behind
        # them remain usable.
        infos = sets_for('S -> U8[0, 1] {t = U8.val} "q"[1, 2] guard(t = 5) ;')["S"]
        assert infos[0].admissible == frozenset((5,))

    def test_guard_behind_rule_call_is_not_used(self):
        # A rule call may have effects (transitively reach a blackbox,
        # diverge); a pruned alternative must behave like one that ran and
        # failed cleanly, so constraints behind it are off limits.
        infos = sets_for(
            'S -> U8[0, 1] {t = U8.val} R[1, 2] guard(t = 5) ; R -> "q"[0, 1] ;'
        )["S"]
        assert infos[0].admissible is None

    def test_guard_behind_blackbox_is_not_used(self):
        infos = sets_for(
            "blackbox B ; "
            "S -> U8[0, 1] {t = U8.val} B[1, EOI] guard(t >= 128) / Raw[0, EOI] ;"
        )["S"]
        assert infos[0].admissible is None

    def test_narrowing_cache_respects_name_resolution(self):
        # Two grammars with byte-identical alternative text, but in the
        # second a user rule shadows the U16BE builtin — the guard then
        # runs behind a potentially-effectful rule call and must not
        # narrow, regardless of analysis order (narrowing results are
        # cached per grammar, never shared between grammars).
        plain = "S -> U8[0, 1] U16BE[1, 3] guard(U8.val > 200) ;"
        shadowed = plain + " U16BE -> Raw[0, EOI] ;"
        infos_plain = sets_for(plain)["S"]
        assert infos_plain[0].admissible == frozenset(range(201, 256))
        infos_shadowed = sets_for(shadowed)["S"]
        assert infos_shadowed[0].admissible is None
        # And the other order (fresh grammar objects re-enter the cache).
        assert sets_for(shadowed)["S"][0].admissible is None
        assert sets_for(plain)["S"][0].admissible == frozenset(range(201, 256))

    def test_blackbox_before_failing_guard_still_runs_under_dispatch(self):
        # The reviewer's scenario: pruning the first alternative would skip
        # the blackbox invocation that precedes the failing guard, turning
        # a BlackboxError into a clean parse.  Both dispatch settings must
        # raise identically.
        from repro import Parser
        from repro.core.errors import IPGError

        grammar = (
            "blackbox B ; "
            "S -> U8[0, 1] {t = U8.val} B[1, EOI] guard(t >= 128) / Raw[0, EOI] ;"
        )

        def boom(window):
            raise RuntimeError("boom")

        for backend in ("compiled", "interpreted"):
            for dispatch in (True, False):
                parser = Parser(
                    grammar,
                    blackboxes={"B": boom},
                    backend=backend,
                    first_byte_dispatch=dispatch,
                )
                with pytest.raises(IPGError):
                    parser.try_parse(b"\x05abc")


# ---------------------------------------------------------------------------
# The compiled guard narrower against the per-value reference walk
# ---------------------------------------------------------------------------


class _RefUnsupported(Exception):
    pass


class _RefContext:
    """Duck-typed EvalContext of the reference walk (one candidate value)."""

    def __init__(self, nm):
        self.env = {}
        self.nm = nm
        self.val = None

    def lookup_name(self, name):
        try:
            return self.env[name]
        except KeyError:
            raise _RefUnsupported() from None

    def lookup_dot(self, nonterminal, attr):
        if nonterminal == self.nm and attr == "val" and self.val is not None:
            return self.val
        raise _RefUnsupported()

    def lookup_index(self, nonterminal, index, attr):
        raise _RefUnsupported()

    def array_length(self, nonterminal):
        raise _RefUnsupported()


def _reference_value_admissible(grammar, alternative, position, chain, ctx, value):
    """Tree-walk every constraint for one candidate value of the builtin."""
    ctx.env.clear()
    ctx.val = None
    for index, term in enumerate(alternative.terms):
        if index == position:
            ctx.val = value
            continue
        if isinstance(term, TermAttrDef):
            if not _evaluable(term.expr):
                ctx.env.pop(term.name, None)
                continue
            try:
                ctx.env[term.name] = term.expr.evaluate(ctx)
            except _RefUnsupported:
                ctx.env.pop(term.name, None)
            except EvaluationError:
                return False
        elif isinstance(term, TermGuard):
            if not _evaluable(term.expr):
                continue
            try:
                if term.expr.evaluate(ctx) == 0:
                    return False
            except _RefUnsupported:
                continue
            except EvaluationError:
                return False
        elif isinstance(term, TermTerminal):
            continue
        elif isinstance(term, TermNonterminal):
            if _clean_failure_target(grammar, term.name, chain):
                continue
            break
        elif isinstance(term, TermSwitch):
            if any(case.condition is None for case in term.cases):
                break
            satisfied = False
            for case in term.cases:
                if not _evaluable(case.condition):
                    satisfied = True
                    break
                try:
                    taken = case.condition.evaluate(ctx) != 0
                except _RefUnsupported:
                    satisfied = True
                    break
                except EvaluationError:
                    return False
                if taken:
                    satisfied = True
                    break
            if not satisfied:
                return False
            break
        else:
            break
    return True


def reference_narrow(grammar, alternative, position, chain):
    """The per-value enumeration: up to 256 x 256 tree-walking evaluations."""
    name = alternative.terms[position].name
    spec = BUILTINS.get(name)
    if (
        spec is None
        or spec.size is None
        or spec.byteorder is None
        or spec.signed
        or spec.size > 2
    ):
        return None
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
    ctx = _RefContext(name)
    admissible = set()
    for first_byte in range(256):
        if spec.size == 1:
            candidates = range(first_byte, first_byte + 1)
        elif spec.byteorder == "big":
            candidates = range(first_byte << 8, (first_byte << 8) + 256)
        else:
            candidates = range(first_byte, 65536, 256)
        for value in candidates:
            if _reference_value_admissible(
                grammar, alternative, position, chain, ctx, value
            ):
                admissible.add(first_byte)
                break
    if len(admissible) == 256:
        return None
    return frozenset(admissible)


def narrowing_sites(grammar):
    """Every builtin occurrence of every alternative, with its where-chain."""
    for rule, chain, _toplevel in _rule_universe(grammar):
        for alternative in rule.alternatives:
            alt_chain = _alt_chain(alternative, chain)
            for position, term in enumerate(alternative.terms):
                if isinstance(term, TermNonterminal) and term.name in BUILTINS:
                    yield alternative, position, alt_chain


def assert_narrowers_agree(grammar):
    """Compare both narrowers on every site; return the compiled results."""
    results = []
    for alternative, position, chain in narrowing_sites(grammar):
        compiled = _narrow(grammar, alternative, position, chain)
        expected = reference_narrow(grammar, alternative, position, chain)
        assert compiled == expected, (alternative.to_source(), position)
        results.append(compiled)
    return results


#: Synthetic shapes, in surface term order (unprepared, so nothing is
#: reordered or rejected by the attribute checker), with the expected
#: narrowing of the first term: a set, or None for "unconstrained".
SYNTHETIC_SHAPES = [
    # Leading terms of every narrowed width and byte order.
    ("S -> U8 {t = U8.val} guard(t > 3 && t < 9) ;", set(range(4, 9))),
    ("S -> U16BE guard(U16BE.val >= 40000 || U16BE.val = 7) ;",
     {0} | set(range(40000 >> 8, 256))),
    ("S -> U16LE {t = U16LE.val} guard(t % 256 = 17 || t = 515) ;", {3, 17}),
    ("S -> U16LE {t = U16LE.val} guard(t >> 8 = 3) ;", None),
    # Short-circuit operators and the conditional.
    ("S -> U8 guard(U8.val < 10 ? U8.val % 2 = 0 : U8.val > 250) ;",
     {0, 2, 4, 6, 8} | set(range(251, 256))),
    ("S -> U8 guard(U8.val = 0 || 10 / U8.val = 5) ;", {0, 2}),
    ("S -> U8 guard(U8.val > 0 && 10 / U8.val = 5) ;", {2}),
    # Partial operators: the failing value is inadmissible.
    ("S -> U8 {t = U8.val} guard(100 / (t - 5) > 0) ;", set(range(6, 106))),
    ("S -> U8 {t = U8.val} guard(7 % (t - 9) != 100) ;", set(range(256)) - {9}),
    ("S -> U8 {t = U8.val} guard(1 << (t - 2) > 0) ;", set(range(2, 256))),
    ("S -> U16BE {t = U16BE.val} guard(t >> (t - 256) >= 0) ;",
     set(range(1, 256))),
    ("S -> U8 {q = 1 / 0} guard(U8.val = 3) ;", set()),
    # References outside the fragment leave the alternative unconstrained.
    ("S -> U8 guard(nope > 3) ;", None),
    ("S -> U8 U16BE guard(U16BE.val > 5) ;", None),
    ("S -> U8 guard(U8.start = 0) ;", None),
    ("S -> guard(U8.val = 3) U8 ;", None),
    ("S -> {t = U8.val} U8 guard(t = 3) ;", None),
    # ... but only where evaluation reaches them.
    ("S -> U8 guard(U8.val < 10 && nope) ;", set(range(10))),
    ("S -> U8 guard(U8.val < 10 || nope) ;", None),
    ("S -> U8 guard(nope || U8.val < 10) ;", None),
    ("S -> U8 guard(U8.val / 0 + nope) ;", set()),
    ("S -> U8 guard(nope + U8.val / 0) ;", None),
    # Switches: defaultless ones constrain, a default never fails.
    ("S -> U8 {t = U8.val} switch(t = 1 : A / t = 2 : B) ; A -> U8 ; B -> U8 ;",
     {1, 2}),
    ("S -> U8 {t = U8.val} switch(t = 1 : A / B) ; A -> U8 ; B -> U8 ;", None),
    ("S -> U8 {t = U8.val} switch(t = 1 : A / nope = 2 : B) ; A -> U8 ; B -> U8 ;",
     None),
    ("S -> U8 {t = U8.val} switch(t > 3 && nope : A / t = 2 : B) ; "
     "A -> U8 ; B -> U8 ;", set(range(4, 256)) | {2}),
    ("S -> U8 {t = U8.val} switch(t = 1 : A / 5 / (t - 7) = 0 : B) ; "
     "A -> U8 ; B -> U8 ;", {0, 1} | set(range(13, 256))),
    # Redefined attributes: the latest definition wins, and one that
    # leaves the fragment unbinds the name (for the values reaching it).
    ("S -> U8 {t = U8.val} {t = t + 1} guard(t = 8) ;", {7}),
    ("S -> U8 {t = U8.val} {t = nope} guard(t = 8) ;", None),
    ("S -> U8 {t = U8.val} {t = t > 100 ? nope : t} guard(t < 50) ;",
     set(range(50)) | set(range(101, 256))),
    ("S -> U8 {t = 3} {t = U8.val} guard(t = 9) {t = 4} guard(t = 4) ;", {9}),
]


class TestCompiledNarrowing:
    """The compiled narrower reproduces the per-value walk exactly."""

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_bundled_grammars_match_reference(self, fmt):
        assert_narrowers_agree(prepare_grammar(registry[fmt].grammar_text))

    def test_bundled_grammars_are_narrowed(self):
        narrowed = {
            fmt: sum(
                result is not None
                for result in assert_narrowers_agree(
                    prepare_grammar(registry[fmt].grammar_text)
                )
            )
            for fmt in ("dns", "gif")
        }
        assert narrowed["dns"] >= 2 and narrowed["gif"] >= 1, narrowed

    @pytest.mark.parametrize(
        "grammar_text, expected", SYNTHETIC_SHAPES, ids=[s for s, _ in SYNTHETIC_SHAPES]
    )
    def test_synthetic_shape_matches_reference(self, grammar_text, expected):
        grammar = parse_grammar(grammar_text)
        assert_narrowers_agree(grammar)
        alternative = grammar.rule("S").alternatives[0]
        position = next(
            index
            for index, term in enumerate(alternative.terms)
            if isinstance(term, TermNonterminal)
        )
        result = _narrow(grammar, alternative, position, {})
        assert result == (None if expected is None else frozenset(expected))

    def test_expression_too_deep_to_compile_is_unconstrained(self):
        # A 400-operand chain nests deeper than Python's parser accepts:
        # the narrower gives up soundly instead of failing the analysis.
        def chain(operands):
            guard = "U8.val" + " + 1" * operands + f" > {operands + 3}"
            return sets_for(f"S -> U8[0, 1] guard({guard}) ;")["S"][0].admissible

        assert chain(40) == frozenset(range(4, 256))
        assert chain(400) is None

    def test_dns_narrowing_never_tree_walks(self, monkeypatch):
        calls = []
        for cls in (Num, Name, Dot, Index, BinOp, Cond, Exists):
            original = cls.evaluate

            def counting(self, ctx, _original=original):
                calls.append(self)
                return _original(self, ctx)

            monkeypatch.setattr(cls, "evaluate", counting)
        grammar = prepare_grammar(registry["dns"].grammar_text)
        assert first_sets(grammar)["Name"][0].admissible == frozenset(
            range(0xC0, 0x100)
        )
        assert calls == []


class TestDispatchPlans:
    def test_plan_only_when_bytes_discriminate(self):
        # All-ANY single alternative: no plan (consulting a table would
        # read a byte the rule itself might never touch).
        assert plans_for("S -> U8[0, 1] ;") == {}

    def test_biased_order_is_preserved(self):
        plan = plans_for(
            'S -> "x"[0, 1] "a"[1, 2] / "x"[0, 1] "b"[1, 2] / "y"[0, 1] ;'
        )["S"]
        # Overlapping alternatives stay in biased order in the entry.
        assert plan.table[ord("x")] == (0, 1)
        assert plan.table[ord("y")] == (2,)
        assert plan.table[ord("q")] == ()

    def test_dns_name_is_fully_disjoint(self):
        plans = plans_for(registry["dns"].grammar_text)
        plan = plans["Name"]
        assert plan.table[0x00] == (2,)  # root label
        assert plan.table[0x05] == (1,)  # ordinary label (1..63)
        assert plan.table[0xC0] == (0,)  # compression pointer
        assert plan.table[0x80] == ()    # 64..191 can never start a name

    def test_gif_block_is_fully_disjoint(self):
        plans = plans_for(registry["gif"].grammar_text)
        plan = plans["Block"]
        assert plan.table[0x21] == (0,)
        assert plan.table[0x2C] == (1,)
        assert plan.table[0x3B] == ()

    def test_results_are_cached_per_grammar(self):
        grammar = prepare_grammar('S -> "x"[0, 1] / "y"[0, 1] ;')
        assert first_sets(grammar) is first_sets(grammar)
        assert dispatch_plans(grammar) is dispatch_plans(grammar)


def reference_plan_for(infos):
    """The per-byte table construction: 256 x alternatives ``admits`` calls."""
    full = tuple(range(len(infos)))
    table = tuple(
        tuple(index for index, info in enumerate(infos) if info.admits(byte))
        for byte in range(256)
    )
    empty = tuple(
        index for index, info in enumerate(infos) if not info.requires_byte
    )
    pair_table = {}
    if len(infos) > 1:
        for byte in range(256):
            base = table[byte]
            if len(base) < 2:
                continue
            prefixes = [(i, infos[i].prefix) for i in base]
            longest = max(
                (len(p) for _i, p in prefixes if p is not None), default=0
            )
            best = None
            for offset in range(1, longest):
                row = tuple(
                    tuple(
                        i for i, p in prefixes if infos[i].admits_at(offset, second)
                    )
                    for second in range(256)
                )
                if all(entry == base for entry in row):
                    continue
                score = max(len(entry) for entry in row)
                if best is None or score < best[0]:
                    best = (score, offset, row)
            if best is not None:
                pair_table[byte] = (best[1], best[2])
    if all(entry == full for entry in table) and not pair_table:
        return None
    return DispatchPlan(table, empty, len(infos), pair_table or None)


PLAN_SHAPES = [
    # Prefix probes at different offsets, mixed with unconstrained and
    # single-byte alternatives sharing the first byte.
    'S -> "PK\\x01\\x02"[0, 4] / "PK\\x03\\x04"[0, 4] / "PK\\x05\\x06"[0, 4] / Raw[0, EOI] ;',
    'S -> "abc"[0, 3] / "abd"[0, 3] / "a"[0, 1] / "xyz"[0, 3] / "xz"[0, 2] ;',
    'S -> "ab"[0, 2] / U8[0, 1] / "ac"[0, 2] / ""[0, 0] ;',
    "S -> U8[0, 1] {t = U8.val} guard(t >= 128) Raw[1, EOI] / Raw[0, EOI] ;",
]


class TestPlanConstruction:
    """Byte-class table construction equals the per-byte reference."""

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_bundled_plans_match_reference(self, fmt):
        grammar = prepare_grammar(registry[fmt].grammar_text)
        for name, infos in first_sets(grammar).items():
            assert _plan_for(infos) == reference_plan_for(infos), name
        for rule, infos in local_first_sets(grammar):
            assert _plan_for(infos) == reference_plan_for(infos), rule.name

    @pytest.mark.parametrize("grammar_text", PLAN_SHAPES)
    def test_synthetic_plans_match_reference(self, grammar_text):
        infos = sets_for(grammar_text)["S"]
        plan = _plan_for(infos)
        assert plan == reference_plan_for(infos)
        if plan is not None and plan.pair_table:
            assert list(plan.pair_table) == sorted(plan.pair_table)


class TestDispatchDifferential:
    """Dispatch on/off equivalence on purpose-built adversarial shapes."""

    GRAMMARS = [
        # Overlapping firsts with biased choice deciding by longer content.
        'S -> "ab"[0, 2] / "a"[0, 1] ;',
        # Guard-narrowed tag byte with a fallback alternative.
        "S -> U8[0, 1] {t = U8.val} guard(t >= 128) Raw[1, EOI] / Raw[0, EOI] ;",
        # Empty-window alternative after a required one.
        'S -> "x"[0, 1] S[1, EOI] / ""[0, 0] ;',
        # A rule whose guard can never pass (empty admissible set).
        'S -> U8[0, 1] guard(0) / "k"[0, 1] ;',
    ]

    @pytest.mark.parametrize("grammar", GRAMMARS)
    def test_engines_agree_on_byte_sweep(self, grammar):
        from engine_matrix import matrix_for

        matrix = matrix_for(grammar)
        samples = [b"", b"a", b"ab", b"abab", b"x", b"xx", b"k", b"\x00"]
        samples += [bytes((b,)) for b in (0, 1, 63, 64, 127, 128, 192, 255)]
        samples += [bytes((b, 65)) for b in (0, 127, 128, 255)]
        for data in samples:
            matrix.assert_agree(data)
