"""Differential tests: the compiled backend must equal the interpreter.

The staged compiler (:mod:`repro.core.compiler`) is the default parse
engine, so its equivalence guarantee carries the whole test suite.  This
module drives the cross-engine matrix (``tests/engine_matrix.py``) over
every bundled format grammar, every toy grammar of the paper, and the
property-based workload generators: the compiled backend — optimized,
unoptimized, and ahead-of-time emitted — must produce identical parse
trees to the reference interpreter, or fail identically, on the same
inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from engine_matrix import format_sample, matrix_for
from repro import Parser, samples
from repro.core.compiler import compile_grammar
from repro.formats import registry, toy


def format_matrix(fmt):
    spec = registry[fmt]
    return matrix_for(spec.grammar_text, blackboxes=dict(spec.blackboxes))


class TestFormatGrammars:
    """Every bundled format grammar, on valid and corrupted inputs."""

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_valid_input_produces_identical_tree(self, fmt):
        format_matrix(fmt).assert_agree(format_sample(fmt))

    @pytest.mark.parametrize("fmt", sorted(registry))
    @pytest.mark.parametrize("flip", [0, 1, -1])
    def test_corrupted_input_fails_identically(self, fmt, flip):
        sample = bytearray(format_sample(fmt))
        sample[flip] ^= 0xFF
        format_matrix(fmt).assert_agree(bytes(sample))

    @pytest.mark.parametrize("fmt", ["dns", "gif", "elf"])
    def test_unmemoized_backends_agree(self, fmt):
        spec = registry[fmt]
        matrix = matrix_for(
            spec.grammar_text, blackboxes=dict(spec.blackboxes), memoize=False
        )
        matrix.assert_agree(format_sample(fmt))

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_truncated_prefixes_fail_identically(self, fmt):
        matrix = format_matrix(fmt)
        sample = format_sample(fmt)
        for cut in (0, 1, len(sample) // 2, len(sample) - 1):
            matrix.assert_agree(sample[:cut])


def _node_windows(fmt):
    """Top-level rule -> its node windows in ``format_sample(fmt)``.

    Each window is the input a committed occurrence of the rule spans in
    the reference interpreter's tree, cut out of the sample.
    """
    spec = registry[fmt]
    parser = spec.build_parser(backend="interpreted")
    sample = format_sample(fmt)
    _tree, trail = parser.parse(sample, record_spans=set(parser.grammar.rules))
    windows = {rule: [] for rule in parser.grammar.rules}
    for rule, start, end in trail:
        window = sample[start:end]
        if window not in windows[rule]:
            windows[rule].append(window)
    return windows


class TestEveryEntryPoint:
    """``try_parse(start=R)`` agrees with the interpreter for every rule R.

    A fresh parser compiles only the start rule's closure, so most rules
    reach the compiled engine through the deferred staging: on windows
    their own nodes span, and the same windows cut one byte short.
    """

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_every_rule_parses_its_windows(self, fmt):
        spec = registry[fmt]
        compiled = spec.build_parser()
        reference = spec.build_parser(backend="interpreted")
        assert compiled.backend == "compiled"
        for rule, windows in _node_windows(fmt).items():
            for window in windows[:4]:
                for data in (window, window[:-1]):
                    for emit in ("tree", None):
                        expected = reference.try_parse(data, start=rule, emit=emit)
                        got = compiled.try_parse(data, start=rule, emit=emit)
                        assert got == expected, (fmt, rule, emit, data)
        engine = compiled._engine()
        assert set(engine._entry) == set(compiled.grammar.rules)


class TestToyGrammars:
    """The paper's toy grammars over byte-string fuzz inputs."""

    @pytest.mark.parametrize("name", sorted(toy.ALL_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_inputs_agree(self, name, data):
        matrix_for(toy.ALL_GRAMMARS[name]).assert_agree(data)

    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_binary_number_values_agree(self, value):
        matrix = matrix_for(toy.FIGURE_3)
        text = format(value, "b").encode()
        outcome = matrix.assert_agree(text)
        assert outcome[0] == "tree"
        assert outcome[1]["val"] == value

    @given(text=st.text(alphabet="abc", min_size=0, max_size=15))
    @settings(max_examples=80, deadline=None)
    def test_anbncn_membership_agrees(self, text):
        matrix_for(toy.ANBNCN).assert_agree(text.encode())

    def test_alternate_start_symbol(self):
        matrix = matrix_for(toy.FIGURE_3)
        matrix.assert_agree(b"1", start="Digit")
        matrix.assert_agree(b"x", start="Digit")


class TestPropertyBasedWorkloads:
    """The generators of test_property_based.py, run through all engines."""

    @given(
        members=st.integers(min_value=0, max_value=8),
        size=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=15, deadline=None)
    def test_zip_archives_agree(self, members, size):
        archive = samples.build_zip(member_count=members, member_size=size)
        format_matrix("zip").assert_agree(archive)

    @given(
        answers=st.integers(min_value=0, max_value=12),
        compress=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_dns_responses_agree(self, answers, compress):
        packet = samples.build_dns_response(
            answer_count=answers, use_compression=compress
        )
        format_matrix("dns").assert_agree(packet)

    @given(
        size=st.integers(min_value=0, max_value=600),
        options=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_ipv4_packets_agree(self, size, options):
        packet = samples.build_ipv4_udp_packet(
            payload_size=size, options_words=options
        )
        format_matrix("ipv4").assert_agree(packet)

    @given(objects=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_pdf_documents_agree(self, objects):
        document, _offsets = samples.build_pdf(object_count=objects)
        format_matrix("pdf").assert_agree(document)


class TestCompiledGrammarObject:
    def test_source_is_kept_for_inspection(self):
        compiled = compile_grammar(toy.FIGURE_1)
        assert "def " in compiled.source
        assert "_ENTRY" in compiled.source

    def test_blackbox_registration_after_compilation(self):
        grammar = "blackbox Ext ;\nS -> Ext[0, EOI] {n = Ext.len} ;"
        parser = Parser(grammar, backend="compiled")
        assert parser.backend == "compiled"
        parser.register_blackbox("Ext", lambda data: {"len": len(data)})
        assert parser.parse(b"12345")["n"] == 5

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Parser(toy.FIGURE_1, backend="jit")

    def test_exists_expression_agrees(self):
        grammar = """
        S -> H[0, 1]
             for i = 0 to H.num do A[1 + i, 2 + i]
             {found = exists j . A(j).val = 7 ? j + 1 : 0} ;
        H -> U8[0, 1] {num = U8.val} ;
        A -> U8[0, 1] {val = U8.val} ;
        """
        matrix = matrix_for(grammar)
        hit = bytes([3, 1, 7, 9])
        miss = bytes([3, 1, 2, 9])
        matrix.assert_agree(hit)
        matrix.assert_agree(miss)
        assert matrix.compiled.parse(hit)["found"] == 2
        assert matrix.compiled.parse(miss)["found"] == 0


class TestAdversarialConstructs:
    """Tricky corners not exercised by the bundled format grammars."""

    def _diff(self, grammar, inputs, starts=(None,), blackboxes=None, engines=None):
        matrix = matrix_for(grammar, blackboxes=blackboxes)
        for start in starts:
            for data in inputs:
                matrix.assert_agree(data, start, engines=engines)

    def test_special_attribute_rebinding(self):
        # Attribute definitions may overwrite EOI/start/end; guards may read
        # the specials mid-alternative; empty terminals never touch input.
        self._diff(
            'S -> ""[0, 0] "ab"[0, 2] guard(end = 2) {EOI = 99} {start = 1} ;',
            [b"ab", b"abX", b"a", b""],
        )

    def test_attribute_self_rebinding(self):
        self._diff('S -> {x = 1} {x = x + 1} guard(x = 2) "a"[0, 1] ;', [b"a", b"b"])

    def test_nested_where_rules_with_recursion(self):
        self._diff(
            """
            S -> {k = 2} A[0, EOI]
                 where {
                   A -> B[0, k] C[k, EOI]
                        where { C -> "c"[0, 1] C[1, EOI] / "c"[0, 1] ; } ;
                   B -> "bb"[0, 2] ;
                 } ;
            """,
            [b"bbccc", b"bbc", b"bb", b"bbx", b"xbccc"],
        )

    def test_local_rule_shadows_top_level_rule(self):
        self._diff(
            'S -> A[0, EOI] where { A -> "x"[0, 1] ; } ;\nA -> "y"[0, 1] ;',
            [b"x", b"y", b""],
            starts=(None, "A"),
        )

    def test_switch_target_attribute_reference(self):
        # `A.val` after the switch is only bound when the first branch ran;
        # the compiled conditional record must fail the alternative otherwise.
        self._diff(
            """
            S -> U8[0, 1] {t = U8.val}
                 switch(t = 1 : A[1, 2] / t = 2 : B[1, 2] / C[1, 2])
                 {r = t = 1 ? A.val : 0} ;
            A -> U8[0, 1] {val = U8.val + 10} ;
            B -> U8[0, 1] {val = U8.val + 20} ;
            C -> U8[0, 1] {val = U8.val + 30} ;
            """,
            [bytes([1, 5]), bytes([2, 5]), bytes([9, 5]), bytes([1])],
        )

    def test_exists_over_where_rule_array(self):
        self._diff(
            """
            S -> U8[0, 1] {n = U8.val}
                 for i = 0 to n do E[1 + i, 2 + i]
                 for i = 0 to n do F[1 + n + i, 2 + n + i]
                 {sum = exists j . E(j).val > 40 ? j : 0 - 1}
                 {sum2 = exists j . F(j).val > 90 ? j + 100 : 0 - 1}
                   where { F -> U8[0, 1] {val = U8.val + E(i).val} ; } ;
            E -> U8[0, 1] {val = U8.val} ;
            """,
            [bytes([2, 1, 50, 30, 90]), bytes([2, 1, 2, 50]), bytes([0]), b""],
        )

    def test_division_failure_fails_alternative(self):
        self._diff(
            """
            S -> U8[0, 1] {d = U8.val} A[1, 1 + 8 / d] / U8[0, 1] {d = 99} ;
            A -> Raw[0, EOI] ;
            """,
            [bytes([2, 1, 2, 3, 4]), bytes([0, 1]), b""],
        )

    def test_builtin_and_blackbox_start_symbols(self):
        # The legacy parser generator does not support builtin/blackbox
        # *start* symbols; the compiled engines all must.
        self._diff(
            "blackbox Ext ;\nS -> Ext[0, EOI] {n = Ext.len} ;",
            [b"abc", b""],
            starts=(None, "Ext", "U16LE"),
            blackboxes={"Ext": lambda data: {"len": len(data)}},
            engines=("compiled", "compiled-unoptimized", "aot"),
        )


class TestParseIsolation:
    """Each parse gets its own memo state, like the interpreter's _Run."""

    def test_reentrant_blackbox_parse_does_not_corrupt_memo(self):
        # The blackbox re-enters the same parser on its window bytes; the
        # outer parse's memoized `Inner[0, 2]` result must not be replaced
        # by the inner parse's entry for the same (lo, hi) key.
        grammar = """
        blackbox Ext ;
        S -> Inner[0, 2] Ext[2, 4] Inner[0, 2] {a = Inner.v + Ext.n} ;
        Inner -> U8[0, 1] U8[1, 2] {v = U8.val} ;
        """
        data = bytes([1, 2, 3, 4])

        def make(backend):
            parser = Parser(grammar, backend=backend)
            parser.register_blackbox(
                "Ext", lambda window: {"n": parser.parse(window, start="Inner")["v"]}
            )
            return parser

        compiled, interpreted = make("compiled"), make("interpreted")
        assert compiled.backend == "compiled"
        expected = interpreted.parse(data)
        actual = compiled.parse(data)
        assert actual == expected
        assert actual["a"] == 2 + 4  # second Inner.v is 2, not the window's 4

    def test_where_with_duplicate_array_names_falls_back(self):
        # Static array resolution inside where-rules is only equivalent when
        # element names are unique per alternative; the compiler must hand
        # this shape to the interpreter rather than risk divergence.
        grammar = """
        S -> U8[0, 1] {n = U8.val}
             for i = 0 to n do E[1 + i, 2 + i]
             for i = 0 to n do E[1 + n + i, 2 + n + i]
             W[0, 1]
               where { W -> U8[0, 1] {w = E(0).val} ; } ;
        E -> U8[0, 1] {val = U8.val} ;
        """
        parser = Parser(grammar, backend="compiled")
        assert parser.backend == "interpreted"  # automatic fallback
        tree = parser.parse(bytes([2, 10, 11, 20, 21]))
        assert tree.child("W")["w"] == 20


class TestWhereRuleScopeLiveness:
    """Where-rule bodies must see bindings as of the *call*, not the scope."""

    def test_loop_variable_dead_after_loop(self):
        # W runs after the array loop; the interpreter has popped `i`, so
        # the parse must fail — the compiled closure must not read the
        # stale last-iteration value.
        grammar = """
        S -> U8[0, 1] {n = U8.val}
             for i = 0 to n do E[1 + i, 2 + i]
             W[1 + n, 2 + n]
               where { W -> U8[0, 1] {w = i} ; } ;
        E -> U8[0, 1] {val = U8.val} ;
        """
        matrix = matrix_for(grammar)
        data = bytes([2, 10, 11, 99])
        outcome = matrix.assert_agree(data)
        assert outcome == ("none",)

    def test_ancestor_record_not_yet_parsed_falls_through(self):
        # When W runs, the middle scope's X has not parsed yet; resolution
        # must fall through to the outermost scope's X (value 5), exactly
        # like the interpreter's dynamic chain walk.
        grammar = """
        S -> X[0, 1] A[1, EOI]
               where {
                 A -> W[0, 1] X[1, 2]
                        where { W -> U8[0, 1] {w = X.val} ; } ;
               } ;
        X -> U8[0, 1] {val = U8.val} ;
        """
        matrix = matrix_for(grammar)
        data = bytes([5, 6, 7])
        outcome = matrix.assert_agree(data)
        assert outcome[0] == "tree"
        assert outcome[1].child("A").child("W")["w"] == 5

    def test_loop_variable_live_during_loop(self):
        # The usual ELF/ZIP shape: the where-rule is the array element and
        # reads the loop variable while the loop is running.
        grammar = """
        S -> U8[0, 1] {n = U8.val}
             for i = 0 to n do W[1 + i, 2 + i]
               where { W -> U8[0, 1] {w = U8.val + 100 * i} ; } ;
        """
        matrix = matrix_for(grammar)
        data = bytes([2, 7, 8])
        outcome = matrix.assert_agree(data)
        assert outcome[0] == "tree"
        values = [e["w"] for e in outcome[1].array("W")]
        assert values == [7, 108]

    def test_call_site_dependent_where_dispatch_falls_back(self):
        # L's body references X; the nested where inside M shadows X, and
        # the interpreter resolves through the *caller's* chain when M
        # invokes L.  The compiler binds lexically, so it must refuse this
        # shape and fall back rather than parse differently.
        grammar = """
        S -> M[0, EOI]
               where {
                 L -> X[0, 1] ;
                 M -> L[0, EOI] where { X -> "x"[0, 1] ; } ;
               } ;
        X -> "y"[0, 1] ;
        """
        compiled = Parser(grammar, backend="compiled")
        interpreted = Parser(grammar, backend="interpreted")
        assert compiled.backend == "interpreted"  # automatic fallback
        for data in (b"x", b"y", b""):
            assert compiled.accepts(data) == interpreted.accepts(data)

    def test_popped_loop_variable_falls_through_to_outer_binding(self):
        # After B's loop, `i` is popped from B's env; the interpreter then
        # resolves L's `i` in the enclosing scope ({i = 5}).  The compiled
        # closure must fall through the same way, not fail on the poisoned
        # loop local.
        grammar = """
        S -> {i = 5} B[0, EOI]
               where { B -> for i = 0 to 2 do A[i, i + 1]
                            L[2, 3]
                              where { L -> U8[0, 1] {v = i} ; } ; } ;
        A -> U8[0, 1] ;
        """
        matrix = matrix_for(grammar)
        data = bytes([1, 2, 3])
        outcome = matrix.assert_agree(data)
        assert outcome[0] == "tree"
        assert outcome[1].child("B").child("L")["v"] == 5

    def test_loop_variable_not_yet_bound_falls_through_to_outer_binding(self):
        # L runs *before* the loop term (attrcheck order keeps it first);
        # the loop binding does not exist yet, so `i` is the outer 5.
        grammar = """
        S -> {i = 5} B[0, EOI]
               where { B -> L[0, 1]
                            for i = 1 to 3 do A[i, i + 1]
                              where { L -> U8[0, 1] {v = i} ; } ; } ;
        A -> U8[0, 1] ;
        """
        matrix = matrix_for(grammar)
        data = bytes([9, 2, 3])
        outcome = matrix.assert_agree(data)
        assert outcome[0] == "tree"
        assert outcome[1].child("B").child("L")["v"] == 5
