"""Integration tests: every execution engine must agree.

The paper ships a parser generator and a combinator library that implement
the same semantics; PR 1 added the staged closure compiler and this PR the
ahead-of-time emitted modules.  All of them run through the cross-engine
matrix (``tests/engine_matrix.py``) against the reference interpreter on
the real format case studies and the paper's toy grammars.
"""

import pytest

from engine_matrix import format_sample, matrix_for
from repro import BlackboxResult, Parser
from repro.core.compiler import compile_grammar
from repro.core.parsetree import tree_equal_modulo_specials
from repro.formats import registry, toy


def format_matrix(fmt):
    spec = registry[fmt]
    return matrix_for(spec.grammar_text, blackboxes=dict(spec.blackboxes))


class TestAllEnginesOnFormats:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_every_engine_matches_interpreter(self, fmt):
        # interpreter / compiled / nobulk / unoptimized-compiled / AOT —
        # plus streaming for the formats the §8 analysis accepts.
        outcome = format_matrix(fmt).assert_agree(format_sample(fmt))
        assert outcome[0] == "tree"

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_every_engine_rejects_corrupted_input(self, fmt):
        sample = bytearray(format_sample(fmt))
        sample[0] ^= 0xFF
        format_matrix(fmt).assert_agree(bytes(sample))


class TestMemoizationConsistency:
    @pytest.mark.parametrize("fmt", ["gif", "pdf", "dns"])
    def test_memoized_and_unmemoized_trees_agree(self, fmt):
        spec = registry[fmt]
        sample = format_sample(fmt)
        memoized = Parser(spec.grammar_text, blackboxes=dict(spec.blackboxes), memoize=True)
        unmemoized = Parser(spec.grammar_text, blackboxes=dict(spec.blackboxes), memoize=False)
        assert memoized.parse(sample) == unmemoized.parse(sample)
        # ... and the unmemoized engines agree with each other too.
        matrix_for(
            spec.grammar_text, blackboxes=dict(spec.blackboxes), memoize=False
        ).assert_agree(sample)


class TestToyGrammarsAcrossEngines:
    @pytest.mark.parametrize("name", sorted(toy.ALL_GRAMMARS))
    def test_engines_agree_on_valid_and_invalid_inputs(self, name):
        matrix = matrix_for(toy.ALL_GRAMMARS[name])
        probes = [
            b"",
            b"\x00",
            b"aaabbbccc",
            b"1011",
            b"magic" + b"A" * 5 + b"B" * 10,
            b"1000stop",
            toy.build_figure_6_input([3, 5, 7]),
            toy.build_two_pass_input([4, 2]),
            toy.build_figure_2_input(),
            b"4096",
        ]
        for probe in probes:
            outcome = matrix.assert_agree(probe)
            if outcome[0] == "tree":
                # Belt and braces: the AOT module also agrees modulo specials.
                aot = matrix.aot.try_parse(probe) if matrix.aot else None
                if aot is not None:
                    assert tree_equal_modulo_specials(outcome[1], aot)


class TestNegativeShiftParity:
    def test_negative_shift_fails_alternative_on_all_engines(self):
        grammar = (
            "S -> U8[0, 1] {a = 0 - U8.val} {b = 1 << a} / U8[0, 1] {b = 42} ;"
        )
        data = b"\x02"
        outcome = matrix_for(grammar).assert_agree(data)
        assert outcome[0] == "tree"
        assert outcome[1]["b"] == 42


class _DuckResult:
    """A BlackboxResult look-alike (``attrs``/``payload``/``end``)."""

    def __init__(self, attrs, payload):
        self.attrs = attrs
        self.payload = payload
        self.end = None


#: Every return kind a blackbox may use, plus one it may not.
BLACKBOX_RETURNS = {
    "BlackboxResult": lambda w: BlackboxResult(attrs={"n": len(w)}, payload=w[:2], end=2),
    "dict": lambda w: {"n": len(w)},
    "bytes": lambda w: w[::-1],
    "bytearray": lambda w: bytearray(w[::-1]),
    "None": lambda w: None,
    "duck-typed": lambda w: _DuckResult({"n": len(w)}, w[:2]),
    "unsupported": lambda w: 3.5,
}


class TestBlackboxResultKinds:
    """One blackbox-result normalization on every engine."""

    GRAMMAR = "blackbox Ext ;\nS -> U8[0, 1] Ext[1, EOI] {e = Ext.end} ;"
    DATA = b"\x07abcd"

    @staticmethod
    def _outcome(try_parse, data):
        try:
            tree = try_parse(data)
        except Exception as exc:  # compared by class name across engines
            return ("error", type(exc).__name__)
        return ("none",) if tree is None else ("tree", tree)

    @pytest.mark.parametrize("kind", sorted(BLACKBOX_RETURNS))
    def test_engines_agree_on_blackbox_return_kind(self, kind):
        blackboxes = {"Ext": BLACKBOX_RETURNS[kind]}
        engines = {
            backend: Parser(self.GRAMMAR, blackboxes=blackboxes, backend=backend)
            for backend in ("interpreted", "compiled")
        }
        assert engines["compiled"].backend == "compiled"
        aot = compile_grammar(self.GRAMMAR, blackboxes=blackboxes).load_module(
            f"_aot_blackbox_{kind.replace('-', '_')}"
        )
        outcomes = {
            name: self._outcome(engine.try_parse, self.DATA)
            for name, engine in engines.items()
        }
        outcomes["aot"] = self._outcome(aot.try_parse, self.DATA)
        reference = outcomes["interpreted"]
        for name, outcome in outcomes.items():
            assert outcome == reference, f"{name}: {outcome!r} != {reference!r}"
        if kind == "unsupported":
            assert reference == ("error", "BlackboxError")
        elif kind == "None":
            assert reference == ("none",)
        else:
            # (attribute n, end rebased into S, Leaf payloads) of the node.
            expected = {
                "BlackboxResult": (4, 3, [b"ab"]),
                "dict": (4, 5, []),
                "bytes": (None, 5, [b"dcba"]),
                "bytearray": (None, 5, [b"dcba"]),
                "duck-typed": (4, 5, [b"ab"]),
            }[kind]
            node = reference[1].children[1]
            payloads = [child.value for child in node.children]
            assert (node.env.get("n"), node.env["end"], payloads) == expected
