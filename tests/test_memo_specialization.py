"""Soundness tests for the memo-table specialization.

The analysis specializes each rule's packrat memo: in batch compilations
non-recursive rules skip memoization entirely, and rules whose ``hi`` is
always the parse's ``EOI`` key their table by bare ``lo``.  The stream
variant (``compile_grammar(..., stream=True)``) memoizes every rule, which
is also how these tests force a table onto a non-recursive rule.  Both
specializations are easy to get subtly wrong — a skipped table must not
conflate call sites, a collapsed key must never be applied to a rule that
can see two different ``hi`` values — so this module pins the edges
directly.
"""

import pytest

from engine_matrix import matrix_for
from repro import Parser
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.errors import CompilationError
from repro.formats import registry


class TestMemoElisionSoundness:
    # The headline soundness edge: a non-recursive rule reached from two
    # call sites with different (lo, hi) windows.  With its memo elided
    # there is no table to conflate the windows in, but the result of the
    # first call must also never leak into the second.

    GRAMMAR = """
    S -> P[0, 4] P[2, 6] {a = P.v} Tail[6, EOI] ;
    P -> U16LE[0, 2] {v = U16LE.val} U16LE[2, 4] {w = U16LE.val} ;
    Tail -> Raw[0, EOI] ;
    """

    def test_rule_memo_is_elided(self):
        compiled = compile_grammar(self.GRAMMAR)
        assert compiled.memo_modes["P"] == "skipped"
        assert compiled.memo_modes["S"] == "skipped"

    def test_two_windows_parse_independently(self):
        data = bytes([1, 0, 2, 0, 3, 0, 9, 9])
        matrix = matrix_for(self.GRAMMAR)
        outcome = matrix.assert_agree(data)
        assert outcome[0] == "tree"
        tree = outcome[1]
        first, second = tree.children_named("P")
        # Overlapping windows: [0,4) reads (1,2); [2,6) reads (2,3).  A
        # leaked memo entry would repeat the first pair.
        assert (first["v"], first["w"]) == (1, 2)
        assert (second["v"], second["w"]) == (2, 3)
        # The recorded `P.v` is the *last* parse, per the env-record rule.
        assert tree["a"] == 2

    def test_same_window_twice_still_identical(self):
        grammar = """
        S -> P[0, 4] P[0, 4] {a = P.v} Tail[4, EOI] ;
        P -> U16LE[0, 2] {v = U16LE.val} U16LE[2, 4] {w = U16LE.val} ;
        Tail -> Raw[0, EOI] ;
        """
        compiled = compile_grammar(grammar)
        assert compiled.memo_modes["P"] == "skipped"
        matrix_for(grammar).assert_agree(bytes([1, 0, 2, 0, 5]))

    def test_elision_vs_full_memo_trees_match(self):
        data = bytes([1, 0, 2, 0, 3, 0, 9, 9])
        skipped = compile_grammar(self.GRAMMAR)
        memoized = compile_grammar(self.GRAMMAR, stream=True)
        assert memoized.memo_modes["P"] in ("dict", "dense")
        start = skipped.grammar.start
        assert skipped.parse_nonterminal(data, start, 0, len(data)) == \
            memoized.parse_nonterminal(data, start, 0, len(data))


class TestDenseKeySoundness:
    def test_mixed_hi_rule_is_never_dense(self):
        # P is called over [0,4) and [2,6): hi differs between call sites,
        # so collapsing its memo key to lo would conflate windows.
        compiled = compile_grammar(TestMemoElisionSoundness.GRAMMAR, stream=True)
        assert compiled.memo_modes["P"] == "dict"

    def test_eoi_anchored_recursive_rule_is_dense(self):
        grammar = """
        S -> Items[0, EOI] ;
        Items -> U8[0, 1] Items[1, EOI] / ""[0, 0] ;
        """
        compiled = compile_grammar(grammar)
        assert compiled.memo_modes["Items"] == "dense"
        matrix_for(grammar).assert_agree(bytes(range(7)))
        matrix_for(grammar).assert_agree(b"")

    def test_eoi_rebinding_disqualifies_dense(self):
        # {EOI = 4} rebinds the special before the call: the call site's
        # "EOI" is no longer the parse end, so Inner must keep (lo, hi).
        grammar = """
        S -> {EOI = 4} Inner[0, EOI] Tail[4, EOI] ;
        Inner -> Raw[0, EOI] ;
        Tail -> Raw[0, EOI] ;
        """
        compiled = compile_grammar(grammar, stream=True)
        assert compiled.memo_modes["Inner"] == "dict"
        # Tail's call site uses the rebound EOI too — conservative dict.
        assert compiled.memo_modes["Tail"] == "dict"
        matrix_for(grammar).assert_agree(b"abcdefgh")

    def test_anchoring_is_transitive(self):
        # Mid is EOI-anchored; Leaf is called from Mid with right = EOI, so
        # Leaf's hi is Mid's hi — anchored only because Mid is.  Break the
        # chain (call Mid over a sub-window) and Leaf must fall back too.
        anchored = """
        S -> Mid[0, EOI] ; S2 -> Mid[0, EOI] ;
        Mid -> U8[0, 1] Leaf[1, EOI] ;
        Leaf -> Raw[0, EOI] ;
        """
        compiled = compile_grammar(anchored, stream=True)
        assert compiled.memo_modes["Mid"] == "dense"
        assert compiled.memo_modes["Leaf"] == "dense"
        broken = """
        S -> Mid[0, 4] Rest[4, EOI] ;
        Mid -> U8[0, 1] Leaf[1, EOI] ;
        Leaf -> Raw[0, EOI] ;
        Rest -> Raw[0, EOI] ;
        """
        compiled = compile_grammar(broken, stream=True)
        assert compiled.memo_modes["Mid"] == "dict"
        assert compiled.memo_modes["Leaf"] == "dict"
        matrix_for(broken).assert_agree(bytes([1, 2, 3, 4, 5, 6]))


class TestStreamingKeepsFullMemo:
    def test_streaming_variant_never_skips(self):
        # Streaming re-entry replays completed work as memo hits; the
        # driver must get a compilation with elision off even though the
        # batch engine skips (the ``stream=True`` compilation).
        parser = Parser("S -> Hdr[0, 2] Raw[2, EOI] ;\n"
                        "Hdr -> U16LE[0, 2] {n = U16LE.val} ;")
        assert parser.backend == "compiled"
        assert parser._engine().memo_modes["Hdr"] == "skipped"
        streaming = parser._engine(stream=True)
        assert streaming is not None
        assert "skipped" not in streaming.memo_modes.values()
        # And the streamed tree still matches the batch tree.
        data = bytes([7, 0]) + b"payload"
        chunks = [data[i : i + 3] for i in range(0, len(data), 3)]
        assert parser.parse_stream(chunks) == parser.parse(data)

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_stream_compilation_memoizes_everything_whatever_the_passes(self, fmt):
        # Stream soundness is a fact of the compilation, not of the pass
        # set: even with every pass on, nothing is skipped or inlined.
        try:
            compiled = compile_grammar(
                registry[fmt].grammar_text,
                stream=True,
                optimizations=Optimizations(),
            )
        except CompilationError:
            pytest.skip(f"{fmt} does not compile")
        assert "skipped" not in compiled.memo_modes.values()
        assert compiled.inlined_rules == frozenset()

    @pytest.mark.parametrize("chunk_size", [1, 2, 5])
    def test_streamed_trees_match_batch_under_passes(self, chunk_size):
        parser = Parser("S -> Hdr[0, 4] Body[4, EOI] ;\n"
                        "Hdr -> U16LE[0, 2] {a = U16LE.val} U16LE[2, 4] {b = U16LE.val} ;\n"
                        "Body -> Raw[0, EOI] {len = Raw.len} ;")
        data = bytes([1, 0, 2, 0]) + b"streamed body"
        chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
        assert parser.parse_stream(chunks) == parser.parse(data)
