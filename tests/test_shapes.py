"""Tests for the fixed-shape analysis and the bulk decoding paths.

Locks down :mod:`repro.core.shapes` — width/layout inference (struct format
strings, covered prefixes, nesting, fixed-count arrays) and its conservative
bail-outs on anything interval-dependent — plus the engine-level contract:
bulk-on, bulk-off, interpreted and chunked-streaming executions all
produce identical trees, including at adversarial record-boundary chunk
sizes.
"""

import struct as pystruct

import pytest

from engine_matrix import EngineMatrix, format_sample, matrix_for
from repro import Parser
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.errors import ParseFailure
from repro.core.interpreter import prepare_grammar
from repro.core.ir import analyze, explain_plan
from repro.core.shapes import alternative_shape, linear_stride, rule_shape
from repro.formats import registry


def plan_for(grammar_text, rule, alt=0, width=None, flat_only=False):
    return alternative_shape(
        prepare_grammar(grammar_text), rule, alt, width=width, flat_only=flat_only
    )


class TestLayoutInference:
    def test_elf_sym_layout(self):
        plan = plan_for(registry["elf"].grammar_text, "Sym")
        assert plan.full
        assert plan.fmt == "<IBBHQQ"
        assert (plan.needed, plan.size, plan.nslots) == (24, 24, 6)
        assert plan.touch and (plan.start, plan.end) == (0, 24)

    def test_elf_header_layout_with_gaps_and_guard(self):
        plan = plan_for(registry["elf"].grammar_text, "H")
        assert plan.full
        # "\x7fELF", three U8s, pad to 16, two U16LE, pad to 24, three
        # U64LE, pad to 52, six U16LE.
        assert plan.fmt == "<4sBBB9xHH4xQQQ4xHHHHHH"
        assert plan.needed == 64
        assert plan.has_lits and plan.has_guards

    def test_zip_cde_fixed_prefix(self):
        plan = plan_for(registry["zip"].grammar_text, "CDE")
        assert not plan.full
        assert plan.fmt == "<4sHHHHHHIIIHHHHHII"
        assert plan.needed == 46
        assert "FileName" in plan.stop_reason

    def test_dns_header_big_endian(self):
        plan = plan_for(registry["dns"].grammar_text, "Header")
        assert plan.full
        assert plan.fmt == ">HHHHHH"

    def test_mixed_endianness_stops_the_walk(self):
        plan = plan_for("S -> U16LE {a = U16LE.val} U16BE {b = U16BE.val} ;", "S")
        assert plan.covered < plan.total
        assert "byte order" in plan.stop_reason

    def test_nested_fixed_rule_flattens(self):
        plan = plan_for(registry["pe"].grammar_text, "SectionHeader")
        assert plan.full
        # NameField[8] (a rule wrapping Bytes) flattens into an 8s slot.
        assert plan.fmt == "<8sIIIIIIHHI"
        assert plan.needed == 40

    def test_fixed_count_array_unrolls(self):
        plan = plan_for(
            "S -> U16LE {tag = U16LE.val} for i = 0 to 3 do R[2 + 4 * i, 2 + 4 * (i + 1)] ;"
            "R -> U16LE {a = U16LE.val} U16LE {b = U16LE.val} ;",
            "S",
        )
        assert plan.full
        assert plan.fmt == "<HHHHHHH"
        assert plan.needed == 14

    def test_raw_fields_become_pads(self):
        plan = plan_for(registry["pe"].grammar_text, "DOSHeader")
        assert plan.full
        assert plan.fmt == "<2s58xI"

    def test_interval_dependent_width_bails(self):
        plan = plan_for(
            "S -> U8 {n = U8.val} Bytes[n] U8[0, 1] ;", "S"
        )
        assert plan.covered == 2  # U8 + attr def
        assert "Bytes" in plan.stop_reason

    def test_eoi_relative_right_bails_parametrically_but_not_at_width(self):
        grammar = "S -> U16LE {a = U16LE.val} Raw[2, EOI] ;"
        parametric = plan_for(grammar, "S")
        assert not parametric.full
        instantiated = plan_for(grammar, "S", width=10)
        assert instantiated.full
        assert instantiated.fmt == "<H8x"

    def test_switch_and_where_rules_bail(self):
        assert plan_for(registry["elf"].grammar_text, "ELF").covered == 0
        plan = plan_for(registry["gif"].grammar_text, "LSD")
        assert not plan.full
        assert "switch" in plan.stop_reason

    def test_flat_only_stops_at_nested_rules(self):
        plan = plan_for(registry["pe"].grammar_text, "SectionHeader", flat_only=True)
        assert not plan.full and plan.covered == 0
        assert "flat-only" in plan.stop_reason

    def test_rebinding_a_special_bails(self):
        plan = plan_for("S -> U8 {v = U8.val} {EOI = 4} U8[1, 2] ;", "S")
        assert "EOI" in plan.stop_reason

    def test_rule_shape_rejects_multi_alternative_rules(self):
        grammar = prepare_grammar('S -> "a"[0, 1] / "b"[0, 1] ;')
        assert rule_shape(grammar, "S") is None

    def test_explain_reports_every_alternative(self):
        dump = explain_plan(analyze(prepare_grammar(registry["elf"].grammar_text)))
        alt_lines = {}
        for line in dump.splitlines():
            if line.startswith("rule "):
                rule = line.split()[1].rstrip(":")
            elif line.startswith("  alt 0:"):
                alt_lines[rule] = line[len("  alt 0:") :]
        assert "'<IBBHQQ'" in alt_lines["Sym"]
        assert alt_lines["ELF"].startswith(" not fixed")


class TestLinearStride:
    def parse_interval(self, text):
        from repro.core.grammar_parser import parse_expression

        left, right = text.split(";")
        return parse_expression(left), parse_expression(right)

    def test_simple_stride(self):
        left, right = self.parse_interval("24 * i ; 24 * (i + 1)")
        assert linear_stride(left, right, "i") == 24

    def test_runtime_base_offset(self):
        left, right = self.parse_interval(
            "shofs + 40 * i ; shofs + 40 * (i + 1)"
        )
        assert linear_stride(left, right, "i") == 40

    def test_mismatched_bases_rejected(self):
        left, right = self.parse_interval("a + 8 * i ; b + 8 * (i + 1)")
        assert linear_stride(left, right, "i") is None

    def test_runtime_stride_rejected(self):
        left, right = self.parse_interval("w * i ; w * (i + 1)")
        assert linear_stride(left, right, "i") is None

    def test_window_gap_rejected(self):
        # right - left != stride: records would not be contiguous.
        left, right = self.parse_interval("8 * i ; 8 * i + 4")
        assert linear_stride(left, right, "i") is None

    def test_loop_variant_atoms_rejected(self):
        # Bulk lowering evaluates the base once before the loop, so an
        # atom that reads array contents (or the running start/end
        # specials) — which the per-term path re-evaluates per iteration —
        # must disqualify the array.
        for atom in ("(exists j . E(j).val = 9 ? 100 : 0)", "E(0).val", "end"):
            left, right = self.parse_interval(
                f"{atom} + 4 * i ; {atom} + 4 * (i + 1)"
            )
            assert linear_stride(left, right, "i") is None, atom

    def test_exists_atom_does_not_hoist(self):
        # Regression: an exists over the array being built flips once the
        # first element decodes; hoisting it out of the loop accepted
        # inputs the reference semantics reject.
        grammar = """
        S -> for i = 0 to 2 do E[(exists j . E(j).val = 9 ? 100 : 0) + 4 * i,
                                 (exists j . E(j).val = 9 ? 100 : 0) + 4 * (i + 1)] ;
        E -> U32LE {val = U32LE.val} ;
        """
        data = pystruct.pack("<II", 9, 2)
        bulk = Parser(grammar)
        assert "E" not in bulk._engine().bulk_arrays
        matrix_for(grammar).assert_agree(data)

    def test_raising_attr_steps_are_never_skipped(self):
        # Regression: a division in an attribute step is itself a check
        # (EvaluationError fails the parse); validate-only bulk decoding
        # must not skip the loop that evaluates it.
        grammar = """
        S -> for i = 0 to 2 do R[4 * i, 4 * (i + 1)] ;
        R -> U32LE {q = 8 / U32LE.val} ;
        """
        bad = pystruct.pack("<II", 2, 0)
        good = pystruct.pack("<II", 2, 4)
        parser = Parser(grammar)
        assert "R" in parser._engine().bulk_arrays
        plan = rule_shape(prepare_grammar(grammar), "R")
        assert plan.has_raising_attrs and plan.checks_anything
        assert parser.try_parse(bad) is None
        assert parser.try_parse(bad, emit=None) is None
        assert parser.try_parse(good, emit=None) is True
        matrix = matrix_for(grammar)
        matrix.assert_agree(bad)
        matrix.assert_agree(good)


#: A bulk-eligible fixed-stride array directly under the (EOI-bounded)
#: start window: streaming decodes records incrementally through the
#: resumable per-parse state, suspending at record boundaries.
BULK_STREAM_GRAMMAR = """
S -> Hdr[0, 4] for i = 0 to Hdr.n do Rec[4 + 8 * i, 4 + 8 * (i + 1)]
     Tail[4 + 8 * Hdr.n, EOI] ;
Hdr -> U16BE {n = U16BE.val} U16BE {tag = U16BE.val} ;
Rec -> U32BE {a = U32BE.val} U16BE {b = U16BE.val} U16BE {c = U16BE.val}
       guard(c < 60000) ;
Tail -> Raw[0, EOI] ;
"""

#: The same records behind an integer-bounded sub-window: the caller's
#: interval-validity check makes the window available all at once (the
#: per-term engines behave identically), exercising the one-shot bulk
#: decode on a stream.
NESTED_WINDOW_GRAMMAR = """
S -> Hdr[0, 4] Body[4, 4 + 8 * Hdr.n] Tail[4 + 8 * Hdr.n, EOI] ;
Hdr -> U16BE {n = U16BE.val} U16BE {tag = U16BE.val} ;
Body -> for i = 0 to EOI / 8 do Rec[8 * i, 8 * (i + 1)] ;
Rec -> U32BE {a = U32BE.val} U16BE {b = U16BE.val} U16BE {c = U16BE.val}
       guard(c < 60000) ;
Tail -> Raw[0, EOI] ;
"""


def build_bulk_stream_input(count=25, tail=b"xyz"):
    records = b"".join(
        pystruct.pack(">IHH", i * 3, i * 5, i * 7) for i in range(count)
    )
    return pystruct.pack(">HH", count, 1) + records + tail


#: A fixed-width prefix, a variable-width gap, then a fixed tail the
#: per-term path runs: a guard, a window-relative EOI read, and a term whose
#: interval chains off a tail record.
GAP_GRAMMAR = """
S -> Hdr[0, 4] Var
     U32BE {tag = U32BE.val} guard(tag < 4000000000)
     U16BE {b = U16BE.val}
     U16BE {rest = U16BE.EOI}
     Payload[U16BE.end, U16BE.end + U16BE.val] ;
Hdr -> U16BE {a = U16BE.val} U16BE {b = U16BE.val} ;
Var -> U8 {n = U8.val} Bytes[n] ;
Payload -> Raw ;
"""


#: Fixed tails after a variable-width gap whose terms cannot share one
#: anchored base: a frame-absolute interval, a non-linear use of the gap's
#: end, the running ``end`` special, and a fixed-count array.
TAIL_GRAMMARS = {
    "frame_absolute_interval": """
    S -> Var U32LE[4, 8] {a = U32LE.val} U16LE {b = U16LE.val}
         U16LE {c = U16LE.val} ;
    Var -> U8 {n = U8.val} Bytes[n] ;
    """,
    "nonlinear_anchor_use": """
    S -> Var U32LE[Var.end * 2, Var.end * 2 + 4] {a = U32LE.val}
         U32LE {b = U32LE.val} U32LE {c = U32LE.val} ;
    Var -> U8 {n = U8.val} Bytes[n] ;
    """,
    "special_in_tail": """
    S -> Var U32LE {a = end} U32LE {b = U32LE.val} U32LE {c = U32LE.val} ;
    Var -> U8 {n = U8.val} Bytes[n] ;
    """,
    "array_in_tail": """
    S -> Var for i = 0 to 3 do R[Var.end + 2 * i, Var.end + 2 * (i + 1)] ;
    Var -> U8 {n = U8.val} Bytes[n] ;
    R -> U16BE {v = U16BE.val} ;
    """,
}


class TestAnchoredSuffix:
    """Fixed-width tails anchored behind a variable-width gap.

    Every engine runs these tails term by term; each must fail exactly
    where the interpreter does, at every truncation.
    """

    def test_cross_engine_agreement_on_custom_grammar(self):
        matrix = matrix_for(GAP_GRAMMAR)
        base = (
            pystruct.pack(">HH", 7, 9)
            + b"\x03abc"
            + pystruct.pack(">IHH", 123456, 2, 4)
            + b"\x01\x02\x03\x04"
        )
        matrix.assert_agree(base)
        # Truncation at every byte boundary (every engine must fail where
        # the interpreter does), plus a failing guard.
        for i in range(len(base) + 1):
            matrix.assert_agree(base[:i])
        hostile = bytearray(base)
        hostile[8:12] = pystruct.pack(">I", 4000000001)
        matrix.assert_agree(bytes(hostile))

    def test_dns_truncations_agree(self):
        data = format_sample("dns")
        matrix = matrix_for(registry["dns"].grammar_text)
        matrix.assert_agree(data)
        for i in range(0, len(data) + 1, 3):
            matrix.assert_agree(data[:i])

    @pytest.mark.parametrize("shape", sorted(TAIL_GRAMMARS))
    def test_tail_shapes_agree_across_engines(self, shape):
        matrix = matrix_for(TAIL_GRAMMARS[shape])
        base = b"\x03abc" + bytes(range(1, 21))
        assert matrix.interpreted.try_parse(base) is not None
        for i in range(len(base) + 1):
            matrix.assert_agree(base[:i])
        # A longer gap pushes the tail past the end of the input.
        matrix.assert_agree(b"\x13" + base[1:])


class TestBulkDifferential:
    @pytest.mark.parametrize("fmt", ["elf", "pe"])
    def test_bulk_formats_match_across_engines(self, fmt):
        spec = registry[fmt]
        matrix = matrix_for(spec.grammar_text, dict(spec.blackboxes))
        assert matrix.compiled._engine().bulk_arrays
        matrix.assert_agree(format_sample(fmt))

    def test_bulk_array_reported(self):
        spec = registry["elf"]
        compiled = compile_grammar(spec.grammar_text)
        assert {"Sym", "DynEntry"} <= compiled.bulk_arrays
        off = compile_grammar(
            spec.grammar_text,
            optimizations=Optimizations(bulk_fixed_shape=False),
        )
        assert off.bulk_arrays == frozenset()
        assert off.shaped_rules == frozenset()

    @pytest.mark.parametrize(
        "grammar", [BULK_STREAM_GRAMMAR, NESTED_WINDOW_GRAMMAR]
    )
    def test_truncated_and_corrupt_records(self, grammar):
        data = build_bulk_stream_input()
        matrix = matrix_for(grammar)
        matrix.assert_agree(data)
        # Truncation mid-record, guard failure in record 5, empty input.
        matrix.assert_agree(data[: 4 + 8 * 3 + 5])
        corrupt = bytearray(data)
        corrupt[4 + 8 * 5 + 6 : 4 + 8 * 5 + 8] = b"\xff\xff"
        matrix.assert_agree(bytes(corrupt))
        matrix.assert_agree(b"")
        matrix.assert_agree(pystruct.pack(">HH", 0, 1))

    def test_fused_plan_matches_term_path_on_short_windows(self):
        # Sym's whole body is one struct plan in the compiled engine; on
        # windows too short for it the plan must fail exactly where the
        # interpreter's per-term path does.
        compiled = registry["elf"].build_parser()
        assert "Sym" in compiled._engine().shaped_rules
        reference = registry["elf"].build_parser(backend="interpreted")
        data = bytes(range(64))
        for hi in (0, 5, 23, 24, 30, 64):
            expected = reference.try_parse(data[:hi], start="Sym")
            assert compiled.try_parse(data[:hi], start="Sym") == expected


class TestBulkStreaming:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 8, 9, 16, 17, 1000])
    @pytest.mark.parametrize(
        "grammar", [BULK_STREAM_GRAMMAR, NESTED_WINDOW_GRAMMAR]
    )
    def test_chunked_streaming_matches_batch(self, grammar, chunk_size):
        # Record width is 8: the chunk sizes straddle, align with, and span
        # multiple record boundaries.
        data = build_bulk_stream_input()
        parser = Parser(grammar)
        assert "Rec" in parser._engine().bulk_arrays
        expected = parser.parse(data)
        chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
        assert parser.parse_stream(iter(chunks), force=True) == expected
        assert (
            parser.parse_stream(
                [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)],
                force=True,
                emit=None,
            )
            is True
        )

    def test_streaming_consumes_records_incrementally(self):
        # The record-aligned bulk path must decode floor(available/width)
        # records per re-entry and compact behind itself: peak buffered
        # bytes stay near two chunks + one record, not the stream size.
        data = build_bulk_stream_input(count=200)
        parser = Parser(BULK_STREAM_GRAMMAR)
        session = parser.stream(force=True)
        for i in range(0, len(data), 16):
            session.feed(data[i : i + 16])
        tree = session.finish()
        assert tree == parser.parse(data)
        assert session.attempts > 10  # genuinely incremental
        assert session.max_buffered < len(data) / 10

    def test_streaming_rejects_mid_array_guard_failure(self):
        data = bytearray(build_bulk_stream_input())
        data[4 + 8 * 5 + 6 : 4 + 8 * 5 + 8] = b"\xff\xff"
        parser = Parser(BULK_STREAM_GRAMMAR)
        with pytest.raises(ParseFailure):
            parser.parse_stream(
                [bytes(data[i : i + 5]) for i in range(0, len(data), 5)], force=True
            )

    def test_streaming_interpreter_agrees(self):
        data = build_bulk_stream_input(count=9)
        parser = Parser(BULK_STREAM_GRAMMAR, backend="interpreted")
        expected = parser.parse(data)
        chunks = [data[i : i + 7] for i in range(0, len(data), 7)]
        assert parser.parse_stream(chunks, force=True) == expected


class TestGoldenAgreement:
    """Plans against golden trees: every format, every engine pair."""

    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_formats_agree_with_plain_reference(self, fmt):
        spec = registry[fmt]
        data = format_sample(fmt)
        expected = spec.build_parser(backend="interpreted").parse(data)
        assert spec.build_parser(backend="compiled").parse(data) == expected
