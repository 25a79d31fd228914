"""Tests for the stream-parser analysis (§8) and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.streamability import analyze_streamability
from repro.formats import dns, elf, gif, ipv4, toy, zipfmt


class TestStreamability:
    def test_sequential_grammar_is_streamable(self):
        report = analyze_streamability(
            'S -> "hdr" U32LE {n = U32LE.val} Raw[n] ;'
        )
        assert report.streamable
        assert report.violations == []
        assert "streamable" in report.summary()

    def test_backward_dependency_is_flagged(self):
        report = analyze_streamability(
            "S -> B1[0, B2.a] B2[a1, EOI] {a1 = 2} ; B1 -> Raw ; B2 -> U8[0, 1] {a = U8.val} ;"
        )
        assert not report.streamable
        assert any(v.kind == "backward-dependency" for v in report.violations)

    def test_random_access_interval_is_flagged(self):
        report = analyze_streamability(toy.FIGURE_2)
        assert not report.streamable
        assert any(v.kind == "non-monotone-interval" for v in report.violations)
        assert "S" in report.violating_rules()

    def test_directory_based_formats_are_not_streamable(self):
        assert not analyze_streamability(elf.GRAMMAR).streamable
        assert not analyze_streamability(zipfmt.GRAMMAR).streamable

    def test_network_formats_are_streamable(self):
        # IPv4+UDP and DNS parse strictly left to right — the candidates the
        # paper's future-work stream parsers target.
        assert analyze_streamability(ipv4.GRAMMAR).streamable
        assert analyze_streamability(dns.GRAMMAR).streamable

    def test_gif_is_conservatively_rejected(self):
        # GIF's color-table sizes are computed from a parsed flags byte; the
        # analysis cannot tell a data-dependent length from a data-dependent
        # offset, so it conservatively reports the grammar as non-streamable.
        report = analyze_streamability(gif.GRAMMAR)
        assert not report.streamable
        assert "ImageBlock" in report.violating_rules() or "LSD" in report.violating_rules()

    def test_backward_arithmetic_on_positions_is_flagged(self):
        # Regression for a soundness hole: `X.end - k` was accepted as a
        # "forward" left endpoint because both operands looked forward, but
        # it re-reads bytes before an already consumed position.
        report = analyze_streamability(
            "S -> A[0, 8] B[A.end - 4, A.end] ; A -> Raw ; B -> Raw ;"
        )
        assert not report.streamable
        assert any(v.kind == "non-monotone-interval" for v in report.violations)

    def test_scaled_positions_are_flagged(self):
        # `X.end / 2` (and `X.end * k`) can shrink a position arbitrarily.
        for endpoint in ("A.end / 2", "A.end * 2", "A.end % 3", "A.end >> 1"):
            report = analyze_streamability(
                f"S -> A[0, 8] B[{endpoint}, EOI] ; A -> Raw ; B -> Raw ;"
            )
            assert not report.streamable, endpoint

    def test_forward_position_arithmetic_stays_accepted(self):
        # Sums of end-positions/constants only move forward; EOI - k is the
        # bounded tail of the stream and stays accepted (a stream parser
        # buffers it until the end arrives).
        for endpoint in ("A.end", "A.end + 2", "EOI - 2", "8"):
            report = analyze_streamability(
                f'S -> A[0, 2] B[{endpoint}, EOI] ; A -> "aa" ; B -> Raw ;'
            )
            assert report.streamable, endpoint

    def test_start_anchors_are_flagged(self):
        # X.start points back to where an earlier term *began*: a term
        # anchored there re-reads every byte of X.  Same for the bare
        # `start` special (the leftmost touched offset so far).
        for endpoint in ("A.start", "A.start + 1", "start"):
            report = analyze_streamability(
                f'S -> A[0, 4] B[{endpoint}, EOI] ; A -> Raw ; B -> Raw ;'
            )
            assert not report.streamable, endpoint

    def test_backwards_constant_sequences_are_flagged(self):
        # Each constant endpoint is individually "forward", but a constant
        # below an offset an earlier term already reached jumps backwards.
        report = analyze_streamability(
            'S -> U32LE[4, 8] "x"[0, 1] ;'
        )
        assert not report.streamable
        assert any("constant offset 0" in v.detail for v in report.violations)
        # Non-decreasing constant sequences stay accepted.
        assert analyze_streamability(
            'S -> U32LE[0, 4] "x"[4, 5] U16BE[5, 7] ;'
        ).streamable

    def test_eoi_after_shift_expression_streams(self):
        # Reflected shift operators on the unknown length: 1 << EOI must
        # suspend (and resolve at finish), not crash with a TypeError.
        from repro import Parser

        for backend in ("compiled", "interpreted"):
            parser = Parser('S -> "ab" {g = 1 << EOI} ;', backend=backend)
            assert parser.streamability_report().streamable
            tree = parser.parse_stream([b"a", b"b"])
            assert tree == parser.parse(b"ab")
            assert tree["g"] == 4

    def test_attribute_chains_are_classified_through_definitions(self):
        # A local attribute holding a backwards expression is caught even
        # when the interval references it by name.
        report = analyze_streamability(
            "S -> A[0, 8] {p = A.end - 4} B[p, A.end] ; A -> Raw ; B -> Raw ;"
        )
        assert not report.streamable
        report = analyze_streamability(
            "S -> A[0, 8] {p = A.end + 4} B[p, EOI] ; A -> Raw ; B -> Raw ;"
        )
        assert report.streamable

    def test_regression_grammar_that_rereads_earlier_bytes(self):
        # End-to-end: the flagged grammar really does move the cursor
        # backwards — B re-reads the middle of A's already consumed span —
        # so stream() must refuse it (while force=True still parses).
        from repro import NotStreamableError, Parser

        grammar = 'S -> A[0, 8] B[A.end - 4, A.end] ; A -> Raw ; B -> "wxyz" ;'
        parser = Parser(grammar)
        data = b"0123wxyz"
        with pytest.raises(NotStreamableError):
            parser.stream()
        chunks = [data[:5], data[5:]]
        assert parser.parse_stream(chunks, force=True, compact=False) == parser.parse(
            data
        )

    def test_checked_grammar_reanalysed_from_source(self):
        # Even after the attribute checker reordered terms, the analysis must
        # judge the original textual order.
        from repro.core.interpreter import prepare_grammar

        grammar = prepare_grammar(
            "S -> B1[0, B2.a] B2[a1, EOI] {a1 = 2} ; B1 -> Raw ; B2 -> U8[0, 1] {a = U8.val} ;"
        )
        assert not analyze_streamability(grammar).streamable


class TestCli:
    def test_formats_command(self, capsys):
        assert main(["formats"]) == 0
        output = capsys.readouterr().out
        for name in ("elf", "gif", "zip", "dns"):
            assert name in output

    def test_parse_with_bundled_format(self, capsys, tmp_path, elf_sample):
        path = tmp_path / "sample.elf"
        path.write_bytes(elf_sample)
        assert main(["parse", "--format", "elf", str(path)]) == 0
        assert "Section Headers:" in capsys.readouterr().out

    def test_parse_with_tree_output(self, capsys, tmp_path, ipv4_sample):
        path = tmp_path / "packet.bin"
        path.write_bytes(ipv4_sample)
        assert main(["parse", "--format", "ipv4", "--tree", str(path)]) == 0
        assert "IPv4Header" in capsys.readouterr().out

    def test_parse_with_grammar_file(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text('S -> "hi" Raw ;')
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"hi there")
        assert main(["parse", "--grammar", str(grammar), str(payload)]) == 0
        assert "S" in capsys.readouterr().out

    def test_parse_failure_exit_code(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text('S -> "hi" ;')
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"nope")
        # 12 = EXIT_GUARD: batch rejections exit with their error class
        # (the compact streaming path below cannot classify, so stays 1).
        assert main(["parse", "--grammar", str(grammar), str(payload)]) == 12

    def test_parse_unknown_format(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"x")
        assert main(["parse", "--format", "tar", str(payload)]) == 2

    def test_check_command_accepts_good_grammar(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text(toy.FIGURE_3)
        assert main(["check", str(grammar)]) == 0
        assert "terminates" in capsys.readouterr().out

    def test_check_command_rejects_nonterminating_grammar(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text(toy.NON_TERMINATING_MUTUAL)
        assert main(["check", str(grammar)]) == 1
        assert "non-termination" in capsys.readouterr().out

    def test_generate_alias_is_gone(self, capsys, tmp_path):
        # The deprecated `generate` alias of `compile` completed its one
        # release of grace and is removed.
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text(toy.FIGURE_1)
        with pytest.raises(SystemExit):
            main(["generate", str(grammar)])
        assert "invalid choice: 'generate'" in capsys.readouterr().err

    def test_compile_command_writes_parser(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text(toy.FIGURE_1)
        output = tmp_path / "parser.py"
        assert main(["compile", str(grammar), "-o", str(output)]) == 0
        source = output.read_text()
        assert "def try_parse" in source
        compile(source, str(output), "exec")

    def test_compile_explain_shows_struct_plans(self, capsys):
        assert main(["compile", "--format", "elf", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Sym" in out and "'<IBBHQQ'" in out
        assert main(["compile", "--format", "zip", "--explain"]) == 0
        assert "fixed prefix" in capsys.readouterr().out

    def test_explain_shapes_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--format", "elf", "--explain-shapes"])
        assert "unrecognized arguments: --explain-shapes" in capsys.readouterr().err

    def test_streamability_command(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text(toy.FIGURE_2)
        assert main(["streamability", str(grammar)]) == 1
        assert "not streamable" in capsys.readouterr().out

    def test_streamability_command_on_streamable_grammar(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text('S -> "x" Raw ;')
        assert main(["streamability", str(grammar)]) == 0

    def test_streamability_command_accepts_format_names(self, capsys):
        # Mirrors parse's interface: bundled formats work without a file.
        assert main(["streamability", "--format", "dns"]) == 0
        assert "streamable" in capsys.readouterr().out
        assert main(["streamability", "--format", "zip"]) == 1
        assert "not streamable" in capsys.readouterr().out

    def test_streamability_command_unknown_format(self):
        assert main(["streamability", "--format", "tar"]) == 2

    def test_parse_stream_flag(self, capsys, tmp_path, ipv4_sample):
        path = tmp_path / "packet.bin"
        path.write_bytes(ipv4_sample)
        assert main(
            ["parse", "--format", "ipv4", "--stream", "--chunk-size", "7", str(path)]
        ) == 0
        assert "destination" in capsys.readouterr().out

    def test_parse_stream_flag_rejects_non_streamable_format(
        self, capsys, tmp_path, elf_sample
    ):
        path = tmp_path / "sample.elf"
        path.write_bytes(elf_sample)
        assert main(["parse", "--format", "elf", "--stream", str(path)]) == 1
        assert "not streamable" in capsys.readouterr().err

    def test_parse_stream_failure_exit_code(self, capsys, tmp_path):
        grammar = tmp_path / "grammar.ipg"
        grammar.write_text('S -> "hi" ;')
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"nope")
        assert main(["parse", "--grammar", str(grammar), "--stream", str(payload)]) == 1
        assert "parse failed" in capsys.readouterr().err


def test_parse_reports_grammar_errors_without_traceback(tmp_path, capsys):
    from repro.cli import main

    grammar = tmp_path / "bad.ipg"
    grammar.write_text("S -> broken {")
    payload = tmp_path / "input.bin"
    payload.write_bytes(b"x")
    assert main(["parse", "--grammar", str(grammar), str(payload)]) == 1
    assert "error:" in capsys.readouterr().err
