"""Tests for the tree-elision execution modes (``emit="spans"`` / ``None``).

The cross-engine matrix asserts spans/validate agreement on every input it
checks; this module covers the API surface itself — return types, the
``accepts`` fast path, streaming sessions, blackbox behaviour under
elision, the CLI flags, and the guarantee that elided parses never hand
out anything tree-shaped beyond the env-carrying root.
"""

import pytest

from engine_matrix import format_sample
from repro import Parser
from repro.cli import main as cli_main
from repro.core.compiler import compile_grammar
from repro.core.errors import IPGError, ParseFailure
from repro.formats import registry

FORMATS = ("dns", "ipv4", "gif", "elf", "pe", "zip", "pdf")


def build(fmt: str, **kwargs) -> Parser:
    spec = registry[fmt]
    return Parser(spec.grammar_text, blackboxes=dict(spec.blackboxes), **kwargs)


class TestParserEmitAPI:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_spans_env_matches_tree_root(self, fmt, backend):
        parser = build(fmt, backend=backend)
        data = format_sample(fmt)
        tree = parser.parse(data)
        spans = parser.parse(data, emit="spans")
        assert spans.name == tree.name
        assert spans.env == tree.env
        assert list(spans.children) == []

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_validate_accepts_exactly_what_tree_mode_accepts(self, fmt):
        parser = build(fmt)
        data = format_sample(fmt)
        assert parser.parse(data, emit=None) is True
        truncated = data[: len(data) // 2]
        assert parser.try_parse(truncated, emit=None) is None
        assert parser.try_parse(truncated) is None

    def test_accepts_uses_the_fast_path(self):
        parser = build("gif")
        data = format_sample("gif")
        # accepts() runs on the elided compilation, never the tree engine.
        lookups = []
        engine = parser._engine
        parser._engine = lambda **variant: lookups.append(variant) or engine(
            **variant
        )
        assert parser.accepts(data)
        assert not parser.accepts(data[:-1])
        assert lookups == [{"tree": False}, {"tree": False}]

    def test_unknown_emit_mode_raises(self):
        parser = build("gif")
        with pytest.raises(ValueError):
            parser.try_parse(b"", emit="forest")
        with pytest.raises(ValueError):
            parser.stream(emit="forest")

    def test_parse_failure_still_raises(self):
        parser = build("gif")
        with pytest.raises(ParseFailure):
            parser.parse(b"definitely not a gif", emit=None)

    def test_elided_compilation_is_cached_and_marked(self):
        parser = build("gif")
        parser.parse(format_sample("gif"), emit=None)
        elided = parser._engine(tree=False)
        assert elided is parser._engine(tree=False)
        assert elided.elide_tree
        assert not parser._engine().elide_tree

    def test_builtin_start_symbol_is_elided_too(self):
        # The compiled fallback for a builtin start symbol must honour the
        # elision mode: no payload Leaf, same env as the interpreter.
        for backend in ("compiled", "interpreted"):
            parser = Parser('S -> "x"[0, 1] ;', backend=backend)
            spans = parser.parse(b"\x07", start="U8", emit="spans")
            assert list(spans.children) == []
            assert spans.env["val"] == 7
            assert parser.parse(b"\x07", start="U8", emit=None) is True

    def test_spans_children_cannot_poison_shared_state(self):
        # Elided nodes share one empty-children sentinel; it must be
        # immutable so a caller cannot corrupt later parses through it.
        parser = build("gif")
        data = format_sample("gif")
        spans = parser.parse(data, emit="spans")
        with pytest.raises((AttributeError, TypeError)):
            spans.children.append("junk")
        assert list(parser.parse(data, emit="spans").children) == []

    def test_elided_aot_emission_round_trips(self):
        # An elided compilation now emits a standalone module whose parses
        # stay elided: env-carrying root, no children, no payload leaves.
        compiled = compile_grammar(registry["gif"].grammar_text, elide_tree=True)
        module = compiled.load_module("_emit_modes_elided_aot")
        data = format_sample("gif")
        reference = build("gif").parse(data, emit="spans")
        root = module.parse(data)
        assert root.name == reference.name
        assert root.env == reference.env
        assert list(root.children) == []
        assert module.try_parse(data[: len(data) // 2]) is None


class TestStreamingEmit:
    @pytest.mark.parametrize("fmt", ["dns", "ipv4"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_stream_spans_and_validate(self, fmt, chunk_size):
        parser = build(fmt)
        data = format_sample(fmt)
        chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
        tree = parser.parse(data)
        spans = parser.parse_stream(iter(chunks), emit="spans")
        assert spans.name == tree.name and spans.env == tree.env
        assert parser.parse_stream(iter(chunks), emit=None) is True

    def test_stream_validate_failure_raises(self):
        parser = build("dns")
        with pytest.raises(ParseFailure):
            parser.parse_stream([b"\x00"], emit=None)

    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    def test_dispatch_does_not_defeat_stream_compaction(self, backend):
        # A recursive spine rule with a pruning dispatch table stays
        # in-flight across every re-entry; its dispatch decision must be
        # cached, not re-read, or the compaction watermark pins at the
        # spine's window start and the whole stream stays buffered.
        grammar = (
            "S -> Items[0, EOI] ; "
            'Items -> Pair Items[Pair.end, EOI] / Mark Items[Mark.end, EOI] '
            '/ ""[0, 0] ; '
            'Pair -> "p"[0, 1] U8[1, 2] {v = U8.val} ; '
            "Mark -> U8[0, 1] {t = U8.val} guard(t >= 128) ;"
        )
        parser = Parser(grammar, backend=backend)
        data = b"p\x01" * 2500 + b"\x80" * 5000
        session = parser.stream()
        for i in range(0, len(data), 128):
            session.feed(data[i : i + 128])
        tree = session.finish()
        # The spine is ~7500 rules deep; == recurses, so compare under a
        # raised limit (the engines themselves raise it while parsing).
        import sys

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100_000)
        try:
            assert tree == parser.parse(data)
        finally:
            sys.setrecursionlimit(limit)
        assert session.max_buffered < len(data) / 4, (
            f"{backend}: peak buffer {session.max_buffered} of {len(data)} — "
            f"dispatch reads pinned the compaction watermark"
        )

    def test_stream_session_finish_is_idempotent(self):
        parser = build("dns")
        data = format_sample("dns")
        session = parser.stream(emit=None)
        session.feed(data)
        assert session.finish() is True
        assert session.finish() is True


class TestElisionSemantics:
    def test_blackbox_still_runs_but_payload_is_dropped(self):
        calls = []

        def box(window):
            calls.append(bytes(window))
            return {"n": len(window)}

        grammar = "blackbox B ; S -> U8[0, 1] B[1, EOI] {k = B.n} ;"
        parser = Parser(grammar, blackboxes={"B": box})
        data = b"\x07payload"
        tree = parser.parse(data)
        spans = parser.parse(data, emit="spans")
        assert spans.env == tree.env
        assert calls == [b"payload", b"payload"]

    def test_failing_blackbox_error_survives_elision(self):
        def box(window):
            raise RuntimeError("boom")

        grammar = "blackbox B ; S -> B[0, EOI] ;"
        parser = Parser(grammar, blackboxes={"B": box})
        with pytest.raises(IPGError):
            parser.parse(b"xx", emit=None)

    def test_array_attribute_references_work_elided(self):
        # A(i).attr reads go through the env-list _aidx variant.
        grammar = (
            "S -> U8[0, 1] {n = U8.val} "
            "for i = 0 to n do E[1 + 2 * i, 3 + 2 * i] "
            "{sum = n > 1 ? E(0).v + E(1).v : 0} ; "
            "E -> U8[0, 1] {v = U8.val} U8[1, 2] ;"
        )
        parser = Parser(grammar)
        data = bytes([2, 10, 0, 32, 0])
        assert parser.parse(data, emit="spans").env["sum"] == 42
        assert parser.parse(data, emit="spans").env == parser.parse(data).env

    def test_interpreter_fallback_grammars_support_emit(self):
        # Call-site-dependent where-rule dispatch forces the interpreter
        # fallback; emit modes must keep working through _Run's build flag.
        grammar = """
        S -> M[0, EOI]
               where {
                 L -> X[0, 1] ;
                 M -> L[0, EOI] where { X -> "x"[0, 1] ; } ;
               } ;
        X -> "y"[0, 1] ;
        """
        parser = Parser(grammar)
        assert parser.backend == "interpreted"  # automatic fallback
        tree = parser.try_parse(b"x")
        spans = parser.try_parse(b"x", emit="spans")
        assert tree is not None
        assert spans.env == tree.env
        assert list(spans.children) == []
        assert parser.parse(b"x", emit=None) is True
        assert parser.try_parse(b"q", emit=None) is None


class TestCliModes:
    def test_validate_flag(self, tmp_path, capsys):
        sample = tmp_path / "sample.gif"
        sample.write_bytes(format_sample("gif"))
        assert cli_main(["parse", "--format", "gif", "--validate", str(sample)]) == 0
        assert "matches" in capsys.readouterr().out

    def test_validate_flag_rejects(self, tmp_path, capsys):
        sample = tmp_path / "bad.bin"
        sample.write_bytes(b"nope")
        # 10 = EXIT_TRUNCATED: rejections exit with their error class.
        assert cli_main(["parse", "--format", "gif", "--validate", str(sample)]) == 10

    def test_spans_flag(self, tmp_path, capsys):
        sample = tmp_path / "sample.dns"
        sample.write_bytes(format_sample("dns"))
        assert cli_main(["parse", "--format", "dns", "--spans", str(sample)]) == 0
        out = capsys.readouterr().out
        assert "DNS" in out and "touched bytes" in out

    def test_stream_validate_flag(self, tmp_path, capsys):
        sample = tmp_path / "sample.dns"
        sample.write_bytes(format_sample("dns"))
        assert (
            cli_main(
                [
                    "parse",
                    "--format",
                    "dns",
                    "--validate",
                    "--stream",
                    "--chunk-size",
                    "16",
                    str(sample),
                ]
            )
            == 0
        )
        assert "matches" in capsys.readouterr().out

    def test_tree_and_validate_are_mutually_exclusive(self, tmp_path):
        sample = tmp_path / "sample.gif"
        sample.write_bytes(format_sample("gif"))
        with pytest.raises(SystemExit):
            cli_main(["parse", "--format", "gif", "--tree", "--validate", str(sample)])
