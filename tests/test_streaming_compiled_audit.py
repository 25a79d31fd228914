"""Audit of the compiled backend's whole-buffer assumptions under streaming.

The staged compiler was written against a complete ``bytes`` input.  This
suite documents every place the generated code (or its runtime) could have
assumed "the buffer is the whole file" and pins the correct behaviour over
a growing :class:`~repro.core.streaming.StreamBuffer`:

1.  **Inlined fixed-width integers** (the ``btoi`` specialization) slice
    ``data[p : p + width]`` and decode with ``int.from_bytes``.  On a short
    ``bytes`` buffer the slice would silently shrink and decode a *wrong
    value* — the emitted interval/width guards must make that unreachable,
    and on a stream the slice must suspend instead of decoding a prefix.

2.  **Inlined terminal matches** rely on Python's slice-clipping for the
    off-the-end case (short slice ≠ literal → FAIL).  A stream must not
    turn "bytes not yet fed" into that FAIL — it suspends instead, and only
    clips once the true end of input is known.

3.  **EOI-relative windows**: the generated interval checks compare against
    ``hi - lo``, never ``len(data)``, so they stay correct when ``hi`` is
    the (unresolved) end-of-stream proxy.

4.  **Memo tables** are keyed ``(lo, hi)`` per rule and allocated per parse
    in ``CompiledGrammar.parse_nonterminal`` — not sized from ``len(data)``.
    The streaming driver instead keeps one state alive across re-entries;
    batch parses on the same Parser must stay isolated from an in-flight
    streaming session.

5.  **Zero-copy builtins** (``Raw``) compute attributes from ``hi - lo``;
    over an EOI-bounded window that value is unknown until the stream ends
    and must be resolved (to a plain ``int``) in the final tree.
"""

import pytest

from repro import NeedMoreInput, Parser
from repro.core.streaming import StreamBuffer

from streaming_helpers import chunked

BACKENDS = ("compiled", "interpreted")


class TestFixedIntWindows:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_window_fails_instead_of_misdecoding(self, backend):
        # 1. Two bytes of input for a U32LE: the interval guard must FAIL
        # the parse; a naive inlined int.from_bytes over the clipped slice
        # would "successfully" decode 0x0201.
        parser = Parser("S -> U32LE[0, 4] {v = U32LE.val} ;", backend=backend)
        assert parser.try_parse(b"\x01\x02") is None
        assert parser.try_parse(b"\x01\x02\x03\x04")["v"] == 0x04030201

    def test_stream_suspends_rather_than_decoding_a_prefix(self):
        # 1./2. With only 2 of 4 bytes fed, the fixed-int read suspends; it
        # must never decode the partial window.
        parser = Parser("S -> U32LE {v = U32LE.val} ;")
        session = parser.stream()
        assert session.feed(b"\x01\x02") is False
        assert not session.done
        assert session.feed(b"\x03\x04") is True
        assert session.finish()["v"] == 0x04030201

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_split_terminal_is_not_failed_early(self, backend):
        # 2. "ABCD" with only "AB" fed: a bytes buffer would clip the slice
        # and mismatch; the stream suspends and matches once fed.
        parser = Parser('S -> "ABCD" ;', backend=backend)
        session = parser.stream()
        assert session.feed(b"AB") is False
        assert session.feed(b"CD") is True
        assert session.finish() == parser.parse(b"ABCD")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_short_input_still_fails_at_finish(self, backend):
        from repro import ParseFailure

        parser = Parser('S -> "ABCD" ;', backend=backend)
        session = parser.stream()
        session.feed(b"AB")
        with pytest.raises(ParseFailure):
            session.finish()


class TestEOIRelativeWindows:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fixed_int_over_eoi_bounded_window(self, backend):
        # 3. An auto-completed builtin window is [prev.end, EOI]: the
        # emitted width check `EOI - left >= 4` is against the window, not
        # len(data), and decides as soon as enough bytes arrived.
        parser = Parser('S -> "go" U32BE {v = U32BE.val} ;', backend=backend)
        data = b"go\x00\x00\x00\x2a___trailing___"
        for size in (1, 3, len(data)):
            assert parser.parse_stream(chunked(data, size)) == parser.parse(data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eoi_anchored_terminal_buffers_the_tail(self, backend):
        # 3. [EOI - 2, EOI] cannot be located before the end is known: the
        # session must stay suspended through every chunk and resolve the
        # read only at finish().
        parser = Parser('S -> "aa" B[EOI - 2, EOI] ; B -> "bb" ;', backend=backend)
        data = b"aa" + b"x" * 50 + b"bb"
        session = parser.stream()
        for chunk in chunked(data, 8):
            assert session.feed(chunk) is False
        assert session.finish() == parser.parse(data)


class TestMemoIsolation:
    def test_batch_parse_does_not_disturb_streaming_session(self):
        # 4. The streaming session's persistent memo state and any
        # interleaved batch parse must not observe each other.
        parser = Parser('S -> "MAGIC" U32LE {n = U32LE.val} Raw[n] ;')
        data = b"MAGIC" + (6).to_bytes(4, "little") + b"sixsix"
        session = parser.stream()
        session.feed(data[:7])
        # Interleave batch parses (fresh memo state per call).
        assert parser.parse(data) == parser.parse(data)
        session.feed(data[7:])
        assert session.finish() == parser.parse(data)

    def test_concurrent_sessions_are_independent(self):
        parser = Parser('S -> "ab" U16BE {v = U16BE.val} ;')
        first = parser.stream()
        second = parser.stream()
        first.feed(b"ab\x00")
        second.feed(b"ab\x01")
        first.feed(b"\x2a")
        second.feed(b"\x00")
        assert first.finish()["v"] == 0x2A
        assert second.finish()["v"] == 0x100

    def test_reentry_uses_memo_not_reparse(self):
        # 4. Completed sub-parses must be replayed as memo hits: the memo
        # table of the session's state is shared across attempts, so the
        # number of entries stays flat however many re-entries happen.
        parser = Parser('S -> A[0, 2] A2[2, 4] B[4, EOI] ; '
                        'A -> "aa" ; A2 -> A[0, 2] ; B -> "bb" ;')
        data = b"aaaabb"
        session = parser.stream()
        for chunk in chunked(data, 1):
            session.feed(chunk)
        tree = session.finish()
        assert tree == parser.parse(data)
        assert session.attempts <= len(data) + 1
        # The compiled state holds one dict per memoized rule — keyed by
        # (lo, hi), or by bare lo for EOI-anchored rules — plus the fuel
        # cell when limits are on.  Entries accumulate per *window*, not
        # per attempt.
        assert session._state is not None
        fuel_slot = session._compiled.fuel_slot
        for index, table in enumerate(session._state):
            if index == fuel_slot:
                continue
            assert isinstance(table, dict)
            assert len(table) <= 2


class TestZeroCopyBuiltins:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raw_attributes_resolved_after_finish(self, backend):
        # 5. Raw over [x, EOI): len/val are EOI-dependent; the final tree
        # must carry plain ints equal to the batch parse's.
        parser = Parser('S -> "h" Raw {n = Raw.len} ;', backend=backend)
        data = b"h" + b"payload bytes"
        tree = parser.parse_stream(chunked(data, 3))
        assert tree == parser.parse(data)
        assert tree["n"] == len(data) - 1
        assert type(tree["n"]) is int


class TestBufferContract:
    def test_len_is_the_total_stream_length(self):
        # The engines never call len(data); the buffer still implements it
        # for user code, as the *stream* length (unknown until finished).
        buffer = StreamBuffer()
        buffer.feed(b"abc")
        with pytest.raises(NeedMoreInput):
            len(buffer)
        buffer.finish()
        assert len(buffer) == 3

    def test_generated_source_reads_are_window_relative(self):
        # 3./4. Source-level audit: the generated module must not reference
        # len(data) or materialize the whole buffer.
        parser = Parser('S -> "x" U32LE Raw[U32LE.val] B[EOI - 1, EOI] ; B -> "!" ;')
        source = parser._engine().source
        assert "len(data)" not in source
        assert "bytes(data)" not in source
