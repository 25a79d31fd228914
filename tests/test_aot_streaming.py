"""Streaming parity for ahead-of-time emitted modules.

``to_source()`` modules embed a vendored streaming runtime plus a
stream-specialized variant of the grammar (re-compiled with the
stream-safe pass set).  This module pins the parity contract: for streamable
grammars the emitted module's ``stream()`` / ``parse_stream()`` produce
the same trees as its own batch entry points and as the in-process
engines, across record-straddling chunk sizes, with bounded buffering
and an idempotent ``finish()``.  Non-streamable grammars must refuse
with the vendored ``NotStreamableError``.
"""

import pytest

from engine_matrix import format_sample, matrix_for
from repro.core.compiler import compile_grammar
from repro.formats import registry

STREAMABLE_FORMATS = ("dns", "ipv4")
CHUNK_SIZES = (1, 7, 23)

_SEQ = [0]


def _closure_module(fmt: str):
    spec = registry[fmt]
    _SEQ[0] += 1
    return compile_grammar(
        spec.grammar_text, blackboxes=dict(spec.blackboxes)
    ).load_module(f"_aot_stream_closure_{_SEQ[0]}")


MODULE_BUILDERS = {"closure": _closure_module}


@pytest.fixture(scope="module", params=sorted(MODULE_BUILDERS))
def flavor(request):
    return request.param


class TestEmittedModuleStreaming:
    @pytest.mark.parametrize("fmt", STREAMABLE_FORMATS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_parse_stream_matches_batch(self, flavor, fmt, chunk_size):
        module = MODULE_BUILDERS[flavor](fmt)
        assert module.STREAMABLE
        data = format_sample(fmt)
        expected = module.parse(data)
        spec = registry[fmt]
        matrix = matrix_for(spec.grammar_text, dict(spec.blackboxes))
        assert expected == matrix.run("interpreted", data, None)[1]
        chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
        assert module.parse_stream(chunks) == expected

    @pytest.mark.parametrize("fmt", STREAMABLE_FORMATS)
    def test_session_feed_finish_is_idempotent(self, flavor, fmt):
        module = MODULE_BUILDERS[flavor](fmt)
        data = format_sample(fmt)
        session = module.stream()
        for i in range(0, len(data), 7):
            session.feed(data[i : i + 7])
        tree = session.finish()
        assert tree == module.parse(data)
        assert session.finish() == tree

    @pytest.mark.parametrize("fmt", STREAMABLE_FORMATS)
    def test_compaction_bounds_the_buffer(self, flavor, fmt):
        module = MODULE_BUILDERS[flavor](fmt)
        data = format_sample(fmt)
        session = module.stream()
        peak = 0
        for i in range(len(data)):
            session.feed(data[i : i + 1])
            peak = max(peak, len(session.buffer._data))
        session.finish()
        # One chunk plus the largest suspended term — far below the input.
        assert peak < len(data)

    @pytest.mark.parametrize("fmt", STREAMABLE_FORMATS)
    def test_truncated_stream_fails_like_batch(self, flavor, fmt):
        module = MODULE_BUILDERS[flavor](fmt)
        data = format_sample(fmt)
        truncated = data[: len(data) // 2]
        try:
            module.parse(truncated)
            batch = ("tree",)
        except module.ParseFailure as exc:
            batch = (type(exc).__name__,)
        chunks = [truncated[i : i + 7] for i in range(0, len(truncated), 7)]
        try:
            module.parse_stream(chunks, compact=False)
            streamed = ("tree",)
        except module.ParseFailure as exc:
            streamed = (type(exc).__name__,)
        assert streamed == batch

    def test_non_streamable_module_refuses(self, flavor):
        module = MODULE_BUILDERS[flavor]("gif")
        assert not module.STREAMABLE
        with pytest.raises(module.NotStreamableError):
            module.stream()
        with pytest.raises(module.NotStreamableError):
            module.parse_stream([format_sample("gif")])

    def test_set_limits_reaches_the_stream_engine(self, flavor):
        # dns only: ipv4 has no recursive rules, so nothing consumes fuel
        # and a tiny max_steps budget can never trip.
        fmt = "dns"
        module = MODULE_BUILDERS[flavor](fmt)
        data = format_sample(fmt)
        module.set_limits(max_steps=2)
        try:
            with pytest.raises(module.LimitExceeded):
                module.parse_stream(
                    [data[i : i + 7] for i in range(0, len(data), 7)]
                )
        finally:
            module.set_limits(max_steps=10_000_000)
        assert module.parse_stream([data]) == module.parse(data)
