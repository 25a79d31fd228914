"""Property-based tests for the compiler optimization passes.

Every combination of :class:`repro.core.compiler.Optimizations` flags must
compile every grammar to the *same* observable parser: identical trees,
identical failures.  This module fuzzes that claim over the paper's toy
grammars, the workload generators of ``test_property_based.py``, and a set
of adversarial shapes aimed at each pass — on the in-process closures and
on the ahead-of-time emitted module, batch and streamed — and checks that
emitted modules round-trip through both ``exec`` and a real ``importlib``
import.
"""

import importlib.util
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from engine_matrix import format_sample, load_aot_module
from repro import Parser, samples
from repro.core.backends.closures import _GrammarCompiler
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.interpreter import FAIL, prepare_grammar
from repro.formats import registry, toy

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every combination of the three pass flags: all-on, all-off, and each
#: pass individually disabled / enabled.
TOGGLE_CONFIGS = {
    "all": Optimizations(),
    "none": Optimizations.none(),
    "no-inline": Optimizations(inline_single_use=False),
    "no-dispatch": Optimizations(first_byte_dispatch=False),
    "no-bulk": Optimizations(bulk_fixed_shape=False),
    "only-inline": Optimizations(True, False, False),
    "only-dispatch": Optimizations(False, True, False),
    "only-bulk": Optimizations(False, False, True),
}
assert len(set(TOGGLE_CONFIGS.values())) == 2 ** len(fields(Optimizations))

#: The pass sets a stream compilation (``stream=True``) can differ by.  It
#: never inlines, so only first-byte dispatch (whose decisions the stream
#: variant memoizes per parse) and bulk decoding vary — the two toggles
#: ``Parser`` exposes.
STREAM_CONFIGS = ("all", "no-dispatch", "no-bulk", "none")
assert len({
    (TOGGLE_CONFIGS[c].first_byte_dispatch, TOGGLE_CONFIGS[c].bulk_fixed_shape)
    for c in STREAM_CONFIGS
}) == 4

#: Byte-at-a-time (a re-entry per byte) and a chunk that straddles fields.
STREAM_CHUNK_SIZES = (1, 7)

#: Shapes chosen to light up individual passes: single-use chains for the
#: inliner, recursion + EOI anchors for the memo specialization, where-rules
#: with loops for the closure-cell lists.
PASS_SENSITIVE_GRAMMARS = {
    "inline-chain": """
        S -> Hdr[0, 4] Body[4, EOI] ;
        Hdr -> Magic[0, 2] U16LE[2, 4] {n = U16LE.val} ;
        Magic -> "ab"[0, 2] ;
        Body -> Raw[0, EOI] {len = Raw.len} ;
    """,
    "eoi-recursion": """
        S -> Items[0, EOI] ;
        Items -> U8[0, 1] {n = U8.val} Items[1, EOI] / ""[0, 0] ;
    """,
    "mixed-windows": """
        S -> P[0, 4] P[2, 6] Tail[6, EOI] ;
        P -> U16LE[0, 2] {v = U16LE.val} U16LE[2, 4] {w = U16LE.val} ;
        Tail -> Raw[0, EOI] ;
    """,
    "where-loop": """
        S -> U8[0, 1] {n = U8.val}
             for i = 0 to n do E[1 + 2 * i, 3 + 2 * i]
             where { E -> U8[0, 1] {v = U8.val} U8[1, 2] {w = U8.val + 100 * i} ; } ;
    """,
    # Single-use rules reached through an array element and through switch
    # targets: the extended inliner expands all three site kinds.
    "inline-array-switch": """
        S -> U8[0, 1] {n = U8.val}
             for i = 0 to n do Elem[1 + 2 * i, 3 + 2 * i]
             U8[1 + 2 * n, 2 + 2 * n] {tag = U8.val}
             switch(tag = 1 : CaseA[2 + 2 * n, EOI] / CaseB[2 + 2 * n, EOI]) ;
        Elem -> U8[0, 1] {v = U8.val} U8[1, 2] {w = U8.val} ;
        CaseA -> Raw[0, EOI] {len = Raw.len} ;
        CaseB -> U8[0, 1] {b = U8.val} Raw[1, EOI] ;
    """,
    # Dispatch-sensitive shapes: disjoint first bytes, a guarded leading
    # byte, and an alternative that can match the empty window.
    "dispatch-choice": """
        S -> Items[0, EOI] ;
        Items -> Pair Items[Pair.end, EOI] / Mark Items[Mark.end, EOI] / ""[0, 0] ;
        Pair -> "p"[0, 1] U8[1, 2] {v = U8.val} ;
        Mark -> U8[0, 1] {t = U8.val} guard(t >= 128) ;
    """,
    # Bulk-sensitive shapes: a fused fixed prefix with a literal and guard,
    # plus a fixed-stride array the bulk pass lowers to iter_unpack.
    "bulk-records": """
        S -> "hd"[0, 2] U16LE[2, 4] {n = U16LE.val} guard(n < 1000)
             for i = 0 to n do Rec[4 + 6 * i, 4 + 6 * (i + 1)]
             Tail[4 + 6 * n, EOI] ;
        Rec -> U16LE {a = U16LE.val} U16LE {b = U16LE.val}
               U16LE {c = U16LE.val} guard(c != 9) ;
        Tail -> Raw[0, EOI] ;
    """,
}


def _compile_pair(grammar_text, config, blackboxes=None):
    compiled = compile_grammar(
        grammar_text, blackboxes=dict(blackboxes or {}), optimizations=config
    )
    interpreted = Parser(grammar_text, blackboxes=dict(blackboxes or {}),
                         backend="interpreted")
    return compiled, interpreted


def _assert_config_equivalent(grammar_text, config, data, blackboxes=None):
    compiled, interpreted = _compile_pair(grammar_text, config, blackboxes)
    expected = interpreted.try_parse(data)
    result = compiled.parse_nonterminal(
        bytes(data), compiled.grammar.start, 0, len(data)
    )
    if expected is None:
        assert result is FAIL
    else:
        assert result is not FAIL
        assert result == expected


class TestToggleEquivalence:
    @pytest.mark.parametrize("config", sorted(TOGGLE_CONFIGS))
    @pytest.mark.parametrize("name", sorted(PASS_SENSITIVE_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_pass_sensitive_grammars(self, config, name, data):
        _assert_config_equivalent(
            PASS_SENSITIVE_GRAMMARS[name], TOGGLE_CONFIGS[config], data
        )

    @pytest.mark.parametrize("config", sorted(TOGGLE_CONFIGS))
    @pytest.mark.parametrize("name", sorted(toy.ALL_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_toy_grammars(self, config, name, data):
        _assert_config_equivalent(toy.ALL_GRAMMARS[name], TOGGLE_CONFIGS[config], data)

    @pytest.mark.parametrize("config", sorted(TOGGLE_CONFIGS))
    @pytest.mark.parametrize("fmt", ["zip", "dns", "elf"])
    def test_format_grammars(self, config, fmt):
        spec = registry[fmt]
        _assert_config_equivalent(
            spec.grammar_text,
            TOGGLE_CONFIGS[config],
            format_sample(fmt),
            blackboxes=dict(spec.blackboxes),
        )

    @given(
        answers=st.integers(min_value=0, max_value=8),
        compress=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_dns_workloads_under_every_config(self, answers, compress):
        packet = samples.build_dns_response(
            answer_count=answers, use_compression=compress
        )
        for config in TOGGLE_CONFIGS.values():
            _assert_config_equivalent(registry["dns"].grammar_text, config, packet)


def _streamed_outcome(parse_stream, data, chunk_size, failure, error_base):
    """The outcome of streaming ``data`` in ``chunk_size`` pieces.

    A stream reports a non-match by raising ``failure`` where ``try_parse``
    returns None, so that maps to the same ``("none",)`` outcome.
    """
    data = bytes(data)
    chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
    try:
        tree = parse_stream(chunks)
    except failure:
        return ("none",)
    except error_base as exc:
        return ("error", type(exc).__name__)
    return ("tree", tree)


_STREAMING_CACHE = {}


def _streaming_pair(grammar_text, config, blackboxes=None):
    """(compiled Parser with ``config``'s toggles, reference interpreter)."""
    key = (grammar_text, config)
    if key not in _STREAMING_CACHE:
        opts = TOGGLE_CONFIGS[config]
        compiled = Parser(
            grammar_text,
            blackboxes=dict(blackboxes or {}),
            first_byte_dispatch=opts.first_byte_dispatch,
            bulk_fixed_shape=opts.bulk_fixed_shape,
        )
        assert compiled.backend == "compiled"
        _STREAMING_CACHE[key] = (
            compiled,
            Parser(grammar_text, blackboxes=dict(blackboxes or {}),
                   backend="interpreted"),
        )
    return _STREAMING_CACHE[key]


def _assert_streamed_equivalent(grammar_text, config, data, chunk_size,
                                blackboxes=None):
    from repro.core.errors import IPGError, ParseFailure

    compiled, interpreted = _streaming_pair(grammar_text, config, blackboxes)
    # Non-streamable grammars stream only when forced; compaction is only
    # guaranteed safe for the grammars the analysis accepts.
    compact = compiled.streamability_report().streamable
    expected = _outcome(interpreted.try_parse, bytes(data), IPGError)
    streamed = _streamed_outcome(
        lambda chunks: compiled.parse_stream(chunks, force=True, compact=compact),
        data, chunk_size, ParseFailure, IPGError,
    )
    assert streamed == expected


class TestStreamedToggleEquivalence:
    """The toggle fuzz again, through the in-process streaming driver.

    ``parse_stream`` re-enters the ``stream=True`` compilation after every
    chunk; under each dispatch/bulk setting it must still parse exactly
    like the reference interpreter.
    """

    @pytest.mark.parametrize("chunk_size", STREAM_CHUNK_SIZES)
    @pytest.mark.parametrize("config", STREAM_CONFIGS)
    @pytest.mark.parametrize("name", sorted(PASS_SENSITIVE_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=24))
    # Marks and pairs interleaved: consecutive dispatch decisions differ.
    @example(data=b"\x80p\x01\x81\x82p\x02")
    @settings(max_examples=30, deadline=None)
    def test_pass_sensitive_grammars(self, config, name, chunk_size, data):
        _assert_streamed_equivalent(
            PASS_SENSITIVE_GRAMMARS[name], config, data, chunk_size
        )

    @pytest.mark.parametrize("chunk_size", STREAM_CHUNK_SIZES)
    @pytest.mark.parametrize("config", STREAM_CONFIGS)
    @pytest.mark.parametrize("name", sorted(toy.ALL_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_toy_grammars(self, config, name, chunk_size, data):
        _assert_streamed_equivalent(toy.ALL_GRAMMARS[name], config, data, chunk_size)

    @pytest.mark.parametrize("chunk_size", STREAM_CHUNK_SIZES)
    @pytest.mark.parametrize("config", STREAM_CONFIGS)
    @pytest.mark.parametrize("fmt", ["zip", "dns", "elf"])
    def test_format_grammars(self, config, fmt, chunk_size):
        spec = registry[fmt]
        sample = format_sample(fmt)
        for data in (sample, sample[: len(sample) // 2]):
            _assert_streamed_equivalent(
                spec.grammar_text, config, data, chunk_size,
                blackboxes=dict(spec.blackboxes),
            )


_EMITTED_CACHE = {}


def _emitted_pair(grammar_text, config, blackboxes=None):
    """(emitted module, reference interpreter), built once per grammar/config."""
    key = (grammar_text, config)
    if key not in _EMITTED_CACHE:
        _EMITTED_CACHE[key] = (
            load_aot_module(
                grammar_text,
                blackboxes=dict(blackboxes or {}),
                optimizations=TOGGLE_CONFIGS[config],
            ),
            Parser(grammar_text, blackboxes=dict(blackboxes or {}),
                   backend="interpreted"),
        )
    return _EMITTED_CACHE[key]


def _outcome(try_parse, data, error_base):
    try:
        tree = try_parse(data)
    except error_base as exc:
        return ("error", type(exc).__name__)
    return ("none",) if tree is None else ("tree", tree)


def _assert_emitted_equivalent(grammar_text, config, data, blackboxes=None):
    from repro.core.errors import IPGError

    module, interpreted = _emitted_pair(grammar_text, config, blackboxes)
    data = bytes(data)
    expected = _outcome(interpreted.try_parse, data, IPGError)
    assert _outcome(module.try_parse, data, module.IPGError) == expected


def _assert_emitted_streamed_equivalent(grammar_text, config, data, chunk_size,
                                        blackboxes=None):
    from repro.core.errors import IPGError

    module, interpreted = _emitted_pair(grammar_text, config, blackboxes)
    expected = _outcome(interpreted.try_parse, bytes(data), IPGError)
    streamed = _streamed_outcome(
        lambda chunks: module.parse_stream(
            chunks, force=True, compact=module.STREAMABLE
        ),
        data, chunk_size, module.ParseFailure, module.IPGError,
    )
    assert streamed == expected


class TestEmittedToggleEquivalence:
    """The toggle fuzz again, through the emitted standalone module.

    ``to_source()`` renders every pass's artifacts (module-level where
    rules, dense memo tables, dispatch tables, fused decoders) as module
    text of its own; each combination must still parse exactly like the
    reference interpreter once the module is executed — through the batch
    entry points and through the embedded stream variant.
    """

    @pytest.mark.parametrize("config", sorted(TOGGLE_CONFIGS))
    @pytest.mark.parametrize("name", sorted(toy.ALL_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_toy_grammars(self, config, name, data):
        _assert_emitted_equivalent(toy.ALL_GRAMMARS[name], config, data)

    @pytest.mark.parametrize("config", sorted(TOGGLE_CONFIGS))
    @pytest.mark.parametrize("fmt", ["zip", "dns", "elf"])
    def test_format_grammars(self, config, fmt):
        spec = registry[fmt]
        sample = format_sample(fmt)
        for data in (sample, sample[: len(sample) // 2]):
            _assert_emitted_equivalent(
                spec.grammar_text, config, data, blackboxes=dict(spec.blackboxes)
            )

    @pytest.mark.parametrize("chunk_size", STREAM_CHUNK_SIZES)
    @pytest.mark.parametrize("config", STREAM_CONFIGS)
    @pytest.mark.parametrize("name", sorted(toy.ALL_GRAMMARS))
    @given(data=st.binary(min_size=0, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_streamed_toy_grammars(self, config, name, chunk_size, data):
        _assert_emitted_streamed_equivalent(
            toy.ALL_GRAMMARS[name], config, data, chunk_size
        )

    @pytest.mark.parametrize("chunk_size", STREAM_CHUNK_SIZES)
    @pytest.mark.parametrize("config", STREAM_CONFIGS)
    @pytest.mark.parametrize("fmt", ["zip", "dns", "elf"])
    def test_streamed_format_grammars(self, config, fmt, chunk_size):
        spec = registry[fmt]
        sample = format_sample(fmt)
        for data in (sample, sample[: len(sample) // 2]):
            _assert_emitted_streamed_equivalent(
                spec.grammar_text, config, data, chunk_size,
                blackboxes=dict(spec.blackboxes),
            )


class TestAOTRoundTrip:
    @pytest.mark.parametrize("config", ["all", "none", "only-inline"])
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_emitted_module_execs_and_parses(self, config, fmt):
        spec = registry[fmt]
        module = load_aot_module(
            spec.grammar_text,
            blackboxes=dict(spec.blackboxes),
            optimizations=TOGGLE_CONFIGS[config],
        )
        sample = format_sample(fmt)
        expected = spec.build_parser(backend="interpreted").parse(sample)
        assert module.parse(sample) == expected
        assert module.try_parse(sample[: max(len(sample) // 2, 1)]) is None

    def test_emitted_module_imports_from_disk(self, tmp_path):
        # The real importlib path (not just exec): the artifact story is a
        # .py file on disk that `import` picks up like any other module.
        spec = registry["gif"]
        source = compile_grammar(spec.grammar_text).to_source()
        path = tmp_path / "gif_parser.py"
        path.write_text(source, encoding="utf-8")
        loader_spec = importlib.util.spec_from_file_location("gif_parser_aot", path)
        module = importlib.util.module_from_spec(loader_spec)
        sys.modules["gif_parser_aot"] = module
        try:
            loader_spec.loader.exec_module(module)
            sample = format_sample("gif")
            expected = spec.build_parser(backend="interpreted").parse(sample)
            assert module.parse(sample) == expected
            assert module.START == compile_grammar(spec.grammar_text).grammar.start
        finally:
            del sys.modules["gif_parser_aot"]

    def test_emitted_source_is_deterministic(self):
        spec = registry["dns"]
        first = compile_grammar(spec.grammar_text).to_source()
        second = compile_grammar(spec.grammar_text).to_source()
        assert first == second

    def test_new_plan_never_inherits_a_freed_plans_uid(self):
        # Plans built for one bulk array can be dropped mid-compilation;
        # CPython then hands the next same-sized object the freed address.
        # Numbering must follow first use, not whichever id is current.
        compiler = _GrammarCompiler(prepare_grammar(toy.FIGURE_3))
        uids = []
        for _ in range(32):
            plan = types.SimpleNamespace(uid=None)
            compiler._assign_plan_uid(plan)
            uids.append(plan.uid)
            del plan
        assert uids == list(range(32))
        kept = types.SimpleNamespace(uid=None)
        compiler._assign_plan_uid(kept)
        compiler._assign_plan_uid(kept)
        assert kept.uid == 32

    def test_elf_source_is_identical_across_interpreters(self):
        # Address reuse differs run to run, so only fresh processes show
        # whether emitted names depend on it.  Tree and elided modes both.
        script = (
            "import hashlib\n"
            "from repro.core.compiler import compile_grammar\n"
            "from repro.formats import registry\n"
            "spec = registry['elf']\n"
            "for elide in (False, True):\n"
            "    source = compile_grammar(spec.grammar_text, "
            "blackboxes=dict(spec.blackboxes), elide_tree=elide).to_source()\n"
            "    print(hashlib.sha256(source.encode()).hexdigest())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(6)
        ]
        digests = {run.communicate(timeout=120)[0] for run in runs}
        assert all(run.returncode == 0 for run in runs)
        assert len(digests) == 1, digests

    @given(value=st.integers(min_value=0, max_value=2**24 - 1))
    @settings(max_examples=25, deadline=None)
    def test_aot_binary_numbers_fuzz(self, value):
        module = load_aot_module(toy.FIGURE_3)
        text = format(value, "b").encode()
        assert module.parse(text)["val"] == value


class TestOptimizationReporting:
    def test_memo_modes_reflect_passes(self):
        grammar = PASS_SENSITIVE_GRAMMARS["eoi-recursion"]
        full = compile_grammar(grammar)
        # Items recurses with an EOI-pinned right endpoint: dense key.
        assert full.memo_modes["Items"] == "dense"
        # S is non-recursive: memo elided.
        assert full.memo_modes["S"] == "skipped"
        # Memo specialization is not a pass: turning every pass off keeps it.
        baseline = compile_grammar(grammar, optimizations=Optimizations.none())
        assert baseline.memo_modes == full.memo_modes
        # The stream variant memoizes S too (anchored at EOI: dense key).
        streaming = compile_grammar(grammar, stream=True)
        assert streaming.memo_modes == {"S": "dense", "Items": "dense"}
        unmemoized = compile_grammar(grammar, memoize=False)
        assert set(unmemoized.memo_modes.values()) == {"unmemoized"}

    def test_single_use_rule_remains_entry_callable(self):
        # An inlined rule must stay individually parseable (parse start=...).
        grammar = PASS_SENSITIVE_GRAMMARS["inline-chain"]
        compiled = compile_grammar(grammar)
        result = compiled.parse_nonterminal(b"ab\x01\x00", "Hdr", 0, 4)
        assert result is not FAIL
        assert result["n"] == 1

    def test_inliner_covers_array_and_switch_sites(self):
        # The extended inliner expands single-use rules referenced as array
        # elements and as switch-case targets, not only plain nonterminals.
        compiled = compile_grammar(PASS_SENSITIVE_GRAMMARS["inline-array-switch"])
        assert {"Elem", "CaseA", "CaseB"} <= compiled.inlined_rules
        baseline = compile_grammar(
            PASS_SENSITIVE_GRAMMARS["inline-array-switch"],
            optimizations=Optimizations(inline_single_use=False),
        )
        assert baseline.inlined_rules == frozenset()

    def test_dispatch_tables_reported_and_emitted(self):
        compiled = compile_grammar(PASS_SENSITIVE_GRAMMARS["dispatch-choice"])
        assert "Items" in compiled.dispatched_rules
        assert "_fbt_r1_Items" in compiled.source  # the 256-entry tuple table
        off = compile_grammar(
            PASS_SENSITIVE_GRAMMARS["dispatch-choice"],
            optimizations=Optimizations(first_byte_dispatch=False),
        )
        assert off.dispatched_rules == frozenset()
        assert "_fbt_" not in off.source
