"""Reusable cross-engine differential harness.

The repository ships several executions of the same IPG semantics:

* ``interpreted`` — the reference tree-walking interpreter: the plain
  semantics every optimized engine is compared against,
* ``compiled`` — the staged closure compiler (the default engine, with
  dispatch tables and fixed-shape vectorization),
* ``compiled-nobulk`` — the compiler with only ``bulk_fixed_shape`` off
  (the bulk-on/bulk-off differential pair),
* ``compiled-unoptimized`` — the compiler with every optimization pass off,
* ``aot`` — the ahead-of-time emitted standalone module
  (``CompiledGrammar.to_source()``), imported through ``exec``,
* ``streaming`` — ``Parser.parse_stream`` over chunked input (only for
  grammars the §8 analysis accepts; chunk sizes deliberately straddle
  fixed-shape record boundaries).

(The ``generated`` engine — the retired dict-env parser generator — left
the matrix when that generator was deleted in favour of the AOT emitter;
``aot`` covers that execution path.)

This module builds all of them for one ``(grammar, blackboxes)`` pair and
asserts that every engine produces **identical trees or identical errors**
on the same input.  ``test_compiler_equivalence.py``, ``test_cross_engine.py``,
``test_compiler_passes.py`` and ``test_golden_trees.py`` all drive their
checks through here instead of maintaining ad-hoc comparison loops.

On top of the tree contract, :meth:`EngineMatrix.assert_agree` also runs
every emit-capable engine (interpreter, staged compiler,
unoptimized-elided compiler, chunked streaming) in the
``emit="spans"`` and validate-only tree-elision modes and checks the root
(name, env) — respectively the accept/reject outcome — against the full
tree the reference interpreter produced.
"""

from __future__ import annotations

import types
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro import Parser, samples
from repro.core.buffers import as_buffer
from repro.core.compiler import Optimizations, compile_grammar
from repro.core.errors import BlackboxError, IPGError, ParseFailure
from repro.core.streamability import analyze_streamability

#: Engines every grammar can run on (streaming joins when streamable).
CORE_ENGINES = (
    "interpreted",
    "compiled",
    "compiled-nobulk",
    "compiled-unoptimized",
    "aot",
)
ALL_ENGINES = CORE_ENGINES + ("streaming",)

#: Module-level cache: building an engine set runs the whole front-end
#: pipeline (plus an exec for the AOT module), so sharing across tests and
#: hypothesis examples keeps the suite fast.
_MATRIX_CACHE: Dict[tuple, "EngineMatrix"] = {}

_AOT_SEQ = [0]


def load_aot_module(
    grammar_text: str,
    blackboxes: Optional[dict] = None,
    memoize: bool = True,
    optimizations: Optional[Optimizations] = None,
) -> types.ModuleType:
    """Emit a grammar ahead of time and import the module through ``exec``."""
    compiled = compile_grammar(
        grammar_text,
        memoize=memoize,
        blackboxes=dict(blackboxes or {}),
        optimizations=optimizations,
    )
    _AOT_SEQ[0] += 1
    return compiled.load_module(f"_aot_matrix_{_AOT_SEQ[0]}")


class EngineMatrix:
    """All engines for one grammar, each exposed as ``run(data, start)``.

    ``run`` returns ``("tree", node)``, ``("none",)`` for a clean
    non-match, or ``("error", exception_type)`` for a raised
    :class:`~repro.core.errors.IPGError` — the three outcomes the
    equivalence contract compares.
    """

    def __init__(
        self,
        grammar_text: str,
        blackboxes: Optional[dict] = None,
        memoize: bool = True,
        expect_compiled: bool = True,
        chunk_sizes: Tuple[int, ...] = (1, 7, 23),
    ):
        blackboxes = dict(blackboxes or {})
        self.grammar_text = grammar_text
        self.chunk_sizes = chunk_sizes
        self._memoize = memoize
        self._blackboxes = blackboxes
        self.interpreted = Parser(
            grammar_text, blackboxes=blackboxes, memoize=memoize, backend="interpreted"
        )
        self.compiled = Parser(
            grammar_text, blackboxes=blackboxes, memoize=memoize, backend="compiled"
        )
        if expect_compiled:
            assert self.compiled.backend == "compiled", (
                "compiler fell back to the interpreter; the differential "
                "matrix would be vacuous"
            )
        if self.compiled.backend == "compiled":
            self.unoptimized = compile_grammar(
                grammar_text,
                memoize=memoize,
                blackboxes=blackboxes,
                optimizations=Optimizations.none(),
            )
            self.nobulk = compile_grammar(
                grammar_text,
                memoize=memoize,
                blackboxes=blackboxes,
                optimizations=Optimizations(bulk_fixed_shape=False),
            )
            self.aot = load_aot_module(grammar_text, blackboxes, memoize=memoize)
        else:
            # The compiler refused this grammar (automatic interpreter
            # fallback); only the non-compiled engines participate.
            self.unoptimized = None
            self.nobulk = None
            self.aot = None
        self.streamable = analyze_streamability(grammar_text).streamable
        #: Lazily built: the unoptimized tree-elision compilation used by
        #: the emit-mode differential (see _elided_unoptimized()).
        self._elided_unopt = None
        self._runners: Dict[str, Callable] = {
            "interpreted": self._run_parser(self.interpreted),
            "compiled": self._run_parser(self.compiled),
            "streaming": self._run_streaming,
        }
        if self.unoptimized is not None:
            self._runners["compiled-unoptimized"] = self._run_compiled_grammar(
                self.unoptimized
            )
            self._runners["compiled-nobulk"] = self._run_compiled_grammar(
                self.nobulk
            )
            self._runners["aot"] = self._run_aot

    # -- engine runners ----------------------------------------------------
    @staticmethod
    def _run_parser(parser):
        def run(data, start):
            try:
                tree = parser.try_parse(data, start)
            except IPGError as exc:
                return ("error", type(exc))
            return ("tree", tree) if tree is not None else ("none",)

        return run

    @staticmethod
    def _run_compiled_grammar(compiled):
        from repro.core.interpreter import FAIL

        def run(data, start):
            name = start or compiled.grammar.start
            try:
                result = compiled.parse_nonterminal(as_buffer(data), name, 0, len(data))
            except IPGError as exc:
                return ("error", type(exc))
            return ("none",) if result is FAIL else ("tree", result)

        return run

    def _run_aot(self, data, start):
        try:
            tree = self.aot.try_parse(data, start)
        except self.aot.IPGError as exc:
            # The standalone module raises its own (vendored or re-used)
            # hierarchy; compare by class name.
            return ("error", type(exc))
        return ("tree", tree) if tree is not None else ("none",)

    def _run_streaming(self, data, start):
        outcomes = []
        for chunk_size in self.chunk_sizes:
            chunks = [
                data[i : i + chunk_size] for i in range(0, len(data), chunk_size)
            ]
            try:
                tree = self.compiled.parse_stream(chunks or [b""], start)
            except ParseFailure:
                outcomes.append(("none",))
            except IPGError as exc:
                outcomes.append(("error", type(exc)))
            else:
                outcomes.append(("tree", tree))
        # Every chunking must behave identically before the caller compares
        # the (first) outcome against the reference interpreter.
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0], (
                f"streaming outcome depends on the chunking: "
                f"{outcomes[0][0]} (chunk={self.chunk_sizes[0]}) vs "
                f"{outcome[0]} (other chunk size)"
            )
        return outcomes[0]

    # -- structured-error agreement ----------------------------------------
    def error_engines(self) -> Tuple[str, ...]:
        """Engines with a *raising* entry point (streaming checked apart)."""
        names = ["interpreted", "compiled"]
        if self.unoptimized is not None:
            names += ["compiled-nobulk", "compiled-unoptimized", "aot"]
        return tuple(names)

    def error_outcome(self, engine: str, data: bytes, start: Optional[str] = None):
        """``(class_name, offset)`` from an engine's raising entry point.

        Returns ``("tree",)`` when the input parses.  Uses the structured
        error taxonomy contract: every engine diagnoses a failed parse to
        the same :class:`~repro.core.errors.ParseFailure` subclass at the
        same furthest-failure byte offset (the AOT module may raise its
        vendored hierarchy, which matches by class name).  A *raising*
        blackbox callable surfaces as ``("BlackboxError", None)`` — every
        engine invokes the same callable on the same window, so that
        outcome is deterministic too.
        """
        data = bytes(data)
        try:
            if engine in ("interpreted", "compiled"):
                parser = {
                    "interpreted": self.interpreted,
                    "compiled": self.compiled,
                }[engine]
                parser.parse(data, start)
            elif engine == "compiled-nobulk":
                self.nobulk.parse(data, start)
            elif engine == "compiled-unoptimized":
                self.unoptimized.parse(data, start)
            elif engine == "aot":
                try:
                    self.aot.parse(data, start)
                except (self.aot.ParseFailure, self.aot.BlackboxError) as exc:
                    return (type(exc).__name__, getattr(exc, "offset", None))
            else:
                raise AssertionError(f"no raising entry point for {engine!r}")
        except (ParseFailure, BlackboxError) as exc:
            return (type(exc).__name__, getattr(exc, "offset", None))
        return ("tree",)

    def _streaming_error_outcomes(self, data: bytes, start: Optional[str]):
        """``[(chunk_size, outcome)]`` via incremental sessions, uncompacted.

        ``compact=False`` keeps the whole input buffered so ``finish()``
        can re-diagnose a failed parse exactly like the batch engines.
        Every chunk is fed even after the outcome is determined: stopping
        early would diagnose over a *prefix*, which legitimately
        classifies differently than the batch engines see the full input.
        """
        outcomes = []
        for chunk_size in self.chunk_sizes:
            session = self.compiled.stream(start, compact=False)
            try:
                for i in range(0, len(data), chunk_size):
                    session.feed(data[i : i + chunk_size])
                session.finish()
            except (ParseFailure, BlackboxError) as exc:
                outcomes.append(
                    (chunk_size, (type(exc).__name__, getattr(exc, "offset", None)))
                )
            else:
                outcomes.append((chunk_size, ("tree",)))
        return outcomes

    def assert_error_agree(
        self, data: bytes, start: Optional[str] = None, expect=None
    ):
        """Every raising entry point surfaces the same ``(class, offset)``.

        Covers the batch engines and, for streamable grammars, incremental
        sessions at every chunk size (record-straddling chunkings
        included).  ``expect`` optionally pins the expected pair — e.g.
        ``("TruncatedInput", 96)`` — for golden hostile corpora.  Returns
        the agreed outcome.
        """
        data = bytes(data)
        reference = self.error_outcome("interpreted", data, start)
        for engine in self.error_engines():
            if engine == "interpreted":
                continue
            outcome = self.error_outcome(engine, data, start)
            assert outcome == reference, (
                f"{engine}: structured error {outcome!r} != interpreter's "
                f"{reference!r} (input {data[:32]!r}..., start={start})"
            )
        if self.streamable:
            for chunk_size, outcome in self._streaming_error_outcomes(data, start):
                assert outcome == reference, (
                    f"streaming(chunk={chunk_size}): structured error "
                    f"{outcome!r} != interpreter's {reference!r}"
                )
        if expect is not None:
            assert reference == tuple(expect), (
                f"engines agree on {reference!r} but the golden expectation "
                f"is {tuple(expect)!r}"
            )
        return reference

    # -- emit-mode (tree-elision) runners ----------------------------------
    def _elided_unoptimized(self):
        """The all-passes-off tree-elision compilation (built lazily)."""
        if self._elided_unopt is None and self.unoptimized is not None:
            self._elided_unopt = compile_grammar(
                self.grammar_text,
                memoize=self._memoize,
                blackboxes=self._blackboxes,
                optimizations=Optimizations.none(),
                elide_tree=True,
            )
        return self._elided_unopt

    def emit_engines(self) -> Tuple[str, ...]:
        """Engines that natively run the spans / validate-only fast path."""
        names = ["interpreted", "compiled"]
        if self.unoptimized is not None:
            names.append("elided-unoptimized")
        if self.streamable:
            names.append("streaming")
        return tuple(names)

    def run_emit(self, engine: str, data: bytes, start: Optional[str], emit):
        """Outcome of one engine in an elision mode.

        Returns ``("spans", name, env)``, ``("ok",)`` for a validate-only
        match, ``("none",)`` for a clean non-match, or ``("error", cls)``.
        """
        from repro.core.interpreter import FAIL

        try:
            if engine == "elided-unoptimized":
                compiled = self._elided_unoptimized()
                name = start or compiled.grammar.start
                result = compiled.parse_nonterminal(
                    as_buffer(data), name, 0, len(data)
                )
                outcome = None if result is FAIL else result
            elif engine == "streaming":
                return self._run_streaming_emit(data, start, emit)
            else:
                parser = {
                    "interpreted": self.interpreted,
                    "compiled": self.compiled,
                }[engine]
                outcome = parser.try_parse(data, start, emit=emit)
        except IPGError as exc:
            return ("error", type(exc))
        if outcome is None:
            return ("none",)
        if emit is None or outcome is True:
            return ("ok",)
        return ("spans", outcome.name, dict(outcome.env))

    def _run_streaming_emit(self, data: bytes, start: Optional[str], emit):
        outcomes = []
        for chunk_size in self.chunk_sizes:
            chunks = [
                data[i : i + chunk_size] for i in range(0, len(data), chunk_size)
            ]
            try:
                result = self.compiled.parse_stream(chunks or [b""], start, emit=emit)
            except ParseFailure:
                outcomes.append(("none",))
            except IPGError as exc:
                outcomes.append(("error", type(exc)))
            else:
                if emit is None:
                    outcomes.append(("ok",))
                else:
                    outcomes.append(("spans", result.name, dict(result.env)))
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0], (
                f"streaming {emit!r} outcome depends on the chunking: "
                f"{outcomes[0]} vs {outcome}"
            )
        return outcomes[0]

    def assert_emit_agree(self, data: bytes, start: Optional[str] = None, reference=None):
        """Check spans / validate-only outcomes against the reference tree.

        The tree-elision fast path must accept exactly the inputs the
        tree-building engines accept, with a root environment equal to the
        full tree's — on every engine, including chunked streaming.
        """
        if reference is None:
            reference = self.run("interpreted", data, start)
        if reference[0] == "tree":
            expected_spans = ("spans", reference[1].name, dict(reference[1].env))
            expected_ok = ("ok",)
        else:
            expected_spans = expected_ok = reference
        for engine in self.emit_engines():
            spans = self.run_emit(engine, data, start, "spans")
            validate = self.run_emit(engine, data, start, None)
            for mode, outcome, expected in (
                ("spans", spans, expected_spans),
                ("validate", validate, expected_ok),
            ):
                if expected[0] == "error":
                    assert outcome[0] == "error", (
                        f"{engine}/{mode}: expected an error, got {outcome}"
                    )
                    assert outcome[1].__name__ == expected[1].__name__, (
                        f"{engine}/{mode}: raised {outcome[1].__name__}, "
                        f"reference raised {expected[1].__name__}"
                    )
                else:
                    assert outcome == expected, (
                        f"{engine}/{mode}: {outcome!r} != {expected!r} "
                        f"(input {data[:32]!r}..., start={start})"
                    )

    # -- the contract ------------------------------------------------------
    def engines(self, include_streaming: bool = True) -> Tuple[str, ...]:
        names = [name for name in CORE_ENGINES if name in self._runners]
        if include_streaming and self.streamable:
            names.append("streaming")
        return tuple(names)

    def run(self, engine: str, data: bytes, start: Optional[str] = None):
        return self._runners[engine](data, start)

    def assert_agree(
        self,
        data: bytes,
        start: Optional[str] = None,
        engines: Optional[Iterable[str]] = None,
    ):
        """Assert every engine matches the reference interpreter."""
        reference = self.run("interpreted", data, start)
        for engine in engines if engines is not None else self.engines():
            if engine == "interpreted":
                continue
            outcome = self.run(engine, data, start)
            if reference[0] == "tree":
                assert outcome[0] == "tree", (
                    f"{engine}: expected a tree, got {outcome} "
                    f"(input {data[:32]!r}..., start={start})"
                )
                assert outcome[1] == reference[1], (
                    f"{engine}: tree differs from the interpreter's "
                    f"(input {data[:32]!r}..., start={start})"
                )
            elif reference[0] == "none":
                assert outcome[0] == "none", (
                    f"{engine}: expected a clean non-match, got {outcome} "
                    f"(input {data[:32]!r}..., start={start})"
                )
            else:
                assert outcome[0] == "error", (
                    f"{engine}: expected an error, got {outcome}"
                )
                assert outcome[1].__name__ == reference[1].__name__, (
                    f"{engine}: raised {outcome[1].__name__}, interpreter "
                    f"raised {reference[1].__name__}"
                )
        if engines is None:
            # The default full-matrix check also runs every emit-capable
            # engine in the spans and validate-only tree-elision modes.
            self.assert_emit_agree(data, start, reference=reference)
        return reference


def matrix_for(
    grammar_text: str,
    blackboxes: Optional[dict] = None,
    memoize: bool = True,
    expect_compiled: bool = True,
) -> EngineMatrix:
    """Shared-cache constructor (blackbox dicts are assumed stable per key)."""
    key = (grammar_text, tuple(sorted((blackboxes or {}).keys())), memoize)
    cached = _MATRIX_CACHE.get(key)
    if cached is None:
        cached = _MATRIX_CACHE[key] = EngineMatrix(
            grammar_text, blackboxes, memoize, expect_compiled
        )
    return cached


def assert_engines_agree(
    grammar_text: str,
    data: bytes,
    start: Optional[str] = None,
    blackboxes: Optional[dict] = None,
    memoize: bool = True,
):
    """One-shot helper: build (or reuse) the matrix and check one input."""
    return matrix_for(grammar_text, blackboxes, memoize).assert_agree(data, start)


# ---------------------------------------------------------------------------
# Shared deterministic format samples
# ---------------------------------------------------------------------------


def format_sample(fmt: str) -> bytes:
    """The canonical deterministic sample input for a bundled format."""
    if fmt in ("zip", "zip-meta"):
        return samples.build_zip(member_count=3, member_size=300)
    if fmt == "elf":
        return samples.build_elf(section_count=3, symbol_count=4, dynamic_entries=2)
    if fmt == "gif":
        return samples.build_gif(frame_count=2, bytes_per_frame=200)
    if fmt == "pe":
        return samples.build_pe(section_count=2)
    if fmt == "pdf":
        return samples.build_pdf(object_count=3)[0]
    if fmt == "dns":
        return samples.build_dns_response(answer_count=2, additional_count=1)
    if fmt == "ipv4":
        return samples.build_ipv4_udp_packet(payload_size=48, options_words=1)
    raise AssertionError(f"no sample builder for {fmt}")
