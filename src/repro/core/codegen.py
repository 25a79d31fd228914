"""Ahead-of-time parser emission: compiled grammars -> standalone modules.

:func:`repro.core.compiler.compile_grammar` stages a grammar into Python
*source* already — it just executes that source immediately and keeps the
resulting closures in memory.  This module is the ahead-of-time half: it
wraps the same generated rule functions with a **vendored runtime
prelude** and a public ``parse``/``try_parse`` API, producing one
self-contained ``.py`` file that imports and parses with **nothing but the
standard library** on ``sys.path``.  That is the artifact story of
Kaitai-style toolchains: the optimized parser is an inspectable, diffable,
shippable module instead of an opaque in-memory object.

The prelude is not a second copy of the runtime: it is *extracted* at
render time, with :func:`inspect.getsource`, from the modules the
in-process engines execute — the helpers of :mod:`repro.core.runtime`,
``as_buffer`` from :mod:`repro.core.buffers`, the error classes of
:mod:`repro.core.errors`, the parse-tree classes of
:mod:`repro.core.parsetree` and the stream driver of
:mod:`repro.core.streaming`.  Only the glue that differs per artifact is
written here: the blackbox registry, the public entry points and the
emitted ``StreamingParse``'s three engine hooks.

Three deliberate design points:

* **Parse-tree compatibility.**  The prelude first tries to import
  ``repro``'s :class:`~repro.core.parsetree.Node` / ``Leaf`` /
  ``ArrayNode`` and only falls back to its vendored copies when ``repro``
  is absent.  When both are importable the emitted module therefore
  produces *the same classes* as the other engines, so trees compare
  ``==`` across all of them (enforced by ``tests/engine_matrix.py``);
  without ``repro`` the vendored classes implement the same structural
  equality among themselves.
* **One live-guard count.**  The recursion limit a deep parse raises and
  the collector pause it holds are process-wide, so the prelude binds
  ``repro``'s guard count (:func:`~repro.core.runtime._guard_enter`) when
  ``repro`` is importable and vendors it otherwise: an emitted module and
  a ``Parser`` parsing at once never restore the limit or re-enable
  collection under each other.
* **Blackboxes are late-bound.**  A blackbox parser is an arbitrary Python
  callable and cannot be serialized; the emitted module exposes
  ``register_blackbox(name, fn)`` and defers the lookup to parse time,
  exactly like :class:`repro.Parser`'s live registry.

Entry points: :meth:`repro.core.compiler.CompiledGrammar.to_source` and the
``repro compile`` CLI subcommand.
"""

from __future__ import annotations

import functools
import inspect
import textwrap
from typing import Optional

from . import buffers, errors, parsetree, runtime, streaming

#: Error classes every emitted module defines (bases before subclasses).
#: They are always the module's own, so ``except module.ParseFailure``
#: behaves the same whether or not ``repro`` is importable.
_ERROR_CLASSES = (
    errors.IPGError,
    errors.EvaluationError,
    errors.BlackboxError,
    errors.ParseFailure,
    errors.TruncatedInput,
    errors.BoundsViolation,
    errors.GuardRejected,
    errors.LimitExceeded,
    errors.NeedMoreInput,
    errors.NotStreamableError,
)

#: The line of :mod:`repro.core.runtime` below which its source is vendored.
_RUNTIME_MARKER = "# -- VENDORED:"
#: The line of :mod:`repro.core.runtime` that starts the live-guard count,
#: which an emitted module vendors only for when ``repro`` is not importable.
_GUARD_MARKER = "# -- GUARD:"


def _getsource(*objects) -> str:
    return "\n\n\n".join(inspect.getsource(obj).rstrip("\n") for obj in objects)


@functools.lru_cache(maxsize=None)
def _prelude_source() -> str:
    """The runtime prelude of every standalone module and package.

    Everything the generated rule functions and the public API reference
    (:data:`_PACKAGE_IMPORTS`), extracted from the in-repo modules.
    """
    _, marker, body = inspect.getsource(runtime).partition(_RUNTIME_MARKER)
    body, guard_marker, guard = body.partition(_GUARD_MARKER)
    if not (marker and guard_marker):
        raise RuntimeError("repro.core.runtime lost its VENDORED or GUARD line")
    tree_classes = _getsource(
        parsetree.ParseTree,
        parsetree.Leaf,
        parsetree.ArrayNode,
        parsetree.Node,
        parsetree._pretty_tree,
    )
    return "\n".join(
        [
            _getsource(*_ERROR_CLASSES),
            "",
            "",
            "try:  # Reuse repro's parse-tree classes when available so trees produced",
            "    # by this module compare == with the other engines'; fall back to",
            "    # the vendored copies when repro is not importable.",
            "    from repro.core.parsetree import ArrayNode, Leaf, Node",
            "except ImportError:",
            f"    SPECIAL_ATTRS = {parsetree.SPECIAL_ATTRS!r}",
            "",
            textwrap.indent(tree_classes, "    "),
            "",
            "",
            "# -- runtime (repro.core.runtime) " + "-" * 45,
            body.split("\n", 1)[1].strip("\n"),
            "",
            "",
            "try:  # One live-guard count per process: when repro is importable,",
            "    # this module's parses count together with its engines'.",
            "    from repro.core.runtime import (",
            "        _RECURSION_LIMIT, _guard_enter, _guard_exit,",
            "    )",
            "except ImportError:",
            textwrap.indent(guard.split("\n", 1)[1].strip("\n"), "    "),
            "",
            "",
            _getsource(buffers.as_buffer),
        ]
    )


#: Names every per-format package module pulls from the shared prelude
#: module: the runtime's export list plus the error classes and
#: ``as_buffer`` the public API uses.  Everything else the generated rule
#: functions and the public epilogue reference is module-local (constants,
#: dispatch tables, ``_ENTRY``/``_new_state``, the blackbox registry) or
#: stdlib.
_PACKAGE_IMPORTS = tuple(
    sorted(
        {*runtime.__all__, *(cls.__name__ for cls in _ERROR_CLASSES), "as_buffer"}
    )
)

#: The blackbox *registry*: module-level mutable state, emitted once per
#: parser module — into the standalone module, and into every per-format
#: module of a package (two formats may declare same-named blackboxes with
#: different implementations, and the shared prelude module must not offer
#: a registration API nothing consults).
_PRELUDE_BLACKBOX = '''\
#: Late-bound blackbox implementations; fill with ``register_blackbox``.
BLACKBOXES = {}


def register_blackbox(name, parser):
    """Register (or replace) the implementation of a blackbox parser."""
    BLACKBOXES[name] = parser


def _bb(name, data, lo, hi):
    return _call_blackbox(BLACKBOXES, name, data, lo, hi, _ELIDE_TREE)
'''

#: Public API of every generated module: nonterminals resolve through the
#: generated ``_ENTRY`` table (standalone modules add the streaming
#: section after it).
_EPILOGUE = '''\
def set_limits(max_steps, max_wall_ms=None):
    """Change (or lift, with ``None``) this module's parse budgets.

    The budgets were baked in at generation time as ``_MAX_STEPS`` /
    ``_MAX_WALL_MS``; each top-level parse gets a fresh fuel cell
    initialized from them.  Modules generated with every budget
    unlimited have the per-rule check compiled out entirely, so
    ``set_limits`` cannot *introduce* a budget there — regenerate with
    limits instead.  ``max_wall_ms`` is a wall-clock budget in
    milliseconds, checked at the amortized refill points.
    """
    global _MAX_STEPS, _MAX_WALL_MS
    _MAX_STEPS = float("inf") if max_steps is None else max_steps
    _MAX_WALL_MS = max_wall_ms


def _call(entry, state, data, name, lo, hi):
    fn = entry.get(name)
    if fn is not None:
        return fn(state, data, lo, hi)
    if name in _BUILTINS:
        return _make_builtin_runner(name)(data, lo, hi)
    if name in DECLARED_BLACKBOXES:
        return _bb(name, data, lo, hi)
    raise IPGError(f"no rule, builtin or blackbox for nonterminal {name!r}")


def parse_nonterminal(data, name, lo, hi):
    """``s[lo, hi] |- name`` -> Node or the FAIL sentinel."""
    return _call(_ENTRY, _new_state(), data, name, lo, hi)


def _diagnose_and_raise(data, name):
    """Classify and raise the failure for a non-matching ``data``.

    When the ``repro`` package is importable the failure is re-diagnosed
    by the reference interpreter (same classification as every other
    engine: TruncatedInput / BoundsViolation / GuardRejected with the
    furthest-failure offset).  Standalone, a plain ParseFailure with the
    matching class names vendored above is raised instead.
    """
    if GRAMMAR_SOURCE is not None:
        try:
            from repro.core.diagnose import diagnose_failure
        except ImportError:
            pass
        else:
            diagnosed = diagnose_failure(
                GRAMMAR_SOURCE, data, start=name, blackboxes=dict(BLACKBOXES)
            )
            # Re-raise on this module's vendored class of the same name,
            # so `except module.TruncatedInput:` works identically whether
            # or not repro happened to be importable.
            cls = globals().get(type(diagnosed).__name__, ParseFailure)
            if cls is LimitExceeded:
                raise cls(
                    str(diagnosed),
                    limit=diagnosed.limit,
                    nonterminal=diagnosed.nonterminal,
                    rule_stack=diagnosed.rule_stack,
                ) from None
            raise cls(
                str(diagnosed),
                nonterminal=diagnosed.nonterminal,
                offset=diagnosed.offset,
                rule_stack=diagnosed.rule_stack,
                interval=diagnosed.interval,
            ) from None
    raise ParseFailure(
        f"input of length {len(data)} does not match nonterminal {name!r}",
        nonterminal=name,
    )


def try_parse(data, start=None):
    """Parse ``data``; returns the root Node, or None on non-matching input.

    ``data`` may be any buffer-protocol object (bytes, bytearray,
    memoryview, mmap, ...); it is normalized zero-copy, never duplicated.
    """
    data = as_buffer(data)
    name = START if start is None else start
    result = _guarded(
        _RECURSION_LIMIT, name, parse_nonterminal, data, name, 0, len(data)
    )
    return None if result is FAIL else result


def parse(data, start=None):
    """Parse ``data``; raises a ParseFailure subclass on non-matching input.

    Failures are classified by ``_diagnose_and_raise`` — through repro's
    reference interpreter when importable, as a plain vendored
    ``ParseFailure`` otherwise.
    """
    data = as_buffer(data)
    name = START if start is None else start
    result = try_parse(data, name)
    if result is not None:
        return result
    _diagnose_and_raise(data, name)
'''


def _doc_literal(doc: str) -> str:
    """A docstring literal that cannot escape its quoting.

    ``module_doc`` is caller-supplied, so a doc containing ``\"\"\"``, a
    backslash escape, or a trailing quote rendered into a plain
    triple-quoted f-string would corrupt — or inject code into — the
    emitted module.  Keep the readable triple-quoted form for benign text
    and fall back to ``repr`` (which escapes everything) otherwise.
    """
    if '"""' in doc or "\\" in doc or doc.endswith('"'):
        return repr(doc + "\n")
    return f'"""{doc}\n"""'


def _module_body(compiled) -> str:
    """The generated rule functions, stripped of the in-memory docstring."""
    body = compiled.source
    marker = '"""Module staged by repro.core.compiler — one closure per alternative."""'
    if body.startswith(marker):
        body = body[len(marker) :].lstrip("\n")
    return body.rstrip("\n")


def _constant_lines(compiled) -> list:
    limits = getattr(compiled, "limits", None)
    max_steps = None if limits is None else limits.max_steps
    max_wall_ms = None if limits is None else limits.max_wall_ms
    constants = [
        "#: Parse step budget: fuel per top-level parse (see set_limits).",
        '_MAX_STEPS = float("inf")'
        if max_steps is None
        else f"_MAX_STEPS = {max_steps}",
        "#: Wall-clock budget (ms) per top-level parse (see set_limits).",
        f"_MAX_WALL_MS = {max_wall_ms!r}",
        "",
        "",
        "def _wall_deadline():",
        "    # Fresh per-parse monotonic deadline from the wall budget.",
        "    if _MAX_WALL_MS is None:",
        "        return None",
        "    return _monotonic() + _MAX_WALL_MS / 1000.0",
        "",
        "",
        "#: Original grammar text; lets repro (when importable) re-diagnose",
        "#: failed parses into the structured error taxonomy.",
        f"GRAMMAR_SOURCE = {compiled.grammar.source!r}",
        f"_ELIDE_TREE = {bool(getattr(compiled, 'elide_tree', False))!r}",
    ]
    if getattr(compiled, "elide_tree", False):
        constants += [
            "# Tree-elision bindings: the generated alternatives keep the",
            "# full attribute semantics but allocate env-carrying shells",
            "# only (shared empty children, bare-env element lists).",
            "_aidx = _aidx_env",
            "_make_builtin_runner = _make_builtin_runner_elided",
        ]
    for var in sorted(compiled._leaf_consts):
        constants.append(f"{var} = _mk_leaf({compiled._leaf_consts[var]!r})")
    for var in sorted(compiled._builtin_runner_names):
        constants.append(
            f"{var} = _make_builtin_runner({compiled._builtin_runner_names[var]!r})"
        )
    return constants


# ---------------------------------------------------------------------------
# Streaming support (vendored runtime + driver)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _streaming_runtime_source() -> str:
    """Vendored streaming runtime: EOIProxy, StreamBuffer, the stream driver.

    Extracted from :mod:`repro.core.streaming`, so the emitted copy can
    never drift from the in-repo semantics.  The pieces only reference
    names the prelude defines; their type annotations stay unevaluated
    because every emitted module starts with ``from __future__ import
    annotations``.
    """
    return _getsource(
        streaming._needed_for,
        streaming.EOIProxy,
        streaming.StreamBuffer,
        streaming._resolve_stream_tree,
        streaming._StreamSession,
    )


#: The emitted ``StreamingParse``: the vendored driver plus this module's
#: engine hooks.  The fully-memoized stream variant's source is embedded
#: as ``_STREAM_SOURCE`` and exec'd lazily into a copy of the module's
#: globals — same constants/prelude, its own ``_ENTRY``.
_STREAM_HOOKS = '''\
_STREAM_NS = None


def _stream_namespace():
    global _STREAM_NS
    if _STREAM_SOURCE is None:
        raise NotStreamableError(
            "this module was generated without its streaming variant"
        )
    if _STREAM_NS is None:
        namespace = dict(globals())
        exec(compile(_STREAM_SOURCE, "<stream-variant>", "exec"), namespace)
        _STREAM_NS = namespace
    _STREAM_NS["_MAX_STEPS"] = _MAX_STEPS  # honour later set_limits() calls
    _STREAM_NS["_MAX_WALL_MS"] = _MAX_WALL_MS
    return _STREAM_NS


class StreamingParse(_StreamSession):
    """One in-flight streaming parse (created by ``stream()``).

    Feed chunks with ``feed``; obtain the final tree with ``finish``.  One
    persistent fully-memoized engine state lives across re-entries, every
    chunk probes the parse once (keeping the compaction watermark fresh),
    and ``compact=True`` bounds peak memory at roughly one chunk plus the
    largest in-flight term.
    """

    def __init__(self, start=None, compact=True):
        super().__init__(
            START if start is None else start,
            compact,
            _MAX_BUFFER_BYTES,
            _RECURSION_LIMIT,
        )
        self._namespace = _stream_namespace()
        self._state = self._namespace["_new_state"]()

    def _call_engine(self):
        buffer = self.buffer
        entry = self._namespace["_ENTRY"]
        return _call(entry, self._state, buffer, self._start, 0, buffer.end)

    def _reset_budget(self):
        if _STREAM_FUEL_SLOT is not None:
            _refuel(self._state[_STREAM_FUEL_SLOT], _MAX_STEPS, _wall_deadline())

    def _raise_failure(self, data):
        _diagnose_and_raise(data, self._start)


def stream(start=None, compact=True, force=False):
    """Begin a streaming parse; feed() chunks, then finish() for the tree."""
    if not STREAMABLE and not force:
        raise NotStreamableError(
            "this grammar was classified non-streamable when the module was "
            "generated; pass force=True to stream anyway (reads that need "
            "the final length then buffer until finish())"
        )
    return StreamingParse(start=start, compact=compact)


def parse_stream(chunks, start=None, compact=True, force=False):
    """Feed every chunk of an iterable and finish()."""
    session = stream(start=start, compact=compact, force=force)
    for chunk in chunks:
        session.feed(chunk)
    return session.finish()
'''


def _parser_sections(compiled) -> list:
    """The per-grammar part of a parser module, after its runtime.

    The blackbox registry, the grammar constants, the generated rule
    functions and the public API; shared by standalone and package
    modules.
    """
    grammar = compiled.grammar
    declared = "".join(f"{bb!r}, " for bb in sorted(grammar.blackboxes))
    return [
        _PRELUDE_BLACKBOX,
        "",
        "# -- grammar constants -------------------------------------------------------",
        "",
        *_constant_lines(compiled),
        "",
        "",
        "# -- generated rule functions ------------------------------------------------",
        "",
        _module_body(compiled),
        "",
        "",
        "# -- public API --------------------------------------------------------------",
        "",
        f"START = {grammar.start!r}",
        f"DECLARED_BLACKBOXES = frozenset(({declared}))" if declared
        else "DECLARED_BLACKBOXES = frozenset()",
        "",
        _EPILOGUE,
    ]


def render_package(compiled_by_name, package_doc: Optional[str] = None):
    """Render several compiled grammars as one package of parser modules.

    Returns a mapping of file name to module source: one ``<format>.py``
    per entry of ``compiled_by_name`` (keys are sanitized into module
    names), a single shared ``_prelude.py`` carrying the runtime, and an
    ``__init__.py``.  Unlike :func:`render_standalone_module`, the runtime
    prelude is **not** vendored per format — each format module only
    carries its grammar's generated functions, its constants, its own
    late-bound blackbox registry and the public API, and imports the rest
    from ``_prelude``.  The package imports with nothing but the standard
    library on ``sys.path`` (``repro``'s parse-tree classes are still
    reused when importable, so trees compare ``==`` across engines).
    """
    modules = {
        name: f"{name.replace('-', '_')}" for name in compiled_by_name
    }
    if len(set(modules.values())) != len(modules):
        raise ValueError("format names collide after module-name sanitization")
    files = {}
    # The shared module carries the runtime only; the blackbox registry is
    # per-format state and lives in each format module.
    files["_prelude.py"] = "\n".join(
        [
            '"""Shared runtime prelude for the generated parser package."""',
            "",
            "from __future__ import annotations",
            "",
            _prelude_source(),
            "",
        ]
    )
    if package_doc is None:
        package_doc = (
            "Ahead-of-time IPG parser package (generated by `repro compile "
            "--package`).\n\nOne module per format, sharing the runtime "
            "prelude module `_prelude`:\n"
            + "\n".join(
                f"  {module} (start symbol: {compiled_by_name[name].grammar.start})"
                for name, module in sorted(modules.items())
            )
        )
    files["__init__.py"] = "\n".join(
        [
            _doc_literal(package_doc),
            "",
            f"FORMATS = {tuple(sorted(modules.values()))!r}",
            "",
        ]
    )
    imports = ",\n    ".join(_PACKAGE_IMPORTS)
    for name, module in modules.items():
        compiled = compiled_by_name[name]
        module_doc = (
            f"Standalone IPG parser for {name!r} (start symbol: "
            f"{compiled.grammar.start}).\n\n"
            "Generated ahead of time by `repro compile --package`; imports "
            "with only the\nstandard library on sys.path (runtime shared "
            "via the sibling `_prelude` module).\nPublic API: parse(data, "
            "start=None), try_parse(data, start=None),\n"
            "parse_nonterminal(data, name, lo, hi), register_blackbox(name, "
            "fn), START,\nDECLARED_BLACKBOXES."
        )
        parts = [
            _doc_literal(module_doc),
            "",
            f"from ._prelude import (\n    {imports},\n)",
            "",
            "",
            *_parser_sections(compiled),
        ]
        files[f"{module}.py"] = "\n".join(parts)
    return files


def render_standalone_module(
    compiled,
    module_doc: Optional[str] = None,
    stream_compiled=None,
    streamable: bool = False,
) -> str:
    """Render a :class:`~repro.core.compiler.CompiledGrammar` as module source.

    The result is importable with only the standard library available; see
    the module docstring for the two compatibility guarantees (tree classes
    and late-bound blackboxes).  When ``stream_compiled`` (a fully-memoized
    variant of the same grammar) is given, the module also carries the
    vendored streaming driver: ``stream()`` / ``parse_stream()`` run the
    in-repo incremental parser's logic, including probe re-entry and
    compaction.
    """
    if module_doc is None:
        module_doc = (
            f"Standalone IPG parser (start symbol: {compiled.grammar.start}).\n\n"
            "Generated ahead of time by `repro compile`; imports with only the\n"
            "standard library on sys.path.  Public API: parse(data, start=None),\n"
            "try_parse(data, start=None), parse_nonterminal(data, name, lo, hi),\n"
            "register_blackbox(name, fn), stream(start=None, compact=True,\n"
            "force=False), parse_stream(chunks, ...), START, DECLARED_BLACKBOXES."
        )
    if stream_compiled is not None:
        stream_source = "\n".join(
            _constant_lines(stream_compiled) + ["", "", _module_body(stream_compiled)]
        )
        variant_lines = [
            f"_STREAM_FUEL_SLOT = {stream_compiled.fuel_slot!r}",
            "#: Source of the fully-memoized streaming variant of the rule",
            "#: functions (the variant Parser._engine(stream=True) stages);",
            "#: exec'd lazily into a copy of this module's globals on first",
            "#: stream().",
            f"_STREAM_SOURCE = {stream_source!r}",
        ]
    else:
        variant_lines = [
            "_STREAM_FUEL_SLOT = None",
            "_STREAM_SOURCE = None  # no streaming variant was generated",
        ]
    parts = [
        _doc_literal(module_doc),
        "",
        "from __future__ import annotations",
        "",
        _prelude_source(),
        "",
        "",
        *_parser_sections(compiled),
        "",
        "",
        "# -- streaming (vendored runtime + driver) -----------------------------------",
        "",
        "#: Static streamability classification of the grammar (absolute-offset",
        "#: reads decide without the final length); stream(force=True) overrides.",
        f"STREAMABLE = {bool(streamable)!r}",
        f"_MAX_BUFFER_BYTES = {compiled.limits.max_buffer_bytes!r}",
        *variant_lines,
        "",
        "",
        _streaming_runtime_source(),
        "",
        "",
        _STREAM_HOOKS,
    ]
    return "\n".join(parts)
