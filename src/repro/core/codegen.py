"""Ahead-of-time parser emission: compiled grammars -> standalone modules.

:func:`repro.core.compiler.compile_grammar` stages a grammar into Python
*source* already — it just executes that source immediately and keeps the
resulting closures in memory.  This module is the ahead-of-time half: it
wraps the same generated rule functions with a small **vendored runtime
prelude** and a public ``parse``/``try_parse`` API, producing one
self-contained ``.py`` file that imports and parses with **nothing but the
standard library** on ``sys.path``.  That is the artifact story of
Kaitai-style toolchains: the optimized parser is an inspectable, diffable,
shippable module instead of an opaque in-memory object.

Two deliberate design points:

* **Parse-tree compatibility.**  The prelude first tries to import
  ``repro``'s :class:`~repro.core.parsetree.Node` / ``Leaf`` /
  ``ArrayNode`` and only falls back to vendored equivalents when ``repro``
  is absent.  When both are importable the emitted module therefore
  produces *the same classes* as the other engines, so trees compare
  ``==`` across all of them (enforced by ``tests/engine_matrix.py``);
  without ``repro`` the vendored classes implement the same structural
  equality among themselves.
* **Blackboxes are late-bound.**  A blackbox parser is an arbitrary Python
  callable and cannot be serialized; the emitted module exposes
  ``register_blackbox(name, fn)`` and defers the lookup to parse time,
  exactly like :class:`repro.Parser`'s live registry.

Entry points: :meth:`repro.core.compiler.CompiledGrammar.to_source` and the
``repro compile`` CLI subcommand.
"""

from __future__ import annotations

from typing import Optional

#: Runtime support emitted into every standalone module (and once, as the
#: shared ``_prelude`` module, per package).  Everything the generated rule
#: functions reference lives here (or in the per-grammar constants section
#: rendered by :func:`render_standalone_module`) except the blackbox
#: *registry*, which is per-module state (:data:`_PRELUDE_BLACKBOX`); the
#: only non-stdlib import is the *optional* reuse of repro's parse-tree
#: classes.
_PRELUDE_BASE = '''\
import struct as _struct
import sys as _sys
from time import monotonic as _monotonic

#: Internal sentinels: parse failure (biased choice), memo miss, and a
#: not-live binding (loop variable outside its loop / closure cell before
#: its defining term ran).
FAIL = object()
_MISS = object()
_UB = object()
_BFAIL = object()
_ifb = int.from_bytes


class IPGError(Exception):
    """Base class for all errors raised by this generated parser."""


class EvaluationError(IPGError):
    """An attribute/interval computation failed (fails the alternative)."""


class BlackboxError(IPGError):
    """A blackbox parser is missing or raised."""


class ParseFailure(IPGError):
    """The input does not match the grammar (raised by ``parse``).

    Mirrors ``repro.core.errors.ParseFailure``: carries the failing
    nonterminal, the absolute byte ``offset`` of the failure point, the
    active ``rule_stack`` and the violated ``interval`` when known.  The
    structured subclasses below match repro's taxonomy by *name*, so
    ``type(exc).__name__`` comparisons agree across engines even when
    repro itself is not importable.
    """

    def __init__(self, message, nonterminal="", offset=None, rule_stack=(), interval=None):
        self.nonterminal = nonterminal
        self.offset = offset
        self.rule_stack = tuple(rule_stack)
        self.interval = tuple(interval) if interval is not None else None
        super().__init__(message)


class TruncatedInput(ParseFailure):
    """The parse needed bytes past the end of the input."""


class BoundsViolation(ParseFailure):
    """An interval was invalid within the available data."""


class GuardRejected(ParseFailure):
    """Bytes were present but semantically wrong (guard/terminal/switch)."""


class LimitExceeded(ParseFailure):
    """A resource budget was exhausted (``limit`` names which one)."""

    def __init__(self, message, limit="", nonterminal="", rule_stack=(), interval=None):
        self.limit = limit
        super().__init__(
            message,
            nonterminal=nonterminal,
            offset=None,
            rule_stack=rule_stack,
            interval=interval,
        )


class NeedMoreInput(IPGError):
    """A streaming read or comparison needs bytes not yet received."""

    def __init__(self, message, needed=None):
        self.needed = needed
        super().__init__(message)


class NotStreamableError(IPGError):
    """``stream()`` was called but the grammar is not streamable."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


def _limit_steps():
    raise LimitExceeded(
        "parse step budget exhausted (max_steps); call set_limits(None) "
        "to lift the budget for trusted input",
        limit="max_steps",
    )


def _limit_wall():
    raise LimitExceeded(
        "parse wall-clock budget exhausted (max_wall_ms); call "
        "set_limits(max_steps, max_wall_ms=None) to lift it",
        limit="wall",
    )


def _limit_refill(cell):
    # Slow path of the step budget: the hot counter cell[0] stays within
    # CPython's cached small-int range so the per-rule decrement never
    # allocates; every 256 rule entries this charges the big remainder.
    # cell[2] is the optional monotonic wall-clock deadline, checked here
    # so it costs nothing on the per-rule hot path.
    remaining = cell[1]
    if remaining <= 0:
        _limit_steps()
    deadline = cell[2]
    if deadline is not None and _monotonic() > deadline:
        _limit_wall()
    take = 256 if remaining > 256 else remaining
    cell[0] = take - 1
    cell[1] = remaining - take


try:  # Reuse repro's parse-tree classes when available so trees produced
    # by this module compare == with the other engines'; fall back to
    # structurally identical vendored classes when repro is not importable.
    from repro.core.parsetree import ArrayNode, Leaf, Node
except ImportError:

    class _ParseTree:
        __slots__ = ()

        def walk(self):
            yield self

    class Leaf(_ParseTree):
        """A matched terminal string."""

        __slots__ = ("value",)

        def __init__(self, value):
            self.value = bytes(value)

        def __eq__(self, other):
            return isinstance(other, Leaf) and self.value == other.value

        def __hash__(self):
            return hash(("Leaf", self.value))

        def __repr__(self):
            return f"Leaf({self.value!r})"

    class ArrayNode(_ParseTree):
        """The result of parsing a ``for`` (array) term."""

        __slots__ = ("name", "elements")

        def __init__(self, name, elements):
            self.name = name
            self.elements = list(elements)

        def __len__(self):
            return len(self.elements)

        def __getitem__(self, index):
            return self.elements[index]

        def __iter__(self):
            return iter(self.elements)

        def walk(self):
            yield self
            for element in self.elements:
                yield from element.walk()

        def __eq__(self, other):
            return (
                isinstance(other, ArrayNode)
                and self.name == other.name
                and self.elements == other.elements
            )

        def __hash__(self):
            return hash(("Array", self.name, len(self.elements)))

        def __repr__(self):
            return f"Array({self.name}, {len(self.elements)} elements)"

    class Node(_ParseTree):
        """A successfully parsed nonterminal: name, attribute env, children."""

        __slots__ = ("name", "env", "children")

        def __init__(self, name, env, children):
            self.name = name
            self.env = dict(env)
            self.children = list(children)

        def attr(self, name, default=None):
            return self.env.get(name, default)

        def __getitem__(self, name):
            if name not in self.env:
                raise KeyError(f"nonterminal {self.name} has no attribute {name!r}")
            return self.env[name]

        @property
        def attrs(self):
            return {
                k: v for k, v in self.env.items() if k not in ("EOI", "start", "end")
            }

        def child(self, name, index=0):
            seen = 0
            for tree in self.children:
                if isinstance(tree, Node) and tree.name == name:
                    if seen == index:
                        return tree
                    seen += 1
            return None

        def array(self, name):
            for tree in self.children:
                if isinstance(tree, ArrayNode) and tree.name == name:
                    return tree
            return None

        def walk(self):
            yield self
            for child in self.children:
                yield from child.walk()

        def __eq__(self, other):
            return (
                isinstance(other, Node)
                and self.name == other.name
                and self.env == other.env
                and self.children == other.children
            )

        def __hash__(self):
            return hash(("Node", self.name, len(self.children)))

        def __repr__(self):
            return f"Node({self.name}, attrs={self.attrs}, children={len(self.children)})"


_node_new = Node.__new__
_leaf_new = Leaf.__new__
_array_new = ArrayNode.__new__


def _mk_node(name, env, children):
    node = _node_new(Node)
    node.name = name
    node.env = env
    node.children = children
    return node


def _mk_leaf(value):
    # Rule bodies pass raw input slices; on a memoryview-backed parse this
    # is where a payload becomes real bytes (the only copy made).
    leaf = _leaf_new(Leaf)
    leaf.value = value if type(value) is bytes else bytes(value)
    return leaf


def _as_buffer(data):
    # Zero-copy input normalization (mirrors repro.core.buffers.as_buffer):
    # bytes passes through; any other buffer-protocol object (bytearray,
    # memoryview, mmap, ...) is wrapped in a flat byte view, never copied.
    if isinstance(data, bytes):
        return data
    try:
        view = data if type(data) is memoryview else memoryview(data)
    except TypeError:
        raise TypeError(
            f"parse input must be a bytes-like object (bytes, bytearray, "
            f"memoryview, mmap, ...), not {type(data).__name__}"
        ) from None
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    return view


def _mk_array(name, elements):
    array = _array_new(ArrayNode)
    array.name = name
    array.elements = elements
    return array


# -- expression runtime ------------------------------------------------------


def _int_div(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _div(a, b):
    if b == 0:
        raise EvaluationError("division by zero")
    return _int_div(a, b)


def _mod(a, b):
    if b == 0:
        raise EvaluationError("modulo by zero")
    return a - _int_div(a, b) * b


def _shift_l(a, b):
    if b < 0:
        raise EvaluationError("negative shift amount")
    return a << b


def _shift_r(a, b):
    if b < 0:
        raise EvaluationError("negative shift amount")
    return a >> b


def _aidx(elements, position, name, attr):
    if 0 <= position < len(elements):
        return elements[position].env[attr]
    raise EvaluationError(
        f"array reference {name}({position}) out of range "
        f"(array has {len(elements)} elements)"
    )


def _aidx_env(envs, position, name, attr):
    # ``_aidx`` for tree-elided modules, whose element lists hold bare envs.
    if 0 <= position < len(envs):
        return envs[position][attr]
    raise EvaluationError(
        f"array reference {name}({position}) out of range "
        f"(array has {len(envs)} elements)"
    )


#: Children of every node of a tree-elided parse: one shared empty tuple.
_E = ()


def _undef(name):
    raise EvaluationError(f"undefined attribute or loop variable {name!r}")


def _nonode(name):
    raise EvaluationError(f"reference to {name} but it has not been parsed yet")


def _noarr(name):
    raise EvaluationError(
        f"reference to array {name} but no such array has been parsed"
    )


def _badexists(source):
    raise EvaluationError(
        f"existential does not reference any array indexed by its bound "
        f"variable: {source}"
    )


def _exists(length, condition, then, otherwise):
    for position in range(length):
        if condition(position) != 0:
            return then(position)
    return otherwise()


# -- builtin nonterminals ----------------------------------------------------


def _fixed_int(size, byteorder, signed=False):
    def parse(data, lo, hi):
        if hi - lo < size:
            return _BFAIL
        window = data[lo : lo + size]
        return {"val": _ifb(window, byteorder, signed=signed)}, size, window

    return parse


def _p_raw(data, lo, hi):
    length = hi - lo
    return {"len": length, "val": length}, length, None


def _p_bytes(data, lo, hi):
    window = data[lo:hi]
    return {"len": len(window), "val": len(window)}, len(window), window


def _p_ascii_int(data, lo, hi):
    # bytes() is a no-op for bytes input; memoryview windows need real
    # bytes for strip()/isdigit() (and the payload Leaf would copy anyway).
    window = bytes(data[lo:hi])
    text = window.strip()
    if not text or not text.isdigit():
        return _BFAIL
    return {"val": int(text)}, len(window), window


def _p_bin_int(data, lo, hi):
    window = data[lo:hi]
    if not window or any(byte not in (0x30, 0x31) for byte in window):
        return _BFAIL
    value = 0
    for byte in window:
        value = value * 2 + (byte - 0x30)
    return {"val": value}, len(window), window


_BUILTINS = {
    "U8": _fixed_int(1, "little"),
    "Byte": _fixed_int(1, "little"),
    "U16LE": _fixed_int(2, "little"),
    "U16BE": _fixed_int(2, "big"),
    "U32LE": _fixed_int(4, "little"),
    "U32BE": _fixed_int(4, "big"),
    "U64LE": _fixed_int(8, "little"),
    "U64BE": _fixed_int(8, "big"),
    "I32LE": _fixed_int(4, "little", signed=True),
    "Raw": _p_raw,
    "Bytes": _p_bytes,
    "AsciiInt": _p_ascii_int,
    "BinInt": _p_bin_int,
}


def _wrap_outcome(name, attrs, end, payload, length):
    env = {"EOI": length, "start": 0 if end else length, "end": end}
    env.update(attrs)
    children = [_mk_leaf(payload)] if payload is not None else []
    return _mk_node(name, env, children)


def _make_builtin_runner(name):
    parse = _BUILTINS[name]

    def run(data, lo, hi):
        outcome = parse(data, lo, hi)
        if outcome is _BFAIL:
            return FAIL
        attrs, end, payload = outcome
        return _wrap_outcome(name, attrs, end, payload, hi - lo)

    return run


def _make_builtin_runner_elided(name):
    # Builtin runner for tree-elided modules: same env, no payload Leaf.
    # ``Bytes`` runs ``Raw``'s parser outright — identical attributes, and
    # the payload copy is exactly what elision exists to skip.
    parse = _BUILTINS["Raw" if name == "Bytes" else name]

    def run(data, lo, hi):
        outcome = parse(data, lo, hi)
        if outcome is _BFAIL:
            return FAIL
        attrs, end, _payload = outcome
        length = hi - lo
        env = {"EOI": length, "start": 0 if end else length, "end": end}
        env.update(attrs)
        return _mk_node(name, env, _E)

    return run


def _run_builtin(name, data, lo, hi):
    return _make_builtin_runner(name)(data, lo, hi)


# -- blackbox parsers --------------------------------------------------------


def _normalize_blackbox_result(result, interval_length):
    if result is None:
        return _BFAIL
    if isinstance(result, dict):
        return dict(result), None, interval_length
    if isinstance(result, (bytes, bytearray)):
        return {}, bytes(result), interval_length
    # Duck-typed BlackboxResult: attrs / payload / end attributes.
    if hasattr(result, "attrs") and hasattr(result, "payload"):
        end = getattr(result, "end", None)
        if end is None:
            end = interval_length
        return dict(result.attrs), result.payload, end
    raise TypeError(
        f"blackbox parser returned unsupported type {type(result).__name__}"
    )
'''

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
    implementation = BLACKBOXES.get(name)
    if implementation is None:
        raise BlackboxError(
            f"grammar declares blackbox {name!r} but no implementation was "
            f"registered; call register_blackbox({name!r}, fn) first"
        )
    # Blackboxes receive real bytes; bytes() only copies on memoryview runs.
    window = bytes(data[lo:hi])
    try:
        raw = implementation(window)
    except Exception as exc:  # the blackbox itself failed
        raise BlackboxError(f"blackbox parser {name!r} raised: {exc}") from exc
    outcome = _normalize_blackbox_result(raw, hi - lo)
    if outcome is _BFAIL:
        return FAIL
    attrs, payload, end = outcome
    if _ELIDE_TREE:
        payload = None  # the blackbox still runs; only its Leaf is dropped
    return _wrap_outcome(name, attrs, end, payload, hi - lo)
'''

#: The full standalone prelude: shared runtime plus the per-module
#: blackbox registry.
_PRELUDE = _PRELUDE_BASE + "\n\n" + _PRELUDE_BLACKBOX

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


def parse_nonterminal(data, name, lo, hi):
    """``s[lo, hi] |- name`` -> Node or the FAIL sentinel."""
    state = _new_state()
    fn = _ENTRY.get(name)
    if fn is not None:
        return fn(state, data, lo, hi)
    if name in _BUILTINS:
        return _run_builtin(name, data, lo, hi)
    if name in DECLARED_BLACKBOXES:
        return _bb(name, data, lo, hi)
    raise IPGError(f"no rule, builtin or blackbox for nonterminal {name!r}")


_RECURSION_LIMIT = 100000


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
    data = _as_buffer(data)
    name = START if start is None else start
    previous_limit = _sys.getrecursionlimit()
    if _RECURSION_LIMIT > previous_limit:
        _sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        result = parse_nonterminal(data, name, 0, len(data))
    except (RecursionError, MemoryError) as exc:
        raise LimitExceeded(
            f"{type(exc).__name__} while parsing {name!r}; the input drives "
            f"unbounded recursion or allocation",
            limit="recursion",
            nonterminal=name,
        ) from exc
    finally:
        if _RECURSION_LIMIT > previous_limit:
            _sys.setrecursionlimit(previous_limit)
    return None if result is FAIL else result


def parse(data, start=None):
    """Parse ``data``; raises a ParseFailure subclass on non-matching input.

    Failures are classified by ``_diagnose_and_raise`` — through repro's
    reference interpreter when importable, as a plain vendored
    ``ParseFailure`` otherwise.
    """
    data = _as_buffer(data)
    name = START if start is None else start
    result = try_parse(data, name)
    if result is not None:
        return result
    _diagnose_and_raise(data, name)
'''

#: Names every per-format package module pulls from the shared prelude
#: module.  Everything else the generated rule functions and the public
#: epilogue reference is either module-local (constants, dispatch tables,
#: ``_ENTRY``/``_new_state``, the blackbox registry) or stdlib.
_PACKAGE_IMPORTS = (
    "ArrayNode",
    "BlackboxError",
    "BoundsViolation",
    "EvaluationError",
    "FAIL",
    "GuardRejected",
    "IPGError",
    "Leaf",
    "LimitExceeded",
    "Node",
    "ParseFailure",
    "TruncatedInput",
    "_BFAIL",
    "_BUILTINS",
    "_MISS",
    "_UB",
    "_aidx",
    "_as_buffer",
    "_badexists",
    "_div",
    "_exists",
    "_ifb",
    "_limit_refill",
    "_limit_steps",
    "_limit_wall",
    "_monotonic",
    "_make_builtin_runner",
    "_mk_array",
    "_mk_leaf",
    "_mk_node",
    "_mod",
    "_noarr",
    "_nonode",
    "_normalize_blackbox_result",
    "_run_builtin",
    "_shift_l",
    "_shift_r",
    "_struct",
    "_undef",
    "_wrap_outcome",
)

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

_STREAMING_RUNTIME_CACHE: Optional[str] = None


def _streaming_runtime_source() -> str:
    """Vendored streaming runtime: EOIProxy, StreamBuffer, tree resolution.

    Extracted from :mod:`repro.core.streaming` at render time so the
    emitted copy can never drift from the in-repo semantics.  The pieces
    only reference names the prelude defines (``NeedMoreInput``,
    ``IPGError``, ``LimitExceeded``, ``Node``, ``ArrayNode``); their type
    annotations stay unevaluated because every emitted module starts with
    ``from __future__ import annotations``.
    """
    global _STREAMING_RUNTIME_CACHE
    if _STREAMING_RUNTIME_CACHE is None:
        import inspect

        from . import streaming as _streaming

        _STREAMING_RUNTIME_CACHE = "\n\n\n".join(
            inspect.getsource(obj).rstrip("\n")
            for obj in (
                _streaming._needed_for,
                _streaming.EOIProxy,
                _streaming.StreamBuffer,
                _streaming._resolve_stream_tree,
            )
        )
    return _STREAMING_RUNTIME_CACHE


#: Streaming hooks: the fully-memoized stream variant's source is embedded
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


def _stream_new_state(buffer):
    return _stream_namespace()["_new_state"]()


def _stream_reset(state):
    # Rebuild the two-tier fuel cell (hot small-int counter + remainder)
    # for the new attempt; the budget is per attempt, not cumulative.
    # The wall deadline restarts too: the budget bounds parsing work,
    # not time spent waiting for the next chunk.
    if _STREAM_FUEL_SLOT is not None:
        max_steps = _MAX_STEPS
        take = 256 if max_steps > 256 else max_steps
        cell = state[_STREAM_FUEL_SLOT]
        cell[0] = take
        cell[1] = max_steps - take
        cell[2] = _wall_deadline()


def _stream_call(state, buffer, start):
    namespace = _stream_namespace()
    fn = namespace["_ENTRY"].get(start)
    if fn is not None:
        return fn(state, buffer, 0, buffer.end)
    if start in _BUILTINS:
        return _run_builtin(start, buffer, 0, buffer.end)
    if start in DECLARED_BLACKBOXES:
        return _bb(start, buffer, 0, buffer.end)
    raise IPGError(f"no rule, builtin or blackbox for nonterminal {start!r}")
'''

#: The streaming driver, mirroring :class:`repro.core.streaming.StreamingParse`
#: (including probe re-entry after every chunk and the EOI-pinned doubling
#: heuristic).
_STREAM_DRIVER = '''\
class StreamingParse:
    """One in-flight streaming parse (created by ``stream()``).

    Feed chunks with :meth:`feed`; obtain the final tree with
    :meth:`finish`.  Mirrors ``repro.core.streaming.StreamingParse``: one
    persistent fully-memoized engine state lives across re-entries, every
    chunk probes the parse once (keeping the compaction watermark fresh),
    and ``compact=True`` bounds peak memory at roughly one chunk plus the
    largest in-flight term.
    """

    def __init__(self, start=None, compact=True):
        self._start = START if start is None else start
        self._compact = compact
        self.buffer = StreamBuffer(max_bytes=_MAX_BUFFER_BYTES)
        self._state = _stream_new_state(self.buffer)
        self._result = None
        self._failed = False
        self._done = False
        self._finished_tree = None
        #: Received-bytes threshold from the last suspension hint; ``None``
        #: means only finish() can unblock the parse.
        self._wait_until = 0
        self._last_attempt_received = 0
        #: Number of parse re-entries performed (observability).
        self.attempts = 0

    @property
    def done(self):
        """Whether the parse outcome is already determined."""
        return self._done

    @property
    def max_buffered(self):
        """High-water mark of bytes simultaneously buffered."""
        return self.buffer.max_buffered

    def _attempt(self):
        self.attempts += 1
        buffer = self.buffer
        self._last_attempt_received = buffer.received
        buffer.begin_attempt()
        _stream_reset(self._state)
        previous_limit = _sys.getrecursionlimit()
        raise_limit = _RECURSION_LIMIT > previous_limit
        if raise_limit:
            _sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            result = _stream_call(self._state, buffer, self._start)
        except NeedMoreInput as suspension:
            self._wait_until = suspension.needed
            if self._compact and buffer.min_read is not None:
                buffer.discard_below(buffer.min_read)
            return False
        except (RecursionError, MemoryError) as exc:
            raise LimitExceeded(
                f"{type(exc).__name__} while stream-parsing {self._start!r}; "
                f"the input drives unbounded recursion or allocation",
                limit="recursion",
                nonterminal=self._start,
            ) from exc
        finally:
            if raise_limit:
                _sys.setrecursionlimit(previous_limit)
        self._done = True
        if result is FAIL:
            self._failed = True
        else:
            self._result = result
        if self._compact:
            buffer.discard_below(buffer.received)
        return True

    def feed(self, chunk):
        """Feed one chunk; returns True once the outcome is determined."""
        self.buffer.feed(chunk)
        if self._done:
            if self._compact:
                self.buffer.discard_below(self.buffer.received)
            return True
        if self._wait_until is None:
            # Only finish() can unblock the parse (an EOI-relative read or
            # length comparison) — but the pinned lower bound of such a
            # read moves forward as bytes arrive, so with compaction on we
            # re-enter each time the stream doubles to let the buffer shed
            # the middle (cost logarithmic in the stream length).
            if self._compact and self.buffer.received >= 2 * max(
                1, self._last_attempt_received
            ):
                return self._attempt()
            return False
        # Probe re-entry: attempt after every chunk, even before the last
        # suspension's byte hint is satisfied — the re-entry replays the
        # decided spine as memo hits and refreshes the compaction
        # watermark, bounding the buffer at one chunk + largest term.
        return self._attempt()

    def finish(self):
        """Mark end of stream and return the final parse tree.

        Raises a ParseFailure subclass when the stream does not match the
        grammar.  Idempotent on success.
        """
        if self._finished_tree is not None:
            return self._finished_tree
        self.buffer.finish()
        if not self._done:
            self._attempt()
        if self._failed:
            # Diagnose over the full input when nothing was compacted;
            # over a partial buffer the diagnosis would see a different
            # EOI, so a compacted stream degrades to an unclassified
            # failure instead (matching repro's driver).
            if self.buffer._base == 0:
                _diagnose_and_raise(bytes(self.buffer._data), self._start)
            raise ParseFailure(
                f"input of length {self.buffer.total} does not match "
                f"nonterminal {self._start!r} (bytes below offset "
                f"{self.buffer._base} were compacted away; re-run with "
                f"compact=False, or batch-parse, for a classified error)",
                nonterminal=self._start,
            )
        self._finished_tree = _resolve_stream_tree(self._result)
        return self._finished_tree


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


def render_package(compiled_by_name, package_doc: Optional[str] = None):
    """Render several compiled grammars as one package of parser modules.

    Returns a mapping of file name to module source: one ``<format>.py``
    per entry of ``compiled_by_name`` (keys are sanitized into module
    names), a single shared ``_prelude.py`` carrying the runtime, and an
    ``__init__.py``.  Unlike :func:`render_standalone_module`, the ~400
    prelude lines are **not** vendored per format — each format module
    only carries its grammar's generated functions, its constants, its
    own late-bound blackbox registry and the public API.  The package
    imports with nothing but the standard library on ``sys.path``
    (``repro``'s parse-tree classes are still reused when importable, so
    trees compare ``==`` across engines).
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
            _PRELUDE_BASE,
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
        grammar = compiled.grammar
        declared = "".join(f"{bb!r}, " for bb in sorted(grammar.blackboxes))
        module_doc = (
            f"Standalone IPG parser for {name!r} (start symbol: "
            f"{grammar.start}).\n\n"
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
            "import sys as _sys",
            "",
            f"from ._prelude import (\n    {imports},\n)",
            "",
            _PRELUDE_BLACKBOX,
            "",
            "# -- grammar constants -------------------------------------------------------",
            "",
        ]
        parts += _constant_lines(compiled)
        parts += [
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
    variant of the same grammar) is given, the module also carries a
    streaming driver: ``stream()`` / ``parse_stream()`` mirror the in-repo
    incremental parser, including probe re-entry and compaction.
    """
    grammar = compiled.grammar
    if module_doc is None:
        module_doc = (
            f"Standalone IPG parser (start symbol: {grammar.start}).\n\n"
            "Generated ahead of time by `repro compile`; imports with only the\n"
            "standard library on sys.path.  Public API: parse(data, start=None),\n"
            "try_parse(data, start=None), parse_nonterminal(data, name, lo, hi),\n"
            "register_blackbox(name, fn), stream(start=None, compact=True,\n"
            "force=False), parse_stream(chunks, ...), START, DECLARED_BLACKBOXES."
        )
    declared = "".join(f"{name!r}, " for name in sorted(grammar.blackboxes))
    parts = [
        _doc_literal(module_doc),
        "",
        "from __future__ import annotations",
        "",
        _PRELUDE,
        "",
        "# -- grammar constants -------------------------------------------------------",
        "",
    ]
    parts += _constant_lines(compiled)
    parts += [
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
    if stream_compiled is not None:
        stream_source = "\n".join(
            _constant_lines(stream_compiled) + ["", "", _module_body(stream_compiled)]
        )
        variant_lines = [
            f"_STREAM_FUEL_SLOT = {stream_compiled.fuel_slot!r}",
            "#: Source of the fully-memoized streaming variant of the rule",
            "#: functions (mirrors Parser._streaming_compiled); exec'd lazily",
            "#: into a copy of this module's globals on first stream().",
            f"_STREAM_SOURCE = {stream_source!r}",
        ]
    else:
        variant_lines = [
            "_STREAM_FUEL_SLOT = None",
            "_STREAM_SOURCE = None  # no streaming variant was generated",
        ]
    parts += [
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
        "",
        _STREAM_DRIVER,
    ]
    return "\n".join(parts)
