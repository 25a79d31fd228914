"""The runtime every staged parser executes against, written once.

Generated rule functions call a fixed set of helpers: node allocation,
bounds-checked array references, the partial arithmetic operators, the
step/wall budget slow paths, the builtin nonterminal parsers and runners,
blackbox invocation, and the parse guard every entry point runs its engine
under (recursion headroom, its ``LimitExceeded`` mapping and the collector
pause).  This module is the only definition of each:

* the closure backend (:func:`repro.core.compiler.compile_grammar`) binds
  the names of :data:`__all__` straight from this module object into each
  staged grammar's namespace;
* the reference interpreter uses the same builtin parsers, outcome
  wrapping and blackbox call;
* the ahead-of-time emitter (:mod:`repro.core.codegen`) copies the source
  below the ``VENDORED`` marker into every emitted parser module, so an
  emitted module runs the very same code with only the standard library
  (the live-guard count below the ``GUARD`` marker is vendored as a
  fallback only: an emitted module binds this module's when ``repro`` is
  importable, so the two count their live guards together).

The vendored part uses nothing but the standard library and the names
imported above the marker (the error classes and the parse-tree classes),
which every emitted module defines itself.
"""

from __future__ import annotations

from .errors import BlackboxError, EvaluationError, LimitExceeded
from .parsetree import ArrayNode, Leaf, Node

#: Every name generated code, the emitted public API and its tree classes
#: may reference from the runtime: the exec namespace of a staged grammar
#: starts from exactly these, and an emitted package's format modules
#: import these from their shared ``_prelude`` module.
__all__ = [
    "ArrayNode",
    "EvaluationError",
    "FAIL",
    "LimitExceeded",
    "Leaf",
    "Node",
    "_BUILTINS",
    "_E",
    "_MISS",
    "_RECURSION_LIMIT",
    "_UB",
    "_aidx",
    "_aidx_env",
    "_badexists",
    "_call_blackbox",
    "_div",
    "_exists",
    "_guarded",
    "_ifb",
    "_limit_refill",
    "_make_builtin_runner",
    "_make_builtin_runner_elided",
    "_mk_array",
    "_mk_leaf",
    "_mk_node",
    "_mod",
    "_monotonic",
    "_noarr",
    "_nonode",
    "_refuel",
    "_shift_l",
    "_shift_r",
    "_struct",
    "_table",
    "_undef",
    "_unshift",
]

# -- VENDORED: everything below is copied into emitted parser modules --------

import struct as _struct
from time import monotonic as _monotonic

#: Parse failure (biased choice backtracks on it); public entry points
#: turn it into ``None`` or a :class:`ParseFailure`.
FAIL = object()
#: A builtin parser or blackbox reported failure.
_BFAIL = object()
#: Memo miss, distinct from a memoized FAIL.
_MISS = object()
#: A loop-variable local (or closure cell) whose binding is not live:
#: before its loop started, after it finished, or before the defining term
#: ran.  The interpreter pops the env binding, so reads must fall through
#: to an enclosing scope's binding, or fail, instead of seeing stale data.
_UB = object()
#: Children of every node of a tree-elided parse: one shared immutable
#: empty tuple, so no caller can corrupt shared state by mutating a
#: returned root's ``children``.
_E = ()
_ifb = int.from_bytes

_node_new = Node.__new__
_leaf_new = Leaf.__new__
_array_new = ArrayNode.__new__


def _mk_node(name, env, children):
    """Allocate a Node without the constructor's defensive copies."""
    node = _node_new(Node)
    node.name = name
    node.env = env
    node.children = children
    return node


def _unshift(entry):
    """A copy of the node a right chain's memo entry ``(node, shift)`` names.

    The chain's backward loop shifts the node of a level it built by
    ``shift`` in place when the next level takes it as a child; the memo
    entry keeps the shift, so a later hit gets the unshifted node.
    """
    node, shift = entry
    env = dict(node.env)
    env["start"] -= shift
    env["end"] -= shift
    return _mk_node(node.name, env, node.children)


def _mk_leaf(value):
    # Rule bodies pass raw input slices; on a memoryview-backed parse this
    # is where a payload becomes real bytes (the only copy made).
    leaf = _leaf_new(Leaf)
    leaf.value = value if type(value) is bytes else bytes(value)
    return leaf


def _mk_array(name, elements):
    array = _array_new(ArrayNode)
    array.name = name
    array.elements = elements
    return array


def _table(default, *runs):
    """A 256-entry first-byte jump table, built when the module executes.

    Every byte maps to ``default`` except the bytes ``lo <= b < hi`` of
    each ``(lo, hi, entry)`` run, so a generated table is one short line.
    """
    table = [default] * 256
    for lo, hi, entry in runs:
        table[lo:hi] = [entry] * (hi - lo)
    return tuple(table)


# -- expression runtime ------------------------------------------------------


def _int_div(a, b):
    """Truncating (C-like) integer division: the IPG ``/`` operator."""
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
    """Bounds-checked ``A(e).attr`` on an element list."""
    if 0 <= position < len(elements):
        # A missing attribute raises KeyError, which the enclosing
        # alternative turns into failure, like EvaluationError.
        return elements[position].env[attr]
    raise EvaluationError(
        f"array reference {name}({position}) out of range "
        f"(array has {len(elements)} elements)"
    )


def _aidx_env(envs, position, name, attr):
    """``_aidx`` for tree-elided parses, whose element lists hold bare envs."""
    if 0 <= position < len(envs):
        return envs[position][attr]
    raise EvaluationError(
        f"array reference {name}({position}) out of range "
        f"(array has {len(envs)} elements)"
    )


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
    """Runtime support for ``exists j . e1 ? e2 : e3`` (section 3.4)."""
    for position in range(length):
        if condition(position) != 0:
            return then(position)
    return otherwise()


# -- resource budgets --------------------------------------------------------


def _limit_steps():
    raise LimitExceeded(
        "parse step budget exhausted (max_steps); lift it for trusted input "
        "with ParseLimits.unlimited(), or set_limits(None) on an emitted module",
        limit="max_steps",
    )


def _limit_wall():
    raise LimitExceeded(
        "parse wall-clock budget exhausted (max_wall_ms)",
        limit="wall",
    )


def _limit_refill(cell):
    """Slow path of the step budget: refill the hot counter or raise.

    The fuel cell is two-tiered: ``cell[0]`` is the hot countdown the
    generated dispatchers decrement, ``cell[1]`` the rest of the budget.
    Keeping the hot counter within CPython's cached small-int range
    (<= 256) makes the per-rule decrement allocation-free; a counter
    seeded straight from ``max_steps`` (tens of millions) allocates a
    fresh int object on every decrement, which costs double-digit
    percentages on rule-call-dense grammars and ticks the GC heuristic.

    ``cell[2]`` is the optional wall-clock deadline (monotonic seconds,
    ``None`` when no wall budget is set): checking it here, on the
    once-per-256-charges slow path, gives wall-budget enforcement that
    costs nothing on the per-rule hot path.
    """
    remaining = cell[1]
    if remaining <= 0:
        _limit_steps()
    deadline = cell[2]
    if deadline is not None and _monotonic() > deadline:
        _limit_wall()
    take = 256 if remaining > 256 else remaining
    cell[0] = take - 1  # the entry that tripped the refill consumes one
    cell[1] = remaining - take


def _refuel(cell, max_steps, deadline):
    """Re-arm a fuel cell with a whole budget (a new streaming attempt).

    The budget is split like :func:`_limit_refill` does it, so the hot
    counter stays in the small-int range and decrements never allocate.
    """
    take = 256 if max_steps > 256 else max_steps
    cell[0] = take
    cell[1] = max_steps - take
    cell[2] = deadline


# -- builtin nonterminals ----------------------------------------------------
#
# A builtin parser receives the shared input buffer plus its absolute
# interval ``[lo, hi)`` and returns ``_BFAIL`` or ``(attrs, end, payload)``:
# integer attributes, the relative offset one past the last byte consumed,
# and the bytes to keep as a Leaf (``None`` for zero-copy builtins).


def _fixed_int(size, byteorder, signed=False):
    def parse(data, lo, hi):
        if hi - lo < size:
            return _BFAIL
        window = data[lo : lo + size]
        return {"val": _ifb(window, byteorder, signed=signed)}, size, window

    return parse


def _p_raw(data, lo, hi):
    # Zero-copy: accept the whole interval without materializing its bytes.
    length = hi - lo
    return {"len": length, "val": length}, length, None


def _p_bytes(data, lo, hi):
    # Like Raw, but the bytes are kept in the tree (file names, payloads...).
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


#: Fixed-width integer builtins: name -> (byte width, byteorder, signed).
_FIXED_INTS = {
    "U8": (1, "little", False),
    "Byte": (1, "little", False),
    "U16LE": (2, "little", False),
    "U16BE": (2, "big", False),
    "U32LE": (4, "little", False),
    "U32BE": (4, "big", False),
    "U64LE": (8, "little", False),
    "U64BE": (8, "big", False),
    "I32LE": (4, "little", True),
}

#: Builtin nonterminal name -> parser.
_BUILTINS = {name: _fixed_int(*spec) for name, spec in _FIXED_INTS.items()}
_BUILTINS.update(Raw=_p_raw, Bytes=_p_bytes, AsciiInt=_p_ascii_int, BinInt=_p_bin_int)


def _wrap_outcome(name, attrs, end, payload, length):
    """Build the (unrebased) node a builtin/blackbox outcome denotes."""
    env = {"EOI": length, "start": 0 if end else length, "end": end}
    env.update(attrs)
    children = [_mk_leaf(payload)] if payload is not None else []
    return _mk_node(name, env, children)


def _make_builtin_runner(name):
    """Specialize a builtin's parse-and-wrap (bound once per builtin)."""
    parse = _BUILTINS[name]

    def run(data, lo, hi):
        outcome = parse(data, lo, hi)
        if outcome is _BFAIL:
            return FAIL
        attrs, end, payload = outcome
        return _wrap_outcome(name, attrs, end, payload, hi - lo)

    return run


def _make_builtin_runner_elided(name):
    """Builtin runner for tree-elided parses: same env, no payload Leaf.

    ``Bytes`` runs ``Raw``'s parser outright: the two compute identical
    attributes and differ only in the payload copy elision exists to skip.
    """
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


# -- blackbox parsers --------------------------------------------------------


def _normalize_blackbox_result(result, interval_length):
    """Convert a blackbox's return value into ``(attrs, payload, end)``.

    A blackbox may return ``None`` (failure: ``_BFAIL`` is returned), an
    attribute dict, payload bytes, or any object with ``attrs`` and
    ``payload`` attributes and an optional ``end`` (``BlackboxResult`` or
    a duck-typed equivalent).  Anything else raises :class:`BlackboxError`.
    """
    if result is None:
        return _BFAIL
    if isinstance(result, dict):
        return dict(result), None, interval_length
    if isinstance(result, (bytes, bytearray)):
        return {}, bytes(result), interval_length
    if hasattr(result, "attrs") and hasattr(result, "payload"):
        end = getattr(result, "end", None)
        if end is None:
            end = interval_length
        return dict(result.attrs), result.payload, end
    raise BlackboxError(
        f"blackbox parser returned unsupported type {type(result).__name__}"
    )


def _call_blackbox(blackboxes, name, data, lo, hi, elide_tree):
    """Run blackbox ``name`` from the registry dict ``blackboxes`` on ``[lo, hi)``."""
    implementation = blackboxes.get(name)
    if implementation is None:
        raise BlackboxError(
            f"grammar declares blackbox {name!r} but no implementation was "
            f"registered; register an implementation of {name!r} before parsing"
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
    if elide_tree:
        payload = None  # the blackbox still runs; only its Leaf is dropped
    return _wrap_outcome(name, attrs, end, payload, hi - lo)


# -- the parse guard ---------------------------------------------------------


def _guarded(limit, name, run, *args):
    """``run(*args)`` with at least ``limit`` recursion headroom and the
    cyclic garbage collector paused.

    Every entry point runs its engine through here: recursive descent
    needs stack headroom on deep documents (Fig. 3's ``Int``, GIF's
    ``Blocks``), and every object an engine allocates is still alive
    when it returns, so a collection during the run would only rescan
    the growing tree.  The caller's limit and collector state come back
    when the last guard of the process exits (the live-guard count
    below).  A ``RecursionError`` or ``MemoryError`` escaping ``run``
    surfaces as :class:`LimitExceeded` for the nonterminal ``name``.
    """
    ident = _guard_enter(limit)
    try:
        return run(*args)
    except (RecursionError, MemoryError) as exc:
        raise LimitExceeded(
            f"{type(exc).__name__} while parsing {name!r}; the input drives "
            f"recursion deeper than the recursion limit or unbounded "
            f"allocation",
            limit="recursion",
            nonterminal=name,
        ) from exc
    finally:
        _guard_exit(ident)


# -- GUARD: the live-guard count (an emitted module binds repro's) -----------

# The recursion limit and the collector's on/off switch are process-wide
# while parses run per thread, so the guards count themselves: the first
# one to change either saves the caller's state, and only the last one to
# exit puts it back.  A guard that restored its own saved limit would pull
# it out from under another thread's live deep parse (a fatal stack
# overflow on CPython 3.10/3.11).  The collector pause is one thread's:
# a guard entered by a second thread ends it, so a process whose threads
# always have some parse live collects as if no guard paused it.

import gc
import os
import sys
import threading

#: Recursion limit a parse runs under unless its ``Parser`` asks for
#: another (``Parser(recursion_limit=...)``).
_RECURSION_LIMIT = 100_000


def _guard_cap():
    # Before CPython 3.11 every Python call nests C frames as well, so a
    # limit above what the C stack holds turns a deep input into a
    # segfault instead of LimitExceeded.  Deep parses on 3.10 overflowed
    # an 8 MiB stack at a depth of ~20,140 (~416 bytes a level): allow one
    # level per 440 bytes of RLIMIT_STACK, the size new threads get too.
    if sys.version_info >= (3, 11):
        return sys.maxsize
    stack = 8 << 20
    try:
        import resource

        soft = resource.getrlimit(resource.RLIMIT_STACK)[0]
        if soft != resource.RLIM_INFINITY:
            stack = soft
    except (ImportError, OSError, ValueError):
        pass
    return stack // 440


#: The highest recursion limit a guard installs, whatever it is asked for.
_GUARD_CAP = _guard_cap()

_guard_ident = threading.get_ident
_guard_lock = threading.Lock()
#: Live guards per thread ident.
_guard_live = {}
#: The caller's recursion limit, saved by the first live guard that
#: raised it; ``None`` while no live guard has.
_guard_saved = None
#: Whether a live guard switched automatic collection off (it was on
#: when the first guard entered, and no second thread has entered since).
_guard_paused = False


def _guard_enter(limit):
    """Count a live guard of this thread; raise the limit to ``limit``
    (at most ``_GUARD_CAP``).

    The first guard of the process pauses automatic collection; one
    entered while another thread holds the pause ends it.
    """
    global _guard_saved, _guard_paused
    ident = _guard_ident()
    limit = min(limit, _GUARD_CAP)
    with _guard_lock:
        current = sys.getrecursionlimit()
        if current < limit:
            sys.setrecursionlimit(limit)
            if _guard_saved is None:
                _guard_saved = current
        if not _guard_live and gc.isenabled():
            gc.disable()
            _guard_paused = True
        elif _guard_paused and ident not in _guard_live:
            gc.enable()
            _guard_paused = False
        _guard_live[ident] = _guard_live.get(ident, 0) + 1
    return ident


def _guard_exit(ident):
    """Uncount a live guard; the last one out restores the caller's state."""
    with _guard_lock:
        live = _guard_live.pop(ident) - 1
        if live:
            _guard_live[ident] = live
        elif not _guard_live:
            _guard_restore()


def _guard_restore():
    # Under the lock, with no live guard left: the caller's limit and
    # collector state come back.
    global _guard_saved, _guard_paused
    if _guard_saved is not None:
        sys.setrecursionlimit(_guard_saved)
        _guard_saved = None
    if _guard_paused:
        gc.enable()
        _guard_paused = False


def _guard_after_fork():
    # A forked child runs only the forking thread: every other thread's
    # guards are gone, and the lock may have been held at the fork.
    global _guard_lock
    _guard_lock = threading.Lock()
    ident = _guard_ident()
    mine = _guard_live.get(ident)
    _guard_live.clear()
    if mine:
        _guard_live[ident] = mine
    else:
        _guard_restore()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_guard_after_fork)
