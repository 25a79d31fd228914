"""Worker-process entry point for the parse service.

Each worker is a single-threaded loop over its supervisor pipe: receive
a request dict, parse, send a reply dict.  Parsers are built lazily and
cached by grammar fingerprint (sha256 of the grammar text + backend), so
a grammar is staged/compiled once per worker process and every later
request for it pays only the parse; the cache keeps the
``_MAX_PARSERS`` most recently used parsers.  Input payloads arrive
inline for small requests or as a shared-memory spool file the worker
maps read-only and parses zero-copy (see :mod:`repro.service.wire`).

The worker converts every outcome into a reply:

* a parse tree as a *tape* (:func:`~repro.core.parsetree.tree_to_tape`:
  one walk into a flat postorder list of records, pickled to bytes; the
  supervisor forwards the bytes and the caller's first
  ``ServiceResult.tree`` decodes them), or a span env / validate
  verdict / recovered document as jsonable structures — copies, never
  live ``memoryview``s, since the spool mapping is closed before the
  reply is sent;
* a structured parse failure (class + offset + rule stack), re-raised
  as the same taxonomy exception on the supervisor side;
* a grammar/configuration error;
* as a last resort, an internal-error reply carrying the traceback —
  the worker survives anything that raises.

What the worker can *not* survive — segfaults, the OOM killer,
``os._exit`` — is the supervisor's job: it watches the process sentinel
and isolates the death to the in-flight request.

Requests also honour an in-process *soft deadline*: the supervisor
hands a ``soft_deadline_ms`` share of the request deadline, applied as
:attr:`~repro.core.limits.ParseLimits.max_wall_ms` so a slow parse
fails structurally (``LimitExceeded(limit="wall")``) without costing a
worker respawn.  The SIGKILL hard deadline remains the backstop for
stalls the fuel checks cannot see (a sleeping blackbox).

Fault injection (``op: "chaos"``) is only honoured when the service was
configured with ``allow_chaos`` — production services reject the
directives as errors.

Collection policy.  The worker owns its process, so it sets the cyclic
garbage collector's policy itself; nothing caller-visible changes:

* ``gc.freeze()`` once at start moves the heap inherited from the
  supervisor through fork to the permanent generation.  The worker's
  collections never scan those objects and never dirty their
  copy-on-write pages (the ``gc`` documentation's advice for processes
  that fork without exec).
* Automatic collection is off from the moment a message is received
  until its reply has been sent and ``msg``/``reply`` are dropped; then
  the state found is restored (an inherited disabled state stays
  disabled).  While a message is handled — parse, ``tree_to_tape``,
  pickling the reply, and the first request's grammar staging — every
  allocated object is still alive, so a collection would only rescan
  and promote live nodes and reclaim nothing.  When the request ends,
  refcounting frees its tree and the gen-0 count falls back on its own;
  only real cyclic garbage is left, and the first allocations after the
  state is restored collect it, between requests.

The in-process :class:`~repro.core.interpreter.Parser`, the supervisor
and the caller's process keep Python's default collector.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import signal
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Optional

from ..core.errors import IPGError, ParseFailure
from ..core.interpreter import Parser
from ..core.limits import DEFAULT_LIMITS
from ..core.parsetree import tree_to_tape
from .wire import SpooledInput, failure_to_wire

#: Wall budget compiled into cached parsers when the base limits carry
#: none: the per-request soft deadline rebinds the live budget, and with
#: the wall *checks* in the staged code from the start that rebinding
#: never has to re-stage an engine.
_FALLBACK_WALL_MS = 60_000

#: Parsers a worker keeps, least recently used evicted first.  Each
#: distinct ``grammar=`` text stages its own parser (tens to hundreds of
#: KB retained), so an unbounded cache grows with every new text.
_MAX_PARSERS = 64


def grammar_fingerprint(kind: str, ident: str, backend: str) -> str:
    """Stable identity of a (grammar, backend) pair across processes."""
    blob = f"{kind}\x00{backend}\x00{ident}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def resolve_blackbox_provider(spec: Optional[str]) -> Dict[str, object]:
    """Import a ``"module:attribute"`` provider into a blackbox dict.

    Raises :class:`IPGError` carrying the import or attribute error when
    the provider cannot be resolved.
    """
    if not spec:
        return {}
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise IPGError(
            f"blackbox_provider {spec!r} is not of the form 'module:attribute'"
        )
    try:
        value = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise IPGError(
            f"blackbox_provider {spec!r} cannot be resolved: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(value, dict) and callable(value):
        value = value()
    return dict(value)


class _WorkerState:
    """Per-process state: the parser cache and resolved blackboxes."""

    def __init__(self, payload: dict):
        self.backend = payload.get("backend", "compiled")
        self.allow_chaos = bool(payload.get("allow_chaos"))
        self.spool_dir = payload.get("spool_dir")
        base = payload.get("limits") or DEFAULT_LIMITS
        if base.max_wall_ms is None:
            base = replace(base, max_wall_ms=_FALLBACK_WALL_MS)
        self.base_limits = base
        self.provider_blackboxes = resolve_blackbox_provider(
            payload.get("blackbox_provider")
        )
        #: Fingerprint -> Parser, in least-recently-used order.
        self.parsers: "OrderedDict[str, Parser]" = OrderedDict()

    def parser_for(self, grammar_spec) -> Parser:
        kind, ident = grammar_spec
        key = grammar_fingerprint(kind, ident, self.backend)
        parser = self.parsers.get(key)
        if parser is not None:
            self.parsers.move_to_end(key)
            return parser
        if kind == "format":
            from ..formats import registry

            if ident not in registry:
                raise IPGError(f"unknown format {ident!r}; see `repro formats`")
            spec = registry[ident]
            parser = Parser(
                spec.grammar_text,
                blackboxes=dict(spec.blackboxes),
                backend=self.backend,
                limits=self.base_limits,
            )
        elif kind == "text":
            parser = Parser(
                ident,
                blackboxes=dict(self.provider_blackboxes),
                backend=self.backend,
                limits=self.base_limits,
            )
        else:
            raise IPGError(f"unknown grammar spec kind {kind!r}")
        self.parsers[key] = parser
        if len(self.parsers) > _MAX_PARSERS:
            self.parsers.popitem(last=False)
        return parser


def _handle_parse(state: _WorkerState, msg: dict) -> dict:
    spooled = None
    try:
        parser = state.parser_for(msg["grammar"])
        if msg.get("spool") is not None:
            path, length = msg["spool"]
            spooled = SpooledInput(path, length)
            data = spooled.data
        else:
            data = msg.get("data", b"")
        soft_ms = msg.get("soft_deadline_ms")
        if soft_ms is not None:
            # Every engine of the parser enforces its current limits.
            parser.limits = replace(parser.limits, max_wall_ms=soft_ms)
        begin = time.perf_counter()
        if msg.get("recover"):
            from ..core.recover import document_to_jsonable

            document = parser.parse_recover(data, max_errors=msg.get("max_errors"))
            reply = {
                "kind": "recovered",
                "document": document_to_jsonable(document),
            }
            del document
        else:
            emit = msg.get("emit", "tree")
            result = parser.parse(data, emit=emit)
            if emit == "tree":
                reply = {"kind": "tree", "tape": tree_to_tape(result)}
            elif emit == "spans":
                reply = {"kind": "spans", "root": result.name, "env": dict(result.env)}
            else:
                reply = {"kind": "ok"}
            del result
        reply["elapsed_ms"] = (time.perf_counter() - begin) * 1000.0
    except ParseFailure as exc:
        reply = {"kind": "parse-error", **failure_to_wire(exc)}
    except IPGError as exc:
        reply = {
            "kind": "grammar-error",
            "class": type(exc).__name__,
            "message": str(exc),
        }
    except BaseException as exc:  # noqa: BLE001 - the worker must survive
        reply = {
            "kind": "worker-error",
            "class": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    finally:
        # The reply holds copies only (tape leaves are bytes); drop the
        # mapping before sending so the spool file never outlives the
        # request here.
        if spooled is not None:
            spooled.close()
    return reply


def _handle_chaos(state: _WorkerState, msg: dict) -> dict:
    """Fault-injection directives (chaos harness / tests only)."""
    if not state.allow_chaos:
        return {
            "kind": "worker-error",
            "class": "ChaosDisabled",
            "message": "chaos directives require ServiceConfig.allow_chaos",
        }
    mode = msg.get("mode")
    seconds = float(msg.get("seconds", 0.0))
    if mode == "exit":  # a bare os._exit mid-request
        os._exit(int(msg.get("code", 3)))
    if mode == "segv":  # native crash
        import faulthandler

        faulthandler.disable()  # the fault is deliberate; keep logs clean
        os.kill(os.getpid(), signal.SIGSEGV)
    if mode == "oom":  # the kernel OOM killer's verdict, simulated
        os._exit(137)
    if mode == "leak":  # strand a file in the spool dir, then die
        if state.spool_dir:
            path = os.path.join(state.spool_dir, f"leak-{os.getpid()}.bin")
            with open(path, "wb") as handle:
                handle.write(b"\0" * 4096)
        os._exit(7)
    if mode == "hang":  # blackbox-style sleep the fuel checks cannot see
        time.sleep(seconds)
        return {"kind": "chaos-done", "mode": mode}
    if mode == "spin":  # busy loop (SIGKILL is the only way out early)
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            pass
        return {"kind": "chaos-done", "mode": mode}
    return {
        "kind": "worker-error",
        "class": "ChaosUnknown",
        "message": f"unknown chaos mode {mode!r}",
    }


@contextmanager
def _collection_paused():
    """Switch automatic cyclic collection off for the ``with`` body.

    The state found on entry is restored on the way out, whether the body
    finishes or raises; a process that inherited collection disabled
    keeps it disabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _answer(conn, state: _WorkerState, msg: dict) -> bool:
    """Handle one message and send its reply; False ends the loop."""
    op = msg.get("op")
    if op == "shutdown":
        return False
    if op == "ping":
        reply = {"kind": "pong"}
    elif op == "chaos":
        reply = _handle_chaos(state, msg)
    elif op == "parse":
        reply = _handle_parse(state, msg)
    else:
        reply = {
            "kind": "worker-error",
            "class": "ProtocolError",
            "message": f"unknown op {op!r}",
        }
    reply["id"] = msg.get("id")
    reply["pid"] = os.getpid()
    try:
        conn.send(reply)
    except (BrokenPipeError, OSError):
        return False
    return True


def worker_main(conn, payload: dict) -> None:
    """The worker process main loop (target of the supervisor's spawn)."""
    # The supervisor owns lifecycle; a terminal Ctrl-C must interrupt it,
    # not strand half a pool mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The heap inherited through fork is long-lived: never rescan it.
    gc.freeze()
    try:
        state = _WorkerState(payload)
    except BaseException as exc:  # provider import failed: report and die
        try:
            conn.send(
                {
                    "id": None,
                    "kind": "worker-error",
                    "class": type(exc).__name__,
                    "message": f"worker initialization failed: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
        except OSError:
            pass
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        # No automatic collection while a message is handled: see the
        # collection policy in the module docstring.
        with _collection_paused():
            more = _answer(conn, state, msg)
            del msg
        if not more:
            return
