"""Wire protocol between the parse-service supervisor and its workers.

Requests and replies are small picklable dicts over a
``multiprocessing`` pipe; input payloads above the inline threshold are
*spooled*: the supervisor writes the bytes once to a file under the
service's private spool directory (``/dev/shm`` when available, so the
file is RAM-backed shared memory) and ships only ``(path, length)``.
The worker maps the file read-only and parses the ``mmap`` directly —
the engines accept any buffer-protocol object without copying (the
zero-copy discipline of the buffer layer), so a large input crosses the
process boundary zero times.

The supervisor owns every spool file: it creates it at submit, keeps it
alive across retries (a respawned worker re-maps the same file), and
unlinks it when the request resolves — including the crash path, so a
SIGKILLed worker can never leak a segment.  Closing the service removes
the whole spool directory.

A tree reply carries its parse tree as a *tape*
(:func:`~repro.core.parsetree.tree_to_tape`): the tree's records in
postorder, in one flat list pickled to bytes, where a node is ``name,
env, child_count``, an array is ``None, name, element_count`` and a
leaf is its bytes.  The worker pays one walk and one pickle of that
list; the supervisor copies the bytes out of the pipe and forwards
them undecoded, so its single thread never rebuilds a tree.
``ServiceResult.tree`` decodes the tape on first read
(:func:`~repro.core.parsetree.tape_to_jsonable`) in the reading thread:
the decode costs about 1.4x what unpickling nested dicts cost the
supervisor, but it lands on the caller, and only for trees it reads.
A done callback runs on the supervisor thread, so reading ``.tree``
there puts the decode back on it.  Recovered documents and span replies
still cross as jsonable dicts.

Parse failures cross the boundary as class-name + fields and are
reconstructed into the *same* structured taxonomy exception
(:func:`failure_from_wire`), so a service caller dispatches on
``TruncatedInput`` / ``GuardRejected`` / ... exactly as an in-process
caller would.
"""

from __future__ import annotations

import mmap
import os
from typing import Optional

from ..core import errors as _errors
from ..core.errors import ParseFailure

#: Failure classes allowed across the wire (name -> class).  A lookup
#: table rather than getattr-on-module so a hostile or corrupted reply
#: can only ever instantiate the parse taxonomy.
FAILURE_CLASSES = {
    cls.__name__: cls
    for cls in (
        _errors.ParseFailure,
        _errors.TruncatedInput,
        _errors.BoundsViolation,
        _errors.GuardRejected,
        _errors.LimitExceeded,
    )
}

#: Grammar/configuration error classes a worker may report.
CONFIG_ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (
        _errors.IPGError,
        _errors.GrammarSyntaxError,
        _errors.AttributeCheckError,
        _errors.AutoCompletionError,
        _errors.TerminationCheckError,
        _errors.BlackboxError,
        _errors.CompilationError,
        _errors.NotStreamableError,
        _errors.EvaluationError,
    )
}


def failure_to_wire(exc: ParseFailure) -> dict:
    """Flatten a structured parse failure into a picklable dict."""
    wire = {
        "class": type(exc).__name__,
        "message": str(exc),
        "nonterminal": exc.nonterminal,
        "offset": exc.offset,
        "rule_stack": list(exc.rule_stack),
        "interval": list(exc.interval) if exc.interval is not None else None,
    }
    limit = getattr(exc, "limit", None)
    if limit is not None:
        wire["limit"] = limit
    return wire


def failure_from_wire(wire: dict) -> ParseFailure:
    """Rebuild the taxonomy exception a worker reported."""
    cls = FAILURE_CLASSES.get(wire.get("class"), ParseFailure)
    message = wire.get("message", "parse failed")
    kwargs = {
        "nonterminal": wire.get("nonterminal", ""),
        "rule_stack": tuple(wire.get("rule_stack") or ()),
        "interval": wire.get("interval"),
    }
    if cls is _errors.LimitExceeded:
        return cls(message, limit=wire.get("limit", ""), **kwargs)
    return cls(message, offset=wire.get("offset"), **kwargs)


def config_error_from_wire(wire: dict) -> Exception:
    cls = CONFIG_ERROR_CLASSES.get(wire.get("class"), _errors.IPGError)
    try:
        return cls(wire.get("message", "grammar error"))
    except TypeError:  # subclass with a stricter signature
        return _errors.IPGError(wire.get("message", "grammar error"))


# ---------------------------------------------------------------------------
# Spool files (shared-memory payload shipping)
# ---------------------------------------------------------------------------


def spool_write(spool_dir: str, request_id: int, data) -> str:
    """Write ``data`` to a spool file; returns its path.

    The name embeds the request id (unique per service instance), so
    concurrent requests never collide and a leftover file is attributable.
    """
    path = os.path.join(spool_dir, f"req-{request_id}.bin")
    with open(path, "wb") as handle:
        handle.write(data)
    return path


class SpooledInput:
    """A worker-side read-only mapping of a spooled payload.

    Exposes the mapped buffer via :attr:`data`; :meth:`close` drops it.
    An empty payload maps to ``b""`` (mmap refuses zero-length maps).
    """

    def __init__(self, path: str, length: int):
        self._mmap: Optional[mmap.mmap] = None
        if length == 0:
            self.data = b""
            return
        with open(path, "rb") as handle:
            self._mmap = mmap.mmap(handle.fileno(), length, access=mmap.ACCESS_READ)
        self.data = self._mmap

    def close(self) -> None:
        if self._mmap is None:
            return
        try:
            self._mmap.close()
        except BufferError:
            # A view escaped (shouldn't happen: replies hold copies);
            # break collectable cycles and retry once.
            import gc

            gc.collect()
            try:
                self._mmap.close()
            except BufferError:
                pass
        self._mmap = None
