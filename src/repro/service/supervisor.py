"""The parse-service supervisor: a fault-tolerant pool of parse workers.

Failure-first design.  The supervisor thread owns N worker processes
and never trusts them: every request carries a per-attempt wall-clock
deadline enforced from *outside* the worker (SIGKILL — a worker stuck
in a sleeping blackbox or a native call cannot be asked nicely), every
worker death is observed via its process sentinel and isolated to the
in-flight request, and a dead worker is respawned with exponential
backoff plus seeded jitter so a crash-looping pool cannot fork-bomb the
host.  A killed or crashed request is retried once on a fresh worker
(configurable) before degrading to a structured
:class:`~repro.core.errors.ServiceError` reply — a caller gets exactly
one answer per request: a tree, a recovered document, a structured
parse failure, or a service error.  Never a hang.

Backpressure is explicit: the pending queue is bounded and a ``submit``
beyond the bound is shed synchronously with
:class:`~repro.core.errors.ServiceOverloaded` (carrying a
``retry_after`` hint) instead of buffering unboundedly.

Inputs that kill a worker are quarantined to the on-disk crasher corpus
(:mod:`repro.service.quarantine`) before the retry, so a poisonous
input caught in production is a replayable artifact, not a log line.

The supervisor itself is defended: its loop runs under a blanket
handler that, on an unexpected internal error, resolves every
outstanding request with ``ServiceClosed`` and kills the pool — the
no-hung-caller contract survives supervisor bugs too.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional

from ..core.errors import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    WorkerCrashed,
)
from ..core.parsetree import tape_to_jsonable
from .config import ServiceConfig
from .quarantine import QuarantineCorpus
from .wire import config_error_from_wire, failure_from_wire, spool_write
from .worker import resolve_blackbox_provider, worker_main

__all__ = ["ParseService", "ServiceResult", "parse_many"]


class ServiceResult:
    """One reply from the service — exactly one per submitted request.

    ``kind`` is ``"tree"``, ``"spans"``, ``"ok"`` (validate-only),
    ``"recovered"``, ``"chaos"`` (a completed chaos directive) or
    ``"error"``.  Trees and recovered documents are jsonable structures
    (:func:`~repro.core.parsetree.tree_to_jsonable` /
    :func:`~repro.core.recover.document_to_jsonable`) — wire-safe
    copies, never views into worker memory.  ``error`` carries the
    reconstructed taxonomy exception: a
    :class:`~repro.core.errors.ParseFailure` subclass for input
    verdicts, a :class:`~repro.core.errors.ServiceError` subclass for
    machinery verdicts.

    A tree reply arrives as the worker's *tape*
    (:func:`~repro.core.parsetree.tree_to_tape`: a pickled postorder
    list of records), and the supervisor stores those bytes without
    looking inside.  :attr:`tree` decodes the tape on its first read,
    in the reading thread, and caches the jsonable tree; concurrent
    first reads decode once and all get that tree.  A caller that never
    reads :attr:`tree` never pays for the decode, and a caller that
    does pays it outside the supervisor thread (unless it reads from a
    future's done callback, which runs there).  ``ServiceResult(...,
    tree=obj)`` still builds a result around a ready tree.
    """

    def __init__(
        self,
        request_id: int,
        kind: str,
        tree: Optional[dict] = None,
        document: Optional[dict] = None,
        root: Optional[str] = None,
        env: Optional[dict] = None,
        error: Optional[Exception] = None,
        elapsed_ms: Optional[float] = None,
        worker_pid: Optional[int] = None,
        retried: bool = False,
        *,
        tape: Optional[bytes] = None,
    ):
        self.request_id = request_id
        self.kind = kind
        self.document = document
        self.root = root
        self.env = env
        self.error = error
        self.elapsed_ms = elapsed_ms
        self.worker_pid = worker_pid
        self.retried = retried
        self._tree = tree
        self._tape = tape
        self._decode_lock = threading.Lock() if tape is not None else None

    @property
    def tree(self) -> Optional[dict]:
        # The tape is dropped only after the tree is stored, so a reader
        # that finds no tape finds the tree.
        if self._tape is not None:
            with self._decode_lock:
                if self._tape is not None:
                    self._tree = tape_to_jsonable(self._tape)
                    self._tape = None
        return self._tree

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_status(self) -> "ServiceResult":
        if self.error is not None:
            raise self.error
        return self

    def __repr__(self) -> str:
        tape = self._tape  # never decoded for a repr
        tree = f"<tape of {len(tape)} B>" if tape is not None else repr(self._tree)
        return (
            f"ServiceResult(request_id={self.request_id!r}, kind={self.kind!r}, "
            f"tree={tree}, error={self.error!r}, elapsed_ms={self.elapsed_ms!r}, "
            f"worker_pid={self.worker_pid!r}, retried={self.retried!r})"
        )


@dataclass
class _Request:
    id: int
    msg: dict                      # wire message (sans routing fields)
    deadline_ms: int
    retries_left: int
    future: Future = field(default_factory=Future)
    inline_data: Optional[bytes] = None
    spool_path: Optional[str] = None
    spool_length: int = 0
    quarantinable: bool = True
    retried: bool = False
    quarantined: bool = False

    def read_data(self) -> Optional[bytes]:
        """The input bytes, for quarantine (reads the spool file back)."""
        if self.inline_data is not None:
            return self.inline_data
        if self.spool_path is not None:
            try:
                with open(self.spool_path, "rb") as handle:
                    return handle.read()
            except OSError:
                return None
        return None


@dataclass
class _WorkerSlot:
    index: int
    proc: Optional[multiprocessing.process.BaseProcess] = None
    conn: object = None
    busy: Optional[_Request] = None
    attempt_deadline: float = 0.0
    consecutive_failures: int = 0
    respawn_at: Optional[float] = None
    spawned: int = 0


class ParseService:
    """A supervised worker pool answering parse requests under deadlines.

    In-process batch API::

        with ParseService(workers=2) as service:
            future = service.submit(data, format="dns", deadline_ms=500)
            result = future.result()       # ServiceResult, never hangs
            if result.ok:
                use(result.tree)

    Construction kwargs are :class:`~repro.service.config.ServiceConfig`
    fields (or pass ``config=`` explicitly).  See the module docstring
    for the failure semantics.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        # Fail here, not per request: a worker that cannot resolve the
        # provider dies before answering anything.
        resolve_blackbox_provider(config.blackbox_provider)
        self.config = config
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._spool_dir = tempfile.mkdtemp(
            prefix="repro-svc-", dir=config.spool_root
        )
        self._quarantine = (
            QuarantineCorpus(config.quarantine_dir)
            if config.quarantine_dir
            else None
        )
        self._lock = threading.Lock()
        self._pending: deque = deque()
        self._slots: List[_WorkerSlot] = [
            _WorkerSlot(index) for index in range(config.workers)
        ]
        self._next_id = 0
        self._closed = False
        self._torn_down = False
        self._rng = random.Random(config.seed)
        self._ewma_ms = float(config.default_deadline_ms) / 4.0
        self._stats: Dict[str, int] = {
            key: 0
            for key in (
                "submitted",
                "completed",
                "parse_errors",
                "service_errors",
                "crashes",
                "deadline_kills",
                "retries",
                "respawns",
                "shed",
                "quarantined",
            )
        }
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        with self._lock:
            for slot in self._slots:
                self._spawn_locked(slot)
        self._thread = threading.Thread(
            target=self._run, name="repro-service-supervisor", daemon=True
        )
        self._thread.start()

    # -- public API --------------------------------------------------------

    def submit(
        self,
        data,
        *,
        format: Optional[str] = None,
        grammar: Optional[str] = None,
        deadline_ms: Optional[int] = None,
        emit: str = "tree",
        recover: bool = False,
        max_errors: Optional[int] = None,
        retries: Optional[int] = None,
    ) -> Future:
        """Queue one parse request; returns a ``Future[ServiceResult]``.

        Exactly one of ``format`` (a bundled format name) or ``grammar``
        (IPG source text) selects the grammar.  ``deadline_ms`` is the
        per-attempt wall-clock budget (service default when omitted).
        ``recover=True`` routes through ``parse_recover`` and returns a
        recovered document instead of failing on hostile input.

        Raises :class:`~repro.core.errors.ServiceOverloaded` when the
        bounded queue is full and
        :class:`~repro.core.errors.ServiceClosed` after ``close()``.
        The returned future itself never raises from ``result()`` — all
        failures are ``ServiceResult.error``.
        """
        if (format is None) == (grammar is None):
            raise ValueError("pass exactly one of format= or grammar=")
        if emit not in ("tree", "spans", None):
            raise ValueError('emit must be "tree", "spans", or None')
        if recover and emit != "tree":
            raise ValueError("recover=True implies emit='tree'")
        grammar_spec = ("format", format) if format else ("text", grammar)
        budget = self.config.default_deadline_ms if deadline_ms is None else deadline_ms
        if budget <= 0:
            raise ValueError("deadline_ms must be positive")
        msg = {
            "op": "parse",
            "grammar": grammar_spec,
            "emit": emit,
            "recover": recover,
            "max_errors": max_errors,
            "soft_deadline_ms": self.config.soft_deadline_ms(budget),
        }
        request = _Request(
            id=-1,  # assigned under the lock
            msg=msg,
            deadline_ms=budget,
            retries_left=self.config.retries if retries is None else retries,
        )
        return self._enqueue(request, data)

    def submit_chaos(
        self,
        mode: str,
        *,
        seconds: float = 0.0,
        deadline_ms: Optional[int] = None,
    ) -> Future:
        """Inject a fault directive (requires ``allow_chaos``).

        Chaos requests are never retried and never quarantined — the
        harness asserts the *service's* reaction, not the directive's
        success: ``exit``/``segv``/``oom``/``leak`` resolve to a
        ``WorkerCrashed`` error result, ``hang``/``spin`` to
        ``chaos-done`` or a ``DeadlineExceeded`` kill depending on the
        deadline.
        """
        if not self.config.allow_chaos:
            raise ServiceError("chaos directives require ServiceConfig.allow_chaos")
        budget = self.config.default_deadline_ms if deadline_ms is None else deadline_ms
        request = _Request(
            id=-1,
            msg={"op": "chaos", "mode": mode, "seconds": seconds},
            deadline_ms=budget,
            retries_left=0,
            quarantinable=False,
        )
        return self._enqueue(request, None)

    def stats(self) -> Dict[str, int]:
        """A snapshot of the service counters plus live gauges."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["pending"] = len(self._pending)
            snapshot["busy"] = sum(1 for s in self._slots if s.busy is not None)
            snapshot["workers_alive"] = sum(
                1 for s in self._slots if s.proc is not None and s.proc.is_alive()
            )
        return snapshot

    def audit(self) -> Dict[str, object]:
        """Leak/integrity audit (the chaos harness's convergence check)."""
        with self._lock:
            alive = [
                s.proc.pid
                for s in self._slots
                if s.proc is not None and s.proc.is_alive()
            ]
            pending = len(self._pending)
            busy = sum(1 for s in self._slots if s.busy is not None)
        try:
            spool_files = len(os.listdir(self._spool_dir))
        except OSError:
            spool_files = 0
        return {
            "expected_workers": self.config.workers,
            "alive_workers": len(alive),
            "worker_pids": alive,
            "pending": pending,
            "busy": busy,
            "spool_files": spool_files,
            "spool_dir": self._spool_dir,
        }

    def close(self, timeout: float = 60.0) -> None:
        """Drain pending requests, stop workers, remove the spool dir.

        Every outstanding future resolves before the pool is torn down
        (bounded by the per-request deadlines); idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        self._wake()
        if not already:
            self._thread.join(timeout)
        self._teardown()

    def __enter__(self) -> "ParseService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- submission internals ---------------------------------------------

    def _enqueue(self, request: _Request, data) -> Future:
        with self._lock:
            if self._closed:
                raise ServiceClosed("the parse service is closed")
            if len(self._pending) >= self.config.max_pending:
                self._stats["shed"] += 1
                hint = self._retry_after_locked()
                raise ServiceOverloaded(
                    f"request queue full ({self.config.max_pending} pending); "
                    f"retry in ~{hint:.2f}s",
                    retry_after=hint,
                )
            self._next_id += 1
            request.id = self._next_id
            request.msg["id"] = request.id
            if data is not None:
                if len(data) <= self.config.inline_bytes_max:
                    request.inline_data = bytes(data)
                    request.msg["data"] = request.inline_data
                else:
                    request.spool_path = spool_write(
                        self._spool_dir, request.id, data
                    )
                    request.spool_length = len(data)
                    request.msg["spool"] = (request.spool_path, len(data))
            self._stats["submitted"] += 1
            self._pending.append(request)
        self._wake()
        return request.future

    def _retry_after_locked(self) -> float:
        per_request = max(self._ewma_ms, 1.0) / 1000.0
        backlog = len(self._pending) + sum(
            1 for s in self._slots if s.busy is not None
        )
        return max(0.05, backlog * per_request / max(1, self.config.workers))

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass

    # -- worker lifecycle (all called with the lock held) ------------------

    def _spawn_locked(self, slot: _WorkerSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        payload = self.config.worker_payload()
        payload["spool_dir"] = self._spool_dir
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, payload),
            name=f"repro-parse-worker-{slot.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the parent's copy; the child keeps its own
        slot.proc = proc
        slot.conn = parent_conn
        slot.busy = None
        slot.respawn_at = None
        slot.spawned += 1
        if slot.spawned > 1:
            self._stats["respawns"] += 1

    def _backoff_locked(self, slot: _WorkerSlot) -> float:
        exponent = max(0, slot.consecutive_failures - 1)
        base = min(
            self.config.spawn_backoff_cap,
            self.config.spawn_backoff_base * (2**exponent),
        )
        return base * (1.0 + 0.25 * self._rng.random())

    def _retire_locked(self, slot: _WorkerSlot, now: float) -> None:
        """Drop a dead worker's handles and schedule its replacement."""
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
        if slot.proc is not None:
            slot.proc.join(timeout=5)
        slot.proc = None
        slot.conn = None
        slot.consecutive_failures += 1
        slot.respawn_at = now + self._backoff_locked(slot)

    def _kill_locked(self, slot: _WorkerSlot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.kill()  # SIGKILL: hung workers ignore anything softer

    # -- request resolution ------------------------------------------------

    def _resolve_locked(self, request: _Request, result: ServiceResult) -> None:
        result.retried = request.retried
        self._release_spool(request)
        self._stats["completed"] += 1
        if result.error is not None:
            if isinstance(result.error, ServiceError):
                self._stats["service_errors"] += 1
            else:
                self._stats["parse_errors"] += 1
        if result.elapsed_ms is not None:
            self._ewma_ms = 0.8 * self._ewma_ms + 0.2 * result.elapsed_ms
        request.future.set_result(result)

    def _release_spool(self, request: _Request) -> None:
        if request.spool_path is not None:
            try:
                os.unlink(request.spool_path)
            except OSError:
                pass
            request.spool_path = None

    def _quarantine_locked(self, request: _Request, reason: str, **extra) -> None:
        if (
            self._quarantine is None
            or not request.quarantinable
            or request.quarantined
        ):
            return
        data = request.read_data()
        if data is None:
            return
        kind, ident = request.msg["grammar"]
        metadata = {
            "reason": reason,
            "grammar_kind": kind,
            "format": ident if kind == "format" else None,
            "grammar_text": ident if kind == "text" else None,
            "backend": self.config.backend,
            "deadline_ms": request.deadline_ms,
            "recover": bool(request.msg.get("recover")),
            "emit": request.msg.get("emit", "tree"),
            "blackbox_provider": self.config.blackbox_provider,
        }
        metadata.update(extra)
        if self._quarantine.add(data, metadata) is not None:
            self._stats["quarantined"] += 1
        request.quarantined = True

    def _fail_or_retry_locked(
        self, slot: _WorkerSlot, error: ServiceError, reason: str, **meta
    ) -> None:
        """A worker died (or was killed) with ``slot.busy`` in flight."""
        request = slot.busy
        slot.busy = None
        if request is None:
            return
        self._quarantine_locked(request, reason, **meta)
        if request.retries_left > 0:
            request.retries_left -= 1
            request.retried = True
            self._stats["retries"] += 1
            self._pending.appendleft(request)  # retried ahead of the queue
        else:
            self._resolve_locked(
                request, ServiceResult(request.id, "error", error=error)
            )

    def _reply_to_result(self, request: _Request, reply: dict) -> ServiceResult:
        kind = reply.get("kind")
        result = ServiceResult(
            request.id,
            kind or "error",
            elapsed_ms=reply.get("elapsed_ms"),
            worker_pid=reply.get("pid"),
            # Stored undecoded: the caller's first ``.tree`` decodes it.
            tape=reply.get("tape") if kind == "tree" else None,
        )
        if kind in ("tree", "ok"):
            pass
        elif kind == "spans":
            result.root = reply.get("root")
            result.env = reply.get("env")
        elif kind == "recovered":
            result.document = reply.get("document")
        elif kind == "chaos-done":
            result.kind = "chaos"
        elif kind == "parse-error":
            result.kind = "error"
            result.error = failure_from_wire(reply)
        elif kind == "grammar-error":
            result.kind = "error"
            result.error = config_error_from_wire(reply)
        else:  # worker-error or protocol surprise
            result.kind = "error"
            message = reply.get("message", "internal worker error")
            detail = reply.get("traceback")
            result.error = ServiceError(
                f"worker error: {message}"
                + (f"\n{detail}" if detail else "")
            )
        return result

    # -- the supervisor loop ------------------------------------------------

    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # noqa: BLE001 - defend the callers
            # Supervisor bug: honour the no-hung-caller contract anyway.
            with self._lock:
                self._closed = True
                failure = ServiceClosed(f"supervisor crashed: {exc!r}")
                for request in list(self._pending):
                    self._resolve_locked(
                        request, ServiceResult(request.id, "error", error=failure)
                    )
                self._pending.clear()
                for slot in self._slots:
                    if slot.busy is not None:
                        request = slot.busy
                        slot.busy = None
                        self._resolve_locked(
                            request,
                            ServiceResult(request.id, "error", error=failure),
                        )
                    self._kill_locked(slot)
            raise

    def _loop(self) -> None:
        while True:
            now = time.monotonic()
            with self._lock:
                self._respawn_due_locked(now)
                self._dispatch_locked(now)
                if self._finished_locked():
                    break
                waitables, timeout = self._wait_set_locked(now)
            ready = set(_mp_wait(waitables, timeout))
            now = time.monotonic()
            with self._lock:
                self._drain_wakeups(ready)
                self._collect_replies_locked(ready)
                self._collect_deaths_locked(ready, now)
                self._enforce_deadlines_locked(now)

    def _respawn_due_locked(self, now: float) -> None:
        for slot in self._slots:
            if slot.proc is not None or slot.respawn_at is None:
                continue
            # While closing, respawn only what draining still needs.
            if self._closed and not self._pending:
                continue
            if slot.respawn_at <= now:
                self._spawn_locked(slot)

    def _dispatch_locked(self, now: float) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.proc is None or slot.busy is not None or not slot.proc.is_alive():
                continue
            request = self._pending.popleft()
            try:
                slot.conn.send(request.msg)
            except (BrokenPipeError, OSError):
                # Worker died between liveness check and send: recycle it
                # and put the request back for the next dispatch round.
                self._pending.appendleft(request)
                self._note_death_locked(slot, now)
                continue
            slot.busy = request
            slot.attempt_deadline = now + request.deadline_ms / 1000.0

    def _finished_locked(self) -> bool:
        if not self._closed:
            return False
        if self._pending:
            return False
        return all(slot.busy is None for slot in self._slots)

    def _wait_set_locked(self, now: float):
        waitables = [self._wake_r]
        deadlines = []
        for slot in self._slots:
            if slot.proc is not None:
                waitables.append(slot.proc.sentinel)
                if slot.busy is not None:
                    waitables.append(slot.conn)
                    deadlines.append(slot.attempt_deadline)
            elif slot.respawn_at is not None and (
                not self._closed or self._pending
            ):
                deadlines.append(slot.respawn_at)
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - now)
        return waitables, timeout

    def _drain_wakeups(self, ready: set) -> None:
        if self._wake_r in ready:
            while self._wake_r.poll(0):
                try:
                    self._wake_r.recv_bytes()
                except (EOFError, OSError):
                    break

    def _collect_replies_locked(self, ready: set) -> None:
        for slot in self._slots:
            if slot.conn is None or slot.conn not in ready or slot.busy is None:
                continue
            try:
                if not slot.conn.poll(0):
                    continue
                reply = slot.conn.recv()
            except (EOFError, OSError):
                continue  # the sentinel handler classifies the death
            request = slot.busy
            if reply.get("id") is None:
                # The worker failed to initialize and is exiting: answer
                # with its error now, so its death is not blamed on (and
                # the input not quarantined for) the request in flight.
                slot.busy = None
                self._resolve_locked(request, self._reply_to_result(request, reply))
                continue
            if reply.get("id") != request.id:
                continue  # stale reply from a pre-kill request; drop it
            slot.busy = None
            slot.consecutive_failures = 0
            self._resolve_locked(request, self._reply_to_result(request, reply))

    def _collect_deaths_locked(self, ready: set, now: float) -> None:
        for slot in self._slots:
            if slot.proc is None or slot.proc.sentinel not in ready:
                continue
            if slot.proc.is_alive():
                continue
            self._note_death_locked(slot, now)

    def _note_death_locked(self, slot: _WorkerSlot, now: float) -> None:
        if slot.proc is not None:
            slot.proc.join(timeout=5)
        exitcode = slot.proc.exitcode if slot.proc is not None else None
        self._stats["crashes"] += 1
        if slot.busy is not None:
            self._fail_or_retry_locked(
                slot,
                WorkerCrashed(
                    f"worker died mid-request (exitcode {exitcode})",
                    exitcode=exitcode,
                ),
                reason="crash",
                exitcode=exitcode,
            )
        self._retire_locked(slot, now)
        self._sweep_spool_locked()

    def _sweep_spool_locked(self) -> None:
        """Remove spool files no live request owns.

        A crashing worker can strand files it created in the spool
        directory (the ``leak`` chaos mode does so deliberately); part
        of repairing after a death is reclaiming that space.  Request
        spool files are supervisor-owned and tracked, so anything not
        belonging to a pending or in-flight request is garbage.
        """
        owned = {
            request.spool_path
            for request in self._pending
            if request.spool_path is not None
        }
        for slot in self._slots:
            if slot.busy is not None and slot.busy.spool_path is not None:
                owned.add(slot.busy.spool_path)
        try:
            names = os.listdir(self._spool_dir)
        except OSError:
            return
        for name in names:
            path = os.path.join(self._spool_dir, name)
            if path not in owned:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _enforce_deadlines_locked(self, now: float) -> None:
        for slot in self._slots:
            if slot.busy is None or slot.proc is None:
                continue
            if now < slot.attempt_deadline:
                continue
            request = slot.busy
            self._stats["deadline_kills"] += 1
            self._kill_locked(slot)
            self._fail_or_retry_locked(
                slot,
                DeadlineExceeded(
                    f"request {request.id} exceeded its "
                    f"{request.deadline_ms}ms deadline",
                    deadline_ms=request.deadline_ms,
                ),
                reason="deadline",
            )
            self._retire_locked(slot, now)

    # -- teardown -----------------------------------------------------------

    def _teardown(self) -> None:
        with self._lock:
            if self._torn_down:
                return
            self._torn_down = True
            slots = list(self._slots)
            # Anything the drain could not answer (supervisor died, join
            # timeout): resolve rather than strand.
            failure = ServiceClosed("the parse service is closed")
            for request in list(self._pending):
                self._resolve_locked(
                    request, ServiceResult(request.id, "error", error=failure)
                )
            self._pending.clear()
            for slot in slots:
                if slot.busy is not None:
                    request = slot.busy
                    slot.busy = None
                    self._resolve_locked(
                        request, ServiceResult(request.id, "error", error=failure)
                    )
        for slot in slots:
            if slot.proc is not None and slot.proc.is_alive():
                try:
                    slot.conn.send({"op": "shutdown"})
                except (BrokenPipeError, OSError, AttributeError):
                    pass
        deadline = time.monotonic() + 5.0
        for slot in slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=5)
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:
                    pass
            slot.proc = None
            slot.conn = None
        for pipe_end in (self._wake_r, self._wake_w):
            try:
                pipe_end.close()
            except OSError:
                pass
        shutil.rmtree(self._spool_dir, ignore_errors=True)


def parse_many(
    inputs,
    *,
    format: Optional[str] = None,
    grammar: Optional[str] = None,
    config: Optional[ServiceConfig] = None,
    **submit_kwargs,
):
    """Parse a batch through a temporary service; results in input order.

    Convenience wrapper: builds a :class:`ParseService` (from ``config``
    or defaults), submits every input — waiting out
    :class:`~repro.core.errors.ServiceOverloaded` backpressure instead
    of surfacing it — and returns the list of
    :class:`ServiceResult`.  Extra keyword arguments go to
    :meth:`ParseService.submit`.
    """
    with ParseService(config) as service:
        futures = []
        for data in inputs:
            while True:
                try:
                    futures.append(
                        service.submit(
                            data, format=format, grammar=grammar, **submit_kwargs
                        )
                    )
                    break
                except ServiceOverloaded as exc:
                    time.sleep(min(exc.retry_after or 0.05, 0.5))
        return [future.result() for future in futures]
