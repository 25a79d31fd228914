"""Configuration for the fault-tolerant parse service.

One frozen dataclass holds every policy knob the supervisor and its
workers share — pool size, queue bound, deadline and retry policy,
respawn backoff, payload shipping thresholds, quarantine and blackbox
provider — so a :class:`~repro.service.ParseService` is reproducible
from its config alone (the chaos harness relies on that: same config +
same seed = same schedule).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..core.interpreter import Parser
from ..core.limits import ParseLimits

#: Directory whose files live in RAM on Linux; spool files placed here
#: make the "shared memory" payload path literal.  Falls back to the
#: regular temp dir on hosts without it.
SHM_DIR = "/dev/shm"


def default_spool_root() -> str:
    """Where per-service spool directories are created."""
    if os.path.isdir(SHM_DIR) and os.access(SHM_DIR, os.W_OK):
        return SHM_DIR
    return tempfile.gettempdir()


@dataclass(frozen=True)
class ServiceConfig:
    """Policy for one :class:`~repro.service.ParseService`.

    ``workers``
        Worker processes in the pool.
    ``max_pending``
        Bound on queued (not yet dispatched) requests.  A ``submit``
        beyond it is shed with
        :class:`~repro.core.errors.ServiceOverloaded` instead of
        buffering unboundedly.
    ``default_deadline_ms``
        Per-attempt wall-clock deadline when a request does not carry
        its own.  On expiry the worker is SIGKILLed and the request is
        retried (see ``retries``) before degrading to
        :class:`~repro.core.errors.DeadlineExceeded`.
    ``soft_deadline_fraction``
        Share of the deadline handed to the worker as an in-process
        :attr:`~repro.core.limits.ParseLimits.max_wall_ms` budget, so a
        slow *parse* fails structurally (``LimitExceeded(limit="wall")``)
        without costing a worker respawn; the SIGKILL hard deadline
        remains the backstop for hangs the fuel checks cannot see
        (sleeping blackboxes, pathological native calls).
    ``retries``
        How many times a request is re-dispatched to a fresh worker
        after a crash or deadline kill before degrading to a
        ``ServiceError`` reply.
    ``spawn_backoff_base`` / ``spawn_backoff_cap`` / ``seed``
        Exponential respawn backoff for crash-looping workers:
        ``min(cap, base * 2**(consecutive_failures - 1))`` plus up to
        25% seeded jitter (decorrelates a pool of workers all killed by
        the same poisonous input).
    ``inline_bytes_max``
        Payloads at most this many bytes ride the request pipe; larger
        ones are spooled to a shared-memory-backed file the worker maps
        read-only (zero-copy: the engines parse the ``mmap`` directly).
    ``spool_root``
        Parent directory for the service's private spool directory
        (default ``/dev/shm`` when present).
    ``quarantine_dir``
        When set, inputs that crashed or deadline-killed a worker are
        written to this on-disk crasher corpus
        (:class:`~repro.service.quarantine.QuarantineCorpus`), deduped
        by content hash and replayable via
        ``tools/fuzz_parsers.py --replay-quarantine``.
    ``blackbox_provider``
        Optional ``"module:attribute"`` path resolving to a dict (or a
        zero-argument callable returning one) of blackbox name →
        callable, imported inside each worker and applied to ad-hoc
        grammar requests.  A string rather than callables so it
        survives the process boundary and the quarantine metadata.
        ``ParseService`` resolves it once at construction and raises
        :class:`~repro.core.errors.IPGError` if it cannot.
    ``backend``
        Parse engine workers use, one of ``Parser.BACKENDS``
        (``"compiled"`` or ``"interpreted"``).  Anything else raises
        ``ValueError`` here rather than failing every request.
    ``limits``
        Base :class:`~repro.core.limits.ParseLimits` for worker parses
        (``max_wall_ms`` is overridden per request from the deadline).
    """

    workers: int = 2
    max_pending: int = 256
    default_deadline_ms: int = 10_000
    soft_deadline_fraction: float = 0.8
    retries: int = 1
    spawn_backoff_base: float = 0.05
    spawn_backoff_cap: float = 2.0
    seed: int = 0
    inline_bytes_max: int = 16 * 1024
    spool_root: str = field(default_factory=default_spool_root)
    quarantine_dir: Optional[str] = None
    blackbox_provider: Optional[str] = None
    backend: str = "compiled"
    limits: Optional[ParseLimits] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if not (0.0 < self.soft_deadline_fraction <= 1.0):
            raise ValueError("soft_deadline_fraction must be in (0, 1]")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backend not in Parser.BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{Parser.BACKENDS}"
            )

    def soft_deadline_ms(self, deadline_ms: int) -> int:
        """The in-worker wall budget for a ``deadline_ms`` request."""
        return max(1, int(deadline_ms * self.soft_deadline_fraction))

    def worker_payload(self) -> Dict[str, object]:
        """The picklable subset a worker process needs."""
        return {
            "backend": self.backend,
            "blackbox_provider": self.blackbox_provider,
            "limits": self.limits,
        }

    def with_overrides(self, **overrides) -> "ServiceConfig":
        return replace(self, **overrides)
