"""Fault-tolerant parse service: a supervised pool of parse workers.

The service answers parse requests from long-lived worker processes,
designed failure-first: per-request deadlines enforced by SIGKILL from
outside the worker, crash isolation (a dying worker takes down only its
in-flight request), seeded exponential respawn backoff, one retry on a
fresh worker before degrading to a structured
:class:`~repro.core.errors.ServiceError`, bounded queues with explicit
load shedding, and an on-disk quarantine corpus of worker-killing
inputs that ``tools/fuzz_parsers.py --replay-quarantine`` can replay.

Entry points:

* :class:`ParseService` — the in-process service object
  (``submit() -> Future[ServiceResult]``);
* :func:`parse_many` — one-shot batch convenience;
* ``repro serve`` — the CLI front-end (paths in, JSON verdicts out);
* ``tools/chaos_service.py`` — the deterministic chaos harness.  Its
  faults are ordinary requests: a grammar whose blackbox
  (``tools/chaos_blackboxes.py``) crashes, hangs or leaks when the input
  bytes say so, which takes the path a poisonous input takes.
"""

from ..core.errors import (  # noqa: F401 - re-exported for service callers
    DeadlineExceeded,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    WorkerCrashed,
)
from .config import ServiceConfig
from .quarantine import QuarantineCorpus, QuarantineEntry
from .supervisor import ParseService, ServiceResult, parse_many

__all__ = [
    "ParseService",
    "ServiceResult",
    "ServiceConfig",
    "parse_many",
    "QuarantineCorpus",
    "QuarantineEntry",
    "ServiceError",
    "DeadlineExceeded",
    "WorkerCrashed",
    "ServiceOverloaded",
    "ServiceClosed",
]
