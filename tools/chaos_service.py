#!/usr/bin/env python
"""Deterministic chaos harness for the fault-tolerant parse service.

Run from a checkout with ``repro`` importable::

    PYTHONPATH=src python tools/chaos_service.py --seed 0 --requests 120
    PYTHONPATH=src python tools/chaos_service.py --heavy      # CI's config

A seeded PRNG generates one interleaved schedule of parse requests
(valid, truncated, and corrupted inputs across the bundled formats,
spanning the inline and spooled payload paths) and fault injections
(worker ``os._exit``, SIGSEGV, simulated OOM kills, spool-file leaks,
sleeps and busy-spins that must be cut down by the deadline), submits
it against one :class:`repro.service.ParseService`, and then asserts
the convergence invariants the service guarantees.

A fault is an ordinary ``submit(directive, grammar=GRAMMAR)`` request:
the blackbox of ``tools/chaos_blackboxes.py`` reads the directive from
the input bytes, so every fault takes the path a poisonous input takes.
Crash directives keep the default retry (the retry on a fresh worker
dies too); hang and spin directives run with ``retries=0``.

1. **Every request is answered exactly once** — each future resolves
   with a ``ServiceResult``: a tree, a recovered document, a structured
   parse failure, or a structured ``ServiceError``.  No hangs, no
   stranded futures, no double replies.
2. **Verdicts are correct despite the chaos** — an input that parses
   in-process must come back as that exact tree (or a retried
   crash/deadline verdict, never a *wrong* tree), and a hostile input's
   failure class must match the in-process class.
3. **The pool repairs itself** — after the storm the service is back at
   full worker strength and still answers a fresh probe request.
4. **Nothing leaks** — no stray child processes, no spool files (the
   ``leak`` directive deliberately strands some; the supervisor must
   reclaim them), and the parent's fd table returns to its pre-storm
   size.
5. **Fault collateral is deadline-only and bounded** — every directive
   kills or stalls only the worker running it, and a worker holds one
   request at a time, so a request that carried no directive never
   comes back ``WorkerCrashed``.  It may degrade to ``DeadlineExceeded``
   (host load), and those number at most twice the directives sent.
6. **Killers are quarantined once** — the storm runs with a temporary
   ``quarantine_dir``; every distinct directive input that killed a
   worker is in the corpus exactly once (it dedupes by content hash),
   and the corpus holds nothing that did not kill one.

Same seed, same schedule: a failure reported by CI reproduces locally
with the printed command line.  Exit code 0 = all invariants held.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import chaos_blackboxes  # noqa: E402
from repro import samples  # noqa: E402
from repro.core.errors import (  # noqa: E402
    DeadlineExceeded,
    ParseFailure,
    ServiceError,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.core.parsetree import tree_to_jsonable  # noqa: E402
from repro.formats import registry  # noqa: E402
from repro.service import (  # noqa: E402
    ParseService,
    QuarantineCorpus,
    ServiceConfig,
)

#: Chaos directives and their weights in the schedule.
CHAOS_MODES = (
    ("exit", 4),
    ("segv", 3),
    ("oom", 2),
    ("leak", 2),
    ("hang", 3),
    ("spin", 2),
)

#: Directives that kill their worker outright (and its retry's worker).
CRASH_MODES = ("exit", "segv", "oom", "leak")

#: Formats exercised; dns/ipv4 are inline-sized, zip crosses the spool
#: threshold once padded (see _corpus).
FORMATS = ("dns", "ipv4", "zip")


def _corpus(rng: random.Random):
    """(format, data, expectation) triples covering the verdict space."""
    entries = []
    builders = {
        "dns": lambda: samples.build_dns_response(
            answer_count=rng.choice((1, 2, 4)), additional_count=1
        ),
        "ipv4": lambda: samples.build_ipv4_udp_packet(
            payload_size=rng.choice((16, 64, 256))
        ),
        "zip": lambda: samples.build_zip(
            member_count=rng.choice((2, 4)),
            member_size=rng.choice((300, 9000)),  # 9000*2 spools past 16KiB
        ),
    }
    parsers = {fmt: registry[fmt].build_parser() for fmt in FORMATS}
    for fmt in FORMATS:
        for _ in range(3):
            data = builders[fmt]()
            expected = tree_to_jsonable(parsers[fmt].parse(data))
            entries.append((fmt, data, ("tree", expected)))
            # A truncation of the same input: expect the in-process class.
            cut = data[: rng.randrange(1, len(data))]
            try:
                parsers[fmt].parse(cut)
                entries.append((fmt, cut, ("ok-any",)))
            except ParseFailure as exc:
                entries.append((fmt, cut, ("failure", type(exc).__name__)))
            # A bit-flipped corruption: any structured verdict is fine
            # (it may still parse), but it must *agree* with in-process.
            flipped = bytearray(data)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            flipped = bytes(flipped)
            try:
                expected_tree = tree_to_jsonable(parsers[fmt].parse(flipped))
                entries.append((fmt, flipped, ("tree", expected_tree)))
            except ParseFailure as exc:
                entries.append((fmt, flipped, ("failure", type(exc).__name__)))
    return entries


def _check_verdict(result, expectation, failures, label):
    kind = expectation[0]
    if result.error is not None and isinstance(
        result.error, (WorkerCrashed, DeadlineExceeded)
    ):
        return "degraded"  # chaos collateral: structured, allowed
    if isinstance(result.error, ServiceError):
        failures.append(f"{label}: unexpected service error {result.error!r}")
        return "bad"
    if kind == "tree":
        if result.error is not None:
            failures.append(
                f"{label}: expected a tree, got "
                f"{type(result.error).__name__}: {result.error}"
            )
            return "bad"
        if result.tree != expectation[1]:
            failures.append(f"{label}: tree differs from the in-process parse")
            return "bad"
    elif kind == "failure":
        if result.error is None:
            failures.append(f"{label}: expected {expectation[1]}, got success")
            return "bad"
        if type(result.error).__name__ != expectation[1]:
            failures.append(
                f"{label}: expected {expectation[1]}, got "
                f"{type(result.error).__name__}"
            )
            return "bad"
    return "ok"


def _submit(service, data, **kwargs):
    """``service.submit`` that waits out load shedding."""
    while True:
        try:
            return service.submit(data, **kwargs)
        except ServiceOverloaded as exc:
            time.sleep(min(exc.retry_after or 0.05, 0.2))


def _fd_count() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return -1


def _child_pids() -> set:
    """Direct children of this process, via /proc (forking ``ps`` would
    list the ``ps`` child itself)."""
    me = str(os.getpid())
    children = set()
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for name in entries:
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # raced with process exit
        # Field 4 (after the parenthesized comm, which may hold spaces).
        ppid = stat.rpartition(")")[2].split()[1]
        if ppid == me:
            children.add(int(name))
    return children


def run_storm(
    seed: int,
    requests: int,
    workers: int,
    chaos_every: int,
    deadline_ms: int,
    hang_seconds: float,
) -> int:
    rng = random.Random(seed)
    corpus = _corpus(rng)
    failures: list = []
    fd_before = _fd_count()
    quarantine_dir = tempfile.mkdtemp(prefix="chaos-quarantine-")

    config = ServiceConfig(
        workers=workers,
        blackbox_provider=chaos_blackboxes.PROVIDER,
        quarantine_dir=quarantine_dir,
        seed=seed,
        default_deadline_ms=deadline_ms,
        max_pending=max(64, requests),
        spawn_backoff_base=0.02,
        spawn_backoff_cap=0.25,  # storms respawn fast; jitter still applies
    )
    submitted = []  # (label, data, expectation-or-mode, future)
    begin = time.monotonic()
    with ParseService(config) as service:
        spool_dir = service.audit()["spool_dir"]
        for index in range(requests):
            if chaos_every and index % chaos_every == chaos_every - 1:
                mode = rng.choices(
                    [m for m, _ in CHAOS_MODES],
                    weights=[w for _, w in CHAOS_MODES],
                )[0]
                seconds = (
                    rng.uniform(hang_seconds, hang_seconds * 4)
                    if mode in ("hang", "spin")
                    else 0.0
                )
                # Hangs must exceed their deadline so the SIGKILL path runs.
                chaos_deadline = (
                    max(50, int(hang_seconds * 500))
                    if mode in ("hang", "spin")
                    else deadline_ms
                )
                if mode in CRASH_MODES:
                    directive = f"leak {spool_dir}" if mode == "leak" else mode
                    retries = None  # the service default
                else:
                    directive = f"{mode} {seconds!r}"
                    retries = 0
                data = directive.encode()
                future = _submit(
                    service,
                    data,
                    grammar=chaos_blackboxes.GRAMMAR,
                    deadline_ms=chaos_deadline,
                    retries=retries,
                )
                submitted.append((f"chaos-{index}-{mode}", data, mode, future))
                continue
            fmt, data, expectation = rng.choice(corpus)
            future = _submit(service, data, format=fmt, deadline_ms=deadline_ms)
            submitted.append((f"req-{index}-{fmt}", data, expectation, future))

        # Invariant 1: every future resolves.  The bound is generous but
        # finite — a stranded future fails the harness rather than CI's
        # job timeout.
        wait_budget = 60 + requests * (deadline_ms / 1000.0)
        answered = degraded = 0
        fired: Counter = Counter()
        killers = set()  # inputs that killed a worker: must be quarantined
        for label, data, expectation, future in submitted:
            try:
                result = future.result(timeout=wait_budget)
            except Exception as exc:  # noqa: BLE001 - resolution is the contract
                failures.append(f"{label}: future did not resolve ({exc!r})")
                continue
            answered += 1
            if isinstance(expectation, tuple):
                verdict = _check_verdict(result, expectation, failures, label)
                if verdict == "degraded":
                    if isinstance(result.error, WorkerCrashed):
                        failures.append(
                            f"{label}: a request without a directive got "
                            f"{result.error!r}"
                        )
                    degraded += 1
                    killers.add(data)
                continue
            fired[expectation] += 1
            if isinstance(result.error, (WorkerCrashed, DeadlineExceeded)):
                killers.add(data)
            if expectation in CRASH_MODES and not (
                isinstance(result.error, WorkerCrashed) and result.retried
            ):
                failures.append(
                    f"{label}: crash directive got {result!r}, expected a "
                    f"retried WorkerCrashed"
                )
            elif result.error is not None and not isinstance(
                result.error, ServiceError
            ):
                failures.append(
                    f"{label}: chaos directive got a non-service error "
                    f"{result.error!r}"
                )
        # Invariant 5: collateral is deadline-only (checked above) and bounded.
        directives = sum(fired.values())
        if degraded > 2 * directives:
            failures.append(
                f"fault collateral: {degraded} requests without a directive "
                f"degraded, for {directives} directives sent"
            )

        # Invariant 3: the pool repairs itself and still answers.
        settle = time.monotonic() + 30
        while time.monotonic() < settle:
            if service.stats()["workers_alive"] == workers:
                break
            time.sleep(0.05)
        audit = service.audit()
        if audit["alive_workers"] != workers:
            failures.append(
                f"pool not repaired: {audit['alive_workers']}/{workers} alive"
            )
        probe_fmt, probe_data, probe_expect = corpus[0]
        probe = service.submit(
            probe_data, format=probe_fmt, deadline_ms=deadline_ms
        ).result(timeout=60)
        if probe.tree != probe_expect[1]:
            failures.append("post-storm probe parse did not match in-process")

        # Invariant 4a: spool files reclaimed (leak chaos included).
        if audit["spool_files"] != 0:
            # Leak sweeps ride worker-death handling; give one respawn
            # cycle to finish before judging.
            time.sleep(1.0)
            audit = service.audit()
            if audit["spool_files"] != 0:
                failures.append(
                    f"{audit['spool_files']} spool files leaked in "
                    f"{audit['spool_dir']}"
                )
        stats = service.stats()

    # Invariant 6: every killer input is in the corpus exactly once, and
    # nothing else is.
    quarantined = Counter(
        entry.read_data() for entry in QuarantineCorpus(quarantine_dir).entries()
    )
    shutil.rmtree(quarantine_dir, ignore_errors=True)
    for data in sorted(killers):
        if quarantined[data] != 1:
            failures.append(
                f"input {data[:40]!r} killed a worker but is quarantined "
                f"{quarantined[data]} times"
            )
    strangers = set(quarantined) - killers
    if strangers:
        failures.append(
            f"{len(strangers)} quarantined inputs never killed a worker"
        )

    # Invariant 4b: after close, nothing remains — no children, no spool
    # directory, fd table back to its pre-storm size.
    if os.path.isdir(spool_dir):
        failures.append(f"spool dir {spool_dir} survived close()")
    strays = _child_pids()
    if strays:
        failures.append(f"leaked child processes: {sorted(strays)}")
    fd_after = _fd_count()
    if fd_before >= 0 and fd_after > fd_before:
        failures.append(f"fd leak: {fd_before} before, {fd_after} after")

    elapsed = time.monotonic() - begin
    print(
        f"chaos: seed={seed} requests={requests} answered={answered} "
        f"degraded-by-chaos={degraded} quarantined={len(quarantined)} "
        f"elapsed={elapsed:.1f}s"
    )
    print(
        "directives: "
        + " ".join(f"{mode}={fired[mode]}" for mode, _ in CHAOS_MODES)
    )
    print(
        "stats: "
        + " ".join(f"{key}={value}" for key, value in sorted(stats.items()))
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(
            f"reproduce: PYTHONPATH=src python tools/chaos_service.py "
            f"--seed {seed} --requests {requests} --workers {workers} "
            f"--chaos-every {chaos_every} --deadline-ms {deadline_ms}",
            file=sys.stderr,
        )
        return 1
    print("all invariants held")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests", type=int, default=80, help="schedule length (default: 80)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="pool size (default: 2)"
    )
    parser.add_argument(
        "--chaos-every",
        type=int,
        default=5,
        help="inject a fault every Nth request (0 disables; default: 5)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=int,
        default=15_000,
        help="per-request deadline for parse requests (default: 15000)",
    )
    parser.add_argument(
        "--hang-seconds",
        type=float,
        default=0.3,
        help="base duration of hang/spin directives; their deadline is "
        "set below it so the kill path always runs (default: 0.3)",
    )
    parser.add_argument(
        "--heavy",
        action="store_true",
        help="CI configuration: more requests, denser chaos",
    )
    args = parser.parse_args(argv)
    if args.heavy:
        args.requests = max(args.requests, 150)
        args.chaos_every = 4
    return run_storm(
        args.seed,
        args.requests,
        args.workers,
        args.chaos_every,
        args.deadline_ms,
        args.hang_seconds,
    )


if __name__ == "__main__":
    sys.exit(main())
