#!/usr/bin/env python3
"""The repository benchmark: two workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig13-tree --seed 1 --seconds 25 --trace 0

Workloads (both seeded and closed-loop, sized for two cores):

* ``fig13-tree`` — in-process ``Parser.parse(data)`` in tree mode over
  valid documents of all seven bundled formats: ``repro parse FILE`` and
  the paper's Fig. 13.  Engine and tree building do the work; diagnosis
  and the service are idle.
* ``service-mixed`` — ``ParseService(workers=2)`` with one client keeping
  two requests in flight, ``emit="tree"``, over the ``fig13-tree`` corpus
  plus a tenth hostile documents, some above the inline limit so the spool
  path is used.  The only workload that runs ``tree_to_jsonable``, the
  worker pipe, the supervisor and (for its hostile tenth) diagnosis.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``docs_per_s``,
``latency_p50_ms``, ``latency_p99_ms``, ``peak_rss_mb``).  ``--trace 1``
runs half its time untraced and half with spans around every call into a
layer, prints the per-layer metrics (see ``layers.py``) and the tracing
overhead, and writes the spans to ``perfbench/out/``.  The last line of
standard output is the result object; the line before it carries the run
metadata (machine, source digest, Python, ``nproc``, seed, corpus
composition, sample counts and a host-speed probe timed at the start and
the end).

Every reply is checked against the reference interpreter outside the
timed regions (``oracle.py``); a mismatch, an unexpected exception or a
``ServiceError`` is a failed operation.

A run repeats the workload's corpus in whole passes, in the same order
every pass.  The speed of the shared host swings by up to 1.8x for
seconds at a time (a fixed loop's time, sampled every 2 s for a minute,
ranged 25-37 ms in medians but 23-28 ms in minima), so a figure that
follows one pass follows the host.  Each document's latency is therefore
its fastest pass, and throughput sums each batch's fastest pass; the
per-pass figures stay in the metadata.  In-process calls and cold starts
are timed on the CPU clock of the calling thread, which leaves out time
the hypervisor steals; service requests are timed on the wall clock (see
``spans.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import layers  # noqa: E402
from corpus import (  # noqa: E402
    FORMATS,
    committed_documents,
    composition,
    hostile_documents,
    stored_archive,
    valid_documents,
)
from oracle import Oracle  # noqa: E402
from spans import Tracer, now_ns, timed  # noqa: E402

WORKLOADS = ("fig13-tree", "service-mixed")

#: Valid documents per format.  With the stored archive and, for the
#: service, the hostile tenth, a pass holds over a thousand documents, so
#: at least ten distinct documents lie beyond the p99.
PER_FORMAT = 150
#: ``service-mixed`` mutates every n-th valid document once, and adds
#: every n-th committed ``tests/hostile`` sample.
MUTATE_STRIDE = 12
COMMITTED_STRIDE = 4
#: Set-ups per run, half before the timed passes and half after them so
#: they sample the host at two moments; ``setup_s`` is their median.
SETUP_REPEATS = 6
TRACE_SETUP_REPEATS = 3
WORKERS = 2
IN_FLIGHT = 2
#: Requests per batch of a service pass: timed together, checked after.
BATCH = 50
#: In-process decomposition passes of a traced ``service-mixed`` run.
PROBE_SECONDS = 3.0


def host_probe():
    """Wall and CPU seconds of a fixed pure-Python loop: host speed, not a metric.

    Wall well above CPU means the hypervisor stole the vCPU meanwhile.
    """
    wall, cpu = time.perf_counter(), time.thread_time()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return [time.perf_counter() - wall, time.thread_time() - cpu]


def source_digest() -> str:
    """Content hash of the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def build_corpus(oracle, workload: str, seed: int, tally, meta):
    """The workload's documents, annotated, in their seeded pass order."""
    import random

    from repro import samples

    docs = valid_documents(samples, seed, PER_FORMAT)
    if workload == "service-mixed":
        docs += hostile_documents(docs[::MUTATE_STRIDE], 1, seed, oracle.rejects, len(docs))
        docs += committed_documents(ROOT, len(docs))[::COMMITTED_STRIDE]
    docs.append(stored_archive(samples, seed, len(docs)))
    disagreements = oracle.annotate(docs)
    tally.failed += disagreements
    meta["pinned_disagreements"] = disagreements
    meta["corpus"] = composition(docs)
    order = list(docs)
    random.Random(f"{seed}:order").shuffle(order)
    return docs, order


def warm_docs(seed: int, hostile: bool):
    """One valid and, if asked, one committed hostile document per format.

    Needs no oracle: the valid documents are valid by construction and
    the committed samples are pinned rejections.
    """
    from repro import samples

    docs = valid_documents(samples, seed, 1)
    if hostile:
        first = {}
        for doc in committed_documents(ROOT, len(docs)):
            first.setdefault(doc.fmt, doc)
        docs += [first[fmt] for fmt in FORMATS]
    return docs


def cold_starts(warm, trace: bool, repeats: int):
    """Run ``coldstart.py`` ``repeats`` times in fresh interpreters."""
    job = pickle.dumps(
        {
            "src": SRC,
            "trace": trace,
            "warm": [(doc.fmt, doc.data, doc.hostile) for doc in warm],
        }
    )
    reports = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "coldstart.py")],
            input=job,
            capture_output=True,
            timeout=150,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr.decode()}")
        reports.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return reports


def median_report(reports):
    return {key: statistics.median(r[key] for r in reports) for key in reports[0]}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def fastest(passes):
    """Each position's fastest pass: ``passes`` are equal-length lists."""
    return [min(column) for column in zip(*passes)]


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Start a new ``VmHWM`` high-water mark for this process (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def end_to_end(setup_samples, latencies, docs_per_s, rss_mb, meta):
    meta["setup_s_samples"] = setup_samples
    meta["latency_samples"] = len(latencies)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "docs_per_s": (docs_per_s, "1/s"),
        "latency_p50_ms": (layers.percentile(latencies, 50) / 1e6, "ms"),
        "latency_p99_ms": (layers.percentile(latencies, 99) / 1e6, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# In-process passes
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations, plus why the first failures failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def record(self, ok: bool, doc, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{what} doc {doc.id} ({doc.fmt}, {doc.origin})")


def inprocess_passes(order, main, tally, seconds, meta, tracer=None, probe=None):
    """Repeat ``main`` over ``order`` in whole passes until ``seconds`` pass.

    ``main(doc) -> (ok, start_ns, end_ns)`` makes the workload's call and
    checks its reply; ``probe(doc, tracer)`` makes the decomposition calls
    of a traced run.  Returns each document's fastest latency (ns) and the
    throughput of those latencies (docs/s).
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        pass_ns = []
        for doc in order:
            ok, start, end = main(doc)
            tally.record(ok, doc, "parse")
            pass_ns.append(end - start)
            if tracer is not None:
                tracer.add("engine.tree", start, end, doc.id)
                probe(doc, tracer)
        passes.append(pass_ns)
    meta.setdefault("pass_docs_per_s", []).extend(
        [len(order) * 1e9 / sum(pass_ns) for pass_ns in passes]
    )
    best = fastest(passes)
    return best, len(best) * 1e9 / sum(best)


def parse_main(parsers, oracle):
    """The workload call: ``parse`` in tree mode, checked by the oracle."""

    def main(doc):
        result, exc, start, end = timed(parsers[doc.fmt].parse, doc.data)
        return oracle.check_tree(doc, result, exc), start, end

    return main


def build_parsers():
    from repro.formats import registry

    return {fmt: registry[fmt].build_parser() for fmt in FORMATS}


# ---------------------------------------------------------------------------
# Service passes
# ---------------------------------------------------------------------------


def stage_service(warm):
    """A new service whose every worker has parsed every warm-up document.

    Returns the service and the warm-up replies, for the oracle to check
    once it exists.
    """
    from repro.service import ParseService

    service = ParseService(workers=WORKERS, spool_root=OUT)
    replies = []
    try:
        for doc in warm:
            pids = set()
            for _round in range(20):
                futures = [
                    service.submit(doc.data, format=doc.fmt, emit="tree") for _ in range(WORKERS)
                ]
                for future in futures:
                    result = future.result(timeout=120)
                    replies.append((doc, result))
                    pids.add(result.worker_pid)
                if len(pids) >= WORKERS:
                    break
            else:
                raise RuntimeError("warm-up never reached every worker")
    except BaseException:
        service.close()
        raise
    return service, replies


def service_passes(service, order, oracle, tally, seconds, meta, tracer=None):
    """Closed loop: one client keeps ``IN_FLIGHT`` requests outstanding.

    Latency runs from just before ``submit`` to the future's done
    callback.  A pass submits the corpus once, in order, in batches of
    ``BATCH`` requests: a batch is timed from its first ``submit`` to its
    last completion, and only then are its replies checked and dropped,
    so the oracle never competes with the service for the CPU or the GIL
    while the clock runs.  Returns each document's fastest latency (ns),
    the throughput of each batch's fastest pass (docs/s) and the worker
    times (ms).
    """
    import queue
    import threading

    slots = threading.Semaphore(IN_FLIGHT)
    done = queue.SimpleQueue()
    worker_ms, passes, batches = [], [], []

    def submit(doc) -> None:
        slots.acquire()
        start = now_ns()
        try:
            future = service.submit(doc.data, format=doc.fmt, emit="tree")
        except Exception as error:  # noqa: BLE001 - a refused request fails
            slots.release()
            done.put((doc, start, now_ns(), error))
            return

        def resolved(future, doc=doc, start=start):
            end = now_ns()
            slots.release()
            done.put((doc, start, end, future.result()))

        future.add_done_callback(resolved)

    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        latency, batch_ns = {}, []
        for first in range(0, len(order), BATCH):
            batch = order[first : first + BATCH]
            begin = now_ns()
            for doc in batch:
                submit(doc)
            replies = [done.get() for _ in batch]
            batch_ns.append(max(reply[2] for reply in replies) - begin)
            for doc, start, end, result in replies:
                latency[doc.id] = end - start
                if isinstance(result, Exception):  # shed or closed at submit
                    tally.record(False, doc, f"submit {type(result).__name__}")
                    continue
                tally.record(oracle.check_service(doc, result), doc, "reply")
                if result.elapsed_ms is not None:
                    worker_ms.append(result.elapsed_ms)
                if tracer is not None:
                    request = tracer.add("service.request", start, end, doc.id)
                    if result.elapsed_ms is not None:
                        worker_start = end - int(result.elapsed_ms * 1e6)
                        tracer.add("service.worker", worker_start, end, doc.id, request)
            del replies
        passes.append([latency[doc.id] for doc in order])
        batches.append(batch_ns)
    meta.setdefault("pass_docs_per_s", []).extend(
        len(order) * 1e9 / sum(batch_ns) for batch_ns in batches
    )
    return fastest(passes), len(order) * 1e9 / sum(fastest(batches)), worker_ms


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_inprocess(tally, seed, seconds, trace, meta):
    import repro

    oracle = Oracle(repro, FORMATS)
    warm = warm_docs(seed, hostile=False)
    oracle.annotate(warm)
    reports = cold_starts(warm, trace, TRACE_SETUP_REPEATS if trace else SETUP_REPEATS // 2)
    docs, order = build_corpus(oracle, "fig13-tree", seed, tally, meta)
    parsers = build_parsers()
    main = parse_main(parsers, oracle)
    for doc in warm:  # the staging the cold starts timed
        tally.record(main(doc)[0], doc, "warm-up")
    counters = layers.bypass_counters()
    try:
        if not trace:
            reset_peak_rss()
            best, rate = inprocess_passes(order, main, tally, seconds, meta)
            rss = peak_rss_mb()
            reports += cold_starts(warm, False, SETUP_REPEATS - len(reports))
            metrics = end_to_end([r["setup_s"] for r in reports], best, rate, rss, meta)
        else:
            plain = inprocess_passes(order, main, tally, seconds / 2, meta)
            tracer = Tracer()
            probe = layers.inprocess_probe(parsers, oracle, tally)
            for doc in warm:  # stages the variant the probe uses, off the record
                probe(doc, Tracer())
            traced = inprocess_passes(order, main, tally, seconds / 2, meta, tracer, probe)
            tracer.write(os.path.join(OUT, f"trace-fig13-tree-seed{seed}.json"), meta)
            metrics = layers.metrics(
                tracer,
                {doc.id: doc for doc in docs},
                staging=median_report(reports),
                overhead=layers.overhead(plain, traced),
                side={"rejects": counters["diagnose"].calls},
            )
    finally:
        for counter in counters.values():
            counter.close()
    checks = layers.bypass_checks(counters, "repro.service.wire" in sys.modules)
    return metrics, checks


def timed_staging(warm, reports):
    """``stage_service`` with its wall time appended to ``reports``."""
    start = time.perf_counter()
    service, replies = stage_service(warm)
    reports.append({"setup_s": time.perf_counter() - start})
    return service, replies


def run_service(tally, seed, seconds, trace, meta):
    import repro

    # Workers fork from this process, so the measured service is staged
    # before the oracle, the corpus and its expected replies exist.
    warm = warm_docs(seed, hostile=True)
    service, replies, reports = None, [], []
    try:
        if trace:
            # Workers stage in forked processes; a traced cold start of
            # the same parsers breaks their staging down.
            reports = cold_starts(warm, True, TRACE_SETUP_REPEATS)
            service, replies = stage_service(warm)
        else:
            for _ in range(SETUP_REPEATS // 2):
                if service is not None:
                    service.close()
                service, more = timed_staging(warm, reports)
                replies += more
        oracle = Oracle(repro, FORMATS, replies=True)
        tally.failed += oracle.annotate(warm)
        for doc, result in replies:
            tally.record(oracle.check_service(doc, result), doc, "warm-up")
        docs, order = build_corpus(oracle, "service-mixed", seed, tally, meta)
        spool = layers.Counted("repro.service.supervisor", "spool_write")
        try:
            if not trace:
                best, rate, _ = service_passes(service, order, oracle, tally, seconds, meta)
                rss = max(peak_rss_mb(pid) for pid in service.audit()["worker_pids"])
                service.close()
                while len(reports) < SETUP_REPEATS:
                    extra, more = timed_staging(warm, reports)
                    extra.close()
                    for doc, result in more:
                        tally.record(oracle.check_service(doc, result), doc, "warm-up")
                metrics = end_to_end([r["setup_s"] for r in reports], best, rate, rss, meta)
            else:
                plain = service_passes(service, order, oracle, tally, seconds / 2, meta)[:2]
                tracer = Tracer()
                spool.calls = 0
                *traced, worker_ms = service_passes(
                    service, order, oracle, tally, seconds / 2, meta, tracer
                )
                spooled_frac = spool.calls / len(tracer.by_name()["service.request"])
                stats = service.stats()
                service.close()
                meta["service_stats"] = stats
                side = layers.service_probe(
                    docs,
                    warm,
                    build_parsers(),
                    oracle,
                    tally,
                    tracer,
                    service.config.inline_bytes_max,
                    PROBE_SECONDS,
                )
                side["spooled_frac"] = spooled_frac
                tracer.write(os.path.join(OUT, f"trace-service-mixed-seed{seed}.json"), meta)
                metrics = layers.metrics(
                    tracer,
                    {doc.id: doc for doc in docs},
                    staging=median_report(reports),
                    overhead=layers.overhead(plain, traced),
                    service=layers.ServiceFacts(stats, worker_ms, traced[1], WORKERS),
                    side=side,
                )
        finally:
            spool.close()
        meta["spooled_requests"] = spool.calls
        checks = [] if spool.calls else ["service-mixed: no request was spooled"]
        return metrics, checks
    finally:
        if service is not None:
            service.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isdir(
        os.path.join(ROOT, "tests", "hostile")
    ):
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)
    probe_start = host_probe()
    tally = Tally()
    uname = os.uname()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "node": uname.nodename,
            "kernel": f"{uname.sysname} {uname.release}",
            "arch": uname.machine,
        },
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_digest": source_digest(),
    }
    run = run_service if args.workload == "service-mixed" else run_inprocess
    metrics, checks = run(tally, args.seed, args.seconds, args.trace, meta)
    meta["host_probe_s"] = [probe_start, host_probe()]
    meta["failures"] = tally.examples
    meta["check_failures"] = checks
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and not checks,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
