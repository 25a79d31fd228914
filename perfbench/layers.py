"""Per-layer metrics of a traced run, derived from its spans.

Every layer is measured from outside, by spans around calls into its
public functions:

* ``engine.tree`` — ``Parser.parse(data)`` accepting a document;
* ``engine.validate`` — ``try_parse(data, emit=None)`` accepting;
* ``engine.reject`` — ``try_parse`` refusing a hostile document;
* ``diagnose.parse`` — ``parse`` raising after ``diagnose_parser`` ran;
* ``jsonable`` — ``tree_to_jsonable(tree)``;
* ``wire.pickle`` / ``wire.unpickle`` — the reply dict through the pickler
  the worker pipe uses, and back;
* ``service.request`` — ``ParseService.submit`` until the future resolves,
  with a ``service.worker`` child covering the reply's ``elapsed_ms``.

Diagnosis time is a raising ``parse`` minus ``try_parse`` on the same
document; the service hop is a request's self time (round trip minus
worker time).  Staging numbers come from traced cold starts
(``coldstart.py``).  A layer a workload does not run reports 0:
``fig13-tree`` reports the staging and engine layers, ``service-mixed``
every layer (diagnosis, serialization and the wire through an in-process
probe of its corpus after the service passes).

Bypass checks count calls into the layers a workload must leave idle
(``Counted``) instead of trusting the spans, which the benchmark names
itself.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List

from corpus import FORMATS
from spans import timed

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [
        ("stage.import_ms", "ms", "lower"),
        ("stage.prepare_ms", "ms", "lower"),
        ("stage.compile_ms", "ms", "lower"),
        ("stage.compiles", "count", "lower"),
        ("stage.source_kb", "KB", "lower"),
        ("engine.tree_ns_per_byte", "ns/B", "lower"),
        ("engine.validate_ns_per_byte", "ns/B", "lower"),
        ("engine.tree_build_share", "fraction", "lower"),
    ]
    + [(f"engine.{fmt}.tree_ns_per_byte", "ns/B", "lower") for fmt in FORMATS]
    + [(f"engine.{fmt}.validate_ns_per_byte", "ns/B", "lower") for fmt in FORMATS]
    + [
        ("diagnose.rejects", "count", "lower"),
        ("diagnose.us_per_reject", "us", "lower"),
        ("diagnose.cost_ratio", "ratio", "lower"),
    ]
    + [(f"diagnose.{fmt}.cost_ratio", "ratio", "lower") for fmt in FORMATS]
    + [
        ("jsonable.us_per_doc", "us", "lower"),
        ("jsonable.nodes_per_doc", "count", "lower"),
        ("wire.bytes_per_doc", "B", "lower"),
        ("wire.pickle_us_per_doc", "us", "lower"),
        ("wire.unpickle_us_per_doc", "us", "lower"),
        ("wire.spooled_frac", "fraction", "lower"),
        ("worker.busy_ms_p50", "ms", "lower"),
        ("service.hop_ms_p50", "ms", "lower"),
        ("service.hop_ms_p99", "ms", "lower"),
        ("service.hop_ratio", "ratio", "lower"),
        ("service.capacity_frac", "fraction", "higher"),
        ("service.retries", "count", "lower"),
        ("service.respawns", "count", "lower"),
        ("service.shed", "count", "lower"),
        ("service.errors", "count", "lower"),
        ("trace.overhead.latency_p50_ms", "ms", "lower"),
        ("trace.overhead.docs_per_s", "1/s", "higher"),
    ]
)


@dataclass
class ServiceFacts:
    stats: Dict[str, int]
    worker_ms: List[float]
    docs_per_s: float
    workers: int


class Counted:
    """Counts the calls to a module-level function of the program.

    Wraps ``module.name`` where callers look it up (``Parser.parse``
    imports ``diagnose_parser`` at the call; the supervisor calls
    ``spool_write`` through its module globals), so the count is what the
    program did, not what the benchmark asked for.
    """

    def __init__(self, module: str, name: str):
        import importlib

        self.module = importlib.import_module(module)
        self.name = name
        self.original = getattr(self.module, name)
        self.calls = 0

        def counting(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        setattr(self.module, name, counting)

    def close(self) -> None:
        setattr(self.module, self.name, self.original)


def bypass_counters() -> Dict[str, Counted]:
    """Counters on the layers ``fig13-tree`` must leave idle."""
    return {
        "diagnose": Counted("repro.core.diagnose", "diagnose_parser"),
        "jsonable": Counted("repro.core.parsetree", "tree_to_jsonable"),
    }


def bypass_checks(counters: Dict[str, Counted], wire_loaded: bool) -> List[str]:
    """Bypass violations of an in-process run: a layer that did work.

    Valid documents need no diagnosis, tree mode needs no serialization,
    and without the service ``repro.service.wire`` is never imported.
    """
    checks = [
        f"fig13-tree: {name} ran {counter.calls} times"
        for name, counter in counters.items()
        if counter.calls
    ]
    if wire_loaded:
        checks.append("fig13-tree: repro.service.wire was imported in-process")
    return checks


def inprocess_probe(parsers, oracle, tally):
    """Decomposition call made after each traced ``fig13-tree`` parse.

    Validates the same document (``engine.validate``) so tree building
    can be told from parsing.
    """

    def probe(doc, tracer):
        result, exc, start, end = timed(parsers[doc.fmt].try_parse, doc.data, emit=None)
        tally.record(exc is None and oracle.check_validate(doc, result), doc, "validate probe")
        tracer.add("engine.validate", start, end, doc.id)

    return probe


def service_probe(docs, warm, parsers, oracle, tally, tracer, spool_limit, seconds):
    """In-process passes over the service corpus, outside the service.

    Times what a worker does for each request: the tree parse (or the
    diagnosed rejection), ``tree_to_jsonable`` and the reply's pickle
    round trip, plus a validate pass and a ``try_parse`` for the
    engine/diagnosis split.  A rejection is a diagnosis when the counted
    ``diagnose_parser`` ran during it.  The ``warm`` documents first stage
    every variant off the record; passes repeat for ``seconds``.  Returns
    side facts the spans do not carry, among them the in-process rate of
    parse plus jsonable (each document's fastest pass) that bounds the
    service's capacity.
    """
    import pickle
    import time
    from multiprocessing.reduction import ForkingPickler

    from repro.core.parsetree import tree_to_jsonable

    for doc in warm:
        timed(parsers[doc.fmt].parse, doc.data)
        timed(parsers[doc.fmt].try_parse, doc.data, emit=None)
    diagnose = Counted("repro.core.diagnose", "diagnose_parser")
    nodes, wire_bytes, passes, rejects = [], [], [], 0
    try:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            busy = []
            for doc in docs:
                parser = parsers[doc.fmt]
                before = diagnose.calls
                tree, exc, start, end = timed(parser.parse, doc.data)
                tally.record(oracle.check_tree(doc, tree, exc), doc, "service probe")
                busy.append(end - start)
                if diagnose.calls > before:
                    tracer.add("diagnose.parse", start, end, doc.id)
                    result, error, start, end = timed(parser.try_parse, doc.data)
                    tally.record(error is None and result is None, doc, "reject probe")
                    tracer.add("engine.reject", start, end, doc.id)
                if exc is not None:
                    continue
                tracer.add("engine.tree", start, end, doc.id)
                obj, _, start, end = timed(tree_to_jsonable, tree)
                tracer.add("jsonable", start, end, doc.id)
                busy[-1] += end - start
                blob, _, start, end = timed(
                    ForkingPickler.dumps, {"kind": "tree", "tree": obj, "elapsed_ms": 0.0}
                )
                tracer.add("wire.pickle", start, end, doc.id)
                _, _, start, end = timed(pickle.loads, blob)
                tracer.add("wire.unpickle", start, end, doc.id)
                if not passes:
                    nodes.append(sum(1 for _ in tree.walk()))
                    request = {"op": "parse", "grammar": ("format", doc.fmt), "emit": "tree"}
                    if len(doc.data) > spool_limit:
                        request["spool"] = ("req-0.bin", len(doc.data))
                    else:
                        request["data"] = doc.data
                    wire_bytes.append(len(blob) + len(ForkingPickler.dumps(request)))
                del tree, obj, blob
                result, exc, start, end = timed(parser.try_parse, doc.data, emit=None)
                tally.record(
                    exc is None and oracle.check_validate(doc, result), doc, "validate probe"
                )
                tracer.add("engine.validate", start, end, doc.id)
            if not passes:
                rejects = diagnose.calls
            passes.append(busy)
    finally:
        diagnose.close()
    best = [min(column) for column in zip(*passes)]
    return {
        "nodes": nodes,
        "wire_bytes": wire_bytes,
        "rejects": rejects,
        "inproc_docs_per_s": len(best) * 1e9 / sum(best),
    }


def overhead(plain, traced):
    """Traced minus untraced end-to-end figures of the same run.

    Each argument is ``(latencies, docs_per_s)`` as the pass loops
    return them.
    """
    return {
        "trace.overhead.latency_p50_ms": (percentile(traced[0], 50) - percentile(plain[0], 50))
        / 1e6,
        "trace.overhead.docs_per_s": traced[1] - plain[1],
    }


def percentile(values, q):
    """The ``q``-th percentile (inclusive method) of ``values``; 0 if empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metrics(tracer, docs, staging, overhead, service=None, side=None):
    """Every per-layer metric as ``{name: (value, unit)}``.

    ``side`` carries what the spans do not: ``rejects``, the diagnoses
    counted in one pass, and the service probe's node and wire sizes.
    """
    spans = tracer.spans
    own = tracer.self_times()
    groups = tracer.by_name()

    def duration(index):
        return spans[index][2] - spans[index][1]

    def select(name, fmt=None):
        return [i for i in groups.get(name, ()) if fmt is None or docs[spans[i][4]].fmt == fmt]

    def ns_per_byte(name, fmt=None):
        chosen = select(name, fmt)
        size = sum(len(docs[spans[i][4]].data) for i in chosen)
        return sum(duration(i) for i in chosen) / size if size else 0.0

    def mean_us(name):
        chosen = select(name)
        return sum(duration(i) for i in chosen) / len(chosen) / 1e3 if chosen else 0.0

    def ratio(top, bottom):
        return top / bottom if top and bottom else 0.0

    values = {
        "stage.import_ms": staging["import_ms"],
        "stage.prepare_ms": staging["prepare_ms"],
        "stage.compile_ms": staging["compile_ms"],
        "stage.compiles": staging["compiles"],
        "stage.source_kb": staging["source_kb"],
    }
    tree, validate = ns_per_byte("engine.tree"), ns_per_byte("engine.validate")
    values["engine.tree_ns_per_byte"] = tree
    values["engine.validate_ns_per_byte"] = validate
    values["engine.tree_build_share"] = ratio(tree - validate, tree) if validate else 0.0
    for fmt in FORMATS:
        values[f"engine.{fmt}.tree_ns_per_byte"] = ns_per_byte("engine.tree", fmt)
        values[f"engine.{fmt}.validate_ns_per_byte"] = ns_per_byte("engine.validate", fmt)

    side = side or {}
    diagnosed = select("diagnose.parse")
    keys = {spans[i][4] for i in diagnosed}
    engine_part = sum(duration(i) for i in select("engine.reject") if spans[i][4] in keys)
    values["diagnose.rejects"] = side.get("rejects", 0)
    values["diagnose.us_per_reject"] = (
        (sum(duration(i) for i in diagnosed) - engine_part) / len(diagnosed) / 1e3
        if diagnosed
        else 0.0
    )
    values["diagnose.cost_ratio"] = ratio(ns_per_byte("diagnose.parse"), validate)
    for fmt in FORMATS:
        values[f"diagnose.{fmt}.cost_ratio"] = ratio(
            ns_per_byte("diagnose.parse", fmt), ns_per_byte("engine.validate", fmt)
        )

    values["jsonable.us_per_doc"] = mean_us("jsonable")
    values["jsonable.nodes_per_doc"] = statistics.mean(side["nodes"]) if side.get("nodes") else 0.0
    values["wire.bytes_per_doc"] = (
        statistics.mean(side["wire_bytes"]) if side.get("wire_bytes") else 0.0
    )
    values["wire.pickle_us_per_doc"] = mean_us("wire.pickle")
    values["wire.unpickle_us_per_doc"] = mean_us("wire.unpickle")
    values["wire.spooled_frac"] = side.get("spooled_frac", 0.0)

    worker_span = {spans[i][3]: i for i in select("service.worker")}
    served = [i for i in select("service.request") if i in worker_span]
    hops = [own[i] / 1e6 for i in served]
    values["worker.busy_ms_p50"] = percentile(service.worker_ms, 50) if service else 0.0
    values["service.hop_ms_p50"] = percentile(hops, 50)
    values["service.hop_ms_p99"] = percentile(hops, 99)
    values["service.hop_ratio"] = (
        statistics.median(duration(i) / max(1, duration(worker_span[i])) for i in served)
        if served
        else 0.0
    )
    if service is not None:
        values["service.capacity_frac"] = service.docs_per_s / (
            service.workers * side["inproc_docs_per_s"]
        )
        values["service.retries"] = service.stats["retries"]
        values["service.respawns"] = service.stats["respawns"]
        values["service.shed"] = service.stats["shed"]
        values["service.errors"] = service.stats["service_errors"]
    else:
        for name in ("capacity_frac", "retries", "respawns", "shed", "errors"):
            values[f"service.{name}"] = 0.0
    values.update(overhead)
    return {name: (values[name], unit) for name, unit, _ in METRICS}
