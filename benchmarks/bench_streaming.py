"""Streaming-vs-whole-buffer benchmark for the §8 stream parsers.

Measures, on the two streamable bundled formats (DNS and IPv4+UDP) and for
both execution backends:

* **throughput** — wall-clock ns/byte of ``Parser.parse_stream`` over
  chunked input against a whole-buffer ``Parser.parse``;
* **peak buffered bytes** — the high-water mark of the streaming input
  buffer, which must be bounded by the chunk size plus the largest
  suspended term, *not* by the input size (the compaction guarantee);
* **peak traced allocations** — tracemalloc peaks of both modes, for the
  end-to-end memory picture (parse-tree allocation dominates and is common
  to both).

Every measured run is differentially checked: the streamed tree must equal
the whole-buffer tree.  The script exits non-zero when trees disagree or
when the buffered-bytes bound is violated.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke] [-o FILE]

``--smoke`` shrinks workloads and repetition counts for CI.  The batch
and stream sides of each ratio are timed interleaved, with
``bench_compiler_speedup.best_of``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_compiler_speedup import best_of  # noqa: E402
from repro import samples  # noqa: E402
from repro.evaluation.memory import measure_peak_memory  # noqa: E402
from repro.formats import registry  # noqa: E402

#: Workload builders for the streamable formats: ``builder(smoke)``.
WORKLOADS: Dict[str, Callable[[bool], bytes]] = {
    "dns": lambda smoke: samples.build_dns_response(
        answer_count=32 if smoke else 256,
        additional_count=32 if smoke else 256,
    ),
    "ipv4": lambda smoke: samples.build_ipv4_udp_packet(
        payload_size=1400 if smoke else 16384
    ),
}

#: Slack added to the buffered-bytes bound for fixed headers and rounding.
BOUND_SLACK = 512


def chunked(data: bytes, size: int):
    return [data[i : i + size] for i in range(0, len(data), size)]


def largest_suspended_term(fmt: str, data: bytes) -> int:
    """Upper bound on the largest single term the stream can suspend on.

    For DNS that is one resource record / question (bounded by the message
    layout); for IPv4+UDP it is the UDP datagram, whose ``Payload[len - 8]``
    is a single term — the honest caveat of the bound: a format whose
    grammar describes the bulk of the input as one term buffers that term.
    """
    if fmt == "dns":
        return 320  # header + a maximally labelled name + fixed RR fields
    if fmt == "ipv4":
        return len(data) - 20  # the UDP datagram behind the IPv4 header
    raise KeyError(fmt)


def run(smoke: bool, output: str) -> int:
    rounds = 3 if smoke else 9
    chunk_size = 256 if smoke else 1024
    results: Dict[str, dict] = {}
    failures = 0
    for fmt, build in WORKLOADS.items():
        data = build(smoke)
        chunks = chunked(data, chunk_size)
        spec = registry[fmt]
        assert spec.streamable, f"{fmt} must pass the §8 analysis"
        entry: dict = {"input_bytes": len(data), "chunk_bytes": chunk_size}
        for backend in ("compiled", "interpreted"):
            parser = spec.build_parser(backend=backend)
            batch_tree = parser.parse(data)
            session = parser.stream()
            for chunk in chunks:
                session.feed(chunk)
            if session.finish() != batch_tree:
                print(f"ERROR: {fmt}/{backend}: streamed tree != batch tree")
                failures += 1
                continue
            # The compaction floor is the lowest offset the *previous*
            # attempt read — i.e. the frontier as of the attempt before it —
            # so retention lags one attempt: up to two chunks of input plus
            # the largest suspended term.  Crucially the bound is
            # independent of the input size.
            bound = 2 * chunk_size + largest_suspended_term(fmt, data) + BOUND_SLACK
            if session.max_buffered > bound:
                print(
                    f"ERROR: {fmt}/{backend}: peak buffered "
                    f"{session.max_buffered} B exceeds the bound {bound} B "
                    f"(chunk + largest suspended term + slack)"
                )
                failures += 1
                continue
            batch_ns, stream_ns = best_of(
                [(parser.parse, data), (parser.parse_stream, chunks)], rounds
            )
            batch_memory = measure_peak_memory(lambda: parser.parse(data))
            stream_memory = measure_peak_memory(
                lambda: parser.parse_stream(iter(chunks))
            )
            size = len(data)
            entry[backend] = {
                "batch_ns_per_byte": round(batch_ns / size, 2),
                "stream_ns_per_byte": round(stream_ns / size, 2),
                "stream_overhead": round(stream_ns / batch_ns, 2),
                "peak_buffered_bytes": session.max_buffered,
                "peak_buffered_fraction": round(session.max_buffered / size, 4),
                "reentries": session.attempts,
                "batch_peak_kib": round(batch_memory.peak_kib, 1),
                "stream_peak_kib": round(stream_memory.peak_kib, 1),
            }
            print(
                f"{fmt:5s} {backend:11s} {size:7d} B in {chunk_size} B chunks: "
                f"batch {batch_ns / size:7.1f} ns/B, "
                f"stream {stream_ns / size:7.1f} ns/B "
                f"({stream_ns / batch_ns:.2f}x), "
                f"peak buffer {session.max_buffered} B "
                f"({100 * session.max_buffered / size:.1f}% of input), "
                f"{session.attempts} re-entries"
            )
        results[fmt] = entry
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
    if failures:
        print(f"{failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small workloads for CI smoke runs"
    )
    parser.add_argument("-o", "--output", default="", help="write JSON results here")
    args = parser.parse_args()
    return run(args.smoke, args.output)


if __name__ == "__main__":
    sys.exit(main())
