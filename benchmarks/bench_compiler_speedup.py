"""Compiled-vs-interpreted backend speedup tracker (emits BENCH_compiler.json).

Measures per-format parse throughput (ns/byte) of the ``Parser`` backends —
the reference interpreter, the staged closure compiler, and the
ahead-of-time emitted standalone module (``CompiledGrammar.to_source()``)
— on the Figure 13 single-format workloads (dns, ipv4, gif, elf, pe, zip)
and writes the results to ``BENCH_compiler.json`` at the repository root,
so the performance trajectory of the compiler is tracked across PRs
instead of asserted once.  The emitted artifact size
(``aot_module_bytes``) rides along so the AOT footprint is tracked too.

Two measurement conventions keep the trajectory comparable across PRs:

* the interpreted baseline is *frozen*: the plain reference semantics
  (no first-byte dispatch, no fixed-shape plans) every earlier
  BENCH_compiler.json was measured against — the interpreter carries no
  fast paths, so nothing can silently deflate the compiled speedup it is
  the denominator of;
* the compiled backend runs with its default pass set (now including the
  first-byte dispatch tables and the fixed-shape struct plans).

On top of the tree-building race, the script measures the tree-elision
fast path — ``parse(data, emit=None)`` (validate-only) on the compiled
backend, reported per format as ``validate_speedup_vs_tree`` (compiled
tree-mode time over compiled validate-only time) — and, for the formats
the §8 analysis accepts, chunked streaming (``parse_stream`` at 64 KiB
chunks) as ``streaming_speedup`` against the same frozen baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiler_speedup.py [--quick] [-o FILE]

``--quick`` shrinks the workloads and repetition counts for CI smoke runs.
The script exits non-zero if any format silently fell back to the
interpreter or the engines disagree on a parse tree / validate outcome;
it does *not* gate on a speedup threshold (``tools/bench_gate.py`` does
that in CI, against the committed JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import samples  # noqa: E402
from repro.core.compiler import compile_grammar  # noqa: E402
from repro.formats import registry  # noqa: E402


def load_aot_module(spec):
    """Emit the format's standalone parser module and import it in memory."""
    compiled = compile_grammar(spec.grammar_text, blackboxes=dict(spec.blackboxes))
    return compiled.load_module(f"_aot_bench_{spec.name.replace('-', '_')}")

#: Workload builders for the Figure 13 single-format benchmarks.
#: Each maps a format name to ``builder(quick)``.
WORKLOADS: Dict[str, Callable[[bool], bytes]] = {
    "dns": lambda quick: samples.build_dns_response(answer_count=4 if quick else 16),
    "ipv4": lambda quick: samples.build_ipv4_udp_packet(
        payload_size=64 if quick else 1400
    ),
    "gif": lambda quick: samples.build_gif(
        frame_count=2 if quick else 8, bytes_per_frame=512 if quick else 2048
    ),
    "elf": lambda quick: samples.build_elf(
        section_count=4 if quick else 16,
        symbol_count=16 if quick else 64,
        dynamic_entries=8 if quick else 16,
    ),
    "pe": lambda quick: samples.build_pe(
        section_count=4 if quick else 8, section_size=512 if quick else 2048
    ),
    "zip": lambda quick: samples.build_zip(
        member_count=2 if quick else 8, member_size=512 if quick else 2048
    ),
}


def best_of(sides, rounds: int):
    """Minimum wall-clock nanoseconds for one parse, per ``(parse, data)`` side.

    The sides of a ratio are timed interleaved — round ``r`` runs every side
    once, in turn — rather than back to back, so a host speed switch during
    the measurement slows every side alike instead of skewing the ratio.
    """
    for parse, data in sides:
        parse(data)  # warm up (memo dict allocation, bytecode specialization)
    best = [None] * len(sides)
    for _ in range(rounds):
        for index, (parse, data) in enumerate(sides):
            begin = time.perf_counter_ns()
            parse(data)
            elapsed = time.perf_counter_ns() - begin
            if best[index] is None or elapsed < best[index]:
                best[index] = elapsed
    return best


def run(quick: bool, output: str) -> int:
    rounds = 3 if quick else 9
    results: Dict[str, dict] = {}
    failures = 0
    for fmt, build in WORKLOADS.items():
        data = build(quick)
        spec = registry[fmt]
        compiled = spec.build_parser(backend="compiled")
        # Frozen baseline: the plain reference interpreter (see the
        # module docstring).
        interpreted = spec.build_parser(backend="interpreted")
        aot = load_aot_module(spec)
        if compiled.backend != "compiled":
            print(f"ERROR: {fmt}: compiler fell back to the interpreter")
            failures += 1
            continue
        expected = interpreted.parse(data)
        if compiled.parse(data) != expected:
            print(f"ERROR: {fmt}: backends disagree on the parse tree")
            failures += 1
            continue
        if aot.parse(data) != expected:
            print(f"ERROR: {fmt}: AOT module disagrees on the parse tree")
            failures += 1
            continue
        spans = compiled.parse(data, emit="spans")
        if compiled.parse(data, emit=None) is not True or spans.env != expected.env:
            print(f"ERROR: {fmt}: tree-elision mode disagrees with tree mode")
            failures += 1
            continue
        interpreted_ns, compiled_ns, aot_ns, validate_ns = best_of(
            [
                (interpreted.parse, data),
                (compiled.parse, data),
                (aot.parse, data),
                (lambda d: compiled.parse(d, emit=None), data),
            ],
            rounds,
        )
        size = len(data)
        aot_module_bytes = len(
            compile_grammar(
                spec.grammar_text, blackboxes=dict(spec.blackboxes)
            ).to_source().encode("utf-8")
        )
        results[fmt] = {
            "input_bytes": size,
            "interpreted_ns_per_byte": round(interpreted_ns / size, 2),
            "compiled_ns_per_byte": round(compiled_ns / size, 2),
            "compiled_validate_ns_per_byte": round(validate_ns / size, 2),
            "aot_ns_per_byte": round(aot_ns / size, 2),
            "speedup": round(interpreted_ns / compiled_ns, 2),
            "aot_speedup": round(interpreted_ns / aot_ns, 2),
            "validate_speedup_vs_tree": round(compiled_ns / validate_ns, 2),
            "aot_module_bytes": aot_module_bytes,
        }
        streaming_note = ""
        if spec.streamable:
            # Streaming always measures the *full-size* workload so the
            # quick CI smoke and the committed full run compare the same
            # ratio (session overhead dominates tiny quick inputs).
            stream_data = data if not quick else build(False)

            def parse_streamed(payload):
                chunks = [
                    payload[i : i + 65536] for i in range(0, len(payload), 65536)
                ]
                return compiled.parse_stream(chunks or [b""])

            if parse_streamed(stream_data) != interpreted.parse(stream_data):
                print(f"ERROR: {fmt}: streaming disagrees on the parse tree")
                failures += 1
                continue
            stream_base_ns, streaming_ns = best_of(
                [(interpreted.parse, stream_data), (parse_streamed, stream_data)],
                rounds,
            )
            results[fmt]["streaming_ns_per_byte"] = round(
                streaming_ns / len(stream_data), 2
            )
            results[fmt]["streaming_speedup"] = round(
                stream_base_ns / streaming_ns, 2
            )
            streaming_note = f"  streaming {stream_base_ns / streaming_ns:5.2f}x"
        print(
            f"{fmt:5s} {size:8d} B  interpreted {interpreted_ns / size:9.1f} ns/B"
            f"  compiled {compiled_ns / size:9.1f} ns/B"
            f"  aot {aot_ns / size:9.1f} ns/B"
            f"  validate {validate_ns / size:9.1f} ns/B"
            f"  speedup {interpreted_ns / compiled_ns:5.2f}x"
            f" / {interpreted_ns / aot_ns:5.2f}x"
            f"  elision {compiled_ns / validate_ns:5.2f}x"
            f"{streaming_note}"
        )
    if results:
        median = statistics.median(entry["speedup"] for entry in results.values())
        aot_median = statistics.median(
            entry["aot_speedup"] for entry in results.values()
        )
        validate_median = statistics.median(
            entry["validate_speedup_vs_tree"] for entry in results.values()
        )
        validate_fast = sum(
            1
            for entry in results.values()
            if entry["validate_speedup_vs_tree"] >= 1.5
        )
        streaming_speedups = [
            entry["streaming_speedup"]
            for entry in results.values()
            if "streaming_speedup" in entry
        ]
        report = {
            "benchmark": (
                "compiled / AOT backends vs reference interpreter "
                "(Fig. 13 workloads)"
            ),
            "quick": quick,
            "rounds": rounds,
            "formats": results,
            "median_speedup": round(median, 2),
            "aot_median_speedup": round(aot_median, 2),
            "validate_median_speedup_vs_tree": round(validate_median, 2),
            "validate_formats_at_least_1_5x": validate_fast,
        }
        if streaming_speedups:
            report["streaming_median_speedup"] = round(
                statistics.median(streaming_speedups), 2
            )
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"median speedup {median:.2f}x (closure) / {aot_median:.2f}x (aot); "
            f"validate-only {validate_median:.2f}x vs tree "
            f"({validate_fast}/{len(results)} formats >= 1.5x) -> {output}"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads / few rounds (CI smoke)"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_compiler.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    return run(args.quick, os.path.normpath(args.output))


if __name__ == "__main__":
    sys.exit(main())
