"""Benchmark regression gate: fail CI when the compiled speedup collapses.

Compares a freshly measured Fig. 13 benchmark report (the CI smoke run of
``benchmarks/bench_compiler_speedup.py``) against the committed
``BENCH_compiler.json`` trajectory and exits non-zero when any gated
median regressed more than the tolerance (default 15%) below the
committed value, or when a gated median committed there is missing from
the measured report (a benchmark that stopped reporting a metric must not
pass by omission).  A gated key the baseline does not commit is reported
and skipped.  Gated medians:

* ``median_speedup`` — compiled tree-mode vs the frozen interpreter,
* ``aot_median_speedup`` — the ahead-of-time emitted module,
* ``validate_median_speedup_vs_tree`` — the tree-elision fast path,
* ``streaming_median_speedup`` — chunked streaming on the §8-streamable
  formats.

On failure the gate additionally prints per-format deltas (current vs
committed per-metric values) so the regressing format/mode is visible in
the CI log without re-running anything.

The tolerance absorbs machine-to-machine and quick-vs-full noise (the
committed JSON is a full run on the development machine; CI measures a
``--quick`` workload on shared runners).  A genuine regression — an
optimization pass broken or accidentally disabled — drops the median far
more than 15%, while ordinary jitter stays well inside it.

Usage::

    python tools/bench_gate.py CURRENT.json [BASELINE.json] [--tolerance 0.15]
    python tools/bench_gate.py --limits-smoke [--limits-tolerance 0.03]
    python tools/bench_gate.py --lazy-smoke
    python tools/bench_gate.py --staging-smoke
    python tools/bench_gate.py --service-floor FIG.json SVC.json

``BASELINE.json`` defaults to ``BENCH_compiler.json`` at the repository
root.

``--limits-smoke`` is a self-contained second gate for the robustness
layer.  It fails when any workload's exact fuel charges per parse, read
back from the compiled engine and from the reference interpreter, differ
from the counts pinned in :data:`LIMITS_CHARGES`.  It also measures what
the *default* :class:`~repro.core.limits.ParseLimits` cost compiled
tree-mode parses on the Fig. 13 single-format workloads — the charges
times the microbenchmarked per-charge cost, relative to the measured
parse wall clock — and fails when the cross-format median exceeds the
tolerance (3%).  The budget is a single shared-counter decrement per
recursive-rule entry (placed after the memo probe) and per counted
element-loop iteration, so the expected cost is well under a percent;
see :func:`limits_smoke` for why this is gated as a decomposition rather
than an A/B wall-clock ratio.

``--staging-smoke`` gates what a fresh process stages: a new interpreter
imports ``repro``, builds the 7 perfbench formats' parsers and parses each
one's ``format_sample``.  It fails when that loads any module of
:data:`LAZY_MODULES`, or when a format compiled a larger share of its
generated module than :data:`STAGING_SHARES` commits (whole-module
staging compiles all of it).

``--service-floor`` gates the parse service against the host it runs on:
two perfbench result lines (fig13-tree and service-mixed, same machine)
must both be correct, and the service's docs/s must stay above a fixed
share of the in-process docs/s (see :func:`service_floor`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Gated medians: report key -> human label.
GATED_MEDIANS = (
    ("median_speedup", "median compiled speedup"),
    ("aot_median_speedup", "median AOT speedup"),
    ("validate_median_speedup_vs_tree", "median validate-only speedup vs tree"),
    ("streaming_median_speedup", "median streaming speedup"),
)

#: ``--limits-smoke``: exact step-budget charges per parse of each workload
#: (:data:`_LIMITS_CASES`), on the compiled engine and the reference
#: interpreter alike.  A changed count is a changed charge definition.
LIMITS_CHARGES = {
    "dns": 37,
    "ipv4": 0,
    "gif": 116,
    "elf": 39,
    "pe": 8,
    "zip": 8,
    "pdf": 1333,
}

#: ``--staging-smoke``: the largest share of its generated ``.source`` a
#: format's tree parser may have compiled after parsing its sample.  A
#: parser compiles the start rule's closure (0.49 IPv4 to 0.72 PDF of the
#: module); each share is that plus 5 points.
STAGING_SHARES = {
    "dns": 0.65,
    "ipv4": 0.54,
    "gif": 0.69,
    "elf": 0.60,
    "pe": 0.62,
    "zip": 0.65,
    "pdf": 0.78,
}

#: ``--staging-smoke``: modules a parse of a valid document never runs,
#: so building and running parsers must not import them.
LAZY_MODULES = (
    "repro.core.diagnose",
    "repro.core.streamability",
    "repro.core.streaming",
)

#: ``--service-floor``: least service-mixed docs/s per fig13-tree docs/s.
#: 12 ``--seconds 3`` pairs on a 2-vCPU host (Python 3.11.7) read ratios
#: of 0.335–0.450; the floor sits below half the lowest.
SERVICE_FLOOR = 0.15

#: Per-format metrics shown in the failure breakdown.
_FORMAT_METRICS = (
    "speedup",
    "aot_speedup",
    "validate_speedup_vs_tree",
    "streaming_speedup",
)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_format_deltas(current: dict, baseline: dict) -> None:
    """Per-format current-vs-committed breakdown (printed on failure)."""
    current_formats = current.get("formats", {})
    baseline_formats = baseline.get("formats", {})
    names = sorted(set(current_formats) | set(baseline_formats))
    if not names:
        return
    print("bench-gate: per-format deltas (current vs committed):", file=sys.stderr)
    for name in names:
        cur = current_formats.get(name, {})
        base = baseline_formats.get(name, {})
        parts = []
        for metric in _FORMAT_METRICS:
            measured = cur.get(metric)
            committed = base.get(metric)
            if measured is None and committed is None:
                continue
            if measured is None or committed is None:
                parts.append(f"{metric}: {committed} -> {measured}")
                continue
            delta = (measured - committed) / committed if committed else 0.0
            parts.append(
                f"{metric}: {committed:.2f}x -> {measured:.2f}x ({delta:+.0%})"
            )
        print(f"bench-gate:   {name:6s} {'; '.join(parts)}", file=sys.stderr)


def gate(current_path: str, baseline_path: str, tolerance: float) -> int:
    current = _load(current_path)
    baseline = _load(baseline_path)
    failures = []
    for key, label in GATED_MEDIANS:
        committed = baseline.get(key)
        measured = current.get(key)
        if committed is None:
            print(f"bench-gate: {label}: not committed ({key}); skipped")
            continue
        if measured is None:
            print(
                f"bench-gate: {label}: committed {committed:.2f}x but not "
                f"measured ({key}): MISSING"
            )
            failures.append(label)
            continue
        floor = committed * (1.0 - tolerance)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"bench-gate: {label}: measured {measured:.2f}x vs committed "
            f"{committed:.2f}x (floor {floor:.2f}x at -{tolerance:.0%}): {verdict}"
        )
        if measured < floor:
            failures.append(label)
    for name, entry in sorted(current.get("formats", {}).items()):
        size = entry.get("aot_module_bytes")
        if size:
            print(f"bench-gate: {name:6s} AOT module size: {size} B")
    if failures:
        print(
            f"bench-gate: FAILED — {', '.join(failures)} missing or regressed "
            f"more than {tolerance:.0%} below the committed BENCH_compiler.json",
            file=sys.stderr,
        )
        _print_format_deltas(current, baseline)
        return 1
    print("bench-gate: passed")
    return 0


def _limits_cases() -> dict:
    """The ``--limits-smoke`` workloads: format -> input builder."""
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
    from repro import samples

    # The full-size Fig. 13 single-format workloads
    # (benchmarks/bench_compiler_speedup.py, quick=False), plus PDF, which
    # that benchmark leaves out and which charges the most fuel per parse;
    # 16 objects is the top of perfbench's PDF range.
    return {
        "dns": lambda: samples.build_dns_response(answer_count=16),
        "ipv4": lambda: samples.build_ipv4_udp_packet(payload_size=1024),
        "gif": lambda: samples.build_gif(frame_count=8, bytes_per_frame=2048),
        "elf": lambda: samples.build_elf(section_count=16),
        "pe": lambda: samples.build_pe(section_count=8, section_size=2048),
        "zip": lambda: samples.build_zip(),
        "pdf": lambda: samples.build_pdf(object_count=16)[0],
    }


def _spent(cell) -> int:
    """Charges taken from a fuel cell seeded with the default budget."""
    from repro.core.limits import DEFAULT_LIMITS

    return DEFAULT_LIMITS.max_steps - (cell[0] + cell[1])


def measure_charges(fmt: str, data) -> dict:
    """Exact charges of one parse of ``data``: engine -> count.

    Each engine parses once under the default limits and its fuel cell is
    read back: the compiled engine's from an explicit parse state, the
    reference interpreter's from its run.
    """
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
    from repro import Parser
    from repro.core.interpreter import _Run
    from repro.core.runtime import FAIL, _guarded
    from repro.formats import registry

    spec = registry[fmt]
    counts = {}
    for backend in ("compiled", "interpreted"):
        parser = Parser(
            spec.grammar_text, blackboxes=dict(spec.blackboxes), backend=backend
        )
        start = parser.grammar.start
        compiled = parser._engine()
        if compiled is not None:
            state = compiled.new_state()
            cell = state[compiled.fuel_slot]
            run, args = compiled.run_nonterminal, (data, start, 0, len(data), state)
        else:
            interpreter = _Run(parser, data)
            cell = interpreter.fuel
            run, args = interpreter.parse_nonterminal, (start, 0, len(data), None, None)
        assert _guarded(parser.recursion_limit, start, run, *args) is not FAIL
        counts[backend] = _spent(cell)
    return counts


def check_charges(measured: dict, pinned: dict = LIMITS_CHARGES) -> list:
    """Formats whose measured charges (format -> engine -> count) are not
    all equal to the pinned count; prints one line per format."""
    failures = []
    for fmt, expected in pinned.items():
        counts = measured.get(fmt, {})
        ok = bool(counts) and all(count == expected for count in counts.values())
        shown = ", ".join(f"{engine} {count}" for engine, count in counts.items())
        print(
            f"limits-smoke: {fmt:4s} charges per parse: {shown or 'none'} "
            f"(pinned {expected}): {'ok' if ok else 'CHANGED'}"
        )
        if not ok:
            failures.append(fmt)
    return failures


def limits_smoke(tolerance: float) -> int:
    """Gate the step budget's charges and overhead on compiled parses.

    First, deterministically: each workload's charges per parse must equal
    :data:`LIMITS_CHARGES` on the compiled engine and on the reference
    interpreter (:func:`measure_charges`).  Then the overhead: per Fig. 13
    format it is decomposed into three separately measured quantities and
    gated on the cross-format median (the figure's headline statistic)::

        overhead = charges_per_parse * cost_per_charge / parse_seconds

    * ``charges_per_parse`` — exact: the pinned count above (one charge
      per recursive-rule entry and per counted loop iteration);
    * ``cost_per_charge`` — a microbenchmark of the exact generated
      check sequence (aliased cell, decrement, compare, amortized
      ``_limit_refill`` every 256 charges), baseline-subtracted;
    * ``parse_seconds`` — best-of-repeats wall clock of the default
      build, GC parked during sampling.

    A direct A/B wall-clock comparison against a ``ParseLimits
    .unlimited()`` build was tried first and abandoned as unresolvable:
    two separately ``exec``-ed modules of near-identical code land in a
    code-layout lottery worth +/-10% wall-clock per format — an order of
    magnitude above the real effect (~40ns x a few hundred charges), with
    a sign that is deterministic per process content, so neither repeats,
    warmup, GC control, min-estimators, pairing, nor multi-instance
    compilation cancels it.  The decomposition measures each factor where
    it is actually resolvable.
    """
    import gc
    import statistics
    import time

    cases = {fmt: build() for fmt, build in _limits_cases().items()}
    changed = check_charges(
        {fmt: measure_charges(fmt, data) for fmt, data in cases.items()}
    )
    from repro.core.compiler import compile_grammar
    from repro.core.runtime import _limit_refill
    from repro.formats import registry

    def cost_per_charge() -> float:
        """Median ns of the exact generated check, baseline-subtracted."""
        iterations = 500_000

        def run(check: bool) -> float:
            # The generated fuel cell: hot counter, rest of the budget and
            # wall deadline (None: no wall budget); the refill path is
            # taken every 256 charges.
            cell = [256, 10**12, None]
            begin = time.perf_counter()
            if check:
                for _ in range(iterations):
                    _c = cell
                    _c[0] -= 1
                    if _c[0] < 0:
                        _limit_refill(_c)
            else:
                for _ in range(iterations):
                    _c = cell
            return time.perf_counter() - begin

        run(True), run(False)  # warmup
        pairs = [run(True) - run(False) for _ in range(9)]
        return statistics.median(pairs) / iterations

    per_charge = cost_per_charge()
    overheads = {}
    for fmt, data in cases.items():
        spec = registry[fmt]
        compiled = compile_grammar(
            spec.grammar_text, blackboxes=dict(spec.blackboxes)
        )
        start = compiled.grammar.start
        charges = LIMITS_CHARGES[fmt]

        # Parse wall clock: scale the inner loop so every sample spans
        # ~2ms (the sub-0.1ms formats are otherwise dominated by timer
        # granularity), long warmup for the adaptive specializer, GC
        # parked, best-of-repeats.
        def timed() -> float:
            begin = time.perf_counter()
            for _ in range(inner):
                compiled.parse_nonterminal(data, start, 0, len(data))
            return time.perf_counter() - begin

        inner = 1
        probe = min(timed() for _ in range(3))
        inner = max(3, min(200, round(2e-3 / max(probe, 1e-6))))
        for _ in range(10):
            timed()
        gc.collect()
        gc.disable()
        try:
            parse_seconds = min(timed() for _ in range(20)) / inner
        finally:
            gc.enable()

        overheads[fmt] = charges * per_charge / parse_seconds
        print(
            f"limits-smoke: {fmt:4s} {charges:5d} charges x "
            f"{per_charge * 1e9:.0f}ns on a {parse_seconds * 1e3:.2f}ms parse "
            f"({overheads[fmt]:+.1%})"
        )
    median_overhead = statistics.median(overheads.values())
    verdict = "ok" if median_overhead <= tolerance else "REGRESSION"
    print(
        f"limits-smoke: median overhead across {len(overheads)} formats "
        f"{median_overhead:+.1%} (budget {tolerance:.0%}): {verdict}"
    )
    if changed:
        print(
            f"limits-smoke: FAILED — charges per parse changed for "
            f"{', '.join(changed)} (update LIMITS_CHARGES only with the "
            f"charge definition, repro.core.ir.ChargePoints)",
            file=sys.stderr,
        )
    if median_overhead > tolerance:
        print(
            f"limits-smoke: FAILED — default ParseLimits cost more than "
            f"{tolerance:.0%} at the cross-format median",
            file=sys.stderr,
        )
    if changed or median_overhead > tolerance:
        return 1
    print("limits-smoke: passed")
    return 0


def lazy_smoke() -> int:
    """Gate the zero-copy + lazy layer on absolute invariants.

    Unlike the speedup medians (machine-relative, tolerance-gated), the
    lazy layer's value claims are absolute and must hold on any machine:

    * touching one payload section of a >=256 MB mmap'd ELF materializes
      less than 1% of the file's bytes (the ``parse_lazy`` granularity
      contract);
    * building the lazy skeleton index peaks below half the RSS of the
      eager read-then-parse baseline (the zero-copy contract — in
      practice it is ~10x lower, 2x absorbs interpreter-baseline noise).

    The workload is the full-size ``benchmarks/bench_lazy.py`` ELF: 200
    payload sections written sparsely, so the file costs no disk time to
    create and the eager baseline is the only scenario that pays for all
    of it.
    """
    import importlib.util
    import tempfile

    spec = importlib.util.spec_from_file_location(
        "bench_lazy", os.path.join(_REPO_ROOT, "benchmarks", "bench_lazy.py")
    )
    bench_lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_lazy)

    with tempfile.TemporaryDirectory(prefix="lazy_smoke_") as directory:
        workload = bench_lazy._build_elf_workload(directory, quick=False)
        results = {
            scenario: bench_lazy._spawn("elf", scenario, workload["path"])
            for scenario in ("eager-read", "lazy-index", "lazy-section")
        }
    total = workload["file_bytes"]
    assert total >= 256 * 10**6, f"workload shrank to {total} bytes"

    failures = []
    fraction = results["lazy-section"]["decoded_bytes"] / total
    verdict = "ok" if fraction < 0.01 else "REGRESSION"
    print(
        f"lazy-smoke: single-section access materialized "
        f"{results['lazy-section']['decoded_bytes']} of {total} bytes "
        f"({fraction:.2%}, bound 1%): {verdict}"
    )
    if fraction >= 0.01:
        failures.append("single-section materialized fraction")

    eager_rss = results["eager-read"]["max_rss_bytes"]
    index_rss = results["lazy-index"]["max_rss_bytes"]
    verdict = "ok" if index_rss < eager_rss / 2 else "REGRESSION"
    print(
        f"lazy-smoke: index RSS {index_rss / 2**20:.1f} MiB vs eager-read "
        f"{eager_rss / 2**20:.1f} MiB (bound: half): {verdict}"
    )
    if index_rss >= eager_rss / 2:
        failures.append("lazy-index peak RSS")

    stubs = results["lazy-index"]["stubs"]
    verdict = "ok" if stubs == workload["section_count"] else "REGRESSION"
    print(
        f"lazy-smoke: {stubs} stubs for {workload['section_count']} payload "
        f"sections: {verdict}"
    )
    if stubs != workload["section_count"]:
        failures.append("stub count")

    if failures:
        print(
            f"lazy-smoke: FAILED — {', '.join(failures)} violated the "
            f"absolute lazy/zero-copy invariants",
            file=sys.stderr,
        )
        return 1
    print("lazy-smoke: passed")
    return 0


def measure_staging(docs: dict) -> dict:
    """Build each format's parser, parse its document, report the staging.

    ``docs`` maps a format to its document.  Returns the share of each
    parser's generated ``.source`` compiled so far and the
    :data:`LAZY_MODULES` loaded.
    """
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
    from repro.formats import registry

    shares = {}
    for fmt, data in docs.items():
        parser = registry[fmt].build_parser()
        parser.parse(data)
        engine = parser._engine()
        shares[fmt] = engine.staged_bytes / len(engine.source)
    return {
        "shares": shares,
        "modules": [name for name in LAZY_MODULES if name in sys.modules],
    }


def _staging_child() -> None:
    """:func:`measure_staging` on the hex-encoded documents read from stdin."""
    docs = {fmt: bytes.fromhex(data) for fmt, data in json.load(sys.stdin).items()}
    print(json.dumps(measure_staging(docs)))


def check_staging(report: dict, pinned: dict = STAGING_SHARES) -> list:
    """What a :func:`measure_staging` report violates; prints one line each."""
    failures = []
    for name in report["modules"]:
        print(f"staging-smoke: {name} was imported: REGRESSION")
        failures.append(name)
    for fmt, bound in pinned.items():
        share = report["shares"].get(fmt)
        ok = share is not None and share <= bound
        shown = "not measured" if share is None else f"{share:.3f}"
        print(
            f"staging-smoke: {fmt:4s} compiled {shown} of its module "
            f"(bound {bound:.2f}): {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(fmt)
    return failures


def staging_smoke() -> int:
    """Gate a fresh process's staging (see ``--staging-smoke`` above)."""
    import subprocess

    sys.path[:0] = [os.path.join(_REPO_ROOT, name) for name in ("src", "tests")]
    from engine_matrix import format_sample

    docs = {fmt: format_sample(fmt).hex() for fmt in STAGING_SHARES}
    here = os.path.abspath(__file__)
    child = f"import runpy; runpy.run_path({here!r})['_staging_child']()"
    completed = subprocess.run(
        [sys.executable, "-c", child],
        input=json.dumps(docs),
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        print(
            f"staging-smoke: FAILED — the child crashed\n{completed.stderr}",
            file=sys.stderr,
        )
        return 1
    failures = check_staging(json.loads(completed.stdout))
    if failures:
        print(f"staging-smoke: FAILED — {', '.join(failures)}", file=sys.stderr)
        return 1
    print("staging-smoke: passed")
    return 0


def _last_json_line(path: str) -> dict:
    """The last non-empty line of a perfbench run's output, as JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else {}


def service_floor(fig_path: str, svc_path: str) -> int:
    """Gate service throughput against in-process throughput on one host.

    ``fig_path`` and ``svc_path`` hold the result lines of
    ``perfbench/run.py --workload fig13-tree`` and ``--workload
    service-mixed`` taken on the same machine.  Fails unless both report
    ``"correct": true`` and service-mixed ``docs_per_s`` is at least
    ``SERVICE_FLOOR`` times fig13-tree's.  The in-process rate stands in
    for the host's speed, so the floor holds across machines; a service
    that stalls, crash-loops or serializes badly falls through it, and so
    does a result line that lost the metric.
    """
    failures = []
    rates = {}
    for label, path in (("fig13-tree", fig_path), ("service-mixed", svc_path)):
        result = _last_json_line(path)
        if result.get("correct") is not True:
            correct = result.get("correct")
            print(f"service-floor: {label}: correct={correct!r}: FAILED")
            failures.append(f"{label} not correct")
        rate = result.get("metrics", {}).get("docs_per_s", {}).get("value")
        if not isinstance(rate, (int, float)) or rate <= 0:
            print(f"service-floor: {label}: docs_per_s {rate!r}: MISSING")
            failures.append(f"{label} docs_per_s missing")
        else:
            rates[label] = rate
    if len(rates) == 2:
        ratio = rates["service-mixed"] / rates["fig13-tree"]
        verdict = "ok" if ratio >= SERVICE_FLOOR else "REGRESSION"
        print(
            f"service-floor: service-mixed {rates['service-mixed']:.1f} docs/s / "
            f"fig13-tree {rates['fig13-tree']:.1f} docs/s = {ratio:.3f} "
            f"(floor {SERVICE_FLOOR}): {verdict}"
        )
        if ratio < SERVICE_FLOOR:
            failures.append("service throughput ratio")
    if failures:
        print(f"service-floor: FAILED — {', '.join(failures)}", file=sys.stderr)
        return 1
    print("service-floor: passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", nargs="?", help="freshly measured benchmark JSON"
    )
    parser.add_argument(
        "baseline",
        nargs="?",
        default=os.path.join(_REPO_ROOT, "BENCH_compiler.json"),
        help="committed trajectory JSON (default: BENCH_compiler.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional regression below the committed median "
        "(default: 0.15)",
    )
    parser.add_argument(
        "--limits-smoke",
        action="store_true",
        help="instead of gating a benchmark JSON, check the pinned fuel "
        "charges per parse on both engines and the overhead of the default "
        "ParseLimits",
    )
    parser.add_argument(
        "--limits-tolerance",
        type=float,
        default=0.03,
        help="allowed fractional overhead of default limits (default: 0.03)",
    )
    parser.add_argument(
        "--lazy-smoke",
        action="store_true",
        help="run the lazy/zero-copy invariant gate (single-section access "
        "materializes <1%% of a 256MB ELF; lazy index RSS under half of "
        "eager read-then-parse)",
    )
    parser.add_argument(
        "--staging-smoke",
        action="store_true",
        help="check that a fresh process building and running the format "
        "parsers compiles only their start closures and imports no "
        "diagnosis or streaming module",
    )
    parser.add_argument(
        "--service-floor",
        nargs=2,
        metavar=("FIG.json", "SVC.json"),
        help="gate perfbench result lines: both correct, and service-mixed "
        f"docs/s at least {SERVICE_FLOOR}x fig13-tree docs/s",
    )
    args = parser.parse_args(argv)
    if args.limits_smoke:
        return limits_smoke(args.limits_tolerance)
    if args.lazy_smoke:
        return lazy_smoke()
    if args.staging_smoke:
        return staging_smoke()
    if args.service_floor:
        return service_floor(*args.service_floor)
    if not args.current:
        parser.error(
            "CURRENT.json is required unless --limits-smoke, --lazy-smoke, "
            "--staging-smoke or --service-floor is given"
        )
    return gate(args.current, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
