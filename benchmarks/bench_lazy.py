"""Lazy & zero-copy benchmark: skeleton-index time and peak RSS vs eager.

Quantifies what the zero-copy input contract plus ``Parser.parse_lazy``
buy on large files.  Every scenario runs in a fresh subprocess so its
peak RSS (``resource.ru_maxrss``) is isolated:

* ``eager-read``  — the pre-zero-copy CLI behavior: read the whole file
  into ``bytes``, parse eagerly.
* ``eager-mmap``  — zero-copy inputs: mmap the file, parse eagerly.
* ``lazy-index``  — mmap + ``parse_lazy`` + materialize the skeleton
  spine (headers and section table; payload sections stay stubs).
* ``lazy-section`` — ``lazy-index`` plus decoding one payload section.

Workloads:

* **elf** — a synthetic ELF64 with 200 payload sections (~256 MB)
  written sparsely by :func:`repro.samples.write_elf`, so generating it
  is instant and the only real I/O is what a scenario actually touches.
* **zip** — 12 deflated 2 MiB members (~8 MB on disk, ~24 MB inflated)
  decompressed through the zlib blackbox: the eager tree retains every
  decompressed payload, over ``bytes`` or mmap alike, and the lazy index
  retains none.  Lazy wins on peak RSS here and loses on time.

``--quick`` shrinks both (~16 MB ELF, 12 x 512 KiB ZIP) for CI smoke runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_lazy.py -o BENCH_lazy.json [--quick]

The committed ``BENCH_lazy.json`` is gated by
``tools/bench_gate.py --lazy-smoke`` on absolute invariants (a single
section of a >=256 MB ELF materializes <1% of the file; the lazy index
peaks below half the eager-read RSS) rather than machine-relative
medians.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

#: ELF workload: one payload section is 1/200 of the file (plus the
#: decoded spine), keeping single-section access well under the 1% bound.
ELF_SECTIONS = 200
ELF_SECTION_SIZE = 1_310_720  # 200 x 1.25 MiB ~= 256 MiB
ELF_SECTIONS_QUICK = 200
ELF_SECTION_SIZE_QUICK = 81_920  # 200 x 80 KiB ~= 16 MiB

ZIP_MEMBERS = 12
ZIP_MEMBER_SIZE = 2 * 1024 * 1024
ZIP_MEMBERS_QUICK = 12
ZIP_MEMBER_SIZE_QUICK = 512 * 1024


def _run_scenario(fmt: str, scenario: str, path: str) -> dict:
    """Child-process entry: run one scenario, print its measurements."""
    import mmap
    import resource
    import time

    from repro.formats import registry

    parser = registry[fmt].build_parser()
    result: dict = {}
    begin = time.perf_counter()
    if scenario == "eager-read":
        with open(path, "rb") as handle:
            data = handle.read()
        tree = parser.parse(data)
        result["tree_nodes"] = tree.size()
    elif scenario == "eager-mmap":
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            tree = parser.parse(mapped)
            result["tree_nodes"] = tree.size()
    elif scenario in ("lazy-index", "lazy-section"):
        from repro.core.lazytree import LazyNode

        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            root = parser.parse_lazy(mapped)
            stubs = [
                node
                for node in _skeleton(root, LazyNode)
                if isinstance(node, LazyNode) and not node.is_materialized
            ]
            result["stubs"] = len(stubs)
            if scenario == "lazy-section":
                target = stubs[len(stubs) // 2]
                result["section_window"] = list(target.interval)
                _ = target.children
            document = root.document
            result["decoded_bytes"] = document.decoded_bytes
            result["decodes"] = len(document.decoded)
    else:
        raise SystemExit(f"unknown scenario {scenario!r}")
    seconds = time.perf_counter() - begin
    # Linux reports ru_maxrss in KiB.
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    result.update(
        scenario=scenario,
        format=fmt,
        seconds=round(seconds, 4),
        max_rss_bytes=max_rss,
    )
    return result


def _skeleton(root, lazy_cls):
    """The skeleton-spine nodes: stop descending at un-decoded stubs."""
    from repro.core.parsetree import ArrayNode, Node

    pending = list(root.children)  # decodes the spine only
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, lazy_cls) and not node.is_materialized:
            continue
        if isinstance(node, ArrayNode):
            pending.extend(node.elements)
        elif isinstance(node, Node):
            pending.extend(node.children)


def _spawn(fmt: str, scenario: str, path: str) -> dict:
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", fmt, scenario, path],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(_REPO_ROOT, "src")},
    )
    return json.loads(output.stdout)


def _build_elf_workload(directory: str, quick: bool) -> dict:
    from repro import samples

    sections = ELF_SECTIONS_QUICK if quick else ELF_SECTIONS
    section_size = ELF_SECTION_SIZE_QUICK if quick else ELF_SECTION_SIZE
    path = os.path.join(directory, "bench_lazy.elf")
    size = samples.write_elf(
        path, section_count=sections, section_size=section_size, symbol_count=64
    )
    return {
        "path": path,
        "file_bytes": size,
        "section_count": sections,
        "section_bytes": section_size,
    }


def _build_zip_workload(directory: str, quick: bool) -> dict:
    from repro import samples

    members = ZIP_MEMBERS_QUICK if quick else ZIP_MEMBERS
    member_size = ZIP_MEMBER_SIZE_QUICK if quick else ZIP_MEMBER_SIZE
    path = os.path.join(directory, "bench_lazy.zip")
    data = samples.build_zip(member_count=members, member_size=member_size)
    with open(path, "wb") as handle:
        handle.write(data)
    return {
        "path": path,
        "file_bytes": len(data),
        "member_count": members,
        "member_bytes": member_size,
    }


def run_benchmark(quick: bool = False) -> dict:
    report: dict = {
        "benchmark": "lazy skeleton-index vs eager parse (time and peak RSS)",
        "quick": quick,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_lazy_") as directory:
        elf = _build_elf_workload(directory, quick)
        scenarios = {}
        for scenario in ("eager-read", "eager-mmap", "lazy-index", "lazy-section"):
            scenarios[scenario] = _spawn("elf", scenario, elf["path"])
            print(
                f"elf/{scenario:12s} {scenarios[scenario]['seconds']:8.3f}s  "
                f"rss {scenarios[scenario]['max_rss_bytes'] / 2**20:8.1f} MiB",
                file=sys.stderr,
            )
        elf.pop("path")
        elf["scenarios"] = scenarios
        report["workloads"]["elf"] = elf

        zipw = _build_zip_workload(directory, quick)
        zip_scenarios = {}
        for scenario in ("eager-read", "eager-mmap", "lazy-index"):
            zip_scenarios[scenario] = _spawn("zip", scenario, zipw["path"])
            print(
                f"zip/{scenario:12s} {zip_scenarios[scenario]['seconds']:8.3f}s  "
                f"rss {zip_scenarios[scenario]['max_rss_bytes'] / 2**20:8.1f} MiB",
                file=sys.stderr,
            )
        zipw.pop("path")
        zipw["scenarios"] = zip_scenarios
        report["workloads"]["zip"] = zipw

    eager = elf["scenarios"]["eager-read"]
    index = elf["scenarios"]["lazy-index"]
    section = elf["scenarios"]["lazy-section"]
    report["elf_index_speedup_vs_eager_read"] = round(
        eager["seconds"] / index["seconds"], 2
    )
    report["elf_index_rss_fraction_of_eager_read"] = round(
        index["max_rss_bytes"] / eager["max_rss_bytes"], 4
    )
    report["elf_single_section_materialized_fraction"] = round(
        section["decoded_bytes"] / elf["file_bytes"], 6
    )
    zip_index = zipw["scenarios"]["lazy-index"]
    for baseline in ("eager-read", "eager-mmap"):
        base = zipw["scenarios"][baseline]
        key = baseline.replace("-", "_")
        report[f"zip_index_rss_fraction_of_{key}"] = round(
            zip_index["max_rss_bytes"] / base["max_rss_bytes"], 4
        )
        report[f"zip_index_time_ratio_to_{key}"] = round(
            zip_index["seconds"] / base["seconds"], 2
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", help="write the JSON report here")
    parser.add_argument(
        "--quick", action="store_true", help="small workloads for CI smoke runs"
    )
    parser.add_argument(
        "--child",
        nargs=3,
        metavar=("FORMAT", "SCENARIO", "FILE"),
        help=argparse.SUPPRESS,  # internal: run one scenario and print JSON
    )
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_run_scenario(*args.child)))
        return 0
    report = run_benchmark(quick=args.quick)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
