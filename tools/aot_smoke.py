#!/usr/bin/env python
"""AOT emission smoke check: every bundled format, standalone, in a subprocess.

Run from a checkout with ``repro`` importable::

    PYTHONPATH=src python tools/aot_smoke.py --out aot-parsers

For every bundled format grammar this script

1. emits the ahead-of-time parser module (``CompiledGrammar.to_source()``,
   the same artifact as ``repro compile``) into ``--out``, plus one parser
   package of all formats (``render_package``, the same artifact as
   ``repro compile --package``) into ``--out/ipg_parsers``,
2. writes the format's canonical deterministic sample input next to it,
3. launches an **isolated subprocess** (``python -I``) whose ``sys.path``
   contains only the stdlib and the output directory — it asserts that
   ``repro`` is *not* importable, imports each emitted module and each
   package format module, registers the one stdlib-implementable blackbox
   (ZIP's raw-deflate ``Inflate``, returning a duck-typed result), parses
   the sample, checks a truncated input is cleanly rejected, and — for the
   streamable standalone modules — runs one chunked ``parse_stream`` and
   checks it equals the batch tree.  It also checks the vendored parse
   guard's collector pause: automatic garbage collection is off inside
   every blackbox call and back on after every parse.

CI runs this after the test suite and uploads ``--out`` as an artifact, so
every PR leaves behind the inspectable generated parsers it shipped.
Exit code 0 = all formats emitted, imported and parsed standalone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import samples  # noqa: E402
from repro.core.codegen import render_package  # noqa: E402
from repro.core.compiler import compile_grammar  # noqa: E402
from repro.formats import registry  # noqa: E402

#: Canonical sample builders (same parameters as tests/engine_matrix.py).
SAMPLES = {
    "zip": lambda: samples.build_zip(member_count=3, member_size=300),
    "zip-meta": lambda: samples.build_zip(member_count=3, member_size=300),
    "elf": lambda: samples.build_elf(section_count=3, symbol_count=4, dynamic_entries=2),
    "gif": lambda: samples.build_gif(frame_count=2, bytes_per_frame=200),
    "pe": lambda: samples.build_pe(section_count=2),
    "pdf": lambda: samples.build_pdf(object_count=3)[0],
    "dns": lambda: samples.build_dns_response(answer_count=2, additional_count=1),
    "ipv4": lambda: samples.build_ipv4_udp_packet(payload_size=48, options_words=1),
}

#: Package directory (and import name) of the emitted parser package.
PACKAGE = "ipg_parsers"

#: The isolated runner; executed with ``python -I`` so no environment or
#: user site-packages leak in.  Only the stdlib (plus the emitted modules'
#: directory) may be imported.
RUNNER = '''\
import gc
import importlib
import json
import sys
import zlib

out_dir = sys.argv[1]
sys.path.insert(0, out_dir)

try:
    import repro  # noqa: F401
except ImportError:
    pass
else:
    print("FATAL: repro is importable inside the isolated runner")
    sys.exit(2)


class InflateResult:
    """Duck-typed BlackboxResult (attrs / payload / end)."""

    def __init__(self, attrs, payload):
        self.attrs = attrs
        self.payload = payload
        self.end = None


#: gc.isenabled() inside each blackbox call since the last check: the
#: parse guard pauses automatic collection while an engine runs.
collecting_inside = []
blackbox_calls = 0


def inflate(data):
    collecting_inside.append(gc.isenabled())
    decompressor = zlib.decompressobj(-zlib.MAX_WBITS)
    payload = decompressor.decompress(data) + decompressor.flush()
    return InflateResult({"usize": len(payload)}, payload)


def collector_restored(label, step):
    global blackbox_calls
    blackbox_calls += len(collecting_inside)
    inside = any(collecting_inside)
    collecting_inside.clear()
    if gc.isenabled() and not inside:
        return True
    state = "running inside" if inside else "paused after"
    print(f"FAIL {label}: automatic collection {state} {step}")
    return False


gc.enable()
manifest = json.load(open(f"{out_dir}/manifest.json"))
failures = 0
for fmt, entry in sorted(manifest.items()):
    data = open(f"{out_dir}/{entry['sample']}", "rb").read()
    for module_name in entry["modules"]:
        label = f"{fmt} ({module_name})"
        module = importlib.import_module(module_name)
        for blackbox in entry["blackboxes"]:
            if blackbox != "Inflate":
                print(f"FATAL: no stdlib implementation for blackbox {blackbox!r}")
                sys.exit(2)
            module.register_blackbox("Inflate", inflate)
        tree = module.try_parse(data)
        if tree is None:
            print(f"FAIL {label}: sample did not parse")
            failures += 1
            continue
        if not collector_restored(label, "the parse"):
            failures += 1
            continue
        nodes = sum(1 for _ in tree.walk())
        truncated = module.try_parse(data[: max(1, len(data) // 2)])
        if truncated is not None:
            print(f"FAIL {label}: truncated sample unexpectedly parsed")
            failures += 1
            continue
        if not collector_restored(label, "the truncated parse"):
            failures += 1
            continue
        streamed = ""
        if getattr(module, "STREAMABLE", False):
            chunks = [data[i : i + 7] for i in range(0, len(data), 7)]
            if module.parse_stream(chunks) != tree:
                print(f"FAIL {label}: streamed parse differs from batch")
                failures += 1
                continue
            if not collector_restored(label, "the streamed parse"):
                failures += 1
                continue
            streamed = f" streamed({len(chunks)} chunks)"
        print(f"ok   {label}: root={tree.name} nodes={nodes} bytes={len(data)}{streamed}")
if not blackbox_calls:
    print("FAIL: no blackbox ran, so the collector pause went unchecked")
    failures += 1
sys.exit(1 if failures else 0)
'''


def emit(out_dir, formats=None) -> dict:
    """Write standalone modules, the package, the samples and the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    compiled_by_name = {}
    for fmt in sorted(registry if formats is None else formats):
        spec = registry[fmt]
        compiled = compile_grammar(spec.grammar_text, blackboxes=dict(spec.blackboxes))
        compiled_by_name[fmt] = compiled
        module_name = f"{fmt.replace('-', '_')}_parser"
        module_path = os.path.join(out_dir, f"{module_name}.py")
        with open(module_path, "w", encoding="utf-8") as handle:
            handle.write(compiled.to_source())
        sample_name = f"{fmt}.sample.bin"
        with open(os.path.join(out_dir, sample_name), "wb") as handle:
            handle.write(SAMPLES[fmt]())
        manifest[fmt] = {
            "modules": [module_name, f"{PACKAGE}.{fmt.replace('-', '_')}"],
            "sample": sample_name,
            "blackboxes": sorted(spec.blackboxes),
        }
        print(f"emitted {module_path}")
    package_dir = os.path.join(out_dir, PACKAGE)
    os.makedirs(package_dir, exist_ok=True)
    for filename, source in render_package(compiled_by_name).items():
        with open(os.path.join(package_dir, filename), "w", encoding="utf-8") as handle:
            handle.write(source)
    print(f"emitted package {package_dir}")

    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest


def run_isolated(out_dir, **kwargs) -> subprocess.CompletedProcess:
    """Run the isolated runner over ``out_dir``; ``kwargs`` go to subprocess.run."""
    runner_path = os.path.join(out_dir, "_isolated_runner.py")
    with open(runner_path, "w", encoding="utf-8") as handle:
        handle.write(RUNNER)
    # -I: isolated mode — ignores PYTHONPATH and user site-packages, so the
    # subprocess sees only the stdlib and the emitted modules.
    return subprocess.run(
        [sys.executable, "-I", runner_path, os.path.abspath(out_dir)], **kwargs
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="aot-parsers", help="directory for emitted modules + samples"
    )
    args = parser.parse_args(argv)
    manifest = emit(args.out)
    completed = run_isolated(args.out)
    if completed.returncode == 0:
        print(f"all {len(manifest)} formats parse standalone (stdlib only)")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
