#!/usr/bin/env python
"""Check that two checkouts generate byte-identical engine code.

A refactor of the analysis or the emitter that claims "the generated code
does not change" is checked by hashing every generated source in both
checkouts and comparing the digests::

    PYTHONPATH=src python tools/source_identity.py --out head.json
    PYTHONPATH=../parent/src python tools/source_identity.py --out parent.json
    python tools/source_identity.py --compare parent.json head.json

The first two commands import ``repro`` from their ``PYTHONPATH``, so run
the same script against both checkouts.  Covered, per registered format
and per ``repro.formats.toy`` grammar that compiles, for all 8
``Optimizations`` combinations: the ``.source`` of the tree, tree-elided,
stream and stream-elided compilations, ``to_source()`` of both batch
variants, and the instrumented ``record_spans`` compilation.
``--compare`` exits 1 when any digest differs or is missing on one side.

``--by-function`` digests each top-level definition of every source
instead (a ``def``, a class, a constant; other statements by kind and
occurrence), keyed ``SOURCE::NAME``, so that ``--compare`` names the
functions and tables that changed and counts the sources each one
changed in.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import sys


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _units(source: str) -> dict:
    """Digest per top-level statement of a generated module, by name."""
    lines = source.splitlines()
    units: dict = {}
    ordinals: dict = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Assign):
            name = ",".join(ast.unparse(target) for target in node.targets)
        else:
            name = type(node).__name__.lower()
        ordinals[name] = ordinals.get(name, 0) + 1
        if ordinals[name] > 1:
            name = f"{name}#{ordinals[name]}"
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        units[name] = _digest(text)
    return units


def digests(by_function: bool = False) -> dict:
    from repro.core.backends.closures import instrument_span_recording
    from repro.core.compiler import Optimizations, compile_grammar
    from repro.core.errors import IPGError
    from repro.core.interpreter import prepare_grammar
    from repro.formats import registry, toy

    texts = {name: spec.grammar_text for name, spec in registry.items()}
    for name in dir(toy):
        value = getattr(toy, name)
        if name.isupper() and isinstance(value, str):
            texts[f"toy.{name}"] = value
    result = {}

    def record(key: str, source: str) -> None:
        if by_function:
            for unit, digest in _units(source).items():
                result[f"{key}::{unit}"] = digest
        else:
            result[key] = _digest(source)

    for name in sorted(texts):
        try:
            grammar = prepare_grammar(texts[name])
            compile_grammar(grammar)
        except IPGError as exc:
            result[name] = f"rejected: {type(exc).__name__}"
            continue
        for flags in itertools.product((False, True), repeat=3):
            tag = f"{name}/" + "".join("1" if flag else "0" for flag in flags)
            options = Optimizations(*flags)
            for elide, stream in itertools.product((False, True), repeat=2):
                compiled = compile_grammar(
                    grammar, optimizations=options, elide_tree=elide, stream=stream
                )
                key = f"{tag}/elide={elide}/stream={stream}"
                record(key, compiled.source)
                if not stream:
                    record(f"{key}/to_source", compiled.to_source())
            spans = compile_grammar(
                grammar, memoize=False, optimizations=Optimizations.none()
            )
            instrument_span_recording(spans, frozenset(grammar.rules))
            record(f"{tag}/record_spans", spans.source)
    return result


def compare(before: dict, after: dict) -> int:
    keys = sorted(set(before) | set(after))
    differ = [key for key in keys if before.get(key) != after.get(key)]
    units = [key for key in differ if "::" in key]
    print(f"compared {len(keys)} digests: {len(differ)} differ")
    for key in differ:
        if "::" not in key:
            print(f"  differs: {key}")
    # Per-function digests: one line per grammar and definition, with the
    # number of sources (configurations and variants) it changed in.
    changed: dict = {}
    for key in units:
        source, unit = key.split("::", 1)
        grammar = source.split("/", 1)[0]
        changed.setdefault((grammar, unit), set()).add(source)
    for (grammar, unit), sources in sorted(changed.items()):
        print(f"  differs: {grammar} {unit} in {len(sources)} source(s)")
    if units:
        touched = sorted({key.split("::", 1)[0] for key in units})
        print(f"sources with a changed definition: {len(touched)}")
        for source in touched:
            print(f"  {source}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write this checkout's digests to OUT")
    group.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument(
        "--by-function",
        action="store_true",
        help="with --out: one digest per top-level definition of each source",
    )
    args = parser.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        return compare(*loaded)
    result = digests(by_function=args.by_function)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"{len(result)} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
