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
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict:
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
                result[key] = _digest(compiled.source)
                if not stream:
                    result[f"{key}/to_source"] = _digest(compiled.to_source())
            spans = compile_grammar(
                grammar, memoize=False, optimizations=Optimizations.none()
            )
            instrument_span_recording(spans, frozenset(grammar.rules))
            result[f"{tag}/record_spans"] = _digest(spans.source)
    return result


def compare(before: dict, after: dict) -> int:
    keys = sorted(set(before) | set(after))
    differ = [key for key in keys if before.get(key) != after.get(key)]
    print(f"compared {len(keys)} sources: {len(differ)} differ")
    for key in differ:
        print(f"  differs: {key}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write this checkout's digests to OUT")
    group.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        return compare(*loaded)
    result = digests()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"{len(result)} sources hashed -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
