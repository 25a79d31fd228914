"""One cold start, run in a fresh interpreter by ``run.py``.

Reads a pickled job from stdin: the ``src`` directory to import ``repro``
from, warm-up documents as ``(format, bytes, hostile)`` and a ``trace``
flag.  The clock starts before ``import repro`` and stops when every
format's parser is built with ``FormatSpec.build_parser()`` and has
parsed its warm-up documents in tree mode, the mode both workloads use.
That stages every variant the workload uses and, given hostile warm-up
documents, warms the diagnosis path with one rejection per format.

The child is single-threaded, so the clock is its CPU clock (see
``spans.py``).  Prints one JSON line: ``setup_s``, plus the staging
breakdown when tracing.  Tracing wraps the public ``prepare_grammar`` and
``compile_grammar`` where ``Parser`` looks them up, records a span per
call, and afterwards measures ``to_source()`` of each format's compiled
grammar.
"""

import json
import pickle
import sys

from spans import Tracer, cpu_ns


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    sys.path.insert(0, job["src"])
    tracer = Tracer(clock=cpu_ns)

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    setup = tracer.begin("setup")
    importing = tracer.begin("import")
    import repro
    from repro.formats import registry

    tracer.end(importing)
    if job["trace"]:
        import repro.core.compiler
        import repro.core.interpreter

        repro.core.interpreter.prepare_grammar = traced(
            "prepare", repro.core.interpreter.prepare_grammar
        )
        repro.core.compiler.compile_grammar = traced(
            "compile", repro.core.compiler.compile_grammar
        )
    parsers = {}
    for fmt, data, hostile in job["warm"]:
        parser = parsers.get(fmt)
        if parser is None:
            parser = parsers[fmt] = registry[fmt].build_parser()
        try:
            result = parser.parse(data)
        except (repro.ParseFailure, repro.BlackboxError):
            if not hostile:
                raise
        else:
            if hostile:
                raise SystemExit(f"warm-up document for {fmt} was not rejected")
            del result
    tracer.end(setup)

    spans = tracer.spans
    report = {"setup_s": (spans[setup][2] - spans[setup][1]) / 1e9}
    if job["trace"]:
        own = tracer.self_times()
        groups = tracer.by_name()
        source_bytes = sum(
            len(
                repro.compile_grammar(
                    registry[fmt].grammar_text, blackboxes=dict(registry[fmt].blackboxes)
                ).to_source()
            )
            for fmt in parsers
        )
        report.update(
            import_ms=(spans[importing][2] - spans[importing][1]) / 1e6,
            prepare_ms=sum(own[i] for i in groups["prepare"]) / 1e6,
            compile_ms=sum(own[i] for i in groups["compile"]) / 1e6,
            compiles=len(groups["compile"]),
            source_kb=source_bytes / 1024,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
