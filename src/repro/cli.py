"""Command-line interface for the IPG toolkit.

Usage (also available as ``python -m repro``)::

    python -m repro formats                      # list bundled format grammars
    python -m repro parse --format elf FILE      # parse a file, print a summary
    python -m repro parse --format dns --stream - # stream stdin in chunks (§8)
    python -m repro parse --format elf --lazy FILE # decode only what's shown
    python -m repro index --format elf FILE      # list lazily decodable windows
    python -m repro check GRAMMAR.ipg            # attribute + termination check
    python -m repro compile --format zip -o z.py # emit a standalone AOT parser
    python -m repro compile --format elf --explain-shapes  # fixed-shape report
    python -m repro streamability --format dns   # stream-parser analysis (§8)
    python -m repro streamability GRAMMAR.ipg    # ... or on a grammar file
    python -m repro report [--full]              # re-run the paper's evaluation

``parse`` accepts either one of the bundled formats (``--format``) or a
grammar file (``--grammar``); with ``--tree`` it prints the full parse tree
instead of the per-format summary, and ``--backend`` picks the execution
engine (the staged compiler by default, or the reference interpreter).
With ``--stream`` the input is consumed incrementally in ``--chunk-size``
blocks through ``Parser.parse_stream`` instead of being read up front —
the grammar must pass the §8 streamability analysis (check it first with
the ``streamability`` command, which takes the same ``--format``/grammar
arguments as ``parse``).  With ``--explain-error`` a failed parse prints
the structured error taxonomy (failure class, byte offset, hex context,
violated interval, active rule stack) instead of a one-line message.
With ``--recover`` a failing input is salvaged instead of rejected:
failed subtrees are replaced by error nodes and the salvage summary is
printed (``--max-errors N`` bounds how many before giving up).

Exit codes: 0 success (including a successful ``--recover`` salvage),
2 usage error, and on rejection a code per error class — 10
``TruncatedInput``, 11 ``BoundsViolation``, 12 ``GuardRejected``, 13
``LimitExceeded``, 14 ``BlackboxError`` — with 1 the catch-all for
unclassified failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import IPGError, ParseFailure, Parser, __version__, render_explain
from .core.errors import (
    BlackboxError,
    BoundsViolation,
    GuardRejected,
    LimitExceeded,
    TruncatedInput,
)
from .core.streamability import analyze_streamability
from .core.termination import check_termination
from .core.interpreter import prepare_grammar
from .formats import dns, elf, gif, ipv4, pdf, pe, registry, zipfmt

#: Process exit codes.  0 is success, 2 a usage error (argparse uses the
#: same convention), and parse failures map to a code per error class so
#: scripts can dispatch on *why* an input was rejected without scraping
#: stderr.  1 remains the catch-all for unclassified failures.
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 10
EXIT_BOUNDS = 11
EXIT_GUARD = 12
EXIT_LIMIT = 13
EXIT_BLACKBOX = 14

_EXIT_CODES = (
    (TruncatedInput, EXIT_TRUNCATED),
    (BoundsViolation, EXIT_BOUNDS),
    (GuardRejected, EXIT_GUARD),
    (LimitExceeded, EXIT_LIMIT),
    (BlackboxError, EXIT_BLACKBOX),
)


def _exit_code(error: BaseException) -> int:
    """The process exit code for a classified parse/configuration error."""
    for cls, code in _EXIT_CODES:
        if isinstance(error, cls):
            return code
    return EXIT_FAILURE

#: Formats with a dedicated summary printer.
_SUMMARIZERS = {
    "elf": lambda tree, data: elf.render_readelf(elf.summarize(tree, data)),
    "gif": lambda tree, data: _render_dataclass(gif.summarize(tree)),
    "zip": lambda tree, data: _render_zip(tree),
    "pe": lambda tree, data: _render_dataclass(pe.summarize(tree)),
    "pdf": lambda tree, data: _render_dataclass(pdf.summarize(tree)),
    "dns": lambda tree, data: _render_dataclass(dns.summarize(tree)),
    "ipv4": lambda tree, data: _render_dataclass(ipv4.summarize(tree)),
}


def _render_dataclass(value) -> str:
    """Readable multi-line rendering of a summary dataclass."""
    lines = [type(value).__name__]
    for name, attr in vars(value).items():
        if isinstance(attr, list):
            lines.append(f"  {name} ({len(attr)}):")
            for item in attr:
                lines.append(f"    {item}")
        elif isinstance(attr, (bytes, bytearray)):
            lines.append(f"  {name}: {len(attr)} bytes")
        else:
            lines.append(f"  {name}: {attr}")
    return "\n".join(lines)


def _render_zip(tree) -> str:
    members = zipfmt.list_members(tree)
    lines = [f"ZIP archive with {len(members)} member(s)"]
    for member in members:
        lines.append(
            f"  {member.name:<30} method={member.method} "
            f"{member.compressed_size} -> {member.uncompressed_size} bytes"
        )
    return "\n".join(lines)


def _read_bytes(path: str):
    """The input's bytes: stdin is buffered, regular files are mmap'd.

    Every engine accepts any buffer-protocol object without copying
    (see :mod:`repro.core.buffers`), so handing the parse an mmap means
    ``repro parse --validate`` on a multi-gigabyte file runs at constant
    RSS — the kernel pages in only the bytes the grammar touches.  Empty
    or unmappable files (pipes, some filesystems) fall back to a read.
    """
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        try:
            import mmap

            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return handle.read()


def _close_input(data) -> None:
    """Close an ``_read_bytes`` result if it is closable (an mmap).

    Runs on every exit path — success, parse failure, and grammar errors
    alike — so the CLI never leaks a mapping (visible as a
    ``ResourceWarning`` under ``-W error``).  An mmap refuses to close
    while views over it are still alive; collectable cycles holding such
    views (an abandoned parse run, a closed lazy document) are broken
    with one ``gc.collect()`` retry.
    """
    close = getattr(data, "close", None)
    if close is None:
        return
    try:
        close()
    except BufferError:
        import gc

        gc.collect()
        try:
            close()
        except BufferError:  # a live view escaped; leave the map to the OS
            pass


def _iter_chunks(path: str, chunk_size: int):
    """Yield the file's bytes in ``chunk_size`` blocks without buffering it."""
    handle = sys.stdin.buffer if path == "-" else open(path, "rb")
    try:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return
            yield chunk
    finally:
        if handle is not sys.stdin.buffer:
            handle.close()


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------


def cmd_formats(_args) -> int:
    for name in sorted(registry):
        spec = registry[name]
        print(f"{name:<10} {spec.spec_line_count():>4} lines  {spec.description}")
    return 0


def _render_spans(tree) -> str:
    """Render an ``emit="spans"`` root node: spans plus computed attributes."""
    lines = [
        f"{tree.name}: touched bytes [{tree.env.get('start')}, "
        f"{tree.env.get('end')}) of {tree.env.get('EOI')}"
    ]
    for name, value in tree.env.items():
        if name not in ("EOI", "start", "end"):
            lines.append(f"  {name} = {value}")
    return "\n".join(lines)


def cmd_parse(args) -> int:
    if args.lazy and (args.stream or args.validate or args.spans):
        print(
            "error: --lazy builds an on-demand tree and cannot be combined "
            "with --stream, --validate, or --spans",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.recover and (args.stream or args.validate or args.spans):
        print(
            "error: --recover salvages a parse tree and cannot be combined "
            "with --stream, --validate, or --spans",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.max_errors is not None and not args.recover:
        print("error: --max-errors only applies with --recover", file=sys.stderr)
        return EXIT_USAGE
    data = b"" if args.stream else _read_bytes(args.file)
    try:
        return _run_parse(args, data)
    finally:
        _close_input(data)


def _run_parse(args, data) -> int:
    emit = None if args.validate else ("spans" if args.spans else "tree")
    document = None
    try:
        if args.format:
            if args.format not in registry:
                print(
                    f"unknown format {args.format!r}; see `repro formats`",
                    file=sys.stderr,
                )
                return 2
            spec = registry[args.format]
            parser = spec.build_parser(backend=args.backend)
        else:
            parser = Parser(_read_text(args.grammar), backend=args.backend)
        if args.stream:
            # Incremental consumption: the file (or stdin) is fed to the
            # streaming engine chunk by chunk and never buffered whole.
            # Summaries that need the raw bytes (ELF's section hexdumps) do
            # not apply here — ELF is not streamable anyway.
            # --explain-error retains the full buffer (compact=False):
            # error classification re-reads the input from byte 0, so
            # a compacted stream can only report an unclassified
            # failure.
            tree = parser.parse_stream(
                _iter_chunks(args.file, args.chunk_size),
                emit=emit,
                compact=not args.explain_error,
            )
        elif args.lazy:
            tree = parser.parse_lazy(
                data, lazy_threshold=args.lazy_threshold, recover=args.recover
            )
        elif args.recover:
            document = parser.parse_recover(data, max_errors=args.max_errors)
            tree = document.root
        else:
            tree = parser.parse(data, emit=emit)
    except ParseFailure as exc:
        # Every entry point raises the classified taxonomy (PR 6); the
        # exit code carries the failure class so callers can dispatch on
        # it without scraping stderr.
        if args.explain_error:
            print(
                render_explain(exc, None if args.stream else data),
                file=sys.stderr,
            )
        else:
            print(
                "parse failed: the input does not match the grammar",
                file=sys.stderr,
            )
        return _exit_code(exc)
    except IPGError as exc:
        # Grammar and configuration errors (syntax, attribute checking, a
        # reachable blackbox with no registered implementation, streaming a
        # grammar the §8 analysis rejects) deserve a message, not a
        # traceback.  A raising blackbox lands here too and gets its own
        # exit code.
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    if tree is None:
        print("parse failed: the input does not match the grammar", file=sys.stderr)
        return EXIT_FAILURE
    if emit is None:
        # Validate-only: the engines ran the tree-elision fast path and
        # nothing was allocated; the exit code is the result.
        print("input matches the grammar")
        return 0
    if emit == "spans":
        print(_render_spans(tree))
        return 0
    if document is not None:
        # --recover: the salvaged tree may contain error-node leaves the
        # per-format summarizers do not understand, so print the tree on
        # request and always the salvage summary.  Recovery succeeded, so
        # the exit code is 0 even when error nodes were substituted.
        if args.tree:
            print(tree.pretty())
        print(f"[recover] {document.summary()}")
        return 0
    if (
        args.tree
        or args.recover  # lazy+recover: error nodes vs. summarizers, as above
        or not args.format
        or args.format not in _SUMMARIZERS
    ):
        print(tree.pretty())
    else:
        print(_SUMMARIZERS[args.format](tree, data))
    if args.lazy:
        # How much of the input rendering the output above actually cost.
        lazy_document = tree.document
        total = len(lazy_document.buffer)
        share = 100.0 * lazy_document.decoded_bytes / total if total else 0.0
        print(
            f"[lazy] materialized {lazy_document.decoded_bytes} of {total} "
            f"bytes ({share:.1f}%) in {len(lazy_document.decoded)} decode(s)"
        )
        # Drop the document's view so _close_input can close the mmap.
        lazy_document.close()
    return 0


def cmd_index(args) -> int:
    """``repro index``: lazily skeleton-parse a file, list decodable windows.

    Validates the whole input (one tree-elision pass), decodes only the
    structural spine, and prints the un-decoded subtree windows — the
    units :meth:`~repro.core.interpreter.Parser.parse_lazy` materializes
    individually on access.
    """
    data = _read_bytes(args.file)
    try:
        return _run_index(args, data)
    finally:
        _close_input(data)


def _run_index(args, data) -> int:
    from .core.lazytree import LazyNode
    from .core.parsetree import ArrayNode, Node

    try:
        if args.format:
            if args.format not in registry:
                print(
                    f"unknown format {args.format!r}; see `repro formats`",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            parser = registry[args.format].build_parser(backend=args.backend)
        else:
            parser = Parser(_read_text(args.grammar), backend=args.backend)
        try:
            root = parser.parse_lazy(data, lazy_threshold=args.lazy_threshold)
        except ParseFailure as exc:
            print(render_explain(exc, data), file=sys.stderr)
            return _exit_code(exc)
    except IPGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)

    stubs = []

    def visit(tree) -> None:
        if isinstance(tree, LazyNode) and not tree.is_materialized:
            stubs.append(tree)
            return
        if isinstance(tree, ArrayNode):
            for element in tree.elements:
                visit(element)
        elif isinstance(tree, Node):
            for child in tree.children:
                visit(child)

    for child in root.children:  # decodes the skeleton spine only
        visit(child)
    document = root.document
    total = len(document.buffer)
    share = 100.0 * document.decoded_bytes / total if total else 0.0
    print(
        f"{root.name}: {total} bytes; skeleton decoded "
        f"{document.decoded_bytes} bytes ({share:.1f}%), "
        f"{len(stubs)} lazy subtree(s)"
    )
    for stub in stubs:
        lo, hi = stub.interval
        print(f"  {stub.name:<16} [{lo}, {hi})  {hi - lo} bytes")
    document.close()
    return 0


def cmd_check(args) -> int:
    text = _read_text(args.grammar)
    prepare_grammar(text)  # raises with a precise message on any front-end error
    report = check_termination(text)
    print(report.summary())
    if not report.ok:
        for verdict in report.failing_cycles():
            cycle = " -> ".join(verdict.cycle + [verdict.cycle[0]])
            print(f"  possible non-termination: {cycle} ({verdict.reason})")
        return 1
    return 0


def _cmd_explain_shapes(args) -> int:
    """``repro compile --explain-shapes``: the fixed-shape layout report."""
    from .core.interpreter import prepare_grammar
    from .core.shapes import explain_shapes

    if args.format:
        if args.format not in registry:
            print(
                f"unknown format {args.format!r}; see `repro formats`",
                file=sys.stderr,
            )
            return 2
        grammar_text = registry[args.format].grammar_text
    elif args.grammar:
        grammar_text = _read_text(args.grammar)
    else:
        print(
            "error: --explain-shapes needs --format or a grammar file",
            file=sys.stderr,
        )
        return 2
    grammar = prepare_grammar(grammar_text)
    width = max(len(name) for name in grammar.rules)
    for name, description in explain_shapes(grammar):
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_explain_ir(args) -> int:
    """``repro compile --explain``: dump the grammar with its analysis facts."""
    from .core.compiler import Optimizations
    from .core.ir import analyze, explain_plan

    if args.format:
        if args.format not in registry:
            print(
                f"unknown format {args.format!r}; see `repro formats`",
                file=sys.stderr,
            )
            return 2
        grammar_text = registry[args.format].grammar_text
    elif args.grammar:
        grammar_text = _read_text(args.grammar)
    else:
        print("error: --explain needs --format or a grammar file", file=sys.stderr)
        return 2
    optimizations = Optimizations.none() if args.no_optimize else None
    analysis = analyze(prepare_grammar(grammar_text), optimizations=optimizations)
    print(explain_plan(analysis), end="")
    return 0


def _cmd_compile_package(args) -> int:
    """``repro compile --package DIR``: one module per format + shared prelude."""
    import os

    from .core.codegen import render_package
    from .core.compiler import Optimizations, compile_grammar
    from .core.errors import CompilationError

    names = [args.format] if args.format else sorted(registry)
    optimizations = Optimizations.none() if args.no_optimize else None
    compiled = {}
    for name in names:
        if name not in registry:
            print(f"unknown format {name!r}; see `repro formats`", file=sys.stderr)
            return 2
        spec = registry[name]
        try:
            compiled[name] = compile_grammar(
                spec.grammar_text, optimizations=optimizations
            )
        except CompilationError as exc:
            print(
                f"error: format {name!r} cannot be compiled ahead of time: {exc}",
                file=sys.stderr,
            )
            return 1
    files = render_package(compiled)
    os.makedirs(args.package, exist_ok=True)
    total_lines = 0
    for filename, source in sorted(files.items()):
        path = os.path.join(args.package, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        total_lines += len(source.splitlines())
    print(
        f"wrote {len(files)} modules ({total_lines} lines) to {args.package}: "
        + ", ".join(sorted(files))
    )
    blackbox_notes = sorted(
        name for name, c in compiled.items() if c.grammar.blackboxes
    )
    for name in blackbox_notes:
        print(
            f"note: {name}: register blackbox parser(s) "
            f"{sorted(compiled[name].grammar.blackboxes)} with "
            f"register_blackbox() before parsing"
        )
    return 0


def cmd_compile(args) -> int:
    from .core.compiler import Optimizations, compile_grammar
    from .core.errors import CompilationError

    if args.explain_shapes:
        if args.package or args.output:
            print(
                "error: --explain-shapes prints the fixed-shape analysis "
                "and cannot be combined with --package or -o/--output",
                file=sys.stderr,
            )
            return 2
        return _cmd_explain_shapes(args)
    if args.explain:
        if args.package or args.output:
            print(
                "error: --explain prints the analysis facts and cannot be combined "
                "with --package or -o/--output",
                file=sys.stderr,
            )
            return 2
        return _cmd_explain_ir(args)
    if args.package:
        if args.grammar or args.output:
            print(
                "error: --package emits the bundled format registry into DIR "
                "and cannot be combined with a grammar file or -o/--output",
                file=sys.stderr,
            )
            return 2
        return _cmd_compile_package(args)
    if not args.format and not args.grammar:
        print(
            "error: compile needs --format, a grammar file, or --package DIR",
            file=sys.stderr,
        )
        return 2
    if args.format:
        if args.format not in registry:
            print(
                f"unknown format {args.format!r}; see `repro formats`",
                file=sys.stderr,
            )
            return 2
        spec = registry[args.format]
        grammar_text = spec.grammar_text
        blackbox_names = sorted(spec.blackboxes)
    else:
        grammar_text = _read_text(args.grammar)
        blackbox_names = None
    optimizations = Optimizations.none() if args.no_optimize else Optimizations()
    try:
        compiled = compile_grammar(grammar_text, optimizations=optimizations)
        source = compiled.to_source()
    except CompilationError as exc:
        # Unlike `parse`, ahead-of-time emission has no interpreter to fall
        # back to: report why the grammar cannot be specialized.
        print(f"error: grammar cannot be compiled ahead of time: {exc}", file=sys.stderr)
        return 1
    if blackbox_names is None:
        blackbox_names = sorted(compiled.grammar.blackboxes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {len(source.splitlines())} lines to {args.output}")
        if blackbox_names:
            print(
                f"note: register blackbox parser(s) {blackbox_names} with "
                f"register_blackbox() before parsing"
            )
    else:
        print(source, end="")
    return 0


def cmd_streamability(args) -> int:
    if args.format:
        if args.format not in registry:
            print(
                f"unknown format {args.format!r}; see `repro formats`",
                file=sys.stderr,
            )
            return 2
        report = analyze_streamability(registry[args.format].grammar_text)
    else:
        report = analyze_streamability(_read_text(args.grammar))
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.streamable else 1


def cmd_report(args) -> int:
    from .evaluation.report import generate_full_report

    print(generate_full_report(quick=not args.full))
    return 0


def cmd_serve(args) -> int:
    """Run the fault-tolerant parse service over stdin/stdout.

    Reads one input-file path per line from stdin and writes one JSON
    verdict line per request to stdout, in completion order (each line
    carries the echoed path).  Every line gets exactly one verdict —
    a tree / verdict / recovered document, a structured parse failure,
    or a service error — regardless of worker crashes, hangs, or
    poisonous inputs.  Service counters go to stderr at shutdown.
    """
    import json
    import time as _time

    from .core.errors import ServiceOverloaded
    from .service import ParseService, ServiceConfig

    if args.format is None and args.grammar is None:
        print("serve: pass --format or --grammar", file=sys.stderr)
        return EXIT_USAGE
    grammar_text = None
    if args.grammar is not None:
        try:
            grammar_text = _read_text(args.grammar)
        except OSError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return EXIT_USAGE

    emit = None if args.validate else "tree"
    config = ServiceConfig(
        workers=args.workers,
        default_deadline_ms=args.deadline_ms,
        backend=args.backend,
        quarantine_dir=args.quarantine_dir,
        blackbox_provider=args.blackbox_provider,
        retries=args.retries,
    )
    try:
        service = ParseService(config)
    except IPGError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    with service:
        pending = []  # (path, future), answered in completion order

        def drain(block: bool) -> None:
            nonlocal failures
            while pending and (block or pending[0][1].done()):
                path, future = pending.pop(0)
                result = future.result()
                line = {"path": path, "kind": result.kind}
                if result.error is not None:
                    failures += 1
                    line["error"] = type(result.error).__name__
                    line["message"] = str(result.error)
                else:
                    # Only read .tree when printed: the first read decodes.
                    if args.tree and result.tree is not None:
                        line["tree"] = result.tree
                    if result.document is not None:
                        line["document"] = result.document
                if result.elapsed_ms is not None:
                    line["elapsed_ms"] = round(result.elapsed_ms, 3)
                line["retried"] = result.retried
                print(json.dumps(line), flush=True)

        for raw in sys.stdin:
            path = raw.strip()
            if not path:
                continue
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                failures += 1
                print(
                    json.dumps(
                        {"path": path, "kind": "error", "error": "OSError",
                         "message": str(exc)}
                    ),
                    flush=True,
                )
                continue
            while True:
                try:
                    future = service.submit(
                        data,
                        format=args.format,
                        grammar=grammar_text,
                        emit=emit,
                        recover=args.recover,
                    )
                    break
                except ServiceOverloaded as exc:
                    drain(block=True)
                    _time.sleep(min(exc.retry_after or 0.05, 0.5))
            pending.append((path, future))
            drain(block=False)
        drain(block=True)
        stats = service.stats()
    print(
        "serve: "
        + " ".join(f"{key}={value}" for key, value in sorted(stats.items())),
        file=sys.stderr,
    )
    return 0 if failures == 0 else EXIT_FAILURE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Interval Parsing Grammars toolkit"
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("formats", help="list bundled format grammars").set_defaults(
        handler=cmd_formats
    )

    parse_command = commands.add_parser("parse", help="parse a file with an IPG")
    parse_command.add_argument("file", help="input file ('-' for stdin)")
    group = parse_command.add_mutually_exclusive_group(required=True)
    group.add_argument("--format", help="one of the bundled formats (see `formats`)")
    group.add_argument("--grammar", help="path to an IPG grammar file")
    mode_group = parse_command.add_mutually_exclusive_group()
    mode_group.add_argument(
        "--tree", action="store_true", help="print the full parse tree instead of a summary"
    )
    mode_group.add_argument(
        "--validate",
        action="store_true",
        help="accept/reject only: run the tree-elision fast path (no parse "
        "tree is built) and report whether the input matches",
    )
    mode_group.add_argument(
        "--spans",
        action="store_true",
        help="print the top-level attribute environment (field values and "
        "touched-byte spans) via the tree-elision fast path",
    )
    parse_command.add_argument(
        "--backend",
        choices=Parser.BACKENDS,
        default="compiled",
        help="parse engine: staged compiler (default) or the reference "
        "interpreter",
    )
    parse_command.add_argument(
        "--stream",
        action="store_true",
        help="consume the input incrementally in chunks (requires a grammar "
        "that passes the section-8 streamability analysis)",
    )
    parse_command.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=65536,
        metavar="N",
        help="chunk size in bytes for --stream (default: 65536)",
    )
    parse_command.add_argument(
        "--explain-error",
        action="store_true",
        help="on parse failure, print the structured error (failure class, "
        "byte offset with hex context, violated interval, rule stack) "
        "instead of a one-line message",
    )
    parse_command.add_argument(
        "--lazy",
        action="store_true",
        help="parse lazily: validate the input now, decode subtrees only as "
        "the output needs them, and report how many bytes were "
        "materialized",
    )
    parse_command.add_argument(
        "--lazy-threshold",
        type=int,
        default=None,
        metavar="N",
        help="minimum subtree window size in bytes left as a lazy stub "
        "(default: 4096; 0 stubs every top-level rule invocation)",
    )
    parse_command.add_argument(
        "--recover",
        action="store_true",
        help="error-recovering parse: failed subtrees become error nodes "
        "carrying the structured diagnosis, the salvage summary is "
        "printed, and the exit code is 0 when recovery succeeds; with "
        "--lazy, a stub that fails to decode degrades to an error node",
    )
    parse_command.add_argument(
        "--max-errors",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --recover: give up and report the classified failure "
        "once more than N error nodes accumulate",
    )
    parse_command.set_defaults(handler=cmd_parse)

    index_command = commands.add_parser(
        "index",
        help="lazily index a file: validate it and list the subtree "
        "windows that decode on demand",
    )
    index_command.add_argument("file", help="input file ('-' for stdin)")
    index_group = index_command.add_mutually_exclusive_group(required=True)
    index_group.add_argument(
        "--format", help="one of the bundled formats (see `formats`)"
    )
    index_group.add_argument("--grammar", help="path to an IPG grammar file")
    index_command.add_argument(
        "--backend",
        choices=Parser.BACKENDS,
        default="compiled",
        help="parse engine backing the skeleton probes (default: compiled)",
    )
    index_command.add_argument(
        "--lazy-threshold",
        type=int,
        default=None,
        metavar="N",
        help="minimum subtree window size in bytes left as a lazy stub "
        "(default: 4096; 0 stubs every top-level rule invocation)",
    )
    index_command.set_defaults(handler=cmd_index)

    check_command = commands.add_parser("check", help="attribute + termination checking")
    check_command.add_argument("grammar", help="path to an IPG grammar file")
    check_command.set_defaults(handler=cmd_check)

    compile_command = commands.add_parser(
        "compile", help="emit an ahead-of-time standalone parser module"
    )
    compile_group = compile_command.add_mutually_exclusive_group()
    compile_group.add_argument(
        "--format", help="one of the bundled formats (see `formats`)"
    )
    compile_group.add_argument(
        "grammar", nargs="?", help="path to an IPG grammar file"
    )
    compile_command.add_argument(
        "-o", "--output", help="write the module to this file (default: stdout)"
    )
    compile_command.add_argument(
        "--package",
        metavar="DIR",
        help="emit a parser *package* into DIR: one module per bundled "
        "format (or just --format's) plus one shared runtime prelude "
        "module, instead of vendoring the prelude into every file",
    )
    compile_command.add_argument(
        "--explain",
        action="store_true",
        help="print each rule with the analysis facts the compiler emits "
        "from (memo mode, fuel, fixed-shape decoder, dispatch table) "
        "instead of emitting a module",
    )
    compile_command.add_argument(
        "--explain-shapes",
        action="store_true",
        help="print the fixed-shape layout analysis per rule (struct format "
        "strings, covered prefixes, bail-out reasons) instead of emitting "
        "a module",
    )
    compile_command.add_argument(
        "--no-optimize",
        action="store_true",
        help="disable the compiler optimization passes (module-level where "
        "rules, dense memo keys, memo elision, single-use inlining, "
        "first-byte dispatch tables, fixed-shape vectorization)",
    )
    compile_command.set_defaults(handler=cmd_compile)

    streamability_command = commands.add_parser(
        "streamability", help="stream-parser analysis (paper section 8)"
    )
    streamability_group = streamability_command.add_mutually_exclusive_group(
        required=True
    )
    streamability_group.add_argument(
        "--format", help="one of the bundled formats (see `formats`)"
    )
    streamability_group.add_argument(
        "grammar", nargs="?", help="path to an IPG grammar file"
    )
    streamability_command.set_defaults(handler=cmd_streamability)

    report_command = commands.add_parser("report", help="re-run the paper's evaluation")
    report_command.add_argument(
        "--full", action="store_true", help="more repetitions / larger workloads"
    )
    report_command.set_defaults(handler=cmd_report)

    serve_command = commands.add_parser(
        "serve",
        help="fault-tolerant parse service: file paths on stdin, JSON "
        "verdicts on stdout",
    )
    serve_group = serve_command.add_mutually_exclusive_group(required=True)
    serve_group.add_argument(
        "--format", help="one of the bundled formats (see `formats`)"
    )
    serve_group.add_argument("--grammar", help="path to an IPG grammar file")
    serve_command.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="worker processes in the pool (default 2)",
    )
    serve_command.add_argument(
        "--deadline-ms",
        type=_positive_int,
        default=10_000,
        help="per-request wall-clock deadline; on expiry the worker is "
        "killed and the request retried once before a structured "
        "DeadlineExceeded verdict (default 10000)",
    )
    serve_command.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-dispatches after a crash or deadline kill (default 1)",
    )
    serve_command.add_argument(
        "--backend",
        choices=Parser.BACKENDS,
        default="compiled",
        help="parse engine workers use (default: staged compiler)",
    )
    serve_mode = serve_command.add_mutually_exclusive_group()
    serve_mode.add_argument(
        "--tree",
        action="store_true",
        help="include the full parse tree in each verdict line",
    )
    serve_mode.add_argument(
        "--validate",
        action="store_true",
        help="accept/reject only (tree-elision fast path in the workers)",
    )
    serve_mode.add_argument(
        "--recover",
        action="store_true",
        help="salvage hostile inputs: verdicts carry a recovered document "
        "instead of a parse failure",
    )
    serve_command.add_argument(
        "--quarantine-dir",
        help="quarantine worker-killing inputs to this crasher corpus "
        "(replayable via tools/fuzz_parsers.py --replay-quarantine)",
    )
    serve_command.add_argument(
        "--blackbox-provider",
        help="module:attribute resolving to the blackbox dict workers use "
        "for --grammar requests",
    )
    serve_command.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_arg_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
