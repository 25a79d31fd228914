"""repro — Interval Parsing Grammars for file format parsing.

A from-scratch Python reproduction of *Interval Parsing Grammars for File
Format Parsing* (Zhang, Morrisett, Tan; PLDI 2023).

Quickstart
----------

    >>> from repro import Parser
    >>> grammar = '''
    ... S -> A[0, 2] B[EOI - 2, EOI] ;
    ... A -> "aa"[0, 2] ;
    ... B -> "bb"[0, 2] ;
    ... '''
    >>> parser = Parser(grammar)
    >>> tree = parser.parse(b"aaxxxbb")
    >>> tree.name
    'S'

Execution backends
------------------

``Parser`` ships two interchangeable engines selected with the ``backend``
keyword, plus an ahead-of-time emission mode:

* ``backend="compiled"`` (the default) stages the grammar once, at parser
  construction time, into specialized Python closures
  (:mod:`repro.core.compiler`): expressions are compiled to inline Python
  with constant folding, terminal matches become inlined slice comparisons,
  fixed-width integer builtins become inlined ``int.from_bytes`` calls, and
  the attribute environment lives in function locals instead of dicts.
  ``where`` rules compile to module-level functions with explicit closure
  cells, ``EOI``-anchored rules get bare-``lo`` memo keys and batch
  compilations skip memo tables for non-recursive rules.  Three
  optimization passes (:class:`Optimizations`) — single-use rule inlining
  (plain, array-element and switch-target call sites), first-byte
  dispatch tables (:mod:`repro.core.firstsets`) and fixed-shape struct
  decoding (:mod:`repro.core.shapes`) — take it to ~4.8x over the
  interpreter on the paper's Figure 13 workloads
  (``benchmarks/bench_compiler_speedup.py``).  Tree-elision
  execution modes (``parse(data, emit="spans"|None)``) skip parse-tree
  construction entirely for validate-only and field-span consumers.
* ``backend="interpreted"`` runs the reference tree-walking interpreter, a
  direct transcription of the big-step semantics (Figures 8/15).
* ``compile_grammar(...).to_source()`` — or the ``repro compile`` CLI —
  renders the staged grammar as a **standalone importable module** that
  parses with only the standard library on ``sys.path``
  (:mod:`repro.core.codegen`).

All engines produce identical parse trees — enforced differentially by the
cross-engine matrix (``tests/engine_matrix.py``) and the golden-tree corpus
(``tests/golden/``) — and a grammar the compiler cannot specialize falls
back to the interpreter automatically (check ``parser.backend`` for the
engine actually in use).

Streaming
---------

Grammars whose dependencies flow strictly left to right (the §8
stream-parser analysis, :func:`analyze_streamability`) can be parsed over
*chunked* input without ever holding the whole file in memory — network
formats like DNS and IPv4+UDP qualify:

    >>> parser = Parser(grammar)
    >>> tree = parser.parse_stream([b"aax", b"xxb", b"b"])   # == parse(...)
    >>> session = parser.stream()          # or incrementally:
    >>> done = session.feed(b"aaxx")
    >>> done = session.feed(b"xbb")
    >>> tree = session.finish()

``parse_stream`` produces trees identical to ``parse`` for every chunking
of the input, on both backends.  Internally the engines run unmodified over
a growing buffer; reads past the received bytes suspend the attempt
(:class:`NeedMoreInput`), persistent memo tables make re-entry cheap, and
the consumed prefix is discarded as parsing advances, so peak buffered
bytes track the largest suspended term rather than the file size.  Grammars
that fail the analysis raise :class:`NotStreamableError` (``force=True``
overrides, at the cost of buffering).  The CLI exposes the same machinery
as ``python -m repro parse --stream`` (reading stdin or a file in chunks)
and ``python -m repro streamability --format dns``.

The package layout mirrors the paper: :mod:`repro.core` implements the IPG
language (syntax, semantics, checking, generation, combinators, termination
checking), :mod:`repro.formats` contains the case-study grammars (ZIP, GIF,
PE, ELF, PDF subset, IPv4+UDP, DNS), :mod:`repro.baselines` the comparison
parsers, :mod:`repro.samples` synthetic workload generators and
:mod:`repro.evaluation` the measurement harness behind the benchmarks.
"""

from .core import (
    ArrayNode,
    AttributeCheckError,
    AutoCompletionError,
    BlackboxError,
    BlackboxResult,
    BoundsViolation,
    CompilationError,
    CompiledGrammar,
    DeadlineExceeded,
    DEFAULT_LIMITS,
    Optimizations,
    EvaluationError,
    GenerationError,
    Grammar,
    GrammarSyntaxError,
    GuardRejected,
    IPGError,
    Leaf,
    LimitExceeded,
    NeedMoreInput,
    Node,
    NotStreamableError,
    ParseFailure,
    ParseLimits,
    ParseTree,
    Parser,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    TerminationCheckError,
    TruncatedInput,
    WorkerCrashed,
    check_grammar,
    compile_grammar,
    complete_grammar,
    parse,
    parse_expression,
    parse_grammar,
    prepare_grammar,
    render_explain,
    tree_equal_modulo_specials,
)

__version__ = "1.0.0"


def __getattr__(name):
    # Diagnosis and streaming load on first use (see repro.core._LAZY).
    from . import core

    if name in core._LAZY:
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrayNode",
    "AttributeCheckError",
    "AutoCompletionError",
    "BlackboxError",
    "BlackboxResult",
    "BoundsViolation",
    "CompilationError",
    "CompiledGrammar",
    "DeadlineExceeded",
    "DEFAULT_LIMITS",
    "Optimizations",
    "EvaluationError",
    "GenerationError",
    "Grammar",
    "GrammarSyntaxError",
    "GuardRejected",
    "IPGError",
    "Leaf",
    "LimitExceeded",
    "NeedMoreInput",
    "Node",
    "NotStreamableError",
    "ParseFailure",
    "ParseLimits",
    "ParseTree",
    "Parser",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "StreamabilityReport",
    "StreamingParse",
    "TerminationCheckError",
    "TruncatedInput",
    "WorkerCrashed",
    "__version__",
    "analyze_streamability",
    "check_grammar",
    "compile_grammar",
    "complete_grammar",
    "diagnose_failure",
    "parse",
    "parse_expression",
    "parse_grammar",
    "prepare_grammar",
    "render_explain",
    "tree_equal_modulo_specials",
]
