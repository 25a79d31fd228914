"""Core IPG machinery: AST, surface syntax, checking, interpretation.

The public names most users need are re-exported from :mod:`repro` directly;
this package keeps the individual pipeline stages importable for tools and
tests.  Failure diagnosis and the streaming modules load on first use of
their names (:data:`_LAZY`): a parse of a valid document runs neither.
"""

import importlib

from .ast import (
    Alternative,
    Grammar,
    Interval,
    Rule,
    SwitchCase,
    Term,
    TermArray,
    TermAttrDef,
    TermGuard,
    TermNonterminal,
    TermSwitch,
    TermTerminal,
)
from .attrcheck import check_grammar
from .autocomplete import complete_grammar
from .builtins import BUILTINS, BlackboxResult, is_builtin
from .compiler import CompiledGrammar, Optimizations, compile_grammar
from .errors import (
    AttributeCheckError,
    AutoCompletionError,
    BlackboxError,
    BoundsViolation,
    CompilationError,
    DeadlineExceeded,
    EvaluationError,
    GenerationError,
    GrammarSyntaxError,
    GuardRejected,
    IPGError,
    LimitExceeded,
    NeedMoreInput,
    NotStreamableError,
    ParseFailure,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    SolverError,
    TerminationCheckError,
    TruncatedInput,
    WorkerCrashed,
    render_explain,
)
from .grammar_parser import parse_expression, parse_grammar
from .interpreter import Parser, parse, prepare_grammar
from .limits import DEFAULT_LIMITS, ParseLimits
from .parsetree import ArrayNode, Leaf, Node, ParseTree, tree_equal_modulo_specials

#: Names exported here whose module is imported when first looked up.
_LAZY = {
    "StreamabilityReport": "streamability",
    "StreamingParse": "streaming",
    "analyze_streamability": "streamability",
    "diagnose_failure": "diagnose",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Alternative",
    "ArrayNode",
    "AttributeCheckError",
    "AutoCompletionError",
    "BlackboxError",
    "BlackboxResult",
    "BoundsViolation",
    "BUILTINS",
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
    "Interval",
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
    "Rule",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "SolverError",
    "StreamabilityReport",
    "StreamingParse",
    "SwitchCase",
    "Term",
    "TermArray",
    "TermAttrDef",
    "TermGuard",
    "TermNonterminal",
    "TermSwitch",
    "TermTerminal",
    "TerminationCheckError",
    "TruncatedInput",
    "WorkerCrashed",
    "analyze_streamability",
    "check_grammar",
    "compile_grammar",
    "complete_grammar",
    "diagnose_failure",
    "is_builtin",
    "parse",
    "render_explain",
    "parse_expression",
    "parse_grammar",
    "prepare_grammar",
    "tree_equal_modulo_specials",
]
