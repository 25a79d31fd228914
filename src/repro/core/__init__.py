"""Core IPG machinery: AST, surface syntax, checking, interpretation.

The public names most users need are re-exported from :mod:`repro` directly;
this package keeps the individual pipeline stages importable for tools and
tests.
"""

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
from .diagnose import diagnose_failure
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
from .streamability import StreamabilityReport, analyze_streamability
from .streaming import StreamingParse

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
