"""Compatibility surface of the staged compiler.

The monolithic compiler moved into the analyze -> emit pipeline:

* :mod:`repro.core.ir` — the analyze stage: whole-grammar facts
  (:func:`repro.core.ir.analyze`), rendered with the grammar by
  ``repro compile --explain``;
* :mod:`repro.core.backends.closures` — the closure-emitting backend
  (everything this module used to contain).

``repro.core.compiler`` remains the stable import path for the closure
backend's public API (`compile_grammar`, :class:`CompiledGrammar`,
:class:`Optimizations`) and for the runtime helpers the generated modules
and sibling modules bind against.
"""

from .backends.closures import (  # noqa: F401
    CompiledGrammar,
    Optimizations,
    compile_grammar,
    _FIXED_INTS,
    _MISS,
    _SHARED_EMPTY,
    _UB,
    _aidx,
    _aidx_env,
    _exists,
    _limit_refill,
    _limit_steps,
    _make_blackbox_runner,
    _make_builtin_runner,
    _make_builtin_runner_elided,
    _mk_array,
    _mk_leaf,
    _mk_node,
    _run_builtin,
    _wrap_outcome,
)
from .ir import GrammarAnalysis, analyze  # noqa: F401

__all__ = [
    "CompiledGrammar",
    "Optimizations",
    "compile_grammar",
    "GrammarAnalysis",
    "analyze",
]
