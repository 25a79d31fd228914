"""Compatibility surface of the staged compiler.

The monolithic compiler moved into the analyze -> emit pipeline:

* :mod:`repro.core.ir` — the analyze stage: whole-grammar facts
  (:func:`repro.core.ir.analyze`), rendered with the grammar by
  ``repro compile --explain``;
* :mod:`repro.core.backends.closures` — the closure-emitting backend
  (everything this module used to contain).

``repro.core.compiler`` remains the stable import path for the closure
backend's public API (`compile_grammar`, :class:`CompiledGrammar`,
:class:`Optimizations`).  The helpers generated code binds against live in
:mod:`repro.core.runtime`.
"""

from .backends.closures import (  # noqa: F401
    CompiledGrammar,
    Optimizations,
    compile_grammar,
)
from .ir import GrammarAnalysis, analyze  # noqa: F401

__all__ = [
    "CompiledGrammar",
    "Optimizations",
    "compile_grammar",
    "GrammarAnalysis",
    "analyze",
]
