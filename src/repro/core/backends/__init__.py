"""Emission backends of the compilation pipeline.

The pipeline is analyze -> emit (see :mod:`repro.core.ir`).  One backend
reads the grammar plus the shared analysis:
:mod:`repro.core.backends.closures`, the staged source compiler, emits one
specialized Python closure per alternative (``backend="compiled"``, AOT
``to_source()``).  The reference interpreter
(:mod:`repro.core.interpreter`) is the other engine and the specification.
"""

from .closures import CompiledGrammar, Optimizations, compile_grammar

__all__ = ["CompiledGrammar", "Optimizations", "compile_grammar"]
