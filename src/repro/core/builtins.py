"""Builtin nonterminals and blackbox parser support.

Section 7 of the paper explains that the naive ``Int`` grammar of Figure 3 is
specialized into a ``btoi`` function in the implementation because integer
fields are parsed constantly.  This module provides those specialized
builtin nonterminals:

=============  =====================================================
Name           Meaning
=============  =====================================================
``U8``         unsigned 8-bit integer
``U16LE``      unsigned 16-bit little-endian integer
``U16BE``      unsigned 16-bit big-endian integer
``U32LE``      unsigned 32-bit little-endian integer
``U32BE``      unsigned 32-bit big-endian integer
``U64LE``      unsigned 64-bit little-endian integer
``U64BE``      unsigned 64-bit big-endian integer
``I32LE``      signed 32-bit little-endian integer
``Byte``       alias of ``U8``
``Raw``        accepts the whole interval as raw bytes (``len`` attribute)
``AsciiInt``   ASCII decimal integer filling the interval (PDF offsets)
``BinInt``     the paper's Figure 3 binary number ("0"/"1" characters)
=============  =====================================================

Each builtin produces a ``Node`` whose environment holds a ``val`` attribute
(``len`` for ``Raw``) plus the special attributes, exactly as a hand-written
IPG rule would.

Blackbox parsers (section 3.4) are arbitrary Python callables registered by
name; the interpreter hands them the bytes of their interval and wraps the
result into a ``Node``.  They are how the ZIP case study calls zlib.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

# The public names of the runtime's builtin-failure sentinel and of its
# blackbox-result normalization.
from .runtime import _BFAIL as BUILTIN_FAIL  # noqa: F401
from .runtime import _BUILTINS, _FIXED_INTS
from .runtime import _normalize_blackbox_result as normalize_blackbox_result  # noqa: F401


@dataclass(frozen=True)
class BuiltinSpec:
    """Description of a builtin nonterminal.

    ``parse`` receives the shared input buffer plus the absolute interval
    ``[lo, hi)`` assigned to the builtin and returns either ``BUILTIN_FAIL``
    or a triple ``(attrs, end, payload)`` where ``attrs`` maps attribute
    names to integers, ``end`` is the relative offset one past the last byte
    consumed, and ``payload`` is an optional copy of the consumed bytes to
    keep in the parse tree (``None`` for the zero-copy builtins such as
    ``Raw``, whose whole point is to *skip* data without touching it).
    The parsers themselves live in :mod:`repro.core.runtime`.
    """

    name: str
    size: Optional[int]  # fixed byte width, or None for variable width
    attrs: Tuple[str, ...]
    parse: Callable[[bytes, int, int], object]
    #: For fixed-width integer builtins: the byte order ("little"/"big") and
    #: signedness, so code generators (the staged compiler) can inline the
    #: decoding without a parallel table.  ``None`` byteorder means the
    #: builtin is not a fixed-width integer.
    byteorder: Optional[str] = None
    signed: bool = False


def _spec(name: str, parse) -> BuiltinSpec:
    size, byteorder, signed = _FIXED_INTS.get(name, (None, None, False))
    attrs = ("len", "val") if name in ("Raw", "Bytes") else ("val",)
    return BuiltinSpec(name, size, attrs, parse, byteorder=byteorder, signed=signed)


#: The global registry of builtin nonterminals.
BUILTINS: Dict[str, BuiltinSpec] = {
    name: _spec(name, parse) for name, parse in _BUILTINS.items()
}


def is_builtin(name: str) -> bool:
    """Whether ``name`` is a builtin nonterminal."""
    return name in BUILTINS


def builtin_attrs(name: str) -> Tuple[str, ...]:
    """Attributes defined by builtin ``name`` (for attribute checking)."""
    return BUILTINS[name].attrs


# ---------------------------------------------------------------------------
# Blackbox parsers
# ---------------------------------------------------------------------------


@dataclass
class BlackboxResult:
    """Result returned by a blackbox parser.

    Attributes
    ----------
    attrs:
        Integer attributes made visible to the surrounding grammar.
    payload:
        Optional bytes payload (e.g. decompressed data) stored as a
        ``Leaf`` child of the blackbox node.
    end:
        Relative offset one past the last byte the blackbox consumed;
        defaults to the full interval.
    """

    attrs: Dict[str, int] = field(default_factory=dict)
    payload: Optional[bytes] = None
    end: Optional[int] = None


#: A blackbox callable may return a BlackboxResult (or any object with its
#: ``attrs``/``payload``/``end`` attributes), a plain attribute dict, raw
#: payload bytes, or None (meaning failure).
BlackboxReturn = Union[BlackboxResult, Dict[str, int], bytes, None]
BlackboxCallable = Callable[[bytes], BlackboxReturn]
