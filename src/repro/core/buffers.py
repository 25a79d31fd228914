"""Input-buffer normalization: the zero-copy entry contract.

Every raising/entry point of every engine funnels its input through
:func:`as_buffer` exactly once.  The contract:

* ``bytes`` passes through untouched — the overwhelmingly common case
  stays on the fastest indexing/slicing path CPython has, and the
  benchmark gate (``tools/bench_gate.py``) keeps it honest;
* anything else exposing the buffer protocol (``bytearray``,
  ``memoryview``, ``mmap.mmap``, ``array.array``, numpy arrays, ...) is
  wrapped in a flat byte-``memoryview`` **without copying the payload**.  Slicing a memoryview yields another memoryview (a window,
  not a copy), indexing yields an ``int``, comparison against ``bytes``
  compares contents, and ``int.from_bytes`` / ``struct.unpack_from`` /
  ``struct.iter_unpack`` consume it natively — which is everything the
  engines do with the input.

Downstream, small ``bytes`` objects are materialized only where the
public API promises real bytes: ``Bytes``/terminal ``Leaf`` payloads,
blackbox windows, and error-context rendering.  An ``mmap``-backed view
therefore parses a multi-gigabyte file at constant RSS: the engines only
ever touch the pages the grammar actually reads.

:func:`as_buffer` is vendored into every emitted parser module by
:mod:`repro.core.codegen`, so emitted modules honour the identical
contract.
"""

from __future__ import annotations

__all__ = ["as_buffer"]


def as_buffer(data):
    """Normalize ``data`` to an engine-consumable buffer without copying.

    ``bytes`` (and subclasses) are returned as-is; any other
    buffer-protocol object becomes a flat ``uint8`` ``memoryview`` over
    the same memory.  Raises ``TypeError`` for non-buffer inputs with a
    message naming the offending type.
    """
    if isinstance(data, bytes):
        return data
    try:
        view = data if type(data) is memoryview else memoryview(data)
    except TypeError:
        raise TypeError(
            f"parse input must be a bytes-like object (bytes, bytearray, "
            f"memoryview, mmap, ...), not {type(data).__name__}"
        ) from None
    if view.ndim != 1 or view.format != "B":
        # Multi-dimensional or typed views (e.g. an array('I')) flatten to
        # their underlying byte storage; cast() never copies.
        view = view.cast("B")
    return view
