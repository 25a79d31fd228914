#!/usr/bin/env python
"""Fault-injection harness for the error-recovery layer.

Run from a checkout with ``repro`` importable::

    PYTHONPATH=src python tools/faultline.py
    PYTHONPATH=src python tools/faultline.py --format zip --diff-dir diffs

Three injection modes, each exercised over every backend (compiled and
interpreted):

1. **Raising blackboxes** — the ZIP format's ``Inflate`` blackbox is
   replaced by one that raises.  With recovery off, every engine must
   surface the same ``BlackboxError``; with recovery on, each deflated
   member degrades to one localized ``ErrorNode`` and the recovered
   documents must be identical across engines.
2. **Hostile corpus replay** — every regenerated hostile sample (the
   same generators behind ``tests/hostile/``) is parsed in recovery
   mode on both backends.  The recovered documents must be
   identical, error-node windows in bounds, and
   ``salvaged_bytes + error_bytes == len(input)`` (``error_bytes`` is a
   union length: random-access formats like PDF can legitimately report
   overlapping windows when a failed ``[x, EOI]`` invocation contains a
   later-located sibling).  With recovery off,
   the *committed* corpus (``tests/hostile/`` + ``expectations.json``)
   must still surface the pinned PR 6 error class and offset on every
   engine — recovery is a pure layer on top, the parity contract is
   untouched.  (The full regenerated-corpus parity sweep stays where it
   always ran: ``tools/hostile.py`` in the ``hostile`` CI job.)
3. **Buffer view faults** — inputs are wrapped in a :class:`FaultyBuffer`
   whose Python-level reads raise :class:`InjectedFault` (an ``OSError``,
   the class a failing ``mmap`` page-in raises) over armed offset
   ranges; ``parse_recover`` must capture the fault as an ``ErrorNode``
   instead of letting it escape.  No cross-engine tree equality is
   asserted in this mode: whether a fault fires depends on which bytes
   an engine touches *in Python* — the compiled decoders read through
   the C buffer protocol, which a pure-Python ``bytes`` subclass cannot
   intercept.

Mismatching recovered documents are written to ``--diff-dir`` as JSON
(one file per backend) so CI can upload them; the run exits non-zero on
any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from repro import Parser  # noqa: E402
from repro.core.errors import BlackboxError  # noqa: E402
from repro.core.recover import (  # noqa: E402
    document_to_jsonable,
    jsonables_equal,
)
from repro.formats import registry  # noqa: E402

from hostile import FORMATS, SAMPLES, corpus  # noqa: E402

BACKENDS = ("compiled", "interpreted")


class InjectedFault(OSError):
    """The fault :class:`FaultyBuffer` raises on an armed read."""


class FaultyBuffer(bytes):
    """``bytes`` whose Python-level reads raise over armed offset ranges.

    Only ``__getitem__`` (index and slice) is intercepted: C-level
    consumers — ``struct.unpack_from``, ``int.from_bytes``,
    ``bytes(view)`` — go through the buffer protocol and cannot be
    faulted from pure Python.  That is enough to reach every engine's
    scan/dispatch reads and the blackbox window materialization.
    """

    def __new__(cls, data: bytes = b""):
        self = super().__new__(cls, data)
        self._faults = []
        return self

    def arm(self, lo: int, hi: int) -> "FaultyBuffer":
        """Raise on any Python-level read overlapping ``[lo, hi)``."""
        self._faults.append((lo, hi))
        return self

    def disarm(self) -> None:
        self._faults = []

    def _check(self, lo: int, hi: int) -> None:
        for flo, fhi in self._faults:
            if lo < fhi and flo < hi:
                raise InjectedFault(
                    f"injected I/O fault reading [{lo}, {hi}) "
                    f"(armed [{flo}, {fhi}))"
                )

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, _step = key.indices(len(self))
            if hi > lo:
                self._check(lo, hi)
        else:
            index = key if key >= 0 else len(self) + key
            self._check(index, index + 1)
        return super().__getitem__(key)


def raising_blackbox(name: str):
    """A blackbox implementation that always raises an injected fault."""

    def blackbox(window: bytes):
        raise InjectedFault(
            f"injected fault inside blackbox {name!r} ({len(window)} bytes)"
        )

    return blackbox


def _parsers(fmt: str):
    spec = registry[fmt]
    return [
        Parser(spec.grammar_text, blackboxes=dict(spec.blackboxes), backend=b)
        for b in BACKENDS
    ]


def _check_invariants(doc_json: dict, label: str) -> list:
    """Salvage invariants on one recovered document; returns failures."""
    failures = []
    n = doc_json["input_length"]
    if doc_json["salvaged_bytes"] + doc_json["error_bytes"] != n:
        failures.append(
            f"{label}: salvaged {doc_json['salvaged_bytes']} + error "
            f"{doc_json['error_bytes']} != input {n}"
        )
    # Windows may overlap (error_bytes is a union length); only bounds
    # are checked per window.
    for lo, hi in (tuple(e["window"]) for e in doc_json["errors"]):
        if not (0 <= lo <= hi <= n):
            failures.append(f"{label}: window [{lo}, {hi}) out of bounds (n={n})")
    return failures


def _dump_diff(diff_dir: str, tag: str, docs: list) -> None:
    os.makedirs(diff_dir, exist_ok=True)
    for backend, doc in zip(BACKENDS, docs):
        path = os.path.join(diff_dir, f"{tag}-{backend}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)


def check_blackbox_faults(diff_dir: str) -> int:
    """Mode 1: a raising blackbox degrades to a localized ErrorNode."""
    sample = SAMPLES["zip"]()
    spec = registry["zip"]
    failures = 0
    raised = []
    docs = []
    for backend in BACKENDS:
        parser = Parser(
            spec.grammar_text,
            blackboxes={"Inflate": raising_blackbox("Inflate")},
            backend=backend,
        )
        try:
            parser.parse(sample)
        except BlackboxError as exc:
            raised.append(str(exc))
        else:
            print(f"FAIL blackbox[{backend}]: fault did not surface with recovery off")
            failures += 1
            raised.append(None)
        doc = parser.parse_recover(sample)
        doc_json = document_to_jsonable(doc)
        docs.append(doc_json)
        if not doc.errors:
            print(f"FAIL blackbox[{backend}]: recovery produced no error nodes")
            failures += 1
        elif not all(e.error_class == "BlackboxError" for e in doc.errors):
            print(
                f"FAIL blackbox[{backend}]: expected only BlackboxError nodes, "
                f"got {[e.error_class for e in doc.errors]}"
            )
            failures += 1
        if doc.salvaged_bytes <= 0:
            print(f"FAIL blackbox[{backend}]: nothing salvaged around the fault")
            failures += 1
        for problem in _check_invariants(doc_json, f"blackbox[{backend}]"):
            print(f"FAIL {problem}")
            failures += 1
    if len(set(raised)) != 1:
        print(f"FAIL blackbox: recovery-off errors disagree across engines: {raised}")
        failures += 1
    if not all(jsonables_equal(docs[0], other) for other in docs[1:]):
        print("FAIL blackbox: recovered documents differ across engines")
        _dump_diff(diff_dir, "blackbox-zip", docs)
        failures += 1
    nodes = len(docs[0]["errors"]) if docs else 0
    print(f"blackbox: ok ({nodes} error node(s), identical on {len(BACKENDS)} engines)")
    return failures


def check_corpus_replay(formats, diff_dir: str) -> int:
    """Mode 2a: every regenerated hostile sample recovers identically."""
    failures = 0
    for fmt in formats:
        parsers = _parsers(fmt)
        samples = corpus(fmt)
        checked = 0
        for name, data in samples:
            docs = []
            for parser in parsers:
                try:
                    docs.append(document_to_jsonable(parser.parse_recover(data)))
                except BaseException as exc:  # noqa: BLE001 - the contract is "never raises"
                    print(
                        f"FAIL {fmt}/{name} [{parser.backend}]: parse_recover "
                        f"raised {type(exc).__name__}: {exc}"
                    )
                    failures += 1
                    docs.append(None)
            if None not in docs:
                if not all(jsonables_equal(docs[0], other) for other in docs[1:]):
                    print(f"FAIL {fmt}/{name}: recovered documents differ across engines")
                    _dump_diff(diff_dir, f"{fmt}-{name}", docs)
                    failures += 1
                for problem in _check_invariants(docs[0], f"{fmt}/{name}"):
                    print(f"FAIL {problem}")
                    failures += 1
            checked += 1
        print(f"corpus {fmt}: {checked} sample(s) recovered on {len(BACKENDS)} engines")
    return failures


def check_committed_parity(formats) -> int:
    """Mode 2b: with recovery off, the pinned goldens hold unchanged."""
    from engine_matrix import matrix_for

    hostile_dir = os.path.join(os.path.dirname(__file__), "..", "tests", "hostile")
    with open(
        os.path.join(hostile_dir, "expectations.json"), "r", encoding="utf-8"
    ) as handle:
        expectations = json.load(handle)
    failures = 0
    matrices = {}
    checked = 0
    for relpath in sorted(expectations):
        fmt = relpath.split("/", 1)[0]
        if fmt not in formats:
            continue
        if fmt not in matrices:
            spec = registry[fmt]
            matrices[fmt] = matrix_for(
                spec.grammar_text, blackboxes=dict(spec.blackboxes)
            )
        with open(os.path.join(hostile_dir, relpath), "rb") as handle:
            data = handle.read()
        expected = expectations[relpath]
        try:
            matrices[fmt].assert_error_agree(
                data, expect=(expected["error"], expected["offset"])
            )
        except AssertionError as exc:
            print(f"FAIL parity {relpath}: {exc}")
            failures += 1
        checked += 1
    print(f"parity: {checked} committed sample(s) match their pinned class+offset")
    return failures


def check_view_faults(formats) -> int:
    """Mode 3: armed buffer reads degrade to ErrorNodes, never escape."""
    failures = 0
    for fmt in formats:
        data = SAMPLES[fmt]()
        n = len(data)
        windows = ((0, 1), (n // 2, min(n, n // 2 + 16)), (max(0, n - 1), n))
        fired = 0
        for parser in _parsers(fmt):
            for lo, hi in windows:
                buffer = FaultyBuffer(data).arm(lo, hi)
                try:
                    doc = parser.parse_recover(buffer)
                except BaseException as exc:  # noqa: BLE001
                    print(
                        f"FAIL view {fmt} [{parser.backend}] armed [{lo}, {hi}): "
                        f"{type(exc).__name__} escaped: {exc}"
                    )
                    failures += 1
                    continue
                doc_json = document_to_jsonable(doc)
                for problem in _check_invariants(
                    doc_json, f"view {fmt}[{parser.backend}] armed [{lo}, {hi})"
                ):
                    print(f"FAIL {problem}")
                    failures += 1
                if doc.errors:
                    fired += 1
        print(f"view {fmt}: {fired} fault(s) fired, none escaped")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", action="append", choices=FORMATS, help="restrict to FORMAT"
    )
    parser.add_argument(
        "--diff-dir",
        default="faultline-diffs",
        metavar="DIR",
        help="where mismatching recovered documents are dumped as JSON "
        "(default: faultline-diffs; only written on failure)",
    )
    parser.add_argument(
        "--skip-corpus",
        action="store_true",
        help="skip the (slower) hostile-corpus replay, keep the injection modes",
    )
    args = parser.parse_args(argv)
    formats = tuple(args.format) if args.format else FORMATS
    failures = check_blackbox_faults(args.diff_dir)
    if not args.skip_corpus:
        failures += check_corpus_replay(formats, args.diff_dir)
        failures += check_committed_parity(formats)
    failures += check_view_faults(formats)
    if failures:
        print(f"faultline: {failures} failure(s)", file=sys.stderr)
        return 1
    print("faultline: all injection modes clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
