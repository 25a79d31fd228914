"""Error-recovering partial parsing (``Parser.parse_recover``).

The recovery layer re-enters the ordinary engines window-by-window, so
the contract under test is cross-cutting:

* over the committed hostile corpus ``parse_recover`` **never raises**,
  the two tree backends (compiled / interpreted) produce
  identical recovered documents, and the salvage accounting invariants
  hold (windows in-bounds, ``salvaged + error == input length`` with
  ``error_bytes`` the *union* length — random-access formats like PDF
  can legitimately report overlapping error windows);
* recovery-off behaviour is untouched: the same inputs still raise the
  pinned taxonomy class at the pinned offset;
* crafted grammars pin the salvage shapes themselves — maximal valid
  prefix, skip-one-bad-record resync via the fixed-stride shape info,
  blackbox and I/O-fault capture, ``max_errors`` give-up;
* a pinned-golden corpus (``tests/golden/recover/``) freezes the full
  recovered document — tree, error list, salvage counts — for a
  representative slice of the hostile samples (regenerate with
  ``pytest tests/test_recover.py --update-golden``);
* the CLI exit-code contract and the mmap/memoryview release on failure
  paths are exercised through real subprocesses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Parser
from repro.core.errors import BlackboxError, ParseFailure, TruncatedInput
from repro.core.recover import (
    ErrorNode,
    collect_errors,
    document_to_jsonable,
    jsonables_equal,
)
from repro.formats import registry

BACKENDS = ("compiled", "interpreted")

TESTS_DIR = Path(__file__).parent
HOSTILE_DIR = TESTS_DIR / "hostile"
GOLDEN_DIR = TESTS_DIR / "golden" / "recover"
REPO_ROOT = TESTS_DIR.parent

with open(HOSTILE_DIR / "expectations.json", "r", encoding="utf-8") as _handle:
    EXPECTATIONS = json.load(_handle)

CORPUS = sorted(EXPECTATIONS)

#: Samples whose full recovered document is pinned as a golden artifact —
#: at least one per format, biased toward the interesting salvage shapes
#: (multi-corruption, raising blackboxes, structure-level lies).
GOLDEN_SAMPLES = (
    "dns/lie_rdlength_huge.bin",
    "dns/multi_flip_pair.bin",
    "elf/lie_shoff_past_eof.bin",
    "elf/multi_two_section_offsets.bin",
    "gif/special_runaway_subblocks.bin",
    "ipv4/lie_udp_length_huge.bin",
    "pdf/multi_flip_pair.bin",
    "pe/lie_nsections_huge.bin",
    "zip/bbox_deflate_first_member.bin",
    "zip/multi_two_deflate_members.bin",
)

_PARSERS: dict = {}


def recover_parser(fmt: str, backend: str = "compiled") -> Parser:
    key = (fmt, backend)
    if key not in _PARSERS:
        spec = registry[fmt]
        _PARSERS[key] = Parser(
            spec.grammar_text, blackboxes=dict(spec.blackboxes), backend=backend
        )
    return _PARSERS[key]


def read_sample(key: str) -> bytes:
    return (HOSTILE_DIR / key).read_bytes()


def assert_salvage_invariants(doc_json: dict, label: str) -> None:
    n = doc_json["input_length"]
    # error_bytes is the union length of the windows, so the accounting
    # holds even when windows overlap (legitimate in random-access formats
    # where a failed [x, EOI] invocation contains later-located siblings).
    assert doc_json["salvaged_bytes"] + doc_json["error_bytes"] == n, label
    for entry in (tuple(e["window"]) for e in doc_json["errors"]):
        lo, hi = entry
        assert 0 <= lo <= hi <= n, f"{label}: window {entry} out of bounds"


# ---------------------------------------------------------------------------
# The committed hostile corpus: never raise, three identical backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", CORPUS)
def test_corpus_recovery_never_raises_and_backends_agree(key):
    fmt = key.split("/", 1)[0]
    data = read_sample(key)
    docs = []
    for backend in BACKENDS:
        document = recover_parser(fmt, backend).parse_recover(data)
        docs.append(document_to_jsonable(document))
    assert_salvage_invariants(docs[0], key)
    assert jsonables_equal(docs[0], docs[1]), f"{key}: compiled != interpreted"
    # Every corpus sample is known-bad, so recovery must report something.
    assert docs[0]["errors"], f"{key}: hostile sample recovered with no errors?"


@pytest.mark.parametrize("key", CORPUS)
def test_corpus_recovery_off_parity_unchanged(key):
    # Recovery must not perturb the ordinary path: after parse_recover has
    # run (warm memo/dispatch state), plain parse still raises the pinned
    # class at the pinned offset.
    fmt = key.split("/", 1)[0]
    data = read_sample(key)
    parser = recover_parser(fmt)
    parser.parse_recover(data)
    expected = EXPECTATIONS[key]
    try:
        parser.parse(data)
    except (ParseFailure, BlackboxError) as exc:
        assert type(exc).__name__ == expected["error"], key
        assert getattr(exc, "offset", None) == expected["offset"], key
    else:
        pytest.fail(f"{key}: hostile sample parsed cleanly with recovery off")


def test_clean_input_recovers_to_the_ordinary_tree():
    for fmt in ("dns", "gif", "zip"):
        from engine_matrix import format_sample

        data = format_sample(fmt)
        parser = recover_parser(fmt)
        document = parser.parse_recover(data)
        assert document.errors == []
        assert document.salvaged_bytes == len(data)
        assert document.error_bytes == 0
        assert document.root == parser.parse(data)


def test_errors_are_ordered_by_window():
    for key in ("elf/multi_two_section_offsets.bin", "zip/multi_two_deflate_members.bin"):
        fmt = key.split("/", 1)[0]
        document = recover_parser(fmt).parse_recover(read_sample(key))
        windows = [e.window for e in document.errors]
        assert windows == sorted(windows), key
        assert collect_errors(document.root) == document.errors, key


# ---------------------------------------------------------------------------
# Crafted salvage shapes
# ---------------------------------------------------------------------------

#: Count-prefixed list of fixed-stride records: 'R' magic, a value byte,
#: a little-endian u16.  The fixed 4-byte stride is what the shape
#: analysis hands the recovery layer for skip-one-bad-record resync.
RECORDS_GRAMMAR = (
    "S -> U8[0, 1] {n = U8.val} for i = 0 to n do R[1 + 4 * i, 5 + 4 * i] ; "
    'R -> "R"[0, 1] U8[1, 2] {v = U8.val} U16LE[2, 4] ;'
)


def build_records(count: int) -> bytes:
    out = bytearray([count])
    for i in range(count):
        out += b"R" + bytes([i]) + (1000 + i).to_bytes(2, "little")
    return bytes(out)


def _records_parsers():
    return [Parser(RECORDS_GRAMMAR, backend=b) for b in BACKENDS]


def record_survey(root):
    """``(healthy record values, R error nodes)`` for a RECORDS_GRAMMAR
    tree — traverses eager, array and lazy nodes alike (lazy children
    materialize on access, which is the point for the fault tests)."""
    healthy, errors = [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ErrorNode):
            if node.name == "R":
                errors.append(node)
            continue
        env = getattr(node, "env", None)
        if env is not None and node.name == "R" and "v" in env:
            healthy.append(env["v"])
        stack.extend(
            getattr(node, "children", None) or getattr(node, "elements", None) or []
        )
    return sorted(healthy), errors


def test_skip_one_bad_record_salvages_the_rest():
    data = bytearray(build_records(6))
    bad = 3
    data[1 + 4 * bad] = ord("X")  # break record 3's magic
    docs = []
    for parser in _records_parsers():
        document = parser.parse_recover(bytes(data))
        docs.append(document_to_jsonable(document))
        assert len(document.errors) == 1
        error = document.errors[0]
        assert error.window == (1 + 4 * bad, 5 + 4 * bad)
        assert error.error_class == "GuardRejected"  # the magic mismatch
        assert document.salvaged_bytes == len(data) - 4
        # The five healthy records are all in the tree with their values.
        values, error_nodes = record_survey(document.root)
        assert values == [0, 1, 2, 4, 5]
        assert len(error_nodes) == 1
    assert jsonables_equal(docs[0], docs[1])


def test_truncated_tail_salvages_maximal_prefix():
    full = build_records(6)
    data = full[: 1 + 4 * 4 + 2]  # records 0-3 complete, record 4 cut mid-way
    for parser in _records_parsers():
        document = parser.parse_recover(data)
        healthy, _ = record_survey(document.root)
        assert healthy == [0, 1, 2, 3], parser.backend
        assert document.errors, parser.backend
        assert document.salvaged_bytes >= 1 + 4 * 4, parser.backend


def test_max_errors_gives_up_with_the_structured_diagnosis():
    key = "elf/multi_two_section_offsets.bin"
    data = read_sample(key)
    parser = recover_parser("elf")
    document = parser.parse_recover(data, max_errors=2)
    assert len(document.errors) == 2
    with pytest.raises(TruncatedInput):
        parser.parse_recover(data, max_errors=1)


def test_raising_blackbox_becomes_an_error_node():
    def boom(window):
        raise ValueError("decoder exploded")

    grammar = 'blackbox B ; S -> U8[0, 1] {k = U8.val} B[1, EOI] ;'
    parser = Parser(grammar, blackboxes={"B": boom})
    data = b"\x07payload"
    with pytest.raises(BlackboxError):
        parser.parse(data)
    document = parser.parse_recover(data)
    assert len(document.errors) == 1
    assert document.errors[0].error_class == "BlackboxError"
    assert document.errors[0].window == (1, len(data))
    assert document.root.env["k"] == 7  # the healthy prefix kept its value


class _FaultyBuffer(bytes):
    """Byte buffer whose ``__getitem__`` raises OSError inside an armed
    window — a pure-Python stand-in for an mmap I/O fault.  (C-level
    buffer-protocol reads bypass it; the recovery layer only promises to
    capture faults surfacing as Python-level OSError.)"""

    def __new__(cls, data):
        self = super().__new__(cls, data)
        self._fault_window = None
        return self

    def arm(self, lo, hi):
        self._fault_window = (lo, hi)
        return self

    def __getitem__(self, key):
        if self._fault_window is not None:
            lo, hi = self._fault_window
            if isinstance(key, slice):
                start, stop, _ = key.indices(len(self))
                if start < hi and stop > lo:
                    raise OSError(5, "injected I/O fault")
            else:
                index = key if key >= 0 else key + len(self)
                if lo <= index < hi:
                    raise OSError(5, "injected I/O fault")
        return super().__getitem__(key)


def test_view_fault_is_captured_not_raised():
    data = _FaultyBuffer(build_records(6)).arm(9, 13)  # record 2's bytes
    for parser in _records_parsers():
        document = parser.parse_recover(data)
        assert isinstance(document.root, object)  # reached a document at all
        assert document.errors, parser.backend
        assert any(e.error_class == "OSError" for e in document.errors), (
            parser.backend
        )


def test_lazy_recover_degrades_stub_decode_faults():
    data = _FaultyBuffer(build_records(6))
    parser = Parser(RECORDS_GRAMMAR)
    root = parser.parse_lazy(data, lazy_threshold=0, recover=True)
    root.children  # decode the spine (count + record stubs) while healthy
    data.arm(9, 13)  # then fault record 2's bytes before its stub decodes
    try:
        healthy, error_nodes = record_survey(root)
        # Every record's env was probed during validation (before the
        # fault was armed), so all six values survive; only record 2's
        # *decode* degrades — to an ErrorNode child carrying the fault.
        assert healthy == [0, 1, 2, 3, 4, 5]
        assert len(error_nodes) == 1
        assert error_nodes[0].error_class in ("OSError", "InjectedFault")
        assert error_nodes[0].window == (9, 13)
    finally:
        root.document.close()


# ---------------------------------------------------------------------------
# Pinned recovered-document goldens
# ---------------------------------------------------------------------------


def recover_golden_path(key: str) -> Path:
    return GOLDEN_DIR / (key.replace("/", "__") + ".json")


@pytest.mark.parametrize("key", GOLDEN_SAMPLES)
def test_recovered_document_matches_golden(key, update_golden):
    fmt = key.split("/", 1)[0]
    document = recover_parser(fmt).parse_recover(read_sample(key))
    serialized = document_to_jsonable(document)
    path = recover_golden_path(key)
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(serialized, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"recover golden for {key} rewritten")
    assert path.exists(), (
        f"missing recover golden {path}; generate it with "
        f"`pytest tests/test_recover.py --update-golden`"
    )
    with open(path, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert jsonables_equal(serialized, pinned), (
        f"{key}: recovered document diverged from the pinned golden; if "
        f"the change is intentional, re-run with --update-golden"
    )


# ---------------------------------------------------------------------------
# CLI: per-class exit codes + resource release, via real subprocesses
# ---------------------------------------------------------------------------


def run_cli(*argv, warnings_as_errors: bool = False):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    command = [sys.executable]
    if warnings_as_errors:
        command += ["-W", "error::ResourceWarning"]
    command += ["-m", "repro", *argv]
    return subprocess.run(
        command, capture_output=True, text=True, timeout=240, env=env, cwd=REPO_ROOT
    )


@pytest.mark.parametrize(
    "key, code",
    [
        ("dns/trunc_00002.bin", 10),  # TruncatedInput
        ("zip/trunc_00000.bin", 11),  # BoundsViolation
        ("elf/flip_00000.bin", 12),  # GuardRejected
        ("zip/bbox_deflate_first_member.bin", 14),  # BlackboxError
    ],
)
def test_cli_exit_codes_by_error_class(key, code):
    fmt = key.split("/", 1)[0]
    completed = run_cli("parse", "--format", fmt, str(HOSTILE_DIR / key))
    assert completed.returncode == code, completed.stderr[-2000:]


def test_cli_recover_salvages_and_exits_zero(tmp_path):
    key = "elf/multi_two_section_offsets.bin"
    completed = run_cli("parse", "--format", "elf", "--recover", str(HOSTILE_DIR / key))
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "[recover]" in completed.stdout
    assert "salvaged" in completed.stdout


def test_cli_recover_max_errors_gives_up_with_class_code():
    key = "elf/multi_two_section_offsets.bin"
    completed = run_cli(
        "parse", "--format", "elf", "--recover", "--max-errors", "1",
        str(HOSTILE_DIR / key),
    )
    assert completed.returncode == 10, completed.stderr[-2000:]  # TruncatedInput


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "--format", "dns", "--recover", "--stream"),
        ("parse", "--format", "dns", "--recover", "--validate"),
        ("parse", "--format", "dns", "--max-errors", "3"),
    ],
)
def test_cli_usage_violations_exit_two(argv, tmp_path):
    sample = tmp_path / "sample.bin"
    sample.write_bytes(b"\x00" * 8)
    completed = run_cli(*argv, str(sample))
    assert completed.returncode == 2, completed.stderr[-2000:]


def test_cli_failure_paths_release_buffers(tmp_path):
    # -W error::ResourceWarning turns an unreleased mmap/memoryview into a
    # hard failure at interpreter shutdown; every exit path must close.
    good = HOSTILE_DIR.parent / "hostile"  # corpus lives on disk already
    cases = [
        ("parse", "--format", "dns", str(good / "dns/trunc_00002.bin")),
        ("parse", "--format", "elf", "--recover",
         str(good / "elf/multi_two_section_offsets.bin")),
        ("parse", "--format", "zip", str(good / "zip/bbox_deflate_first_member.bin")),
        ("index", "--format", "dns", str(good / "dns/trunc_00002.bin")),
    ]
    for argv in cases:
        completed = run_cli(*argv, warnings_as_errors=True)
        assert "ResourceWarning" not in completed.stderr, (argv, completed.stderr)
        assert completed.returncode != 1, (argv, completed.stderr[-2000:])
