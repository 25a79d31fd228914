"""Lazy parse trees (``Parser.parse_lazy``): equality, granularity, errors.

Three contracts pin the lazy layer to the eager engines:

* **Equality** — a fully materialized lazy tree compares ``==`` to the
  eager parse of the same input, for every golden-corpus format, every
  backend, and both the default and the everything-stubs (``0``)
  thresholds.
* **Granularity** — accessing one subtree materializes that subtree's
  window and nothing else; the document's decode log pins the exact
  intervals charged.
* **Errors** — a non-matching input raises the identical structured
  ``ParseFailure`` subclass at the identical offset as ``parse()``,
  replayed over the committed hostile corpus.
"""

import json
import mmap
from functools import lru_cache
from pathlib import Path

import pytest

from engine_matrix import format_sample
from repro.core.errors import BlackboxError, ParseFailure
from repro.core.lazytree import LazyNode
from repro.core.parsetree import tree_from_jsonable
from repro import samples
from repro.formats import registry

BACKENDS = ("compiled", "interpreted")
GOLDEN_DIR = Path(__file__).parent / "golden"
HOSTILE_DIR = Path(__file__).parent / "hostile"

with open(HOSTILE_DIR / "expectations.json", "r", encoding="utf-8") as _handle:
    HOSTILE_EXPECTATIONS = json.load(_handle)


@lru_cache(maxsize=None)
def _parser(fmt: str, backend: str = "compiled"):
    return registry[fmt].build_parser(backend=backend)


def _elf_with_big_sections(section_count=6, section_size=9000):
    return samples.build_elf(
        section_count=section_count, section_size=section_size, symbol_count=16
    )


# ---------------------------------------------------------------------------
# Equality with the eager engines and the golden corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt", sorted(registry))
def test_fully_materialized_lazy_tree_equals_eager_parse(fmt, backend):
    sample = format_sample(fmt)
    parser = _parser(fmt, backend)
    eager = parser.parse(sample)
    assert parser.parse_lazy(sample) == eager
    # Threshold 0 stubs every top-level rule invocation: maximal laziness
    # must still converge to the same tree.
    assert parser.parse_lazy(sample, lazy_threshold=0) == eager


@pytest.mark.parametrize("fmt", sorted(registry))
def test_lazy_tree_matches_golden_artifact(fmt):
    path = GOLDEN_DIR / f"{fmt}.json"
    if not path.exists():
        pytest.skip("golden artifact not generated yet")
    with open(path, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    root = _parser(fmt).parse_lazy(format_sample(fmt))
    assert root == tree_from_jsonable(pinned["tree"])


# ---------------------------------------------------------------------------
# Granularity: what one access materializes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_section_access_materializes_that_section_only(backend):
    section_size = 9000
    data = _elf_with_big_sections(section_size=section_size)
    parser = _parser("elf", backend)
    root = parser.parse_lazy(data)
    document = root.document

    assert not root.is_materialized
    assert document.decoded_bytes == 0

    sections = root.array("Sec")  # materializes the skeleton spine
    spine_cost = document.decoded_bytes
    assert len(document.decoded) == 1
    assert document.decoded[0][:3] == ("ELF", 0, len(data))
    # The spine decoded headers and small sections; the six 9000-byte
    # data sections stayed stubs.
    stubs = [
        section.children[0]
        for section in sections
        if isinstance(section.children[0], LazyNode)
    ]
    assert len(stubs) == 6
    assert spine_cost == len(data) - 6 * section_size
    assert all(not stub.is_materialized for stub in stubs)

    target = stubs[3]
    lo, hi = target.interval
    assert (lo, hi) == (64 + 3 * section_size, 64 + 4 * section_size)
    _ = target.children
    assert target.is_materialized
    assert document.decoded[-1] == (target.name, lo, hi, section_size)
    assert document.decoded_bytes == spine_cost + section_size
    for index, stub in enumerate(stubs):
        assert stub.is_materialized == (index == 3)


def test_lazy_parse_over_mmap_and_close(tmp_path):
    data = _elf_with_big_sections()
    path = tmp_path / "sample.elf"
    path.write_bytes(data)
    parser = _parser("elf")
    eager = parser.parse(data)
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        root = parser.parse_lazy(mapped)
        assert root == eager  # full materialization over the mapping
        # Releasing the document's view lets the mapping close cleanly —
        # and the already-materialized tree (real bytes) stays usable.
        root.document.close()
        mapped.close()
        assert root == eager


def test_repr_and_attributes_do_not_materialize():
    data = _elf_with_big_sections()
    root = _parser("elf").parse_lazy(data)
    assert "lazy" in repr(root)
    # The probed env is the complete eager env: attribute access works
    # without decoding anything.
    assert root.env["EOI"] == len(data)
    assert root.document.decoded_bytes == 0
    assert not root.is_materialized


def test_rebased_wrappers_share_one_decode():
    data = _elf_with_big_sections()
    root = _parser("elf").parse_lazy(data)
    stub = next(
        section.children[0]
        for section in root.array("Sec")
        if isinstance(section.children[0], LazyNode)
    )
    shifted = stub.rebased(5)
    assert shifted.env["start"] == stub.env["start"] + 5
    assert shifted.env["end"] == stub.env["end"] + 5
    assert not shifted.is_materialized
    children = stub.children
    assert shifted.is_materialized
    assert shifted.children is children
    # Exactly one decode was charged for the shared slot.
    assert sum(1 for entry in root.document.decoded if entry[:3] == (
        stub.name, *stub.interval
    )) == 1


def test_decode_log_is_stable_under_repeated_access():
    data = _elf_with_big_sections()
    root = _parser("elf").parse_lazy(data)
    document = root.document
    stub = next(
        section.children[0]
        for section in root.array("Sec")
        if isinstance(section.children[0], LazyNode)
    )
    _ = stub.children
    decoded = list(document.decoded)
    _ = stub.children  # cached: no new engine run, no new charge
    _ = root.array("Sec")
    assert document.decoded == decoded


def test_large_threshold_degrades_to_eager_on_first_access():
    data = _elf_with_big_sections()
    parser = _parser("elf")
    root = parser.parse_lazy(data, lazy_threshold=len(data) + 1)
    assert root == parser.parse(data)
    document = root.document
    # One decode, the whole file, nothing stubbed.
    assert document.decoded == [("ELF", 0, len(data), len(data))]


# ---------------------------------------------------------------------------
# Error parity with the eager entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("relpath", sorted(HOSTILE_EXPECTATIONS))
def test_hostile_corpus_replays_identically_lazily(relpath):
    fmt = relpath.split("/", 1)[0]
    data = (HOSTILE_DIR / relpath).read_bytes()
    expected = HOSTILE_EXPECTATIONS[relpath]
    # Same raising contract as the eager entry points: a structured
    # ParseFailure subclass, or BlackboxError when the callable itself
    # refused (e.g. zlib on a flipped deflate stream).
    with pytest.raises((ParseFailure, BlackboxError)) as info:
        _parser(fmt).parse_lazy(data)
    assert type(info.value).__name__ == expected["error"]
    assert getattr(info.value, "offset", None) == expected["offset"]


# ---------------------------------------------------------------------------
# CLI: repro index / repro parse --lazy
# ---------------------------------------------------------------------------


def test_cli_index_lists_lazy_windows(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "sample.elf"
    path.write_bytes(_elf_with_big_sections())
    assert main(["index", "--format", "elf", str(path)]) == 0
    out = capsys.readouterr().out
    assert "6 lazy subtree(s)" in out
    assert "OtherSec" in out


def test_cli_parse_lazy_reports_materialized_bytes(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "sample.elf"
    path.write_bytes(_elf_with_big_sections())
    assert main(["parse", "--format", "elf", "--lazy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[lazy] materialized" in out


def test_cli_lazy_rejects_elision_modes(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "sample.elf"
    path.write_bytes(_elf_with_big_sections())
    assert main(["parse", "--format", "elf", "--lazy", "--validate", str(path)]) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_truncated_input_fails_at_parse_lazy_time(backend):
    data = _elf_with_big_sections()
    parser = _parser("elf", backend)
    bad = data[: len(data) - 40]
    def outcome(invoke):
        try:
            invoke()
            return ("tree",)
        except ParseFailure as exc:
            return (type(exc).__name__, exc.offset)
    assert outcome(lambda: parser.parse_lazy(bad)) == outcome(
        lambda: parser.parse(bad)
    )
