#!/usr/bin/env python
"""Deterministic adversarial corpora for every bundled format grammar.

Run from a checkout with ``repro`` importable::

    PYTHONPATH=src python tools/hostile.py                  # verify in-process
    PYTHONPATH=src python tools/hostile.py --out DIR        # write the corpus
    PYTHONPATH=src python tools/hostile.py --curate tests/hostile

Every entry is derived from the format's canonical sample
(``tests/engine_matrix.py``'s parameters) by a *named*, reproducible
mutation — no randomness, no time dependence — so corpus regressions
bisect cleanly:

* **truncations** at every boundary for small inputs, and at a stride
  plus a fine-grained tail sweep for larger ones: the classic cut-off
  download, including cuts *inside* fixed-shape records;
* **bit flips** across the whole input at a stride: magic numbers, count
  fields, flags;
* **length-field lies**: targeted overwrites of the public formats'
  well-known size/offset/count fields (ZIP end-of-central-directory
  counts and offsets, DNS header counts, the IPv4 total-length and IHL,
  ELF section-header offsets/counts, PE's ``e_lfanew``, GIF sub-block
  sizes, PDF's ``startxref`` tail) with lies in both directions — too
  big (points past EOF) and nonsense (mid-structure);
* **format specials**: a DNS compression-pointer self-loop, a DNS name
  of maximal recursion depth (label chains drive the only recursive rule
  in the bundled grammars), a zero-length-label torture packet, and PDF
  objects overlapping through the xref table.

The default (no flags) mode replays the whole corpus through the
cross-engine matrix (``EngineMatrix.assert_error_agree``): every entry
must either parse or yield the *same* structured ``ParseFailure``
subclass at the *same* byte offset on the interpreter, both compiled
variants, the AOT module and — for streamable grammars — incremental
sessions at record-straddling chunk sizes.  Exit code 0 = full agreement,
no crashes, no hangs.

``--curate DIR`` writes a reduced per-format selection (only inputs that
actually *fail* to parse, capped per mutation family) plus
``expectations.json`` mapping each file to its agreed error class and
offset — the committed ``tests/hostile/`` golden corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import time
from typing import Dict, Iterator, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from repro import samples  # noqa: E402

#: Formats under attack; zip-meta shares zip's byte-level structure.
FORMATS = ("zip", "elf", "gif", "pe", "pdf", "dns", "ipv4")

#: Canonical deterministic sample per format (== tests/engine_matrix.py).
SAMPLES = {
    "zip": lambda: samples.build_zip(member_count=3, member_size=300),
    "elf": lambda: samples.build_elf(
        section_count=3, symbol_count=4, dynamic_entries=2
    ),
    "gif": lambda: samples.build_gif(frame_count=2, bytes_per_frame=200),
    "pe": lambda: samples.build_pe(section_count=2),
    "pdf": lambda: samples.build_pdf(object_count=3)[0],
    "dns": lambda: samples.build_dns_response(answer_count=2, additional_count=1),
    "ipv4": lambda: samples.build_ipv4_udp_packet(payload_size=48, options_words=1),
}


def _truncations(data: bytes) -> Iterator[Tuple[str, bytes]]:
    """Cut the input at every interesting boundary.

    Small inputs are cut at *every* offset; larger ones at a stride of 17
    (coprime with the common record sizes, so cuts land mid-record) plus
    every offset in the final 16 bytes (end-anchored formats keep their
    directory there).
    """
    n = len(data)
    if n <= 128:
        offsets = range(n)
    else:
        offsets = sorted(set(range(0, n, 17)) | set(range(max(0, n - 16), n)))
    for cut in offsets:
        yield f"trunc_{cut:05d}", data[:cut]


def _bit_flips(data: bytes) -> Iterator[Tuple[str, bytes]]:
    """XOR one byte with 0xFF at a stride across the whole input."""
    n = len(data)
    stride = 1 if n <= 64 else max(1, n // 48)
    for pos in range(0, n, stride):
        mutated = bytearray(data)
        mutated[pos] ^= 0xFF
        yield f"flip_{pos:05d}", bytes(mutated)


def _overwrite(data: bytes, offset: int, packed: bytes) -> bytes:
    mutated = bytearray(data)
    mutated[offset : offset + len(packed)] = packed
    return bytes(mutated)


def _field_lies(fmt: str, data: bytes) -> Iterator[Tuple[str, bytes]]:
    """Targeted lies in the format's well-known length/offset/count fields."""
    n = len(data)
    if fmt == "zip":
        # End-of-central-directory record: the last 22 bytes (no comment in
        # the sample).  total entry count @+10 (u16le), central directory
        # size @+12 (u32le), central directory offset @+16 (u32le).
        eocd = n - 22
        yield "lie_eocd_count_huge", _overwrite(data, eocd + 10, struct.pack("<H", 0xFFFF))
        yield "lie_eocd_count_zero", _overwrite(data, eocd + 10, struct.pack("<H", 0))
        yield "lie_eocd_cdsize_huge", _overwrite(data, eocd + 12, struct.pack("<I", 0x7FFFFFFF))
        yield "lie_eocd_cdoff_past_eof", _overwrite(data, eocd + 16, struct.pack("<I", n + 1000))
        yield "lie_eocd_cdoff_mid", _overwrite(data, eocd + 16, struct.pack("<I", 3))
        # First local file header: compressed size @26 (u32le), name len @26.
        yield "lie_lfh_namelen_huge", _overwrite(data, 26, struct.pack("<H", 0xFFFF))
    elif fmt == "dns":
        # Header: qdcount @4, ancount @6, arcount @10 (all u16be).
        yield "lie_qdcount_huge", _overwrite(data, 4, struct.pack(">H", 0xFFFF))
        yield "lie_ancount_huge", _overwrite(data, 6, struct.pack(">H", 0xFFFF))
        yield "lie_ancount_up", _overwrite(data, 6, struct.pack(">H", 7))
        yield "lie_arcount_huge", _overwrite(data, 10, struct.pack(">H", 0xFFFF))
        # First answer RDLENGTH lies: answers start after the 12-byte header
        # + question; first answer is ptr(2) + type/class/ttl(8) + rdlength(2).
        question_end = data.index(b"\x00", 12) + 1 + 4
        rdlen = question_end + 2 + 8
        yield "lie_rdlength_huge", _overwrite(data, rdlen, struct.pack(">H", 0xFFFF))
    elif fmt == "ipv4":
        # Total length @2 (u16be); IHL is the low nibble of byte 0.
        yield "lie_total_length_huge", _overwrite(data, 2, struct.pack(">H", 0xFFFF))
        yield "lie_total_length_short", _overwrite(data, 2, struct.pack(">H", 8))
        yield "lie_ihl_max", _overwrite(data, 0, bytes([(data[0] & 0xF0) | 0x0F]))
        yield "lie_ihl_zero", _overwrite(data, 0, bytes([data[0] & 0xF0]))
        # UDP length field: starts right after the IP header (IHL words).
        ihl = (data[0] & 0x0F) * 4
        yield "lie_udp_length_huge", _overwrite(data, ihl + 4, struct.pack(">H", 0xFFFF))
    elif fmt == "elf":
        # ELF64 header: e_shoff @0x28 (u64le), e_shnum @0x3C (u16le),
        # e_shentsize @0x3A (u16le).
        yield "lie_shoff_past_eof", _overwrite(data, 0x28, struct.pack("<Q", n + 4096))
        yield "lie_shoff_mid", _overwrite(data, 0x28, struct.pack("<Q", 1))
        yield "lie_shnum_huge", _overwrite(data, 0x3C, struct.pack("<H", 0xFFFF))
        yield "lie_shentsize_zero", _overwrite(data, 0x3A, struct.pack("<H", 0))
    elif fmt == "pe":
        # DOS header: e_lfanew @0x3C (u32le) points at the PE signature.
        yield "lie_lfanew_past_eof", _overwrite(data, 0x3C, struct.pack("<I", n + 64))
        yield "lie_lfanew_zero", _overwrite(data, 0x3C, struct.pack("<I", 0))
        # NumberOfSections @ e_lfanew+6 (u16le).
        lfanew = struct.unpack_from("<I", data, 0x3C)[0]
        yield "lie_nsections_huge", _overwrite(data, lfanew + 6, struct.pack("<H", 0xFFFF))
    elif fmt == "gif":
        # Logical screen descriptor @6: width u16le.  First image sub-block
        # size byte: find the image separator 0x2C and lie in the LZW data
        # sub-block length that follows the 9-byte image descriptor + min
        # code size byte.
        yield "lie_width_zero", _overwrite(data, 6, struct.pack("<H", 0))
        sep = data.index(b"\x2c")
        yield "lie_subblock_huge", _overwrite(data, sep + 10, b"\xff")
        yield "lie_subblock_zero", _overwrite(data, sep + 10, b"\x00")
    elif fmt == "pdf":
        # The trailing "startxref\n<offset>\n%%EOF" tail: lie the offset.
        marker = data.rindex(b"startxref")
        digits_at = marker + len("startxref\n")
        digits_end = data.index(b"\n", digits_at)
        width = digits_end - digits_at
        yield "lie_startxref_huge", _overwrite(
            data, digits_at, str(10 ** width - 1).encode().rjust(width, b"0"[0:1])
        )
        yield "lie_startxref_zero", _overwrite(data, digits_at, b"0" * width)


def _specials(fmt: str, data: bytes) -> Iterator[Tuple[str, bytes]]:
    """Hand-crafted per-format adversaries beyond field mutation."""
    if fmt == "dns":
        # A name whose compression pointer points at itself: a chasing
        # resolver would loop forever.  The bundled grammar recognizes but
        # never follows pointers, so this must terminate with a clean
        # outcome (parse or structured failure) on every engine.
        header = struct.pack(">HHHHHH", 0x1234, 0x0100, 1, 0, 0, 0)
        loop = header + struct.pack(">H", 0xC00C) + struct.pack(">HH", 1, 1)
        yield "special_pointer_self_loop", loop
        # A pointer at the canonical answer position aimed back at the
        # question's own pointer bytes (classic loop bait).
        mutated = bytearray(data)
        question_end = data.index(b"\x00", 12) + 1 + 4
        mutated[question_end : question_end + 2] = struct.pack(
            ">H", 0xC000 | question_end
        )
        yield "special_pointer_fwd_loop", bytes(mutated)
        # Label chains are the one recursive rule in the bundled grammars:
        # thousands of 1-byte labels drive rule recursion ~depth-per-label.
        deep = header + b"\x01a" * 6000 + b"\x00" + struct.pack(">HH", 1, 1)
        yield "special_deep_labels", deep
        # Empty-label bait: a zero length byte mid-name ends the name early;
        # the trailing garbage must be rejected, not crash.
        early = header + b"\x03www\x00\x07example\x00" + struct.pack(">HH", 1, 1)
        yield "special_early_name_end", early
    elif fmt == "gif":
        # An unterminated sub-block chain: every 255-byte sub-block claims
        # another follows, to the end of the input.
        sep = data.index(b"\x2c")
        head = data[: sep + 11]
        runaway = head + (b"\xff" + b"\x00" * 255) * 64
        yield "special_runaway_subblocks", runaway
    elif fmt == "zip":
        # Nested EOCD bait: an inner EOCD signature inside a member's data
        # must not confuse the real end-anchored directory parse.
        mutated = bytearray(data)
        mutated[40:44] = b"PK\x05\x06"
        yield "special_inner_eocd_sig", bytes(mutated)
    elif fmt == "pdf":
        # Objects overlapping through the xref table: "9 0 obj" and
        # "8 0 obj" written into the padding of objects 1 and 3, and
        # entries sending Obj to each embedded object before and after
        # its host, plus a repeated entry.  Each pair of objects shares
        # the tail of one ObjBody chain, entered mid-way.
        doc, offsets = samples.build_pdf(object_count=5)
        mutated = bytearray(doc)
        embedded = []
        for host, number in ((0, b"9"), (2, b"8")):
            pad = doc.index(b"/Pad (", offsets[host]) + len(b"/Pad (")
            mutated[pad : pad + 8] = number + b" 0 obj "
            embedded.append(pad)
        table = doc.index(b"0000000000 65535 f \n") + 20
        entries = (embedded[0], offsets[0], offsets[2], embedded[1], offsets[2])
        for index, offset in enumerate(entries):
            mutated[table + 20 * index : table + 20 * index + 10] = b"%010d" % offset
        yield "special_overlapping_objects", bytes(mutated)


def _corrupt_deflate(data: bytes, members) -> bytes:
    """XOR the deflate payload of the given local-file-header members.

    The ZIP structure stays intact — headers, directory and sizes are
    all truthful — but zlib raises mid-inflate, so the failure fires
    *inside* the blackbox parser rather than in the grammar.
    """
    mutated = bytearray(data)
    for which in members:
        index = -1
        for _ in range(which + 1):
            index = data.index(b"PK\x03\x04", index + 1)
        name_len = struct.unpack_from("<H", data, index + 26)[0]
        extra_len = struct.unpack_from("<H", data, index + 28)[0]
        payload = index + 30 + name_len + extra_len
        for position in range(payload + 2, payload + 12):
            mutated[position] ^= 0xFF
    return bytes(mutated)


def _blackbox_faults(fmt: str, data: bytes) -> Iterator[Tuple[str, bytes]]:
    """Inputs whose failure fires inside a blackbox parser (zip's zlib)."""
    if fmt != "zip":
        return
    yield "bbox_deflate_first_member", _corrupt_deflate(data, (0,))
    yield "bbox_deflate_last_member", _corrupt_deflate(data, (2,))


def _multi_corruptions(fmt: str, data: bytes) -> Iterator[Tuple[str, bytes]]:
    """Two independent corrupt regions per input.

    Recovery (PR 9) must localize *each* region to its own error window
    instead of abandoning everything after the first; with recovery off
    they classify to the first failure like any other hostile sample.
    """
    n = len(data)
    if n >= 6:
        mutated = bytearray(data)
        mutated[n // 3] ^= 0xFF
        mutated[(2 * n) // 3] ^= 0xFF
        yield "multi_flip_pair", bytes(mutated)
    if fmt == "zip":
        yield "multi_two_deflate_members", _corrupt_deflate(data, (0, 2))
    elif fmt == "elf":
        # Point two section headers' sh_offset past EOF: two independent
        # sections each fail their bounds, the rest of the file is intact.
        shoff = struct.unpack_from("<Q", data, 0x28)[0]
        shentsize = struct.unpack_from("<H", data, 0x3A)[0]
        mutated = bytearray(data)
        for i in (1, 2):
            struct.pack_into("<Q", mutated, shoff + i * shentsize + 24, n + 4096 * i)
        yield "multi_two_section_offsets", bytes(mutated)


def corpus(fmt: str) -> List[Tuple[str, bytes]]:
    """The full deterministic adversarial corpus for one format."""
    data = SAMPLES[fmt]()
    entries: List[Tuple[str, bytes]] = []
    entries.extend(_truncations(data))
    entries.extend(_bit_flips(data))
    entries.extend(_field_lies(fmt, data))
    entries.extend(_specials(fmt, data))
    entries.extend(_blackbox_faults(fmt, data))
    entries.extend(_multi_corruptions(fmt, data))
    return entries


# ---------------------------------------------------------------------------
# Verification and curation
# ---------------------------------------------------------------------------


def _matrix(fmt: str):
    from engine_matrix import matrix_for  # noqa: E402  (tests/ on sys.path)
    from repro.formats import registry

    spec = registry[fmt]
    return matrix_for(spec.grammar_text, blackboxes=dict(spec.blackboxes))


def verify(formats) -> int:
    """Replay every corpus through the cross-engine error-agreement check."""
    failures = 0
    for fmt in formats:
        matrix = _matrix(fmt)
        entries = corpus(fmt)
        agreed = parsed = 0
        slowest, slowest_s = "-", 0.0
        began = time.perf_counter()
        for name, data in entries:
            entry_began = time.perf_counter()
            try:
                outcome = matrix.assert_error_agree(data)
            except AssertionError as exc:
                failures += 1
                print(f"DISAGREE {fmt}/{name}: {exc}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - entry_began
                if elapsed > slowest_s:
                    slowest, slowest_s = name, elapsed
            agreed += 1
            if outcome == ("tree",):
                parsed += 1
        print(
            f"{fmt:<5} {agreed}/{len(entries)} agree "
            f"({parsed} parse, {agreed - parsed} fail identically) "
            f"in {time.perf_counter() - began:.1f}s, "
            f"slowest {fmt}/{slowest} {slowest_s:.2f}s",
            flush=True,
        )
    return 1 if failures else 0


def _curate_selection(fmt: str) -> List[Tuple[str, bytes]]:
    """A small committed selection: failing inputs only, capped per family."""
    caps = {"trunc": 4, "flip": 3, "lie": 10, "special": 10, "bbox": 4, "multi": 4}
    matrix = _matrix(fmt)
    picked: List[Tuple[str, bytes]] = []
    seen: Dict[str, int] = {}
    for name, data in corpus(fmt):
        family = name.split("_", 1)[0]
        if seen.get(family, 0) >= caps.get(family, 2):
            continue
        if matrix.error_outcome("interpreted", data) == ("tree",):
            continue  # parses fine: not a hostile-corpus candidate
        seen[family] = seen.get(family, 0) + 1
        picked.append((name, data))
    return picked


def curate(out_dir: str, formats) -> int:
    """Write the golden corpus + expectations.json under ``out_dir``."""
    expectations: Dict[str, Dict[str, object]] = {}
    for fmt in formats:
        matrix = _matrix(fmt)
        fmt_dir = os.path.join(out_dir, fmt)
        os.makedirs(fmt_dir, exist_ok=True)
        for name, data in _curate_selection(fmt):
            outcome = matrix.assert_error_agree(data)
            filename = f"{fmt}/{name}.bin"
            with open(os.path.join(out_dir, filename), "wb") as handle:
                handle.write(data)
            expectations[filename] = {"error": outcome[0], "offset": outcome[1]}
        print(f"{fmt:<5} {sum(1 for k in expectations if k.startswith(fmt + '/'))} curated")
    with open(os.path.join(out_dir, "expectations.json"), "w") as handle:
        json.dump(expectations, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expectations)} expectations to {out_dir}/expectations.json")
    return 0


def dump(out_dir: str, formats) -> int:
    """Write the full (uncurated) corpus to disk for external fuzzers."""
    total = 0
    for fmt in formats:
        fmt_dir = os.path.join(out_dir, fmt)
        os.makedirs(fmt_dir, exist_ok=True)
        for name, data in corpus(fmt):
            with open(os.path.join(fmt_dir, f"{name}.bin"), "wb") as handle:
                handle.write(data)
            total += 1
    print(f"wrote {total} corpus files to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", action="append", choices=FORMATS, help="restrict to FORMAT"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--out", metavar="DIR", help="dump the full corpus to DIR")
    mode.add_argument(
        "--curate",
        metavar="DIR",
        help="write the reduced golden corpus + expectations.json to DIR",
    )
    args = parser.parse_args(argv)
    formats = tuple(args.format) if args.format else FORMATS
    if args.out:
        return dump(args.out, formats)
    if args.curate:
        return curate(args.curate, formats)
    return verify(formats)


if __name__ == "__main__":
    sys.exit(main())
