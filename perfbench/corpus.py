"""Seeded corpus generation shared by every workload.

Valid documents come from the ``repro.samples`` generators with their
parameters drawn from continuous, log-uniform ranges by Latin hypercube
sampling.  Each count ranges from the smallest to the largest point of
the paper's Fig. 12/13 series in ``benchmarks/conftest.py`` (ZIP members
2-32, GIF frames 1-16, PE sections 2-16, ELF sections 4-64 with four
symbols each, DNS answers 1-32, IPv4 payloads 16-1400 bytes), and per-item
sizes reach the series' 2048 bytes (ELF sections: 32-512 bytes around the
series' 128).  PDF objects range over 1-16 of
``build_pdf_series``' 1-64: a PDF object costs about 0.6 ms to parse, so
the 17-64 object class alone would take three quarters of every pass.
Every corpus also holds the Fig. 13a document, a 16 MiB archive of
stored members (``stored_archive``).

Each parameter's range is cut into as many equal strata (in log space)
as there are documents of the format, one draw falls in each stratum,
and the strata are paired at random.  Every factor that multiplies into
a document's size (a count and an item size) follows the first
coordinate (``_split``), so the largest documents, which set the p99,
are about as large for every seed.  Document sizes are then continuous, so no latency percentile sits on a cliff between a few fixed
size classes, and two seeds give corpora whose size distributions agree
stratum by stratum, which keeps the end-to-end figures steady across
seeds.

Hostile documents are seeded mutations of the workload's own valid
documents, in the families of ``tools/hostile.py``: truncations,
length-field lies, bit flips, DNS compression-pointer loops and ZIP
members whose deflate stream makes the blackbox raise.  A mutation that
the grammar still accepts is redrawn, so the hostile share is the same
for every seed.  The committed ``tests/hostile/`` samples are appended
as they are.

The seed is a benchmark argument; the program under test only ever sees
the bytes.
"""

from __future__ import annotations

import json
import os
import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The seven bundled formats of the paper's evaluation (Fig. 13).
FORMATS = ("dns", "ipv4", "gif", "elf", "pe", "zip", "pdf")


@dataclass
class Doc:
    """One benchmark input.

    ``origin`` is ``"valid"``, ``"mutated:<family>"`` or
    ``"committed:<path>"`` (a file under ``tests/hostile/``).  The oracle
    fills ``expected``; ``pinned`` holds the committed
    samples' recorded verdict.
    """

    id: int
    fmt: str
    data: bytes
    origin: str
    expected: Optional[tuple] = None
    pinned: Optional[tuple] = None

    @property
    def hostile(self) -> bool:
        return self.origin != "valid"


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _log_int(u: float, lo: int, hi: int) -> int:
    """An integer parameter drawn log-uniformly from ``[lo, hi]``."""
    return int(_log_uniform(u, lo, hi + 1))


def _latin_hypercube(rng: random.Random, count: int, dims: int) -> List[Tuple[float, ...]]:
    columns = []
    for _ in range(dims):
        column = [(stratum + rng.random()) / count for stratum in range(count)]
        rng.shuffle(column)
        columns.append(column)
    return list(zip(*columns))


def _split(size: float, shape: float) -> Tuple[float, float]:
    """Two unit coordinates whose mean is ``size``, skewed by ``shape``.

    The first coordinate of every point orders the documents by cost;
    splitting it between the two parameters that multiply into that cost
    (count and item size) with only a mild skew keeps each cost stratum
    equally costly for every seed, so the corpus's throughput and latency
    percentiles do not depend on the seed, while shapes still vary.
    """
    skew = (shape - 0.5) * 0.2
    return min(1.0, max(0.0, size + skew)), min(1.0, max(0.0, size - skew))


def _dns(samples, u) -> bytes:
    label = "".join(chr(97 + (7 * i + int(u[3] * 26)) % 26) for i in range(_log_int(u[2], 1, 40)))
    return samples.build_dns_response(
        name=f"{label}.example.com",
        answer_count=_log_int(u[0], 1, 32),
        additional_count=_log_int(u[1], 1, 6) - 1,
        transaction_id=int(u[3] * 0xFFFF),
        use_compression=u[4] < 0.75 or u[0] > 0.5,
    )


def _ipv4(samples, u) -> bytes:
    return samples.build_ipv4_udp_packet(
        payload_size=_log_int(u[0], 16, 1400),
        options_words=_log_int(u[1], 1, 5) - 1,
        ttl=1 + int(u[2] * 254),
        seed=int(u[3] * 10_000),
    )


def _gif(samples, u) -> bytes:
    frames, frame_bytes = _split(u[0], u[1])
    return samples.build_gif(
        frame_count=_log_int(frames, 1, 16),
        bytes_per_frame=_log_int(frame_bytes, 32, 2048),
        width=_log_int(u[2], 1, 512),
        height=_log_int(u[3], 1, 512),
        with_comments=u[4] < 0.5,
        seed=int(u[5] * 10_000),
    )


def _elf(samples, u) -> bytes:
    sections, section_bytes = _split(u[0], u[1])
    section_count = _log_int(sections, 4, 64)
    return samples.build_elf(
        section_count=section_count,
        section_size=_log_int(section_bytes, 32, 512),
        symbol_count=4 * section_count,  # as in the Fig. 12/13 series
        dynamic_entries=_log_int(u[2], 1, 16),
        seed=int(u[3] * 10_000),
    )


def _pe(samples, u) -> bytes:
    sections, section_bytes = _split(u[0], u[1])
    return samples.build_pe(
        section_count=_log_int(sections, 2, 16),
        section_size=_log_int(section_bytes, 128, 2048),
        seed=int(u[2] * 10_000),
    )


def _zip(samples, u) -> bytes:
    members, member_bytes = _split(u[0], u[1])
    return samples.build_zip(
        member_count=_log_int(members, 2, 32),
        member_size=_log_int(member_bytes, 16, 2048),
        compressed=u[2] < 0.8,
        seed=int(u[3] * 10_000),
    )


def _pdf(samples, u) -> bytes:
    objects, padding = _split(u[0], u[1])
    return samples.build_pdf(
        object_count=_log_int(objects, 1, 16),
        body_padding=_log_int(padding, 4, 96),
        version=int(u[2] * 8),
    )[0]


#: Per format: (generator over one unit-cube point, number of parameters).
#: Coordinate 0 drives the document's cost.
GENERATORS: Dict[str, Tuple[Callable, int]] = {
    "dns": (_dns, 5),
    "ipv4": (_ipv4, 4),
    "gif": (_gif, 6),
    "elf": (_elf, 4),
    "pe": (_pe, 3),
    "zip": (_zip, 4),
    "pdf": (_pdf, 3),
}


def valid_documents(samples, seed: int, per_format: int) -> List[Doc]:
    """``per_format`` valid documents of every format, in format order."""
    docs: List[Doc] = []
    for fmt in FORMATS:
        generate, dims = GENERATORS[fmt]
        rng = random.Random(f"{seed}:{fmt}")
        for point in _latin_hypercube(rng, per_format, dims):
            docs.append(Doc(len(docs), fmt, generate(samples, point), "valid"))
    return docs


def stored_archive(samples, seed: int, first_id: int) -> Doc:
    """The Fig. 13a document: a 16 MiB ZIP of eight stored 2 MiB members."""
    data = samples.build_zip(member_count=8, member_size=2 << 20, compressed=False, seed=seed)
    return Doc(first_id, "zip", data, "valid")


# ---------------------------------------------------------------------------
# Hostile mutations
# ---------------------------------------------------------------------------


def _put(data: bytes, offset: int, packed: bytes) -> bytes:
    if offset < 0 or offset + len(packed) > len(data):
        return data
    return data[:offset] + packed + data[offset + len(packed):]


def _lies(fmt: str, data: bytes, rng: random.Random) -> List[bytes]:
    """Length/offset/count fields of ``data`` overwritten with lies."""
    n = len(data)
    huge = rng.choice((0xFFFF, 0x8000 + rng.randrange(0x7FFF)))
    if fmt == "zip":
        eocd = data.rfind(b"PK\x05\x06")
        return [
            _put(data, eocd + 10, struct.pack("<H", huge)),
            _put(data, eocd + 12, struct.pack("<I", n + rng.randrange(1, 1 << 20))),
            _put(data, eocd + 16, struct.pack("<I", rng.randrange(1, n))),
            _put(data, 26, struct.pack("<H", huge)),
        ]
    if fmt == "dns":
        return [
            _put(data, rng.choice((4, 6, 10)), struct.pack(">H", huge)),
            _put(data, 6, struct.pack(">H", (data[6] << 8 | data[7]) + rng.randrange(1, 8))),
        ]
    if fmt == "ipv4":
        ihl = (data[0] & 0x0F) * 4
        return [
            _put(data, 2, struct.pack(">H", rng.choice((huge, rng.randrange(1, 20))))),
            _put(data, 0, bytes([(data[0] & 0xF0) | rng.choice((0, 1, 2, 3, 4, 15))])),
            _put(data, ihl + 4, struct.pack(">H", huge)),
        ]
    if fmt == "elf":
        shoff = rng.choice((n + rng.randrange(1, 1 << 16), rng.randrange(1, 64)))
        return [
            _put(data, 0x28, struct.pack("<Q", shoff)),
            _put(data, 0x3C, struct.pack("<H", huge)),
            _put(data, 0x3A, struct.pack("<H", rng.randrange(0, 64))),
        ]
    if fmt == "pe":
        lfanew = struct.unpack_from("<I", data, 0x3C)[0]
        return [
            _put(data, 0x3C, struct.pack("<I", rng.choice((n + rng.randrange(1, 4096), 0)))),
            _put(data, lfanew + 6, struct.pack("<H", huge)),
        ]
    if fmt == "gif":
        sep = data.find(b"\x2c")
        return [
            _put(data, 6, b"\x00\x00"),
            _put(data, sep + 10, bytes([rng.choice((0, 0xFF, rng.randrange(256)))])),
        ]
    marker = data.rfind(b"startxref")
    start = marker + len("startxref\n")
    end = data.find(b"\n", start)
    width = end - start
    return [_put(data, start, str(rng.randrange(10 ** width)).encode().rjust(width, b"0"))]


def _pointer_loop(data: bytes, rng: random.Random) -> bytes:
    """Aim a DNS answer's compression pointer at itself or back at the header."""
    question_end = data.index(b"\x00", 12) + 1 + 4
    if question_end + 2 > len(data):
        return data
    target = question_end if rng.random() < 0.5 else rng.randrange(0, 12)
    return _put(data, question_end, struct.pack(">H", 0xC000 | target))


def _corrupt_deflate(data: bytes, rng: random.Random) -> bytes:
    """XOR ten bytes of one member's deflate stream; headers stay truthful."""
    members = []
    index = data.find(b"PK\x03\x04")
    while index >= 0:
        members.append(index)
        index = data.find(b"PK\x03\x04", index + 1)
    if not members:
        return data
    header = rng.choice(members)
    if struct.unpack_from("<H", data, header + 8)[0] != 8:  # stored member
        return data
    name_len, extra_len = struct.unpack_from("<HH", data, header + 26)
    payload = header + 30 + name_len + extra_len
    size = struct.unpack_from("<I", data, header + 18)[0]
    mutated = bytearray(data)
    for position in range(payload + 2, min(payload + 12, payload + size)):
        mutated[position] ^= 0xFF
    return bytes(mutated)


def _families(fmt: str) -> List[str]:
    families = ["trunc", "trunc", "flip", "lie", "lie"]
    if fmt == "dns":
        families.append("pointer")
    if fmt == "zip":
        families.append("deflate")
    return families


def mutate(doc: Doc, family: str, where: float, nth: int, rng: random.Random) -> bytes:
    """A ``family`` mutation of ``doc``.

    ``where`` in [0, 1) places a cut or a flip; ``nth`` picks which of the
    format's length fields a lie overwrites.
    """
    data = doc.data
    if family == "trunc":
        return data[: int(where * len(data))]
    if family == "flip":
        position = int(where * len(data))
        return _put(data, position, bytes([data[position] ^ (1 << rng.randrange(8) | 0x80)]))
    if family == "lie":
        lies = _lies(doc.fmt, data, rng)
        return lies[nth % len(lies)]
    if family == "pointer":
        return _pointer_loop(data, rng)
    return _corrupt_deflate(data, rng)


def hostile_documents(
    sources: Sequence[Doc],
    per_source: int,
    seed: int,
    rejects: Callable[[str, bytes], bool],
    first_id: int,
) -> List[Doc]:
    """``per_source`` rejected mutations of every document in ``sources``.

    A rejection's cost depends on the family, on the field a lie hits, on
    where the damage sits and on the document's size.  So per format the
    families (and the lied-about fields) are dealt in a fixed turn over
    the sources in size order, and each family's positions are
    stratified: every family hits small and large documents alike and the
    hostile stream costs the same for every seed, which varies the
    documents, the positions and the lies' values.  A mutation the grammar
    still accepts (``rejects(fmt, data)`` is the oracle's verdict) is
    redrawn at a fresh position, then falls back to a truncation.
    """
    docs: List[Doc] = []
    for fmt in FORMATS:
        mine = sorted((doc for doc in sources if doc.fmt == fmt), key=lambda d: len(d.data))
        rng = random.Random(f"{seed}:{fmt}:hostile")
        families = _families(fmt)
        count = len(mine) * per_source
        places = {}
        for family in dict.fromkeys(families):  # a set's order varies by process
            share = -(-count // len(families)) * families.count(family)
            places[family] = [(i + rng.random()) / share for i in range(share)]
            rng.shuffle(places[family])
        dealt = {family: 0 for family in families}
        for index in range(count):
            source = mine[index // per_source]
            family = families[index % len(families)]
            where = places[family].pop()
            nth = dealt[family]
            dealt[family] += 1
            for _attempt in range(6):
                data = mutate(source, family, where, nth, rng)
                if data != source.data and rejects(fmt, data):
                    break
                where = rng.random()
            else:
                family, data = "trunc", source.data[: int(where * len(source.data)) // 2]
            docs.append(Doc(first_id + len(docs), fmt, data, f"mutated:{family}"))
    return docs


def committed_documents(root: str, first_id: int) -> List[Doc]:
    """The committed hostile corpus, each sample pinned to its ``class``/``offset``."""
    hostile_dir = os.path.join(root, "tests", "hostile")
    with open(os.path.join(hostile_dir, "expectations.json")) as handle:
        expectations = json.load(handle)
    docs = []
    for name in sorted(expectations):
        fmt = name.split("/", 1)[0]
        with open(os.path.join(hostile_dir, name), "rb") as handle:
            data = handle.read()
        doc = Doc(first_id + len(docs), fmt, data, f"committed:{name}")
        doc.pinned = ("error", expectations[name]["error"], expectations[name]["offset"])
        docs.append(doc)
    return docs


def composition(docs: Sequence[Doc]) -> Dict[str, Dict[str, int]]:
    """Per-format document counts and bytes, split valid/hostile."""
    table: Dict[str, Dict[str, int]] = {}
    for doc in docs:
        row = table.setdefault(doc.fmt, {"valid": 0, "hostile": 0, "bytes": 0, "max_bytes": 0})
        row["hostile" if doc.hostile else "valid"] += 1
        row["bytes"] += len(doc.data)
        row["max_bytes"] = max(row["max_bytes"], len(doc.data))
    return table
