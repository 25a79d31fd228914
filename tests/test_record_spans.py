"""Tests for ``record_spans``: committed-derivation (rule, start, end) triples.

``Parser.parse(data, record_spans={...})`` returns ``(tree, spans)`` where
``spans`` lists every *committed* match of the requested rules as absolute
``(rule, start, end)`` byte offsets in post-order.  Matches inside
abandoned alternatives (backtracked choice points) must not appear.  The
contract holds identically on all three backends — recording disables
memoization and the decode fast paths, so the differential below is also
a regression net for those de-optimized paths.
"""

import pytest

from engine_matrix import format_sample
from repro import Parser
from repro.core.errors import IPGError
from repro.formats import registry

#: Formats paired with rules whose spans exercise arrays, recursion and
#: backtracking (zip's LFH/FileName sit behind a Stored/Deflated choice).
CASES = {
    "dns": {"Label"},
    "ipv4": {"IPv4Header"},
    "gif": {"ImageBlock", "SubBlock"},
    "zip": {"LFH", "FileName"},
    "elf": {"SH"},
    "pdf": {"Obj", "XrefEntry"},
}

BACKENDS = ("interpreted", "compiled")


def build(fmt: str, backend: str) -> Parser:
    spec = registry[fmt]
    return Parser(
        spec.grammar_text, blackboxes=dict(spec.blackboxes), backend=backend
    )


class TestRecordSpansDifferential:
    @pytest.mark.parametrize("fmt", sorted(CASES))
    def test_backends_agree_on_spans(self, fmt):
        data = format_sample(fmt)
        rules = CASES[fmt]
        reference_tree, reference_spans = build(fmt, "interpreted").parse(
            data, record_spans=rules
        )
        assert reference_spans, f"{fmt}: expected at least one recorded span"
        for backend in BACKENDS[1:]:
            tree, spans = build(fmt, backend).parse(data, record_spans=rules)
            assert tree == reference_tree, f"{backend}: tree differs"
            assert spans == reference_spans, f"{backend}: spans differ"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spans_are_absolute_and_ordered(self, backend):
        data = format_sample("dns")
        _, spans = build("dns", backend).parse(
            data, record_spans={"Label"}
        )
        for rule, start, end in spans:
            assert rule == "Label"
            assert 0 <= start <= end <= len(data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_abandoned_alternatives_leave_no_spans(self, backend):
        # B matches inside A's first alternative, which then fails on the
        # trailing literal; the committed derivation goes through the
        # second alternative, which records exactly one B.
        grammar = (
            'S -> A[0, EOI] ; '
            'A -> B[0, 1] "x"[1, 2] / B[0, 1] "y"[1, 2] ; '
            'B -> U8[0, 1] {v = U8.val} ;'
        )
        parser = Parser(grammar, backend=backend)
        tree, spans = parser.parse(b"\x07y", record_spans={"B"})
        assert spans == [("B", 0, 1)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_returns_none_and_empty(self, backend):
        parser = build("gif", backend)
        tree, spans = parser.try_parse(b"not a gif", record_spans={"ImageBlock"})
        assert tree is None
        assert spans == []

    def test_record_spans_requires_tree_mode(self):
        parser = build("gif", "compiled")
        with pytest.raises(ValueError):
            parser.try_parse(b"", emit="spans", record_spans={"Frame"})

    def test_unknown_rule_raises(self):
        parser = build("gif", "compiled")
        with pytest.raises(IPGError):
            parser.parse(format_sample("gif"), record_spans={"NoSuchRule"})

    def test_tree_matches_plain_parse(self):
        # Recording must not perturb the tree (fast paths off, memo off).
        for backend in BACKENDS:
            parser = build("zip", backend)
            data = format_sample("zip")
            tree, _ = parser.parse(data, record_spans={"LFH"})
            assert tree == parser.parse(data)
