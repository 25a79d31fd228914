"""Unit tests for builtin nonterminals and blackbox plumbing."""

import pytest

from repro.core.builtins import (
    BUILTIN_FAIL,
    BUILTINS,
    BlackboxResult,
    builtin_attrs,
    is_builtin,
    normalize_blackbox_result,
)
from repro.core.errors import BlackboxError


def run(name, data, lo=0, hi=None):
    return BUILTINS[name].parse(data, lo, len(data) if hi is None else hi)


class TestIntegerBuiltins:
    def test_u8(self):
        attrs, end, payload = run("U8", b"\x2a\xff")
        assert attrs == {"val": 42}
        assert end == 1
        assert payload == b"\x2a"

    def test_u16_endianness(self):
        assert run("U16LE", b"\x01\x02")[0]["val"] == 0x0201
        assert run("U16BE", b"\x01\x02")[0]["val"] == 0x0102

    def test_u32_and_u64(self):
        assert run("U32LE", b"\x78\x56\x34\x12")[0]["val"] == 0x12345678
        assert run("U32BE", b"\x12\x34\x56\x78")[0]["val"] == 0x12345678
        assert run("U64LE", b"\x01" + b"\x00" * 7)[0]["val"] == 1
        assert run("U64BE", b"\x00" * 7 + b"\x01")[0]["val"] == 1

    def test_signed_builtin(self):
        assert run("I32LE", b"\xff\xff\xff\xff")[0]["val"] == -1

    def test_short_input_fails(self):
        assert run("U32LE", b"\x01\x02") is BUILTIN_FAIL
        assert run("U8", b"") is BUILTIN_FAIL

    def test_fixed_size_consumes_only_its_width(self):
        attrs, end, payload = run("U16LE", b"\x01\x02\x03\x04")
        assert end == 2
        assert payload == b"\x01\x02"

    def test_byte_alias(self):
        assert run("Byte", b"\x07")[0]["val"] == 7

    def test_reads_at_offset(self):
        attrs, end, _ = BUILTINS["U16LE"].parse(b"\x00\x00\x05\x00", 2, 4)
        assert attrs["val"] == 5


class TestVariableSizeBuiltins:
    def test_raw_is_zero_copy(self):
        attrs, end, payload = run("Raw", b"abcdef")
        assert attrs == {"len": 6, "val": 6}
        assert end == 6
        assert payload is None  # no copy of the skipped bytes

    def test_raw_accepts_empty_interval(self):
        attrs, end, payload = BUILTINS["Raw"].parse(b"abc", 1, 1)
        assert attrs["len"] == 0 and end == 0

    def test_bytes_keeps_payload(self):
        attrs, end, payload = run("Bytes", b"name.txt")
        assert payload == b"name.txt"
        assert attrs["len"] == 8

    def test_ascii_int(self):
        attrs, end, payload = run("AsciiInt", b"0000000042")
        assert attrs["val"] == 42
        assert end == 10

    def test_ascii_int_strips_whitespace(self):
        assert run("AsciiInt", b" 17 ")[0]["val"] == 17

    def test_ascii_int_rejects_non_digits(self):
        assert run("AsciiInt", b"12a4") is BUILTIN_FAIL
        assert run("AsciiInt", b"") is BUILTIN_FAIL

    def test_bin_int(self):
        assert run("BinInt", b"1011")[0]["val"] == 11
        assert run("BinInt", b"0") [0]["val"] == 0

    def test_bin_int_rejects_other_characters(self):
        assert run("BinInt", b"102") is BUILTIN_FAIL
        assert run("BinInt", b"") is BUILTIN_FAIL


class TestRegistry:
    def test_is_builtin(self):
        assert is_builtin("U32LE")
        assert not is_builtin("NotABuiltin")

    def test_builtin_attrs(self):
        assert builtin_attrs("U32LE") == ("val",)
        assert set(builtin_attrs("Raw")) == {"len", "val"}

    def test_every_builtin_declares_its_attributes(self):
        probe = b"1" * 16  # ASCII '1' bytes satisfy every builtin, incl. BinInt
        for name, spec in BUILTINS.items():
            outcome = spec.parse(probe, 0, len(probe))
            assert outcome is not BUILTIN_FAIL, name
            attrs, _end, _payload = outcome
            assert set(attrs) <= set(spec.attrs), name


class TestBlackboxNormalization:
    def test_none_means_failure(self):
        assert normalize_blackbox_result(None, 10) is BUILTIN_FAIL

    def test_dict_result(self):
        attrs, payload, end = normalize_blackbox_result({"x": 1}, 10)
        assert attrs == {"x": 1} and payload is None and end == 10

    def test_bytes_result(self):
        attrs, payload, end = normalize_blackbox_result(b"data", 10)
        assert payload == b"data" and end == 10

    def test_blackbox_result_object(self):
        result = BlackboxResult(attrs={"n": 2}, payload=b"xy", end=4)
        attrs, payload, end = normalize_blackbox_result(result, 10)
        assert (attrs, payload, end) == ({"n": 2}, b"xy", 4)

    def test_blackbox_result_defaults_end_to_interval(self):
        attrs, payload, end = normalize_blackbox_result(BlackboxResult(), 7)
        assert end == 7

    def test_unsupported_type_raises(self):
        with pytest.raises(BlackboxError, match="unsupported type float"):
            normalize_blackbox_result(3.14, 10)
