"""Tests for the block format (:mod:`repro.engine.codec`).

Every spill run round-trips through it, so the contract
is strict — exact-type key preservation (``True`` must never come back as
``1``), insertion-order preservation, and ``CodecError`` (never
``struct.error`` / ``EOFError`` / an unpickling error) on every malformed
input.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.codec import (
    BLOCK_MAGIC,
    _HEADER,
    decode_block,
    encode_items,
)
from repro.exceptions import CodecError, ReproError

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


def roundtrip(items):
    return decode_block(encode_items(items))


def block_of(payload: bytes, count: int) -> bytes:
    """A hand-built block around an arbitrary payload."""
    return _HEADER.pack(BLOCK_MAGIC, count, len(payload)) + payload


class TestRoundTrip:
    @pytest.mark.parametrize(
        "keys",
        [
            [0, 1, -17, 10**12, INT64_MAX, INT64_MIN],
            ["", "word", "unicode-é中", "emoji-🎉", "a" * 5000],
            [b"", b"raw", b"\xff\xfe\x00\x80", bytes(range(256))],
            [("light", 7), ("hh", 3, 12), (), None, 3.25, frozenset({1})],
        ],
    )
    def test_typed_and_fallback_keys(self, keys):
        items = [(key, [index, "v"]) for index, key in enumerate(keys)]
        assert roundtrip(items) == items

    def test_decoded_types_are_exact(self):
        items = [(True, [1]), (False, [2]), (1, [3]), (0, [4])]
        decoded = roundtrip(items)
        assert [type(key) for key, _ in decoded] == [bool, bool, int, int]
        assert decoded == items

    def test_big_ints_round_trip(self):
        keys = [INT64_MAX + 1, INT64_MIN - 1, 10**40, -(10**40)]
        items = [(key, [key]) for key in keys]
        decoded = roundtrip(items)
        assert decoded == items
        assert all(type(key) is int for key, _ in decoded)

    def test_mixed_key_types_in_one_block(self):
        items = [(1, [1]), ("1", [2]), (b"1", [3]), ((1,), [4]), (True, [5])]
        decoded = roundtrip(items)
        assert decoded == items
        assert [type(key) for key, _ in decoded] == [
            int,
            str,
            bytes,
            tuple,
            bool,
        ]

    def test_lone_surrogates_round_trip(self):
        keys = ["\ud800", "ok\udfff-tail", "😀"]
        items = [(key, [key]) for key in keys]
        assert roundtrip(items) == items

    def test_empty_block(self):
        assert decode_block(encode_items([])) == []

    def test_insertion_order_preserved(self):
        items = [(f"k{i}", [i]) for i in (7, 2, 9, 0, 5)]
        assert roundtrip(items) == items

    def test_values_can_be_arbitrary_objects(self):
        items = [
            (1, [("tuple", 2), {"nested": [1, 2]}, None]),
            (2, [b"\x00\xff", frozenset({3})]),
        ]
        assert roundtrip(items) == items

    def test_decode_accepts_memoryview(self):
        items = [(5, [1]), (6, [2])]
        block = encode_items(items)
        view = memoryview(block)
        assert decode_block(view) == items
        # decode released its internal views; the caller's is untouched.
        assert view.obj is block

    def test_header_layout(self):
        items = [("a", [1]), ("b", [2, 3])]
        block = encode_items(items)
        magic, count, payload_len = _HEADER.unpack_from(block, 0)
        assert magic == BLOCK_MAGIC
        assert count == len(items)
        assert payload_len == len(block) - _HEADER.size
        assert pickle.loads(block[_HEADER.size :]) == items


class TestMalformedInput:
    """Every corruption mode must surface as CodecError — a repro type —
    never as a bare struct/pickle exception."""

    def test_codec_error_is_a_repro_error(self):
        assert issubclass(CodecError, ReproError)

    def test_unpicklable_items_raise_codec_error(self):
        with pytest.raises(CodecError, match="not picklable"):
            encode_items([(1, [lambda: None])])

    @pytest.mark.parametrize(
        "buf",
        [
            b"",
            b"\xb5",
            b"\xb5i\x01\x00",
            bytes(_HEADER.size - 1),
        ],
    )
    def test_truncated_header(self, buf):
        with pytest.raises(CodecError, match="truncated block"):
            decode_block(buf)

    def test_bad_magic(self):
        block = bytearray(encode_items([(1, [2])]))
        block[0] = 0x00
        with pytest.raises(CodecError, match="bad block magic"):
            decode_block(bytes(block))

    def test_truncated_body(self):
        block = encode_items([(1, [2]), (2, [3])])
        with pytest.raises(CodecError, match="does not match header"):
            decode_block(block[:-3])

    def test_trailing_garbage(self):
        block = encode_items([(1, [2])])
        with pytest.raises(CodecError, match="does not match header"):
            decode_block(block + b"extra")

    def test_corrupt_value_section(self):
        with pytest.raises(CodecError, match="corrupt block payload"):
            decode_block(block_of(b"\x80\x05 not a pickle stream", 1))

    def test_value_section_wrong_count(self):
        payload = pickle.dumps([(1, [1])])
        with pytest.raises(CodecError, match="declared 2 items"):
            decode_block(block_of(payload, 2))

    @pytest.mark.parametrize(
        "payload",
        [
            {1: [1]},
            [[1, [1]]],
            [(1, [1], "extra")],
            "not a list",
        ],
        ids=["dict", "list-item", "triple", "str"],
    )
    def test_payload_of_wrong_shape(self, payload):
        with pytest.raises(CodecError, match="declared 1 items"):
            decode_block(block_of(pickle.dumps(payload), 1))

    def test_tampered_bytes_anywhere_raise_codec_error_or_decode(self):
        # Flipping any single byte either still decodes to a well-formed
        # item list or raises CodecError; it never leaks another error.
        block = encode_items([("k", [1, 2]), (3, [("v", 4)])])
        for index in range(len(block)):
            tampered = bytearray(block)
            tampered[index] ^= 0xFF
            try:
                decoded = decode_block(bytes(tampered))
            except CodecError:
                continue
            assert isinstance(decoded, list) and len(decoded) == 2

    def test_random_garbage_never_leaks_builtin_errors(self):
        payloads = [
            bytes([BLOCK_MAGIC]) + bytes(12),
            bytes([BLOCK_MAGIC]) + b"\xff" * 20,
            encode_items([(1, [1])])[::-1],
            b"\x00" * 64,
        ]
        for payload in payloads:
            with pytest.raises(CodecError):
                decode_block(payload)


class TestLintScope:
    """The block format and its spill reader sit inside the engine
    package, so the determinism and pickle-safety rules must cover them
    automatically."""

    def test_data_plane_modules_are_in_rule_scopes(self):
        from pathlib import Path

        from repro.analysis.lint import load_module
        from repro.analysis.lint.rules import (
            DeterminismRule,
            PickleSafetyRule,
        )

        src = Path(__file__).parent.parent / "src"
        for name in ("codec", "spill"):
            info = load_module(src / "repro" / "engine" / f"{name}.py", root=src)
            assert info.module == f"repro.engine.{name}"
            assert info.in_package(DeterminismRule.scopes)
            assert info.in_package(PickleSafetyRule.scopes)
