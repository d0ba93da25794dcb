"""Tests for the spill run format (:mod:`repro.engine.spill`).

A run is one pickle of a partition's ``{input key: record}`` bucket,
written by :func:`write_run` and loaded by :func:`read_run`.  The
contract is strict: keys come back with their exact types (``True`` must
never come back as ``1``) and in the bucket's insertion order, records
come back equal, and every damaged or unwritable run raises
:class:`~repro.exceptions.SpillError` — never a bare ``OSError``,
``EOFError``, pickling error or other builtin exception.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.engine.spill import read_run, record_table, write_run
from repro.exceptions import ReproError, SpillError

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


@pytest.fixture
def roundtrip(tmp_path):
    def run(groups):
        path, _ = write_run(groups, str(tmp_path))
        return read_run(path)

    return run


def run_bytes(tmp_path, groups) -> bytes:
    path, _ = write_run(groups, str(tmp_path))
    with open(path, "rb") as handle:
        return handle.read()


def read_bytes(tmp_path, data: bytes):
    path = tmp_path / "damaged.run"
    path.write_bytes(data)
    return read_run(str(path))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "keys",
        [
            [0, 1, -17, 10**12, INT64_MAX, INT64_MIN],
            ["", "word", "unicode-é中", "emoji-🎉", "a" * 5000],
            [b"", b"raw", b"\xff\xfe\x00\x80", bytes(range(256))],
            [("x", 7), ("y", 3), ("hh", 3, 12), (), None, 3.25, frozenset({1})],
        ],
        ids=["int", "str", "bytes", "other"],
    )
    def test_typed_and_fallback_keys(self, roundtrip, keys):
        groups = {key: [index, "v"] for index, key in enumerate(keys)}
        table = roundtrip(groups)
        assert table == groups
        assert list(table) == keys

    def test_loaded_key_types_are_exact(self, roundtrip):
        groups = {True: [1], 5: [2], False: [3], 7: [4]}
        table = roundtrip(groups)
        assert [type(key) for key in table] == [bool, int, bool, int]
        assert table == groups

    def test_big_ints_round_trip(self, roundtrip):
        keys = [INT64_MAX + 1, INT64_MIN - 1, 10**40, -(10**40)]
        table = roundtrip({key: [key] for key in keys})
        assert table == {key: [key] for key in keys}
        assert all(type(key) is int for key in table)

    def test_mixed_key_types_in_one_run(self, roundtrip):
        groups = {1: [1], "1": [2], b"1": [3], (1,): [4], ("x", 1): [5]}
        table = roundtrip(groups)
        assert table == groups
        assert [type(key) for key in table] == [int, str, bytes, tuple, tuple]

    def test_lone_surrogates_round_trip(self, roundtrip):
        keys = ["\ud800", "ok\udfff-tail", "😀"]
        assert roundtrip({key: [key] for key in keys}) == {
            key: [key] for key in keys
        }

    def test_empty_run(self, roundtrip):
        assert roundtrip({}) == {}

    def test_insertion_order_preserved(self, roundtrip):
        groups = {f"k{i}": [i] for i in (7, 2, 9, 0, 5)}
        assert list(roundtrip(groups)) == ["k7", "k2", "k9", "k0", "k5"]

    def test_records_can_be_arbitrary_objects(self, roundtrip):
        groups = {
            1: [("tuple", 2), {"nested": [1, 2]}, None],
            2: [b"\x00\xff", frozenset({3})],
            ("y", 0): "a plain record",
        }
        assert roundtrip(groups) == groups

    def test_run_file_is_one_pickle_of_the_bucket(self, tmp_path):
        groups = {("x", 0): "a", ("y", 1): "b"}
        path, nbytes = write_run(groups, str(tmp_path))
        assert os.path.dirname(path) == str(tmp_path)
        assert path.endswith(".run")
        with open(path, "rb") as handle:
            data = handle.read()
        assert len(data) == nbytes
        assert pickle.loads(data) == groups
        assert data.endswith(pickle.STOP)

    def test_each_write_makes_a_new_file(self, tmp_path):
        first, _ = write_run({0: "a"}, str(tmp_path))
        second, _ = write_run({0: "a"}, str(tmp_path))
        assert first != second
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(path) for path in (first, second)
        )

    def test_record_table_reads_runs_and_buckets_alike(self, tmp_path):
        path, _ = write_run({0: "r0", 2: "r2"}, str(tmp_path))
        assert record_table([path, {1: "r1"}]) == {0: "r0", 2: "r2", 1: "r1"}
        assert record_table([]) == {}


class TestMalformedRuns:
    """Every damaged run must surface as SpillError — a repro type —
    never as a bare OS, EOF or unpickling exception."""

    def test_spill_error_is_a_repro_error(self):
        assert issubclass(SpillError, ReproError)

    def test_unpicklable_records_raise_spill_error(self, tmp_path):
        with pytest.raises(SpillError, match="cannot write spill run"):
            write_run({0: "ok", 1: threading.Lock()}, str(tmp_path))
        # The half-written run is removed, not left in the spill dir.
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x80", b"\x80\x05", b"\x80\x05\x95"],
        ids=["empty", "proto", "version", "frame"],
    )
    def test_truncated_header(self, tmp_path, data):
        with pytest.raises(SpillError, match="truncated"):
            read_bytes(tmp_path, data)

    def test_bad_protocol_byte(self, tmp_path):
        data = bytearray(run_bytes(tmp_path, {1: [2]}))
        data[0] = 0x00
        with pytest.raises(SpillError, match="corrupt"):
            read_bytes(tmp_path, bytes(data))

    def test_truncated_body(self, tmp_path):
        data = run_bytes(tmp_path, {1: [2], 2: [3]})
        with pytest.raises(SpillError, match="truncated"):
            read_bytes(tmp_path, data[:-3])

    def test_two_runs_in_one_file(self, tmp_path):
        data = run_bytes(tmp_path, {1: [2]})
        with pytest.raises(SpillError, match="trailing bytes"):
            read_bytes(tmp_path, data + data)

    def test_corrupt_pickle_stream(self, tmp_path):
        with pytest.raises(SpillError, match="corrupt"):
            read_bytes(tmp_path, b"\x80\x05 not a pickle stream")

    @pytest.mark.parametrize(
        "payload",
        [[(1, [1])], [[1, [1]]], ((1, [1]),), "not a dict", None],
        ids=["item-list", "list-item", "tuple", "str", "none"],
    )
    def test_payload_of_wrong_shape(self, tmp_path, payload):
        with pytest.raises(SpillError, match="expected a dict"):
            read_bytes(tmp_path, pickle.dumps(payload))

    def test_tampered_bytes_anywhere_raise_spill_error_or_load(self, tmp_path):
        # Flipping any single byte either still loads to a dict or raises
        # SpillError; it never leaks another error.
        data = run_bytes(tmp_path, {"k": [1, 2], 3: [("v", 4)]})
        for index in range(len(data)):
            tampered = bytearray(data)
            tampered[index] ^= 0xFF
            try:
                table = read_bytes(tmp_path, bytes(tampered))
            except SpillError:
                continue
            assert isinstance(table, dict)

    def test_random_garbage_never_leaks_builtin_errors(self, tmp_path):
        payloads = [
            b"\x80" + bytes(12),
            b"\x80\x05" + b"\xff" * 20,
            run_bytes(tmp_path, {1: [1]})[::-1],
            b"\x00" * 64,
        ]
        for payload in payloads:
            with pytest.raises(SpillError):
                read_bytes(tmp_path, payload)

    def test_directory_path_raises_spill_error(self, tmp_path):
        with pytest.raises(SpillError, match="cannot open"):
            read_run(str(tmp_path))
