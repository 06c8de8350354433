"""Wire-protocol unit tests: framing, columnar encoding, NIL mapping."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from repro.monet.bat import BAT, Column, VoidColumn, dense_bat
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MAX_FRAMES,
    BATResult,
    ProtocolError,
    decode_result,
    encode_result,
    error_response,
    ok_response,
    pack_message,
    read_message,
)

INT_NIL = np.iinfo(np.int64).min


def roundtrip(blob: bytes):
    stream = io.BytesIO(blob)
    return read_message(stream.read)


class TestFraming:
    def test_header_only_roundtrip(self):
        header, frames = roundtrip(pack_message({"op": "ping", "id": 7}))
        assert header == {"op": "ping", "id": 7}
        assert frames == []

    def test_frames_roundtrip(self):
        # A message carries at most MAX_FRAMES (one) frames; an empty
        # frame is a frame too.
        for frame in (b"abc", b""):
            header, frames = roundtrip(pack_message({"op": "x"}, [frame]))
            assert header["frames"] == MAX_FRAMES == 1
            assert frames == [frame]

    def test_eof_between_messages(self):
        with pytest.raises(EOFError):
            roundtrip(b"")

    def test_eof_mid_frame(self):
        blob = pack_message({"op": "x"}, [b"abcdef"])
        with pytest.raises(EOFError):
            roundtrip(blob[:-3])

    def test_bad_json_header(self):
        import struct

        raw = b"not json"
        with pytest.raises(ProtocolError):
            roundtrip(struct.pack("!I", len(raw)) + raw)

    def test_oversized_frame_announcement(self):
        import struct

        with pytest.raises(ProtocolError):
            roundtrip(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_bad_frame_count(self):
        blob = pack_message({"op": "x", "frames": 99})
        with pytest.raises(ProtocolError):
            roundtrip(blob)

    @pytest.mark.parametrize(
        "count", [3, 2**31, -1, "2", pytest.param(MAX_FRAMES + 1, id="one-beyond-the-cap")]
    )
    def test_frame_count_beyond_the_cap_is_refused(self, count):
        blob = pack_message({"op": "x", "frames": count})
        with pytest.raises(ProtocolError):
            roundtrip(blob)


class TestResultEncoding:
    def assert_roundtrip(self, bat: BAT, binary: bool) -> BATResult:
        result, frames = encode_result(bat, binary)
        # Simulate the wire: pack and re-read.
        header, wire_frames = roundtrip(ok_response(result, frames))
        assert header["ok"] is True
        decoded = decode_result(header["result"], wire_frames)
        assert isinstance(decoded, BATResult)
        assert len(decoded) == len(bat)
        return decoded

    @pytest.mark.parametrize("binary", [True, False])
    def test_int_bat_with_nils(self, binary):
        bat = dense_bat("int", [5, None, -3])
        decoded = self.assert_roundtrip(bat, binary)
        assert decoded.tail == [5, None, -3]
        assert decoded.head == [0, 1, 2]  # void head densifies
        assert decoded.ttype == "int"

    @pytest.mark.parametrize("binary", [True, False])
    def test_dbl_bat_with_nan_nil(self, binary):
        bat = dense_bat("dbl", [1.5, None, 2.25])
        decoded = self.assert_roundtrip(bat, binary)
        assert decoded.tail[0] == 1.5
        assert decoded.tail[1] is None  # NaN NIL maps to null both modes
        assert decoded.tail[2] == 2.25

    @pytest.mark.parametrize("binary", [True, False])
    def test_str_bat(self, binary):
        bat = dense_bat("str", ["ape", None, "cat"])
        decoded = self.assert_roundtrip(bat, binary)
        assert decoded.tail == ["ape", None, "cat"]
        result, frames = encode_result(bat, binary)
        if binary:
            # The string heap rides the frame: int8 codes, the UTF-8
            # heap of the distinct values, int64 offsets.
            assert "values" not in result["tail"]
            assert result["tail"]["parts"] == [["|i1", 3], ["|u1", 6], ["<i8", 3]]
            (frame,) = frames
            assert frame[:3] == bytes([0, 255, 1]) and frame[8:14] == b"apecat"
        else:
            assert result["tail"]["values"] == ["ape", None, "cat"] and frames == []

    def test_binary_mode_ships_numeric_frames(self):
        bat = BAT(
            Column("oid", np.array([4, 5, 6], dtype=np.int64)),
            Column("dbl", np.array([1.0, 2.0, 3.0])),
        )
        result, frames = encode_result(bat, True)
        assert len(frames) == 1
        assert result["head"]["frame"] == result["tail"]["frame"] == 0
        assert result["head"]["parts"] == [["<i8", 3]]
        assert result["tail"]["parts"] == [["<f8", 3]]
        assert result["tail"]["offset"] == 24
        assert np.frombuffer(frames[0], "<f8", offset=24).tolist() == [1.0, 2.0, 3.0]
        # bit rides the same frame as int8 (NIL -1), at an 8-byte boundary.
        bits = BAT(Column("bit", np.array([1, -1, 0], dtype=np.int8)), bat.tail)
        result, frames = encode_result(bits, True)
        assert result["head"]["parts"] == [["|i1", 3]] and "values" not in result["head"]
        assert result["tail"]["offset"] == 8 and len(frames[0]) == 8 + 24
        assert decode_result(result, frames).head == [True, None, False]

    def test_json_mode_ships_no_frames(self):
        bat = dense_bat("int", [1, 2])
        _, frames = encode_result(bat, False)
        assert frames == []

    def test_void_column_ships_seqbase_only(self):
        bat = BAT(
            VoidColumn(10, 3), Column("int", np.array([7, 8, 9], dtype=np.int64))
        )
        decoded = self.assert_roundtrip(bat, True)
        assert decoded.head == [10, 11, 12]

    def test_flags_travel(self):
        bat = dense_bat("int", [1, 2, 3])
        decoded = self.assert_roundtrip(bat, True)
        assert decoded.flags["hkey"] is True

    def test_scalar_roundtrip(self):
        result, frames = encode_result(42, True)
        assert decode_result(result, frames) == 42
        result, frames = encode_result(None, True)
        assert decode_result(result, frames) is None

    def test_numpy_scalar_unwraps(self):
        result, _ = encode_result(np.int64(9), True)
        assert result == {"kind": "scalar", "value": 9}
        assert isinstance(result["value"], int)

    def test_nested_value(self):
        value = [{"a": np.float64(1.5)}, [1, 2]]
        result, frames = encode_result(value, True)
        assert decode_result(result, frames) == [{"a": 1.5}, [1, 2]]

    @pytest.mark.parametrize("value", [object(), [1, {"a": object()}]])
    def test_unencodable_value_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            encode_result(value, True)

    @pytest.mark.parametrize("binary", [True, False])
    def test_oid_nil_decodes_to_none(self, binary):
        decoded = self.assert_roundtrip(dense_bat("oid", [3, None, 0]), binary)
        assert decoded.tail == [3, None, 0]

    def test_error_response_shape(self):
        header, _ = roundtrip(error_response("rate", "slow down", 3))
        assert header["ok"] is False
        assert header["error"]["code"] == "rate"
        assert header["id"] == 3

    def test_binary_sentinel_symmetry(self):
        """Binary and JSON modes must decode to the same values."""
        bat = dense_bat("int", [INT_NIL + 1, None, 0])
        a = self.assert_roundtrip(bat, True)
        b = self.assert_roundtrip(bat, False)
        assert a.tail == b.tail

    def test_nan_never_leaks_from_binary_dbl(self):
        bat = dense_bat("dbl", [None, 1.0])
        decoded = self.assert_roundtrip(bat, True)
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in decoded.tail
        )


def _void_head_of_two(result):
    result["head"]["count"] = 2


def _count_seven(result):
    result["count"] = 7


def _str_tail_holding_an_int(result):
    result["tail"]["atom"] = "str"


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
@pytest.mark.parametrize(
    "lie",
    [_void_head_of_two, _count_seven, _str_tail_holding_an_int],
    ids=["void-head-2-int-tail-3", "count-7-over-3-rows", "str-tail-holding-int"],
)
def test_decode_refuses_length_and_atom_lies(lie, binary):
    """Every column decodes against the result's ``count`` through the
    codec, and a JSON value must coerce to its declared atom: a head
    shorter than its tail, a count the columns do not hold and an int
    under a ``str`` tail are each a ProtocolError, never a BATResult."""
    result, frames = encode_result(dense_bat("int", [5, None, -3]), binary)
    lie(result)
    header, wire_frames = roundtrip(ok_response(result, frames))
    with pytest.raises(ProtocolError):
        decode_result(header["result"], wire_frames)
