"""The one column codec (:mod:`repro.monet.codec`) against its callers.

A differential property over every atom: a column, the codec's own
round trip, a save/load of the BBP (monolithic and fragmented), the
wire in binary mode and the wire in JSON mode all hold the same BUNs --
NIL-heavy columns, lengths 0, 1 and n, the awkward str values (``''``,
``'\\x00NIL'``, lone surrogates, non-BMP), dbl -0.0, inf and NaN-NIL,
the int extremes, cold, warm and gathered str columns.  Then the
refusal cases: damaged parts (truncated, a count lie, broken offsets,
codes out of range, a heap that is not UTF-8, a wrong dtype, a missing
part) are a :class:`CodecError` from the codec, a ``BBPError`` from a
data directory and a ``ProtocolError`` from the wire -- never a bare
numpy or Unicode error.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monet import codec
from repro.monet.atoms import INT_NIL, OID_NIL
from repro.monet.bat import BAT, Column, StrColumn, VoidColumn, column_from_values, column_to_list
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from repro.service.protocol import (
    ProtocolError,
    decode_result,
    encode_result,
    ok_response,
    read_message,
)
from tests.conftest import assert_codes_decode

INT_MAX = np.iinfo(np.int64).max

#: Atom -> strategy of one non-NIL Python value, its corner cases first.
VALUES = {
    "int": st.one_of(
        st.sampled_from([INT_NIL + 1, INT_MAX, 0, -1]), st.integers(INT_NIL + 1, INT_MAX)
    ),
    "oid": st.one_of(st.sampled_from([0, OID_NIL - 1]), st.integers(0, OID_NIL - 1)),
    "dbl": st.one_of(
        st.sampled_from([-0.0, 0.0, math.inf, -math.inf, 5e-324, 1e300]),
        st.floats(allow_nan=False),
    ),
    "bit": st.booleans(),
    "str": st.one_of(
        st.sampled_from(["", "\x00NIL", "\ud800x", "x\udfff", "😀", "tail\x00", "café"]),
        st.text(max_size=4),
    ),
}


def _nil_heavy(values):
    """Lists where NIL is as likely as any value (and all-NIL is common)."""
    return st.lists(st.one_of(st.none(), values), max_size=24)


@st.composite
def columns(draw, atom_name):
    """One column of *atom_name* (``void``: a dense oid run); a str
    column is built on its own heap, gathered from a column whose heap
    holds values it does not, or appended onto such a heap."""
    if atom_name == "void":
        return VoidColumn(draw(st.integers(0, 2**40)), draw(st.integers(0, 24)))
    values = draw(_nil_heavy(VALUES[atom_name]))
    column = column_from_values(atom_name, values)
    shape = draw(st.sampled_from(["built", "gathered", "extended"]))
    if atom_name != "str" or shape == "built":
        return column
    if shape == "gathered":
        parent = column_from_values("str", ["only in the parent", *values, None])
        return parent.take(np.arange(1, len(values) + 1))
    base = BAT(VoidColumn(0, 2), column_from_values("str", ["only in the base", None]))
    return base.append(tails=values).tail.window(2, 2 + len(values))


def _buns(values):
    """BUN-for-BUN comparable values: NIL as None, a float with its sign
    (so -0.0 differs from 0.0)."""
    return [
        (v, math.copysign(1.0, v)) if isinstance(v, float) else v for v in values
    ]


def _bat(column) -> BAT:
    """*column* as the tail beside a void head, or, void itself, as the
    head beside an int tail."""
    if column.is_void:
        return BAT(column, Column("int", np.arange(len(column), dtype=np.int64)))
    return BAT(VoidColumn(0, len(column)), column)


def _saved_and_loaded(bat: BAT, fragmented: bool) -> BAT:
    pool = BATBufferPool()
    if fragmented:
        policy = FragmentationPolicy(target_size=max(1, len(bat) // 3))
        pool.register_fragmented("c", fragment_bat(bat, policy))
    else:
        pool.register("c", bat)
    with tempfile.TemporaryDirectory() as directory:
        pool.save(directory)
        return BATBufferPool.load(directory).lookup("c")


def _over_the_wire(bat: BAT, binary: bool):
    result, frames = encode_result(bat, binary)
    header, wire_frames = read_message(io.BytesIO(ok_response(result, frames)).read)
    return decode_result(header["result"], wire_frames)


@pytest.mark.parametrize("atom_name", ["void", "oid", "int", "dbl", "bit", "str"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_path_holds_the_same_buns(atom_name, data):
    column = data.draw(columns(atom_name))
    before = _state(column)
    expected = _buns(column_to_list(column))
    bat = _bat(column)
    side = "head" if column.is_void else "tail"

    spec, parts = codec.encode(column)
    decoded = codec.decode(spec, parts, side)
    assert _buns(column_to_list(decoded)) == expected
    assert_codes_decode(decoded, atom_name)
    if atom_name == "str":
        # Only the heap values the codes use ship.
        assert len(parts[2]) - 1 == len({v for v in expected if v is not None})
    assert _state(column) == before  # encoding changed nothing
    for fragmented in (False, True):
        loaded = getattr(_saved_and_loaded(bat, fragmented), side)
        assert _buns(column_to_list(loaded)) == expected
        assert loaded.is_void == column.is_void
    for binary in (True, False):
        decoded = _over_the_wire(bat, binary)
        assert _buns(getattr(decoded, side)) == expected
    assert _state(column) == before  # saving and serving neither


def _state(column) -> tuple:
    """What encoding a column could change: a str column's codes and
    its heap's length."""
    if isinstance(column, StrColumn):
        return column.codes.tolist(), len(column.heap)
    return ()


# ----------------------------------------------------------------------
# Refusal: damaged parts, through the codec and both callers
# ----------------------------------------------------------------------

STR_VALUES = ["ape", None, "bat", "ape", "cat"]  # heap b"apebatcat"
INT_VALUES = [5, None, -3, 7, 0]


def _set(array, index, value):
    array = array.copy()
    array[index] = value
    return array


#: name -> (atom, damage of the encoded (spec, parts)).
DAMAGE = {
    "str_codes_truncated": ("str", lambda s, p: (s, [p[0][:-1], p[1], p[2]])),
    "str_heap_truncated": ("str", lambda s, p: (s, [p[0], p[1][:-1], p[2]])),
    "str_count_lie": ("str", lambda s, p: (dict(s, count=s["count"] + 1), p)),
    "str_offsets_decrease": ("str", lambda s, p: (s, [p[0], p[1], _set(p[2], 2, 2)])),
    "str_offsets_not_from_zero": ("str", lambda s, p: (s, [p[0], p[1], _set(p[2], 0, 1)])),
    "str_code_too_high": ("str", lambda s, p: (s, [_set(p[0], 0, 3), p[1], p[2]])),
    "str_code_below_nil": ("str", lambda s, p: (s, [_set(p[0], 0, -2), p[1], p[2]])),
    "str_heap_not_utf8": ("str", lambda s, p: (s, [p[0], _set(p[1], 0, 0xFF), p[2]])),
    "str_codes_float": ("str", lambda s, p: (s, [p[0].astype(np.float64), p[1], p[2]])),
    "str_heap_int16": ("str", lambda s, p: (s, [p[0], p[1].astype(np.int16), p[2]])),
    "str_offsets_missing": ("str", lambda s, p: (s, p[:2])),
    "int_truncated": ("int", lambda s, p: (s, [p[0][:-1]])),
    "int_count_lie": ("int", lambda s, p: (dict(s, count=s["count"] + 1), p)),
    "int_fractional_floats": ("int", lambda s, p: (s, [p[0].astype(np.float64) + 0.5])),
    "bit_out_of_range": ("bit", lambda s, p: (s, [p[0].astype(np.int64) * 300])),
    "bit_nil_as_uint8_255": ("bit", lambda s, p: (s, [p[0].astype(np.uint8)])),
    "bit_int64_5": ("bit", lambda s, p: (s, [_set(p[0].astype(np.int64), 0, 5)])),
    "bit_int8_5": ("bit", lambda s, p: (s, [_set(p[0], 0, 5)])),
    "int_uint64_wraps_to_nil": (
        "int",
        lambda s, p: (s, [np.array([5, 2**63, 3, 7, 0], dtype=np.uint64)]),
    ),
    "dbl_int64_rounds": (
        "dbl",
        lambda s, p: (s, [np.array([2**53 + 1, 0, 1, 2, 3], dtype=np.int64)]),
    ),
    "dbl_as_str_parts": ("dbl", lambda s, p: (dict(s, atom="str"), p)),
    "atom_not_a_name": ("int", lambda s, p: (dict(s, atom=["int"]), p)),
}


def _damaged(name):
    atom_name, damage = DAMAGE[name]
    values = {"str": STR_VALUES, "bit": [True, None, False, True, False]}.get(
        atom_name, INT_VALUES
    )
    column = column_from_values(atom_name, values)
    spec, parts = damage(*codec.encode(column))
    return column, spec, parts


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(DAMAGE))
def test_codec_refuses_damaged_parts(name):
    _, spec, parts = _damaged(name)
    with pytest.raises(codec.CodecError):
        codec.decode(spec, parts, "tail")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(DAMAGE))
def test_data_directory_refuses_damaged_parts(tmp_path, name):
    column, spec, parts = _damaged(name)
    pool = BATBufferPool()
    pool.register("c", _bat(column))
    pool.save(tmp_path)
    catalog = json.loads((tmp_path / "catalog.json").read_text())
    entry = catalog["bats"]["c"]
    entry.update(ttype=spec["atom"], count=spec["count"])
    (tmp_path / "catalog.json").write_text(json.dumps(catalog))
    names = codec.part_names(spec["atom"] if isinstance(spec["atom"], str) else "int", "tail")
    np.savez(Path(tmp_path) / entry["file"], **dict(zip(names, parts)))
    with pytest.raises(BBPError, match=rf"'c'.*{entry['file']}"):
        BATBufferPool.load(tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("truncate_frame", [False, True], ids=["frame", "short-frame"])
@pytest.mark.parametrize("name", list(DAMAGE))
def test_wire_refuses_damaged_parts(name, truncate_frame):
    column, spec, parts = _damaged(name)
    result, _ = encode_result(_bat(column), True)
    frame = codec.to_frame([(spec, parts)])
    result["tail"] = spec
    frames = [frame[:-1] if truncate_frame else frame]
    header, wire_frames = read_message(io.BytesIO(ok_response(result, frames)).read)
    with pytest.raises(ProtocolError):
        decode_result(header["result"], wire_frames)
