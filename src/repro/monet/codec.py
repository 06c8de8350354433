"""The one column codec: the only place a :class:`~repro.monet.bat.Column`
becomes arrays or bytes, and back.  The BBP files (one npz member per
part, :mod:`repro.monet.bbp`) and the wire (every part of a message in
one frame, :mod:`repro.service.protocol`) both call it.

The format is one row per atom kind; a part is named by the column's
key plus its suffix (npz member and error text ``tail_heap``):

=====  ==============  ================================================
kind   spec            parts (suffix: dtype)
=====  ==============  ================================================
void   seqbase, count  none: a virtual dense oid run
fixed  count           ``""``: the values in the atom's little-endian
                       dtype (int/oid int64, dbl float64, bit int8, any
                       registered numeric atom)
str    count           Monet's string heap -- ``""``: codes in the
                       narrowest signed int dtype holding -1..n-1 (NIL
                       -1); ``_heap``: uint8, the n distinct values in
                       code order, UTF-8 with ``surrogatepass`` (lone
                       surrogates are str values too); ``_offsets``:
                       int64, n + 1 entries, value i is
                       ``heap[offsets[i]:offsets[i + 1]]``
=====  ==============  ================================================

A str column is its codes and its heap in memory too
(:class:`~repro.monet.bat.StrColumn`).  :func:`encode` compacts: it
writes the codes and only the heap values those codes use, renumbered
in heap order when some are unused (a 3-row gather of a large column
ships at most 3 strings), and changes no column.  :func:`decode` keeps
the codes (widened to the in-memory int64) and builds the heap from the
distinct values, with no per-row value array.  It is the single validator of column
data from outside (a data directory, a peer): part count and dtype
kind, each length against the spec's ``count``, codes within
``[-1, n)``, offsets monotone from 0 to ``len(heap)``, a heap that
decodes to n distinct values, numeric
values that fit their atom exactly (int32 under oid loads; a float
under int, uint64 2**63 under int or 300 under bit does not), and bit
values in its domain {-1 (NIL), 0, 1}.  It raises :class:`CodecError`,
which each caller turns into its own error.

On the wire :func:`to_frame` lays the parts of a message out in one
frame, each at an 8-byte boundary, the spec naming its ``offset`` and
its ``parts`` as ``[dtype, length]``; :func:`from_frame` checks the
layout against the frame first.  JSON mode ships ``values`` instead
(:func:`to_values`), and :func:`from_values` coerces each to the atom.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.monet.atoms import atom
from repro.monet.bat import (
    AnyColumn, Column, StrColumn, StrHeap, VoidColumn, column_from_values, column_to_list, rebase,
)
from repro.monet.errors import AtomError, MonetError


class CodecError(MonetError):
    """Column data that does not decode; the message names the array."""


#: The parts of the void and str rows as (suffix, dtype kinds accepted).
_PARTS = {"void": (), "str": (("", "i"), ("_heap", "u"), ("_offsets", "i"))}
_CODE_DTYPES = (np.int8, np.int16, np.int32, np.int64)
#: Byte alignment of every part inside a wire frame.
_ALIGN = 8

Spec = Dict[str, Any]


def _row(atom_name: Any) -> tuple:
    """An atom's format row; a fixed-width atom reads integers, and
    floats too when it is one."""
    try:
        if atom_name in _PARTS:
            return _PARTS[atom_name]
        kind = atom(atom_name).dtype.kind
    except (AtomError, TypeError):
        raise CodecError(f"unknown atom {atom_name!r}") from None
    if kind not in "biuf":
        raise CodecError(f"atom {atom_name!r} has no stored form")
    return (("", "biuf" if kind == "f" else "biu"),)


def part_names(atom_name: str, key: str) -> List[str]:
    """The names of a column's parts under *key* (its npz members)."""
    return [key + suffix for suffix, _ in _row(atom_name)]


def encode(column: AnyColumn) -> Tuple[Spec, List[np.ndarray]]:
    """A column as ``(spec, parts)`` in the format above."""
    if column.is_void:
        return {"atom": "void", "seqbase": column.seqbase, "count": len(column)}, []
    atom_type = column.atom_type
    spec = {"atom": atom_type.name, "count": len(column)}
    if len(_row(atom_type.name)) == 1:
        return spec, [column.values.astype(atom_type.dtype.newbyteorder("<"), copy=False)]
    heap = StrHeap()  # the values in use, renumbered in heap order
    codes = rebase(column, heap)
    values = heap.values_at(np.arange(len(heap))).tolist()
    blobs = [value.encode("utf-8", "surrogatepass") for value in values]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(blob) for blob in blobs], dtype=np.int64)
    data = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    dtype = next(d for d in _CODE_DTYPES if len(blobs) - 1 <= np.iinfo(d).max)
    return spec, [codes.astype(dtype), data, offsets]


def decode(spec: Spec, parts: Sequence[Optional[np.ndarray]], where: str) -> AnyColumn:
    """The column a spec and its parts describe, validated; *where* is
    the column's key, which errors name arrays by.  A missing part is
    ``None``; a ``None`` count is not checked."""
    atom_name, count = spec.get("atom"), spec.get("count")
    row = _row(atom_name)
    if not (count is None or type(count) is int and count >= 0):
        raise CodecError(f"column {where!r} declares count {count!r}")
    if len(parts) != len(row):
        wanted = len(row)
        raise CodecError(f"{atom_name} column {where!r} has {len(parts)} parts, not {wanted}")
    if not row:
        seqbase = spec.get("seqbase")
        if not all(type(n) is int and n >= 0 for n in (seqbase, count)):
            raise CodecError(f"void {where!r} needs a non-negative seqbase and count")
        return VoidColumn(seqbase, count)
    for (suffix, kinds), part in zip(row, parts):
        if part is None:
            raise CodecError(f"array {where + suffix!r} is missing")
        if part.ndim != 1 or part.dtype.kind not in kinds:
            name = where + suffix
            raise CodecError(f"array {name!r} has shape {part.shape}, dtype {part.dtype}")
    if count is not None and len(parts[0]) != count:
        rows = len(parts[0])
        raise CodecError(f"array {where!r} holds {rows} rows where {count} rows are declared")
    if len(row) == 3:
        return StrColumn(parts[0].astype(np.int64, copy=False), _heap(*parts, where))
    values, dtype = parts[0], atom(atom_name).dtype
    cast = values
    if values.dtype != dtype:
        # Both ways round: the cast must compare equal to the values
        # (a uint64 2**63 wraps to INT_NIL) and cast back to them (an
        # int64 2**53 + 1 rounds under dbl).
        with np.errstate(invalid="ignore", over="ignore"):
            cast = values.astype(dtype)
            exact = all(
                np.array_equal(array, values, equal_nan=True)
                for array in (cast, cast.astype(values.dtype))
            )
        if not exact:
            raise CodecError(f"array {where!r} ({values.dtype}) does not fit {atom_name}")
    if atom_name == "bit" and len(cast) and (cast.min() < -1 or cast.max() > 1):
        raise CodecError(f"array {where!r} holds bit values outside {{-1 (NIL), 0, 1}}")
    return Column(atom_name, cast)


def _heap(codes, heap, offsets, where: str) -> StrHeap:
    """The :class:`~repro.monet.bat.StrHeap` of a str column's string
    heap, checked against its codes: each distinct value decodes
    once."""
    n = len(offsets) - 1
    if heap.dtype != np.uint8:
        raise CodecError(f"array {where + '_heap'!r} is not uint8")
    if n < 0 or offsets[0] != 0 or offsets[-1] != len(heap) or (np.diff(offsets) < 0).any():
        raise CodecError(
            f"array {where + '_offsets'!r} does not run from 0 up to "
            f"len({where}_heap) = {len(heap)}"
        )
    if len(codes) and (codes.min() < -1 or codes.max() >= n):
        raise CodecError(f"array {where!r} holds codes outside [-1, {n})")
    raw, bounds = heap.tobytes(), offsets.tolist()
    try:
        values = [raw[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise CodecError(f"array {where + '_heap'!r} does not decode: {exc}") from None
    distinct = StrHeap(values)
    if len(distinct) != n:
        raise CodecError(f"array {where + '_heap'!r} holds a value twice")
    return distinct


def to_frame(encoded: Sequence[Tuple[Spec, List[np.ndarray]]]) -> bytes:
    """Lay the parts of every ``(spec, parts)`` out in one frame, each
    at an 8-byte boundary, and record the layout in each spec."""
    chunks, size = [], 0
    for spec, parts in encoded:
        if parts:
            spec.update(frame=0, offset=size + -size % _ALIGN, parts=[])
        for part in parts:
            padding = -size % _ALIGN
            chunks += [bytes(padding), part.tobytes()]
            size += padding + part.nbytes
            spec["parts"].append([part.dtype.str, len(part)])
    return b"".join(chunks)


def from_frame(spec: Spec, frame: bytes, where: str) -> AnyColumn:
    """The column a binary-mode spec lays out in *frame*: every declared
    part must lie inside the frame, then :func:`decode` validates."""
    offset, parts = spec.get("offset"), []
    try:
        for dtype_text, length in spec["parts"]:
            dtype = np.dtype(str(dtype_text))
            offset += -offset % _ALIGN
            end = offset + dtype.itemsize * length
            fits = type(length) is int and length >= 0 and end <= len(frame)
            if dtype.kind not in "biuf" or not fits:
                raise ValueError(f"part {[dtype_text, length]!r} at byte {offset}")
            parts.append(np.frombuffer(frame, dtype=dtype, count=length, offset=offset))
            offset = end
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"does not lie in its {len(frame)}-byte frame: {exc}"
        raise CodecError(f"column {where!r} {problem}") from None
    return decode(spec, parts, where)


def to_values(column: AnyColumn) -> Spec:
    """A JSON-mode spec: the column's values, NIL as ``None``."""
    if column.is_void:
        return encode(column)[0]
    spec = {"atom": column.atom_type.name, "count": len(column)}
    return dict(spec, values=column_to_list(column))


def from_values(spec: Spec, values: Any, where: str) -> AnyColumn:
    """The column a JSON-mode spec ships as ``values``: as many as its
    ``count``, each coercing to its atom (NIL as ``null``)."""
    if not _row(spec.get("atom")):
        return decode(spec, [], where)
    if not isinstance(values, list) or len(values) != spec.get("count", len(values)):
        raise CodecError(f"column {where!r} ships no {spec.get('count')} values")
    try:
        return column_from_values(spec.get("atom"), values)
    except (AtomError, TypeError, ValueError, OverflowError) as exc:
        raise CodecError(f"column {where!r}: {exc}") from None
