"""The wire protocol of the Mirror query service.

A connection carries a sequence of *messages* in both directions.  One
message is one JSON **header frame** optionally followed by binary
**column frames**:

    [4-byte big-endian length][UTF-8 JSON header]
    [4-byte big-endian length][raw column bytes]      * header["frames"]

Requests are JSON objects ``{"op": ..., ...}``; responses are
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": {"code",
"message"}}``.  A client correlation ``id`` is echoed verbatim when
present.  Query results come in three kinds:

``bat``     a MIL result BAT: ``count``, ``htype``, ``ttype``, ``flags``
            and a ``head`` and a ``tail`` column;
``moa``     a Moa collection: ``count``, the compiled result rep as its
            ``shape`` (``[rep class, {field: ...}]``, leaf fields naming
            plan variables; :func:`repro.moa.compiler.rep_shape`) and
            ``columns``, one column per leaf variable.  The server never
            builds the Python value: the client rebuilds it with the
            rep's own ``rebuild``, the reconstruction the in-process
            executor runs, so CONTREP and extension values arrive as
            their Python types;
``scalar``  an aggregate or MIL scalar as its JSON ``value``.

A column ships through the one column codec (:mod:`repro.monet.codec`,
whose docstring is the format) as a spec with its ``atom`` and
``count`` (a void column: ``seqbase`` and ``count``, no bytes).  In
binary mode (the default) its parts -- little-endian numbers, ``bit``
as int8, ``str`` as Monet's string heap -- share the message's one
frame at 8-byte aligned offsets, for ``bat`` and ``moa`` results alike,
so :data:`MAX_FRAMES` is 1.  In JSON mode (``binary: false``) a column
is a ``values`` list, NIL as ``null``.  The client decodes every column
through the codec's validator (a ``bat`` column against the result's
``count``): a length, layout or atom lie is a :class:`ProtocolError`,
and values come out with the kernel's one NIL rule
(:func:`repro.monet.bat.column_to_list`).

Operation table (protocol version 2; versioned by extension -- a v1
peer simply never sends the v2 ops).  Each line is a row of
:data:`repro.service.ops.OPS`; fields in ``[...]`` are optional:

===============  ====  =================================================
op               ver   request fields -> result
===============  ====  =================================================
``ping``         1     -- -> ``{kind: pong, session}``
``status``       1     -- -> ``{kind: status, status}``
``close``        1     -- -> ``{kind: bye}``; the server then hangs up
``mil``          1     ``q`` [``binary`` ``deadline_ms``] -> ``bat``
                       or ``scalar`` result (+ ``epoch`` the plan's
                       snapshot pinned)
``moa``          1     ``q`` [``binary`` ``params`` ``deadline_ms``]
                       -> ``moa`` or ``scalar`` result (+ ``epoch``)
``define``       1     ``ddl`` -> ``{kind: defined, names}``
``insert``       1     ``collection`` ``values`` -> ``{kind: count,
                       count, epoch}``; inside a transaction: staged
                       mutation result
``count``        1     ``collection`` -> ``{kind: count, count}``
``stats``        1     ``collection`` ``attribute`` ``bind`` ->
                       ``{kind: bound, name}``
``collections``  1     -- -> ``{kind: collections, names}``
``begin``        2     -- -> ``{kind: begun, epoch}`` (pins one
                       catalog epoch for the session's statements)
``commit``       2     -- -> ``{kind: committed, count, epoch,
                       applied: [{collection, op, count, epoch}]}``
                       (publishes the staged mutations)
``abort``        2     -- -> ``{kind: aborted, count, epoch}``
``update``       2     ``collection`` ``set`` [``where``] ->
                       mutation result
``delete``       2     ``collection`` [``where``] -> mutation result
===============  ====  =================================================

Every request is checked against its row before it costs anything: an
unknown ``op``, a missing or ill-typed field, or a field the row does
not declare is a ``protocol`` error (``op``, ``id`` and ``frames`` ride
on every op; an optional field sent as ``null`` counts as absent).
``binary`` is ``true`` or ``false``.  ``deadline_ms`` is a finite
number >= 0 that *replaces* the service's default per-query deadline
for that query -- it may raise it as well as lower it; ``0`` expires at
the first checkpoint.

A *mutation result* is ``{kind: mutation, op, collection, count,
epoch, staged}`` -- the wire form of the one epoch-reporting
``MutationResult`` type every mutation path shares; ``staged: true``
means the op is queued in the session's open transaction and applies
at ``commit``.  ``where`` is an object of field equalities (pseudo-
field ``value`` for ``SET<Atomic>`` elements) or a bare literal; a
``nil`` literal matches nothing (the kernel's comparison rule).

Error codes (the service's whole failure vocabulary):

=============  ========================================================
``protocol``   unreadable frame, bad JSON, unknown ``op``, missing,
               ill-typed or undeclared field
``malformed``  query failed to parse (guard, pre-execution)
``guard``      plan rejected by the op-count/BUN budget guard
``rate``       per-session token bucket empty
``busy``       admission queue full
``deadline``   queued past the admission timeout
``timeout``    per-query deadline expired mid-plan (checkpoint fired)
``cancelled``  session disconnected mid-plan
``mutation``   write rejected (unknown target, bad positions/batch,
               transaction protocol violation)
``runtime``    execution failed (type error, unknown name, ...)
=============  ========================================================

Both the asyncio server and the sync/async clients use the same
encode/decode helpers below, and one sans-IO parser reads messages
under both the blocking and the asyncio reader, so the framing has
exactly one implementation.  Both clients inherit one surface class
that builds each request from its ``OPS`` row, so the sync and async
surfaces cannot drift.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.moa.compiler import rep_from_shape, rep_shape
from repro.moa.errors import MoaError
from repro.moa.executor import ResultColumns
from repro.monet import codec
from repro.monet.bat import BAT, AnyColumn, column_to_list

#: Hard ceiling on one frame; a peer announcing more is a protocol
#: error, not an allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Frames per message ceiling: every column of a result lays its codec
#: parts out in one frame (:func:`repro.monet.codec.to_frame`).
MAX_FRAMES = 1

_LENGTH = struct.Struct("!I")


class ProtocolError(Exception):
    """Framing/encoding violation; the connection should be dropped."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def pack_message(header: Dict[str, Any], frames: Optional[List[bytes]] = None) -> bytes:
    """Serialize one message (header + binary frames) to wire bytes."""
    frames = frames or []
    if frames:
        header = dict(header, frames=len(frames))
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_LENGTH.pack(len(payload)), payload]
    for frame in frames:
        if len(frame) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(frame)} bytes exceeds the cap")
        parts.append(_LENGTH.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def _parse_message():
    """The one message parser, sans-IO: a generator that yields how many
    bytes it needs next and is sent them (fewer only at EOF).  Returns
    ``(header, frames)``; raises EOFError or :class:`ProtocolError`."""
    payload = yield from _parse_frame("connection closed between messages")
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"bad JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    count = header.get("frames", 0)
    if not isinstance(count, int) or count < 0 or count > MAX_FRAMES:
        raise ProtocolError(f"bad frame count {count!r}")
    frames: List[bytes] = []
    for _ in range(count):
        frames.append((yield from _parse_frame("connection closed before a declared frame")))
    return header, frames


def _parse_frame(eof_before_length: str):
    prefix = yield _LENGTH.size
    if len(prefix) < _LENGTH.size:
        raise EOFError(eof_before_length)
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame; refusing")
    frame = yield length
    if len(frame) < length:
        raise EOFError("connection closed mid-frame")
    return frame


def read_message(read_exactly: Callable[[int], bytes]) -> Tuple[Dict[str, Any], List[bytes]]:
    """Read one message through *read_exactly(n) -> bytes* (which must
    raise/return short only at EOF; a short read raises EOFError here).
    Returns ``(header, frames)``."""
    parser = _parse_message()
    try:
        need = next(parser)
        while True:
            need = parser.send(read_exactly(need))
    except StopIteration as done:
        return done.value


async def read_message_async(reader) -> Tuple[Dict[str, Any], List[bytes]]:
    """:func:`read_message` over an asyncio ``StreamReader``."""
    import asyncio

    parser = _parse_message()
    try:
        need = next(parser)
        while True:
            try:
                data = await reader.readexactly(need)
            except asyncio.IncompleteReadError as exc:
                data = exc.partial
            need = parser.send(data)
    except StopIteration as done:
        return done.value


# ----------------------------------------------------------------------
# Result encoding
# ----------------------------------------------------------------------


@dataclass
class BATResult:
    """Client-side decoded columnar result: two aligned value lists
    (NIL as ``None``), plus the property flags the server reported."""

    head: List[Any]
    tail: List[Any]
    htype: str
    ttype: str
    flags: Dict[str, bool] = field(default_factory=dict)
    #: Catalog epoch the producing plan's snapshot was pinned at (MIL
    #: results only; None when the server did not report one).
    epoch: Optional[int] = None

    def __len__(self) -> int:
        return len(self.head)

    def pairs(self) -> List[Tuple[Any, Any]]:
        return list(zip(self.head, self.tail))


def _encode_columns(
    columns: Dict[str, AnyColumn], binary: bool
) -> Tuple[Dict[str, Any], List[bytes]]:
    """Every column's spec through the one codec, with its parts in the
    message's one frame (binary) or its ``values`` (JSON)."""
    if not binary:
        return {key: codec.to_values(column) for key, column in columns.items()}, []
    encoded = {key: codec.encode(column) for key, column in columns.items()}
    frame = codec.to_frame(list(encoded.values()))
    specs = {key: spec for key, (spec, _) in encoded.items()}
    return specs, [frame] if any(parts for _, parts in encoded.values()) else []


def encode_result(value: Any, binary: bool) -> Tuple[Dict[str, Any], List[bytes]]:
    """Encode an execution result -- a BAT, a Moa collection's
    :class:`ResultColumns`, or a scalar -- as a ``result`` JSON object
    plus trailing binary frames."""
    frames: List[bytes] = []
    if isinstance(value, BAT):
        columns, frames = _encode_columns({"head": value.head, "tail": value.tail}, binary)
        result = {
            "kind": "bat",
            "count": len(value),
            "htype": value.htype,
            "ttype": value.ttype,
            "flags": {
                "hsorted": value.hsorted,
                "tsorted": value.tsorted,
                "hkey": value.hkey,
                "tkey": value.tkey,
            },
            **columns,
        }
        return result, frames
    if isinstance(value, ResultColumns):
        columns, frames = _encode_columns(
            {var: bat.tail for var, bat in value.leaves.items()}, binary
        )
        result = {
            "kind": "moa",
            "count": value.count,
            "shape": rep_shape(value.rep),
            "columns": columns,
        }
        return result, frames
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"kind": "scalar", "value": value}, frames
    # Forced vestige: no server op reaches this line (a Moa collection
    # ships as ResultColumns above).  The frozen mirrorbench
    # ``layers.dissect_wire`` still encodes an already reconstructed
    # Python value here, so its ``protocol.encode_ms``/``decode_ms``
    # time this JSON path, not the server's.
    return {"kind": "value", "value": _json_safe(value)}, frames


def _json_safe(value: Any) -> Any:
    """Recursively coerce a reconstructed Python value (lists, dicts,
    numpy scalars and arrays) into JSON; anything else is a
    ``TypeError``.  Forced vestige of :func:`encode_result`."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode a {type(value).__name__} result")


def _decode_column(
    spec: Any, frames: List[bytes], where: str, count: Optional[int] = None
) -> List[Any]:
    """One column's values (NIL as ``None``), decoded by the codec from
    the message's frame or its JSON ``values``; a *count* given is the
    length the column must have."""
    try:
        declared = spec.get("count", count) if isinstance(spec, dict) else None
        if type(declared) is not int or count not in (None, declared):
            raise codec.CodecError(f"column {where!r} declares {declared!r} rows, not {count}")
        spec = dict(spec, count=declared)
        if "frame" not in spec:
            column = codec.from_values(spec, spec.get("values"), where)
        elif spec["frame"] == 0 and len(frames) == 1:
            column = codec.from_frame(spec, frames[0], where)
        else:
            raise codec.CodecError(f"column {where!r} references frame {spec['frame']!r}")
    except codec.CodecError as exc:
        raise ProtocolError(f"malformed column: {exc}") from None
    return column_to_list(column)


def _decode_moa(result: Dict[str, Any], frames: List[bytes]) -> List[Any]:
    """Rebuild a ``moa`` result with the rep's own reconstruction, the
    one the in-process executor runs."""
    try:
        columns = {
            var: _decode_column(spec, frames, var)
            for var, spec in result["columns"].items()
        }
        return rep_from_shape(result["shape"]).rebuild(
            columns.__getitem__, int(result["count"])
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, MoaError) as exc:
        raise ProtocolError(f"malformed moa result: {exc!r}") from exc


def decode_result(result: Dict[str, Any], frames: List[bytes]) -> Any:
    """Inverse of :func:`encode_result` on the client side; BATs come
    back as :class:`BATResult`, Moa collections as their Python value,
    scalars unwrap, and control responses (``hello``/``pong``/
    ``defined``/...) pass through as their result dict."""
    kind = result.get("kind")
    if kind == "bat":
        count = result.get("count")
        if type(count) is not int:
            raise ProtocolError(f"bat result declares count {count!r}")
        return BATResult(
            head=_decode_column(result.get("head"), frames, "head", count),
            tail=_decode_column(result.get("tail"), frames, "tail", count),
            htype=result.get("htype", "?"),
            ttype=result.get("ttype", "?"),
            flags=dict(result.get("flags", {})),
            epoch=result.get("epoch"),
        )
    if kind == "moa":
        return _decode_moa(result, frames)
    if kind in ("scalar", "value"):
        return result.get("value")
    if isinstance(kind, str):
        return result
    raise ProtocolError(f"unknown result kind {kind!r}")


# ----------------------------------------------------------------------
# Response helpers
# ----------------------------------------------------------------------


def ok_response(result: Dict[str, Any], frames: List[bytes], request_id=None) -> bytes:
    header: Dict[str, Any] = {"ok": True, "result": result}
    if request_id is not None:
        header["id"] = request_id
    return pack_message(header, frames)


def error_response(code: str, message: str, request_id=None) -> bytes:
    header: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        header["id"] = request_id
    return pack_message(header)
