"""The wire protocol of the Mirror query service.

A connection carries a sequence of *messages* in both directions.  One
message is one JSON **header frame** optionally followed by binary
**column frames**:

    [4-byte big-endian length][UTF-8 JSON header]
    [4-byte big-endian length][raw column bytes]      * header["frames"]

Requests are JSON objects ``{"op": ..., ...}``; responses are
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": {"code",
"message"}}``.  A client correlation ``id`` is echoed verbatim when
present.  Columnar results (BATs) are shipped column-wise: in JSON mode
every column is a ``values`` list (NIL as ``null``), in binary mode
numeric columns (``int``/``oid``/``dbl``) ride as raw little-endian
arrays in the trailing frames -- zero JSON overhead for the bulk of a
result -- while ``str``/``bit`` columns stay JSON.  Void columns ship
as their ``seqbase`` alone.

Operation table (protocol version 2; versioned by extension -- a v1
peer simply never sends the v2 ops).  Each line is a row of
:data:`repro.service.ops.OPS`; fields in ``[...]`` are optional:

===============  ====  =================================================
op               ver   request fields -> result
===============  ====  =================================================
``ping``         1     -- -> ``{kind: pong, session}``
``status``       1     -- -> ``{kind: status, status}``
``close``        1     -- -> ``{kind: bye}``; the server then hangs up
``mil``          1     ``q`` [``binary`` ``deadline_ms``] -> value
                       (+ ``epoch`` the plan's snapshot pinned)
``moa``          1     ``q`` [``binary`` ``params`` ``deadline_ms``]
                       -> value (+ ``epoch``)
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

from repro.monet.bat import BAT

#: Hard ceiling on one frame; a peer announcing more is a protocol
#: error, not an allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Frames per message ceiling (a BAT result has at most two columns).
MAX_FRAMES = 8

_LENGTH = struct.Struct("!I")

#: Numeric atoms that may ride binary frames, with their wire dtypes.
_BINARY_DTYPES = {"int": "<i8", "oid": "<i8", "dbl": "<f8"}


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


def _encode_column(column, atom_name: str, binary: bool, frames: List[bytes]):
    if column.is_void:
        return {"atom": "void", "seqbase": column.seqbase, "count": len(column)}
    if binary and atom_name in _BINARY_DTYPES:
        dtype = _BINARY_DTYPES[atom_name]
        frames.append(np.ascontiguousarray(column.materialize().astype(dtype)).tobytes())
        return {"atom": atom_name, "frame": len(frames) - 1, "dtype": dtype}
    from repro.monet.bat import _column_to_list

    return {"atom": atom_name, "values": _column_to_list(column)}


def encode_result(value: Any, binary: bool) -> Tuple[Dict[str, Any], List[bytes]]:
    """Encode an execution result (BAT, scalar, or nested Python value)
    as a ``result`` JSON object plus trailing binary frames."""
    frames: List[bytes] = []
    if isinstance(value, BAT):
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
            "head": _encode_column(value.head, value.htype, binary, frames),
            "tail": _encode_column(value.tail, value.ttype, binary, frames),
        }
        return result, frames
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"kind": "scalar", "value": _json_safe(value)}, frames
    return {"kind": "value", "value": _json_safe(value)}, frames


def _json_safe(value: Any) -> Any:
    """Recursively coerce an execution result into JSON-representable
    values (numpy scalars unwrap; unknown objects degrade to repr)."""
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
    return {"__repr__": repr(value)}


def _decode_column(spec: Dict[str, Any], frames: List[bytes], count: int) -> List[Any]:
    atom_name = spec.get("atom")
    if atom_name == "void":
        seqbase = int(spec.get("seqbase", 0))
        return list(range(seqbase, seqbase + count))
    if "frame" in spec:
        index = spec["frame"]
        if not isinstance(index, int) or index >= len(frames):
            raise ProtocolError(f"column references missing frame {index!r}")
        array = np.frombuffer(frames[index], dtype=spec.get("dtype", "<i8"))
        if atom_name == "dbl":
            mask = np.isnan(array)
            values = array.tolist()
            return [None if m else v for v, m in zip(values, mask.tolist())]
        nil = np.iinfo(np.int64).min if atom_name == "int" else np.iinfo(np.int64).max
        values = array.tolist()
        return [None if v == nil else v for v in values]
    values = spec.get("values")
    if not isinstance(values, list):
        raise ProtocolError(f"column of atom {atom_name!r} has no values")
    return values


def decode_result(result: Dict[str, Any], frames: List[bytes]) -> Any:
    """Inverse of :func:`encode_result` on the client side; BATs come
    back as :class:`BATResult`, scalars and values unwrap, and control
    responses (``hello``/``pong``/``defined``/...) pass through as
    their result dict."""
    kind = result.get("kind")
    if kind == "bat":
        count = int(result.get("count", 0))
        return BATResult(
            head=_decode_column(result.get("head", {}), frames, count),
            tail=_decode_column(result.get("tail", {}), frames, count),
            htype=result.get("htype", "?"),
            ttype=result.get("ttype", "?"),
            flags=dict(result.get("flags", {})),
            epoch=result.get("epoch"),
        )
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
