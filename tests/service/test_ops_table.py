"""Tests generated from the wire-op table (``repro.service.ops.OPS``).

``ops_golden.json`` was recorded from the service as it stood before
the table existed (commit c9880ad), one fresh service per request:

* ``errors`` -- the wire outcome, ``[code, message]`` or ``["ok",
  kind]``, of every op x {valid request, undeclared field, each
  required field missing, each field probed with ill-typed values},
  plus unknown ops and the removed ``commit name/as/replace`` dialect;
* ``requests`` -- the exact request bytes and return value of every
  client method and argument combination, answered by a stub server.

The table must reproduce both, except the requests listed in
:data:`NEWLY_REFUSED_PROBES` and :func:`newly_refused`, which it now
answers with ``protocol``.
"""

from __future__ import annotations

import asyncio
import inspect
import io
import json
import math
import re
import socket
import struct
import threading
from pathlib import Path

import pytest

from repro.core.mirror import MirrorDBMS
from repro.service import AsyncServiceClient, ServiceClient, ServiceConfig, ServiceThread
from repro.service import protocol
from repro.service.ops import ENVELOPE, OPS
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ok_response,
    pack_message,
    read_message,
    read_message_async,
)

GOLDEN = json.loads(Path(__file__).with_name("ops_golden.json").read_text())

#: A valid request per op (beyond ``op``) against :func:`case_db`.
BASE = {
    "mil": {"q": 'x := bat("Nums.__value__"); count(x);'},
    "moa": {"q": "count(Nums);"},
    "define": {"ddl": "define Words as SET<Atomic<str>>;"},
    "insert": {"collection": "Nums", "values": [4]},
    "count": {"collection": "Nums"},
    "stats": {"collection": "Lib", "attribute": "annotation", "bind": "st"},
    "update": {"collection": "Nums", "set": 9, "where": 1},
    "delete": {"collection": "Nums", "where": 3},
}

#: Values each field datatype is probed with (``None`` sends ``null``).
PROBES = {
    "text": [None, 0, True, "", ["x"], {"x": 1}],
    "flag": [None, 0, 1, "false", [], {}],
    "ms": [None, 0, 1e12, True, False, "5", "abc", math.nan, math.inf, -math.inf, -1,
           [1], {}],
    "rows": [None, 0, "x", {}, True],
    "where": [None, [1], {"k": [1]}, {"k": {}}, "x"],
    "assignments": [None, [1], {}, {"k": [1]}, "x"],
    "params": [None, [], 0, [1], "x", {"a": 1}, {"a": {"$session": "nope"}}, {"a": [1]}],
}

#: Probes, as JSON text by field, that the pre-table server accepted (or
#: let time out) and the table refuses with ``protocol``:
NEWLY_REFUSED_PROBES = {
    # a deadline is a finite number >= 0: NaN/Infinity switched the
    # deadline off, bools and numeric strings were coerced by float(),
    # negatives expired at once
    "deadline_ms": {"true", "false", '"5"', "NaN", "Infinity", "-Infinity", "-1"},
    # a flag is a bool: "false" was truthy and shipped binary frames
    "binary": {"0", "1", '"false"', "[]", "{}"},
    # params is an object: falsy non-objects were read as no params
    "params": {"[]", "0"},
}


def newly_refused(request) -> bool:
    """Is *request* one the table refuses that the pre-table server did
    not refuse with ``protocol`` and the same text?  Besides the probes
    above: a field the op does not declare (it was ignored -- including
    the legacy ``commit`` ``name``/``as``/``replace``), and an ``update``
    without ``set`` (it was read as ``set: null``)."""
    row = OPS.get(request.get("op"))
    if row is None:
        return False
    declared = {field.name for field in row.fields}
    return (
        any(key not in declared and key not in ENVELOPE for key in request)
        or any(json.dumps(request[key]) in NEWLY_REFUSED_PROBES.get(key, ())
               for key in request)
        or (row.name == "update" and "set" not in request)
    )


def error_cases():
    """Every probe request, generated from the table."""
    cases = []
    for op, row in OPS.items():
        base = {"op": op, "id": 7, **BASE.get(op, {})}
        cases += [base, {**base, "bogus": 1}]
        for name, datatype, required in row.fields:
            if required:
                cases.append({k: v for k, v in base.items() if k != name})
            cases += [{**base, name: probe} for probe in PROBES[datatype]]
    return cases + [
        {"id": 7},
        {"op": "nope", "id": 7},
        {"op": 5, "id": 7},
        {"op": "commit", "id": 7, "name": "x"},
        {"op": "commit", "id": 7, "name": "x", "as": "y", "replace": True},
    ]


def case_db():
    db = MirrorDBMS()
    db.define("define Nums as SET<Atomic<int>>;")
    db.insert("Nums", [3, 1, 2, None, 7, 5])
    db.define(
        "define Lib as SET<TUPLE<Atomic<URL>: source, CONTREP<Text>: annotation>>;"
    )
    db.insert(
        "Lib",
        [
            {"source": "u1", "annotation": "red sunset sea"},
            {"source": "u2", "annotation": "green forest"},
        ],
    )
    return db


def wire_outcome(request):
    """``[code, message]`` or ``["ok", kind]`` from a fresh service."""
    with ServiceThread(case_db(), ServiceConfig(max_inflight=2, max_queue=8)) as svc:
        with socket.create_connection(svc.address, timeout=30) as sock:
            reader = sock.makefile("rb")
            read_message(reader.read)  # the hello
            sock.sendall(pack_message(request))
            header, _ = read_message(reader.read)
            reader.close()
    assert header.get("id") == 7
    if header["ok"]:
        return ["ok", header["result"]["kind"]]
    return [header["error"]["code"], header["error"]["message"]]


def _text(request) -> str:
    return json.dumps(request, separators=(",", ":"))


# ----------------------------------------------------------------------
# (a) error parity
# ----------------------------------------------------------------------


def test_golden_errors_cover_exactly_the_table():
    assert [_text(case) for case in error_cases()] == [
        row["request"] for row in GOLDEN["errors"]
    ]


def _op_of(row) -> str:
    op = json.loads(row["request"]).get("op")
    return op if op in OPS else "unknown"


@pytest.mark.parametrize("op", sorted({*OPS, "unknown"}))
def test_error_parity_with_golden(op):
    rows = [row for row in GOLDEN["errors"] if _op_of(row) == op]
    assert rows
    mismatches = []
    for row in rows:
        request = json.loads(row["request"])
        now = wire_outcome(request)
        if newly_refused(request):
            ok = now[0] == "protocol" and now != row["parent"]
        else:
            ok = now == row["parent"]
        if not ok:
            mismatches.append((row["request"], row["parent"], now))
    assert not mismatches


# ----------------------------------------------------------------------
# (b) request-byte parity and (c) surface parity
# ----------------------------------------------------------------------


CANNED = {"kind": "canned", "names": ["n"], "count": 3, "epoch": 4,
          "status": {"s": 1}, "name": "bound"}


@pytest.fixture
def stub():
    """A stub server: greets, answers every request with ``CANNED`` and
    records the raw bytes of each request it reads."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def serve():
        for _ in range(2):  # one sync and one async client
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                conn.sendall(ok_response({"kind": "hello", "session": "s1"}, []))
                while len(prefix := reader.read(4)) == 4:
                    seen.append(prefix + reader.read(struct.unpack("!I", prefix)[0]))
                    conn.sendall(ok_response(CANNED, []))

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    yield listener.getsockname()[1], seen
    server.join(timeout=10)
    listener.close()
    assert not server.is_alive()


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_request_bytes_match_golden_on_both_clients(stub):
    port, seen = stub
    calls = GOLDEN["requests"]
    with ServiceClient("127.0.0.1", port) as client:
        sync_values = [getattr(client, m)(*a, **k) for m, a, k in
                       (row["call"] for row in calls[:-1])]
    sync_seen = [raw.decode("utf-8") for raw in seen]
    seen.clear()

    async def run_async():
        async with AsyncServiceClient("127.0.0.1", port) as client:
            return [await getattr(client, m)(*a, **k) for m, a, k in
                    (row["call"] for row in calls[:-1])]

    async_values = asyncio.run(run_async())
    async_seen = [raw.decode("utf-8") for raw in seen]
    golden_bytes = [row["bytes"] for row in calls]
    assert calls[-1]["call"][0] == "close"
    assert sync_seen == golden_bytes
    assert async_seen == golden_bytes
    assert sync_values == async_values == [row["value"] for row in calls[:-1]]


def test_clients_share_one_surface():
    assert _public(AsyncServiceClient) - {"connect"} == _public(ServiceClient)
    for name in _public(ServiceClient):
        assert inspect.signature(getattr(ServiceClient, name)) == inspect.signature(
            getattr(AsyncServiceClient, name)
        ), name


def test_golden_calls_reach_every_method_and_every_op():
    calls = GOLDEN["requests"]
    assert {row["call"][0] for row in calls} == _public(ServiceClient)
    assert {json.loads(row["bytes"][4:])["op"] for row in calls} == set(OPS)


# ----------------------------------------------------------------------
# (d) the protocol docstring's op table
# ----------------------------------------------------------------------


def _docstring_ops():
    lines = protocol.__doc__.split("Operation table", 1)[1].splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    body, rows = lines[rules[1] + 1:rules[2]], []
    for line in body:
        if line.startswith("``"):
            rows.append(line)
        else:
            rows[-1] += " " + line.strip()
    table = {}
    for row in rows:
        name, version, rest = re.match(r"``(\w+)``\s+(\d+)\s+(.*)", row).groups()
        fields = rest.split("->", 1)[0]
        optional = re.findall(r"``(\w+)``", "".join(re.findall(r"\[[^\]]*\]", fields)))
        table[name] = (int(version), re.findall(r"``(\w+)``", fields), optional)
    return table


def test_protocol_docstring_lists_the_table():
    assert _docstring_ops() == {
        row.name: (
            row.version,
            [field.name for field in row.fields],
            [field.name for field in row.fields if not field.required],
        )
        for row in OPS.values()
    }


# ----------------------------------------------------------------------
# (e) one parser under both readers, fed one byte at a time
# ----------------------------------------------------------------------


STREAMS = {
    "header only": pack_message({"op": "ping", "id": 7}),
    "frames": pack_message({"op": "x"}, [b"abc"]),
    "eof between messages": b"",
    "eof mid-frame": pack_message({"op": "x"}, [b"abcdef"])[:-3],
    "eof before a declared frame": pack_message({"op": "x", "frames": 1}),
    "bad json": struct.pack("!I", 8) + b"not json",
    "oversized frame": struct.pack("!I", MAX_FRAME_BYTES + 1),
    "bad frame count": pack_message({"op": "x", "frames": 99}),
}


def _outcome(read):
    try:
        return "ok", read()
    except (EOFError, protocol.ProtocolError) as exc:
        return type(exc).__name__, str(exc)


def _read_trickled(blob):
    stream = io.BytesIO(blob)

    def read_exactly(n):
        data = b""
        while len(data) < n and (byte := stream.read(1)):
            data += byte
        return data

    return read_message(read_exactly)


async def _read_trickled_async(blob):
    reader = asyncio.StreamReader()

    async def feed():
        for i in range(len(blob)):
            reader.feed_data(blob[i:i + 1])
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    try:
        return await read_message_async(reader)
    finally:
        await feeder


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_both_readers_agree_byte_by_byte(name):
    blob = STREAMS[name]
    sync = _outcome(lambda: _read_trickled(blob))
    trickled_async = _outcome(lambda: asyncio.run(_read_trickled_async(blob)))
    whole = _outcome(lambda: read_message(io.BytesIO(blob).read))
    assert sync == trickled_async == whole
    expected = {"header only": "ok", "frames": "ok", "bad json": "ProtocolError",
                "oversized frame": "ProtocolError", "bad frame count": "ProtocolError"}
    assert sync[0] == expected.get(name, "EOFError")
