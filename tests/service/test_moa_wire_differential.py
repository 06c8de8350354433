"""The ``moa`` wire op against the in-process executor: for every case
the blocking client, the asyncio client and ``db.query(q).value`` give
equal Python values, in binary and in JSON mode.

A ``moa`` result travels as its rep's shape plus one column per leaf
(numeric leaves in one binary frame), and the client rebuilds it with
the reconstruction the executor runs in process -- so a CONTREP value
comes back as a ``ContentRepresentation`` and an extension structure's
value (the INTERVAL of ``examples/extending_moa.py``) as the tuples its
rep builds, not as a JSON approximation.
"""

from __future__ import annotations

import asyncio
import importlib.util
import io
import math
import socket
import sys
import threading
from pathlib import Path

import pytest

from repro.core.mirror import MirrorDBMS
from repro.service import (
    AsyncServiceClient,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    session_ref,
)
from repro.service.protocol import (
    decode_result,
    encode_result,
    ok_response,
    pack_message,
    read_message,
)
from repro.workloads import SECTION5_QUERY, build_internal_db

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

NIL_ROW = {"i": None, "o": None, "d": None, "s": None, "b": None, "u": None}
ATOM_ROWS = [
    {"i": 1, "o": 4, "d": 1.5, "s": "a", "b": True, "u": "http://x/1"},
    NIL_ROW,
    {"i": -9, "o": 0, "d": -0.25, "s": "", "b": False, "u": "http://x/é"},
    NIL_ROW,
    NIL_ROW,
    {"i": 2**62, "o": 7, "d": 1e300, "s": "z z", "b": None, "u": None},
]
#: Twelve numeric fields: more numeric leaves than a message may carry
#: frames, so binary mode must pack them into one.
WIDE_FIELDS = [f"f{k}" for k in range(12)]

#: collection -> (element type, rows); a whole-collection query must
#: rebuild exactly these rows.
COLLECTIONS = {
    "Atoms": (
        "TUPLE<Atomic<int>: i, Atomic<oid>: o, Atomic<dbl>: d, "
        "Atomic<str>: s, Atomic<bit>: b, Atomic<URL>: u>",
        ATOM_ROWS,
    ),
    "Wide": (
        "TUPLE<" + ", ".join(
            f"Atomic<{'int' if k % 2 else 'dbl'}>: {name}"
            for k, name in enumerate(WIDE_FIELDS)
        ) + ">",
        [
            {name: (k * row if k % 2 else k + row / 4) for k, name in enumerate(WIDE_FIELDS)}
            for row in range(3)
        ] + [dict.fromkeys(WIDE_FIELDS)],
    ),
    "Nest": (
        "TUPLE<Atomic<str>: name, SET<TUPLE<Atomic<int>: k, Atomic<dbl>: x>>: items>",
        [
            {"name": "a", "items": [{"k": 1, "x": 1.0}, {"k": 2, "x": None}]},
            {"name": "b", "items": []},
            {"name": None, "items": [{"k": None, "x": 3.5}]},
            {"name": "d", "items": []},
        ],
    ),
    "Tags": (
        "TUPLE<Atomic<int>: id, LIST<Atomic<str>>: tags>",
        [{"id": 1, "tags": ["x", None, "y"]}, {"id": 2, "tags": []}, {"id": 3, "tags": ["x"]}],
    ),
    "Lib": (
        "TUPLE<Atomic<URL>: source, CONTREP<Text>: annotation>",
        [
            {"source": "u1", "annotation": "red sunset over the sea"},
            {"source": "u2", "annotation": ""},
            {"source": "u3", "annotation": "sea sea sea storm"},
            {"source": "u4", "annotation": "city lights"},
        ],
    ),
    "Sensors": (
        "TUPLE<Atomic<str>: name, INTERVAL<float>: valid_range>",
        [
            {"name": "thermo-a", "valid_range": (-40.0, 85.0)},
            {"name": "thermo-b", "valid_range": (0.0, 50.0)},
            {"name": "cryo-1", "valid_range": (-200.0, -100.0)},
        ],
    ),
}

CASES = {
    # every atom, NIL-heavy
    "atoms": "Atoms;",
    **{
        f"atom-{field}": f"map[THIS.{field}](Atoms);"
        for field in ("i", "o", "d", "s", "b", "u")
    },
    # an empty collection
    "empty": "select[THIS.i = 12345](Atoms);",
    "empty-atom": "map[THIS.d](select[THIS.i = 12345](Atoms));",
    # a TUPLE
    "tuple": "map[tuple(a = THIS.i, b = THIS.s, c = THIS.d)](Atoms);",
    "wide-tuple": "Wide;",
    # SET-valued fields with empty inner sets, at depth 2
    "nested": "Nest;",
    "nested-sets": "map[THIS.items](Nest);",
    "nested-map": "map[tuple(n = THIS.name, ks = map[THIS.k](THIS.items))](Nest);",
    "nested-only-empty": 'select[THIS.name = "b"](Nest);',
    "nested-list": "Tags;",
    # CONTREP
    "contrep": "map[THIS.annotation](Lib);",
    "contrep-tuples": "Lib;",
    "contrep-select": 'select[THIS.source = "u2"](Lib);',
    "ranking": "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));",
    # the example's INTERVAL extension
    "interval": "Sensors;",
    "interval-select": "select[contains(THIS.valid_range, 20.0)](Sensors);",
    # scalars
    "count": "count(Atoms);",
    "count-empty": "count(select[THIS.i = 12345](Atoms));",
    "sum": "sum(map[THIS.id](Tags));",
    "sum-dbl": "sum(map[THIS.d](Atoms));",
}

#: A ``getBL`` ranking takes its parameters by value in process and its
#: statistics by session reference over the wire.
QUERY_TERMS = ["sunset", "sea"]


def _load_interval_example():
    """Import ``examples/extending_moa.py`` once per process: it
    registers the INTERVAL structure, its mapper, its result rep and
    ``contains``."""
    module = sys.modules.get("extending_moa")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "extending_moa", EXAMPLES / "extending_moa.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["extending_moa"] = module
        spec.loader.exec_module(module)
    return module


def make_db() -> MirrorDBMS:
    _load_interval_example()
    db = MirrorDBMS()
    for name, (element, rows) in COLLECTIONS.items():
        db.define(f"define {name} as SET<{element}>;")
        db.insert(name, rows)
    return db


@pytest.fixture(scope="module")
def served():
    db = make_db()
    with ServiceThread(db, ServiceConfig(max_inflight=2)) as svc:
        yield db, svc


def _params(name: str, db, wire: bool):
    if name != "ranking":
        return None
    stats = session_ref("lib") if wire else db.stats("Lib", "annotation")
    return {"query": QUERY_TERMS, "stats": stats}


def _sync(svc, name, query, binary):
    with ServiceClient(*svc.address) as client:
        client.bind_stats("Lib", "annotation", "lib")
        return client.moa(query, _params(name, None, True), binary=binary)


def _async(svc, name, query, binary):
    async def run():
        async with AsyncServiceClient(*svc.address) as client:
            await client.bind_stats("Lib", "annotation", "lib")
            return await client.moa(query, _params(name, None, True), binary=binary)

    return asyncio.run(run())


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_equals_in_process(served, name, binary):
    db, svc = served
    query = CASES[name]
    local = db.query(query, _params(name, db, False)).value
    sync = _sync(svc, name, query, binary)
    via_async = _async(svc, name, query, binary)
    if name == "sum-dbl":
        # A scalar dbl aggregate propagates NIL as NaN; the wire keeps
        # it NaN, which == cannot compare.
        assert all(math.isnan(v) for v in (sync, via_async, local))
        return
    assert sync == via_async == local


@pytest.mark.parametrize("name", ["Atoms", "Wide", "Nest", "Tags", "Sensors"])
def test_whole_collection_rebuilds_its_rows(served, name):
    """The reconstruction both sides share, against the inserted rows."""
    db, _ = served
    assert db.query(f"{name};").value == COLLECTIONS[name][1]


def test_wide_tuple_packs_numeric_leaves_into_one_frame(served):
    db, _ = served
    columns = db.query(CASES["wide-tuple"], materialize=False).value
    result, frames = encode_result(columns, True)
    assert len(frames) == 1
    specs = [result["columns"][var] for var in columns.leaves]
    assert sum("frame" in spec for spec in specs) == len(WIDE_FIELDS)
    reply, wire_frames = read_message(io.BytesIO(ok_response(result, frames)).read)
    assert decode_result(reply["result"], wire_frames) == db.query(CASES["wide-tuple"]).value


def test_server_builds_no_python_value_for_a_collection(served, monkeypatch):
    """The server encodes the leaf columns; reconstruction and the JSON
    value path run only in the client."""
    _, svc = served
    from repro.moa import executor
    from repro.service import protocol

    client_thread = threading.get_ident()
    calls = []

    def record(name, original):
        def wrapped(*args, **kwargs):
            if threading.get_ident() != client_thread:
                calls.append(name)
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        executor.ResultColumns, "rebuild",
        record("rebuild", executor.ResultColumns.rebuild),
    )
    monkeypatch.setattr(protocol, "_json_safe", record("_json_safe", protocol._json_safe))
    value = _sync(svc, "atoms", CASES["atoms"], True)
    assert value == ATOM_ROWS
    assert calls == []


def test_section5_ranking_response_size():
    """The 5 000-image Section 5 ranking: the dbl scores ride one
    binary frame, and the whole response stays under 41 000 bytes
    (55 037 as a JSON value list)."""
    db, stats, _ = build_internal_db(5_000, seed=1, clusters=40)
    query = ["rgb_3", "hsv_7", "gabor_1", "glcm_12", "autocorr_30", "laws_5"]
    with ServiceThread(db, ServiceConfig()) as svc:
        with socket.create_connection(svc.address) as sock:
            stream = sock.makefile("rb")
            read_message(stream.read)  # hello
            sock.sendall(pack_message({
                "op": "stats", "collection": "ImageLibraryInternal",
                "attribute": "image", "bind": "image_stats",
            }))
            read_message(stream.read)
            sock.sendall(pack_message({
                "op": "moa", "q": SECTION5_QUERY,
                "params": {"query": query, "stats": session_ref("image_stats")},
            }))
            received = bytearray()

            def read(n):
                data = stream.read(n)
                received.extend(data)
                return data

            header, frames = read_message(read)
            stream.close()
    result = header["result"]
    assert result["kind"] == "moa"
    (spec,) = result["columns"].values()
    assert spec["atom"] == "dbl" and "frame" in spec
    assert len(frames) == 1 and len(frames[0]) == 8 * 5_000
    assert len(received) <= 41_000
    local = db.query(SECTION5_QUERY, {"query": query, "stats": stats}).value
    assert decode_result(result, frames) == local


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(shape=["NoSuchRep", {}]),
        lambda r: r.update(shape=["AtomCol", {"var": "t1"}]),
        lambda r: r.update(count=r["count"] + 1),
        lambda r: next(iter(r["columns"].values())).update(offset=10**9),
        lambda r: r.pop("columns"),
    ],
    ids=["unknown-rep", "bad-fields", "count-lie", "offset-lie", "no-columns"],
)
def test_malformed_moa_result_is_a_protocol_error(served, mutate):
    db, _ = served
    result, frames = encode_result(
        db.query("map[THIS.d](Atoms);", materialize=False).value, True
    )
    mutate(result)
    with pytest.raises(ProtocolError):
        decode_result(result, frames)
