"""End-to-end service tests over real sockets: queries, rejection
paths, cancellation, session cleanup, and the 16-client smoke."""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import socket
import threading
import time
import warnings

import pytest

from repro.service import (
    AsyncServiceClient,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.protocol import BATResult, pack_message, read_message

#: A MIL program of many cheap statements: long enough wall-clock to
#: overlap other requests, with checkpoints between every statement.
SLOW_MIL = "\n".join(
    [f'x{i} := tsort(bat("big"));' for i in range(12)] + ["count(x11);"]
)

POINT_MIL = 'bat("Nums.__value__").select(2, 7);'


@contextlib.contextmanager
def raw_connection(svc):
    """A bare socket past the hello: ``send(header)`` returns the reply
    header, so requests a client would never build can be sent."""
    sock = socket.create_connection(svc.address, timeout=30)
    reader = sock.makefile("rb")
    try:
        read_message(reader.read)

        def send(header):
            sock.sendall(pack_message(header))
            return read_message(reader.read)[0]

        yield send
    finally:
        reader.close()
        sock.close()


@contextlib.contextmanager
def hang_up_before_hello():
    """A listener that accepts one connection and closes it before any
    hello; yields its port and the ResourceWarnings raised until every
    object the body left behind is collected."""
    listener = socket.create_server(("127.0.0.1", 0))
    acceptor = threading.Thread(
        target=lambda: listener.accept()[0].close(), daemon=True
    )
    acceptor.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            yield listener.getsockname()[1], caught
            gc.collect()
    finally:
        acceptor.join(timeout=10)
        listener.close()
    assert not acceptor.is_alive()


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestQueries:
    def test_mil_roundtrip(self, service):
        with ServiceClient(*service.address) as c:
            result = c.mil('bat("Nums.__value__").tsort;')
            assert isinstance(result, BATResult)
            assert result.tail == [None, 1, 2, 3, 5, 7]

    def test_moa_roundtrip(self, service):
        with ServiceClient(*service.address) as c:
            assert c.moa("count(Nums);") == 6

    def test_moa_with_list_param(self, service):
        with ServiceClient(*service.address) as c:
            assert c.moa("sum(vals);", {"vals": [1, 2, 3]}) == 6

    def test_define_insert_count(self, service):
        with ServiceClient(*service.address) as c:
            assert c.define("define Words as SET<Atomic<str>>;") == ["Words"]
            assert c.insert("Words", ["ape", "bat"]) == 2
            assert c.count("Words") == 2
            assert "Words" in c.collections()

    def test_runtime_error_keeps_connection(self, service):
        with ServiceClient(*service.address) as c:
            with pytest.raises(ServiceError) as info:
                c.mil('bat("no-such-bat");')
            assert info.value.code == "runtime"
            # Connection survives the failure.
            assert c.count("Nums") == 6

    def test_guard_rejection_codes(self, service):
        with ServiceClient(*service.address) as c:
            with pytest.raises(ServiceError) as info:
                c.mil("not mil at all ((;")
            assert info.value.code == "malformed"

    def test_unknown_pump_is_malformed_before_admission(self, service):
        """``{nope}`` parses, so only the builtin table can refuse it:
        the guard does, and the plan never takes an admission slot."""
        with ServiceClient(*service.address) as c:
            with pytest.raises(ServiceError) as info:
                c.mil('{nope}(bat("Nums.__value__"), bat("Nums.__value__"));')
            assert info.value.code == "malformed"
            status = service.service.status()
            assert status["queries_served"] == status["peak_inflight"] == 0

    def test_async_client(self, service):
        async def scenario():
            async with AsyncServiceClient(*service.address) as c:
                assert await c.count("Nums") == 6
                result = await c.mil(POINT_MIL)
                return result.tail

        tails = asyncio.run(scenario())
        assert sorted(tails) == [2, 3, 5, 7]

    def test_stats_binding_and_session_param(self, service):
        with ServiceClient(*service.address) as c:
            c.define(
                "define Lib as SET<TUPLE<Atomic<URL>: source, "
                "CONTREP<Text>: annotation>>;"
            )
            c.insert(
                "Lib",
                [
                    {"source": "u1", "annotation": "red sunset sea"},
                    {"source": "u2", "annotation": "green forest"},
                ],
            )
            c.bind_stats("Lib", "annotation", "st")
            out = c.moa(
                "map[sum(THIS)](map[getBL(THIS.annotation, q, st)](Lib));",
                {"q": ["sunset"], "st": {"$session": "st"}},
            )
            assert len(out) == 2
            assert out[0] > out[1]

    def test_unbound_session_param_rejected(self, service):
        with ServiceClient(*service.address) as c:
            with pytest.raises(ServiceError) as info:
                c.moa("count(Nums);", {"st": {"$session": "never-bound"}})
            assert info.value.code == "protocol"

    def test_mil_response_carries_epoch(self, service, db):
        with ServiceClient(*service.address) as client:
            first = client.mil('bat("Nums.__value__");')
            assert first.epoch is not None
            db.pool.append("Nums.__value__", tails=[11])
            second = client.mil('bat("Nums.__value__");')
            assert second.epoch > first.epoch
            assert second.tail[-1] == 11


class TestRejectionPaths:
    def test_rate_limit(self, db):
        config = ServiceConfig(rate=1.0, burst=1.0)
        with ServiceThread(db, config) as svc:
            with ServiceClient(*svc.address) as c:
                assert c.count("Nums") == 6  # burst token
                with pytest.raises(ServiceError) as info:
                    c.count("Nums")
                assert info.value.code == "rate"
                # Control ops are not rate limited.
                c.ping()

    def test_rate_is_per_session(self, db):
        config = ServiceConfig(rate=1.0, burst=1.0)
        with ServiceThread(db, config) as svc:
            with ServiceClient(*svc.address) as a, ServiceClient(
                *svc.address
            ) as b:
                assert a.count("Nums") == 6
                assert b.count("Nums") == 6  # b has its own bucket

    def test_busy_rejection_when_queue_full(self, db):
        config = ServiceConfig(max_inflight=1, max_queue=0)
        with ServiceThread(db, config) as svc:
            with ServiceClient(*svc.address) as slow, ServiceClient(
                *svc.address
            ) as fast:
                errors = []

                def run_slow():
                    try:
                        slow.mil(SLOW_MIL)
                    except ServiceError as exc:  # pragma: no cover
                        errors.append(exc)

                t = threading.Thread(target=run_slow)
                t.start()
                # Wait until the slow query owns the only slot.
                assert wait_until(
                    lambda: svc.service.admission.inflight >= 1
                )
                with pytest.raises(ServiceError) as info:
                    fast.mil(POINT_MIL)
                assert info.value.code == "busy"
                t.join()
                assert not errors
                # The slot frees up afterwards.
                assert isinstance(fast.mil(POINT_MIL), BATResult)

    def test_queue_deadline_rejection(self, db):
        config = ServiceConfig(
            max_inflight=1, max_queue=4, queue_timeout=0.05
        )
        with ServiceThread(db, config) as svc:
            with ServiceClient(*svc.address) as slow, ServiceClient(
                *svc.address
            ) as queued:
                t = threading.Thread(target=lambda: slow.mil(SLOW_MIL))
                t.start()
                assert wait_until(
                    lambda: svc.service.admission.inflight >= 1
                )
                with pytest.raises(ServiceError) as info:
                    queued.mil(POINT_MIL)
                assert info.value.code == "deadline"
                t.join()

    def test_query_deadline_aborts_mid_plan(self, service):
        with ServiceClient(*service.address) as c:
            with pytest.raises(ServiceError) as info:
                c.mil(SLOW_MIL, deadline_ms=0)
            assert info.value.code == "timeout"
            # The worker slot came back: the next query runs fine.
            assert isinstance(c.mil(POINT_MIL), BATResult)

    def test_request_cannot_disable_the_deadline(self, db):
        """``deadline_ms`` replaces the default deadline with a finite
        number >= 0: NaN/Infinity (which Python's json emits and reads)
        no longer switch it off, and a large finite value still runs."""
        with ServiceThread(db, ServiceConfig(deadline=0.0)) as svc:
            with raw_connection(svc) as send:
                for deadline in (math.nan, math.inf, -1, True, "5", 10**400):
                    reply = send({"op": "mil", "q": SLOW_MIL, "deadline_ms": deadline})
                    assert reply["error"]["code"] == "protocol", deadline
                reply = send({"op": "mil", "q": SLOW_MIL})
                assert reply["error"]["code"] == "timeout"
                reply = send({"op": "mil", "q": POINT_MIL, "deadline_ms": 1e12})
                assert reply["ok"] and reply["result"]["count"] == 4

    def test_binary_flag_is_bool_only(self, service):
        with raw_connection(service) as send:
            reply = send({"op": "mil", "q": POINT_MIL, "binary": "false"})
            assert reply["error"] == {
                "code": "protocol",
                "message": "request field 'binary' must be true or false",
            }

    def test_legacy_commit_fields_never_commit(self, service, db):
        """The removed temp-promotion dialect (``commit`` with ``name``)
        is refused by the unknown-field rule -- it must not commit the
        session's open transaction."""
        with raw_connection(service) as send:
            assert send({"op": "begin"})["ok"]
            assert send({"op": "insert", "collection": "Nums", "values": [8]})["ok"]
            reply = send({"op": "commit", "name": "x", "as": "y"})
            assert reply["error"] == {
                "code": "protocol",
                "message": "commit takes no field 'name'",
            }
            assert db.count("Nums") == 6
            assert send({"op": "abort"})["result"]["count"] == 1
        assert db.count("Nums") == 6


class TestSessionLifecycle:
    def test_cleanup_on_clean_close(self, service, db):
        with ServiceClient(*service.address) as c:
            sid = c.session_id
            c.mil('persists("scratch", bat("Nums.__value__").sort);')
            assert db.pool.exists(f"@{sid}:scratch")
        assert wait_until(lambda: not db.pool.exists(f"@{sid}:scratch"))
        assert wait_until(lambda: sid not in service.service.sessions)

    def test_cleanup_on_abrupt_disconnect(self, service, db):
        c = ServiceClient(*service.address)
        sid = c.session_id
        c.mil('persists("scratch", bat("Nums.__value__").sort);')
        # Vanish without a close op (shutdown drops the connection even
        # though the makefile() wrapper still holds a dup'd fd).
        c._sock.shutdown(socket.SHUT_RDWR)
        c._sock.close()
        assert wait_until(lambda: not db.pool.exists(f"@{sid}:scratch"))
        assert wait_until(lambda: sid not in service.service.sessions)

    def test_disconnect_mid_query_cancels_plan(self, service, db):
        """Closing the socket while a long plan runs must abort it at
        the next checkpoint and reclaim the session."""
        sock = socket.create_connection(service.address)
        reader = sock.makefile("rb")
        read_message(reader.read)  # the hello
        sid = sorted(service.service.sessions)[-1]
        sock.sendall(pack_message({"op": "mil", "q": SLOW_MIL}))
        assert wait_until(lambda: service.service.admission.inflight >= 1)
        started = time.monotonic()
        sock.shutdown(socket.SHUT_RDWR)
        sock.close()
        # The session must be reclaimed well before the full plan
        # could have finished sorting 12 times.
        assert wait_until(lambda: sid not in service.service.sessions)
        assert service.service.sessions.get(sid) is None
        assert wait_until(lambda: service.service.admission.inflight == 0)
        assert time.monotonic() - started < 30

    def test_failed_hello_closes_the_sync_client(self):
        with hang_up_before_hello() as (port, caught):
            with pytest.raises(EOFError):
                ServiceClient("127.0.0.1", port, timeout=10)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_failed_hello_closes_the_async_client(self):
        async def connect(port):
            await AsyncServiceClient("127.0.0.1", port).connect()

        with hang_up_before_hello() as (port, caught):
            with pytest.raises(EOFError):
                asyncio.run(connect(port))
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_sessions_get_distinct_ids(self, service):
        with ServiceClient(*service.address) as a, ServiceClient(
            *service.address
        ) as b:
            assert a.session_id != b.session_id


class TestSmoke:
    def test_sixteen_concurrent_clients_clean_shutdown(self, db):
        """The CI smoke: 16 clients hammer point lookups concurrently;
        the service answers all of them, shuts down cleanly, and leaks
        neither threads nor sessions nor temp BATs."""
        before = {t.name for t in threading.enumerate()}
        config = ServiceConfig(max_inflight=4, max_queue=64, queue_timeout=10)
        results: list = []
        errors: list = []
        with ServiceThread(db, config) as svc:
            def client_run(k: int):
                try:
                    with ServiceClient(*svc.address) as c:
                        c.mil(
                            f'persists("mine", bat("Nums.__value__")'
                            f".select({k % 3}, 7));"
                        )
                        for _ in range(5):
                            out = c.mil(POINT_MIL)
                            results.append(sorted(out.tail))
                        c.moa("count(Nums);")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_run, args=(k,))
                for k in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 16 * 5
            assert all(r == [2, 3, 5, 7] for r in results)
            status = svc.service.status()
            assert status["queries_served"] >= 16 * 7
        # Clean shutdown: no service/worker threads survive, no
        # sessions or session temps linger in the shared pool.
        assert wait_until(
            lambda: not any(
                t.name.startswith(("mirror-query", "mirror-service"))
                for t in threading.enumerate()
            )
        )
        after = {t.name for t in threading.enumerate()}
        assert after <= before | {"MainThread"}
        assert not [n for n in db.pool._all_names() if n.startswith("@")]

    def test_orb_registration(self, db):
        from repro.daemons.orb import Orb

        orb = Orb()
        with ServiceThread(db, ServiceConfig(), orb=orb) as svc:
            assert "query-service" in orb.names()
            report = orb.invoke("query-service", "status", (), {})
            assert report["kind"] == "query-service"
            assert svc.service is not None
        assert "query-service" not in orb.names()
