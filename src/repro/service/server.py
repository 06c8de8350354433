"""The asyncio front door: a concurrent multi-session query service.

``MirrorService`` listens on a TCP port speaking the length-prefixed
protocol of :mod:`repro.service.protocol` and drives one shared,
thread-safe :class:`~repro.core.mirror.MirrorDBMS`:

* every connection owns a :class:`~repro.service.session.Session`
  (private temp namespace, server-side parameter bindings, token
  bucket);
* query execution happens on a bounded thread pool sized to the
  admission controller's ``max_inflight``, so a heavy sort occupies
  one slot while point lookups keep flowing through the rest;
* each admitted query gets a deadline/cancellation *checkpoint*
  threaded into the MIL interpreter loop -- a disconnected client or
  an expired deadline aborts the plan between statements;
* requests are vetted by the :class:`~repro.service.guard.QueryGuard`
  before they cost an executor slot.

The connection handler reads the *next* message concurrently with the
in-flight query, which gives both request pipelining and prompt
disconnect detection (EOF mid-query trips the session's cancellation
flag).

The service registers itself with the daemon federation's ORB under
``config.daemon_name`` (the paper's architecture: every server-side
component is a daemon with a resolvable name and a ``status()``
method).

``ServiceThread`` wraps the event loop in a background thread for
synchronous embeddings -- tests, benchmarks, and the README quickstart
use it.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.mirror import MirrorDBMS
from repro.moa.errors import MoaError
from repro.monet.errors import MILCancelled, MonetError, MutationError
from repro.service.admission import AdmissionController, AdmissionReject, TokenBucket
from repro.service.guard import GuardLimits, GuardRejection, QueryGuard
from repro.service.protocol import (
    ProtocolError,
    encode_result,
    error_response,
    ok_response,
    read_message_async,
)
from repro.service.session import Session


@dataclass
class ServiceConfig:
    """Service knobs, set per service by its constructor's caller (see
    README.md "Quickstart: the query service").  The kernel's physical
    knobs are a separate record, :mod:`repro.monet.tuning`.

    ``rate=None`` disables per-session rate limiting; ``deadline=None``
    disables the default per-query deadline (a request may still set
    ``deadline_ms`` per call)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the service
    max_inflight: int = 4
    max_queue: int = 32
    queue_timeout: float = 5.0
    rate: Optional[float] = None  # queries/second per session
    burst: Optional[float] = None  # bucket depth (default 2 * rate)
    deadline: Optional[float] = 30.0  # seconds per query
    guard: GuardLimits = field(default_factory=GuardLimits)
    daemon_name: str = "query-service"


class MirrorService:
    """Asyncio TCP server multiplexing sessions over one MirrorDBMS."""

    def __init__(
        self,
        db: MirrorDBMS,
        config: Optional[ServiceConfig] = None,
        orb=None,
    ):
        self.db = db
        self.config = config or ServiceConfig()
        self.orb = orb
        self.guard = QueryGuard(self.config.guard)
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.max_queue,
            self.config.queue_timeout,
        )
        self.sessions: Dict[str, Session] = {}
        self.queries_served = 0
        self._session_counter = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        return (self.config.host, self.port)

    async def start(self) -> "MirrorService":
        if self._server is not None:
            raise RuntimeError("service already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="mirror-query",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.orb is not None:
            self.orb.register(self.config.daemon_name, self)
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, abort in-flight plans via
        their checkpoints, reclaim every session, drain the executor."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self.sessions.values()):
            session.disconnected.set()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        for task in connections:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for session in list(self.sessions.values()):
            session.close()
        self.sessions.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.orb is not None:
            try:
                self.orb.unregister(self.config.daemon_name)
            except Exception:
                pass
        self._server = None

    def status(self) -> Dict[str, Any]:
        """Daemon-style health report (remotely callable via the ORB)."""
        return {
            "name": self.config.daemon_name,
            "kind": "query-service",
            "sessions": len(self.sessions),
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "peak_inflight": self.admission.peak_inflight,
            "rejected_busy": self.admission.rejected_busy,
            "rejected_deadline": self.admission.rejected_deadline,
            "queries_served": self.queries_served,
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _new_session(self) -> Session:
        sid = f"s{next(self._session_counter)}"
        bucket = TokenBucket(self.config.rate, self.config.burst)
        session = Session(sid, self.db, rate_limiter=bucket)
        self.sessions[sid] = session
        return session

    async def _handle_connection(self, reader, writer) -> None:
        if self._closing:
            writer.close()
            return
        task = asyncio.current_task()
        self._connections.add(task)
        session = self._new_session()
        read_task: Optional[asyncio.Task] = None
        try:
            writer.write(
                ok_response({"kind": "hello", "session": session.session_id}, [])
            )
            await writer.drain()
            read_task = asyncio.ensure_future(read_message_async(reader))
            while True:
                try:
                    header, frames = await read_task
                except (EOFError, ConnectionError, asyncio.IncompleteReadError):
                    break
                except ProtocolError as exc:
                    writer.write(error_response("protocol", str(exc)))
                    await writer.drain()
                    break
                read_task = asyncio.ensure_future(read_message_async(reader))
                if header.get("op") == "close":
                    writer.write(
                        ok_response({"kind": "bye"}, [], header.get("id"))
                    )
                    await writer.drain()
                    break
                response = await self._dispatch(session, header, read_task)
                if response is None:
                    break  # disconnected mid-query
                writer.write(response)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown
        finally:
            if read_task is not None and not read_task.done():
                read_task.cancel()
                try:
                    await read_task
                except (asyncio.CancelledError, Exception):
                    pass
            session.close()
            self.sessions.pop(session.session_id, None)
            writer.close()
            try:
                # Suppressing CancelledError here is deliberate: a
                # shutdown-time cancel may land while we drain the
                # transport, and there is no work left to abandon.
                await writer.wait_closed()
            except BaseException:
                pass
            # Leave the connection set last: stop() must be able to
            # await this task until the moment it has nothing left to do.
            self._connections.discard(task)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, session: Session, header: Dict[str, Any], read_task: asyncio.Task
    ) -> Optional[bytes]:
        op = header.get("op")
        request_id = header.get("id")
        if op == "ping":
            return ok_response(
                {"kind": "pong", "session": session.session_id}, [], request_id
            )
        if op == "status":
            return ok_response(
                {"kind": "status", "status": self.status()}, [], request_id
            )
        if op not in ("mil", "moa", "define", "insert", "update", "delete",
                      "count", "stats", "collections", "begin", "commit",
                      "abort"):
            return error_response("protocol", f"unknown op {op!r}", request_id)

        # Rate limit, then guard, then admission: the cheap checks run
        # first so a rejected request never costs catalog work or a
        # queue slot.
        if session.rate_limiter is not None and not session.rate_limiter.try_acquire():
            return error_response(
                "rate",
                f"session {session.session_id} exceeded its query rate",
                request_id,
            )
        try:
            work = self._prepare_work(session, op, header)
        except GuardRejection as exc:
            return error_response(exc.code, str(exc), request_id)
        except (KeyError, TypeError, ValueError) as exc:
            return error_response("protocol", str(exc), request_id)

        try:
            await self.admission.acquire()
        except AdmissionReject as exc:
            return error_response(exc.code, str(exc), request_id)
        try:
            loop = asyncio.get_running_loop()
            work_future = loop.run_in_executor(self._pool, work)
            # Watch the connection while the query runs: EOF trips the
            # session's cancellation flag so the plan aborts at its
            # next checkpoint; a complete message is a pipelined
            # request the main loop picks up after this response.
            while not work_future.done():
                waiters = {work_future}
                if not read_task.done():
                    waiters.add(read_task)
                done, _ = await asyncio.wait(
                    waiters, return_when=asyncio.FIRST_COMPLETED
                )
                if work_future in done:
                    break
                if read_task.done() and read_task.exception() is not None:
                    session.disconnected.set()
                    try:
                        await work_future
                    except Exception:
                        pass
                    return None
            result, frames = await work_future
            session.queries += 1
            self.queries_served += 1
            return ok_response(result, frames, request_id)
        except MILCancelled as exc:
            return error_response(exc.reason, str(exc), request_id)
        except MutationError as exc:
            return error_response("mutation", str(exc), request_id)
        except (MonetError, MoaError) as exc:
            return error_response("runtime", str(exc), request_id)
        except Exception as exc:  # defensive: never drop the connection
            return error_response(
                "runtime", f"{type(exc).__name__}: {exc}", request_id
            )
        finally:
            self.admission.release()

    def _prepare_work(self, session: Session, op: str, header: Dict[str, Any]):
        """Validate the request and build the blocking closure that the
        executor thread will run.  Raises GuardRejection/KeyError/
        TypeError for malformed requests (mapped by the caller)."""
        binary = bool(header.get("binary", True))
        checkpoint = self._make_checkpoint(session, header)
        if op == "mil":
            source = _require_str(header, "q")
            self.guard.check_mil(source, session.namespace)

            def run_mil():
                outcome = session.mil.run(
                    source, checkpoint=checkpoint, reader=session.mil_reader()
                )
                result, frames = encode_result(outcome.value, binary)
                if outcome.epoch is not None:
                    # The catalog epoch the plan's snapshot was pinned
                    # at; the write-path differential harness keys
                    # serial replays on it.
                    result["epoch"] = outcome.epoch
                return result, frames

            return run_mil
        if op == "moa":
            source = _require_str(header, "q")
            self.guard.check_moa(source, self.db.pool, self.db.schema)
            params = self._resolve_params(session, header.get("params") or {})

            def run_moa():
                txn = session.open_transaction()
                outcome = self.db.query(
                    source,
                    params,
                    checkpoint=checkpoint,
                    reader=txn.snapshot if txn is not None else None,
                )
                result, frames = encode_result(outcome.value, binary)
                if outcome.epoch is not None:
                    result["epoch"] = outcome.epoch
                return result, frames

            return run_moa
        if op == "define":
            ddl = _require_str(header, "ddl")
            return lambda: (
                {"kind": "defined", "names": self.db.define(ddl)},
                [],
            )
        if op == "insert":
            name = _require_str(header, "collection")
            values = header.get("values")
            if not isinstance(values, list):
                raise TypeError("insert needs a values list")

            def run_insert():
                txn = session.open_transaction()
                if txn is not None:
                    staged = txn.insert(name, values)
                    return _mutation_result(staged, staged=True), []
                count = self.db.insert(name, values)
                return {
                    "kind": "count",
                    "count": count,
                    "epoch": self.db.pool.epoch,
                }, []

            return run_insert
        if op == "delete":
            name = _require_str(header, "collection")
            where = _check_where(header.get("where"))

            def run_delete():
                txn = session.open_transaction()
                if txn is not None:
                    staged = txn.delete(name, where=where)
                    return _mutation_result(staged, staged=True), []
                count = self.db.delete(name, where=where)
                return {
                    "kind": "mutation",
                    "op": "delete",
                    "collection": name,
                    "count": count,
                    "epoch": self.db.pool.epoch,
                    "staged": False,
                }, []

            return run_delete
        if op == "update":
            name = _require_str(header, "collection")
            assignments = header.get("set")
            if isinstance(assignments, dict):
                if not assignments or not all(
                    isinstance(k, str) for k in assignments
                ):
                    raise TypeError(
                        "update 'set' object needs string field names"
                    )
            elif not _is_wire_literal(assignments):
                raise TypeError("update needs a 'set' object or literal")
            where = _check_where(header.get("where"))

            def run_update():
                txn = session.open_transaction()
                if txn is not None:
                    staged = txn.update(name, assignments, where=where)
                    return _mutation_result(staged, staged=True), []
                count = self.db.update(name, assignments, where=where)
                return {
                    "kind": "mutation",
                    "op": "update",
                    "collection": name,
                    "count": count,
                    "epoch": self.db.pool.epoch,
                    "staged": False,
                }, []

            return run_update
        if op == "count":
            name = _require_str(header, "collection")
            return lambda: (
                {"kind": "count", "count": self.db.count(name)},
                [],
            )
        if op == "begin":
            def run_begin():
                txn = session.begin()
                return {"kind": "begun", "epoch": txn.epoch}, []

            return run_begin
        if op == "abort":
            def run_abort():
                result = session.abort_transaction()
                return {
                    "kind": "aborted",
                    "count": result.count,
                    "epoch": result.epoch,
                }, []

            return run_abort
        if op == "commit":
            name = header.get("name")
            if name is None:
                # Transaction commit: publish every staged mutation.
                def run_commit():
                    result = session.commit_transaction()
                    return {
                        "kind": "committed",
                        "count": result.count,
                        "epoch": result.epoch,
                        "applied": [
                            {
                                "collection": r.collection,
                                "op": r.kind,
                                "count": r.count,
                                "epoch": r.epoch,
                            }
                            for r in result.applied
                        ],
                    }, []

                return run_commit
            # Legacy temp-promotion commit (deprecated dialect; see
            # Session.commit).
            name = _require_str(header, "name")
            shared = header.get("as")
            if shared is not None and not isinstance(shared, str):
                raise TypeError("commit 'as' must be a string")
            replace = bool(header.get("replace", False))
            return lambda: (
                {
                    "kind": "committed",
                    "name": session.commit(name, shared, replace=replace),
                },
                [],
            )
        if op == "collections":
            return lambda: (
                {"kind": "collections", "names": self.db.collections()},
                [],
            )
        if op == "stats":
            collection = _require_str(header, "collection")
            attribute = _require_str(header, "attribute")
            bind = _require_str(header, "bind")

            def bind_stats():
                session.bindings[bind] = self.db.stats(collection, attribute)
                return {"kind": "bound", "name": bind}, []

            return bind_stats
        raise TypeError(f"unhandled op {op!r}")  # pragma: no cover

    def _resolve_params(
        self, session: Session, raw: Dict[str, Any]
    ) -> Dict[str, Any]:
        if not isinstance(raw, dict):
            raise TypeError("params must be an object")
        params: Dict[str, Any] = {}
        for name, value in raw.items():
            if isinstance(value, dict) and "$session" in value:
                bound = value["$session"]
                if bound not in session.bindings:
                    raise KeyError(
                        f"no session binding named {bound!r}; bind it "
                        "with the stats op first"
                    )
                params[name] = session.bindings[bound]
            elif isinstance(value, list):
                params[name] = value
            else:
                raise TypeError(
                    f"parameter {name!r} must be a list or a "
                    '{"$session": name} reference'
                )
        return params

    def _make_checkpoint(self, session: Session, header: Dict[str, Any]):
        deadline_ms = header.get("deadline_ms")
        seconds = (
            float(deadline_ms) / 1000.0
            if deadline_ms is not None
            else self.config.deadline
        )
        expires = time.monotonic() + seconds if seconds is not None else None

        def checkpoint() -> None:
            if session.disconnected.is_set():
                raise MILCancelled(
                    f"session {session.session_id} disconnected",
                    reason="cancelled",
                )
            if expires is not None and time.monotonic() > expires:
                raise MILCancelled(
                    f"query exceeded its {seconds:.3f}s deadline",
                    reason="timeout",
                )

        return checkpoint


def _require_str(header: Dict[str, Any], key: str) -> str:
    value = header.get(key)
    if not isinstance(value, str) or not value:
        raise TypeError(f"request needs a non-empty string {key!r}")
    return value


def _is_wire_literal(value: Any) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def _check_where(where: Any) -> Any:
    """Validate a wire ``where`` clause: absent, a field-equality
    object, or a bare literal (matching ``SET<Atomic>`` elements)."""
    if where is None or _is_wire_literal(where):
        return where
    if isinstance(where, dict):
        for key, value in where.items():
            if not isinstance(key, str) or not _is_wire_literal(value):
                raise TypeError(
                    "where object must map string fields to literals"
                )
        return where
    raise TypeError("where must be an object of field equalities or a literal")


def _mutation_result(result, *, staged: bool) -> Dict[str, Any]:
    """Wire shape of a :class:`~repro.core.mirror.MutationResult`."""
    return {
        "kind": "mutation",
        "op": result.kind,
        "collection": result.collection,
        "count": result.count,
        "epoch": result.epoch,
        "staged": staged,
    }


# ----------------------------------------------------------------------
# Synchronous embedding
# ----------------------------------------------------------------------


class ServiceThread:
    """Run a MirrorService on a dedicated event-loop thread.

    The synchronous world's handle on the service::

        with ServiceThread(db, config) as svc:
            client = ServiceClient(*svc.address)

    ``stop()`` (or leaving the ``with`` block) performs the service's
    graceful shutdown and joins the thread.
    """

    def __init__(
        self,
        db: MirrorDBMS,
        config: Optional[ServiceConfig] = None,
        orb=None,
    ):
        self.db = db
        self.config = config or ServiceConfig()
        self.orb = orb
        self.service: Optional[MirrorService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="mirror-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.service = MirrorService(self.db, self.config, self.orb)
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.stop())
            loop.close()

    @property
    def address(self) -> Tuple[str, int]:
        if self.service is None:
            raise RuntimeError("service thread not started")
        return self.service.address

    @property
    def port(self) -> int:
        return self.address[1]

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
