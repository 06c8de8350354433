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
* every request is answered from its row of
  :data:`repro.service.ops.OPS`: fields validated first, then the
  row's guard hook (:class:`~repro.service.guard.QueryGuard`) before
  the request costs an executor slot, then its handler.

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
from repro.service.ops import parse_request
from repro.service.protocol import (
    ProtocolError,
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
    disables the default per-query deadline.  A request's
    ``deadline_ms`` *replaces* the default for that query -- it may
    raise it as well as lower it."""

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
                response = await self._dispatch(session, header, read_task)
                if response is None:
                    break  # disconnected mid-query
                writer.write(response)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if header.get("op") == "close":
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
        """Answer one request from its :data:`~repro.service.ops.OPS`
        row; ``None`` when the client disconnected mid-query."""
        request_id = header.get("id")
        try:
            row, request = parse_request(header)
            if not row.admitted:
                return ok_response(*row.handler(self, session, request, None), request_id)
            # Fields, rate limit, guard, then admission: the cheap
            # checks run first so a rejected request never costs
            # catalog work or a queue slot.
            if session.rate_limiter is not None and not session.rate_limiter.try_acquire():
                return error_response(
                    "rate",
                    f"session {session.session_id} exceeded its query rate",
                    request_id,
                )
            checkpoint = self._make_checkpoint(session, request.get("deadline_ms"))
            if row.guard is not None:
                row.guard(self, session, request)
        except GuardRejection as exc:
            return error_response(exc.code, str(exc), request_id)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return error_response("protocol", str(exc), request_id)

        try:
            await self.admission.acquire()
        except AdmissionReject as exc:
            return error_response(exc.code, str(exc), request_id)
        try:
            loop = asyncio.get_running_loop()
            work_future = loop.run_in_executor(
                self._pool, row.handler, self, session, request, checkpoint
            )
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

    def _make_checkpoint(self, session: Session, deadline_ms: Optional[float]):
        seconds = (
            deadline_ms / 1000.0
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
