"""Client library for the Mirror query service (sync + asyncio).

Both clients speak the protocol of :mod:`repro.service.protocol` and
inherit one surface, each method written once and built from its op's
row of :data:`repro.service.ops.OPS`::

    with ServiceClient("127.0.0.1", port) as c:
        c.define("define Nums as SET<Atomic<int>>;")
        c.insert("Nums", [3, 1, 2])
        result = c.mil('bat("Nums.__value__").tsort;')
        values = result.tail            # NILs come back as None

    async with AsyncServiceClient("127.0.0.1", port) as c:
        result = await c.moa("count(Nums);")

Query results arrive as :class:`~repro.service.protocol.BATResult`
(columnar, NIL-as-``None``), scalars, or nested Python values.  Service
rejections raise :class:`ServiceError` carrying the wire error code
(``rate``, ``busy``, ``guard``, ``timeout``, ...) so callers can
distinguish back-off conditions from real failures.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional

from repro.service.ops import OPS
from repro.service.protocol import (
    decode_result,
    pack_message,
    read_message,
    read_message_async,
)


class ServiceError(Exception):
    """An ``{"ok": false}`` response; ``code`` is the wire error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


def _unwrap(message, key: Optional[str] = None) -> Any:
    """The decoded result of a ``(header, frames)`` response -- its
    *key* entry if given -- or the :class:`ServiceError` it carries."""
    header, frames = message
    if not header.get("ok"):
        error = header.get("error") or {}
        raise ServiceError(
            error.get("code", "protocol"), error.get("message", "unknown error")
        )
    value = decode_result(header["result"], frames)
    return value if key is None else value[key]


def session_ref(name: str) -> Dict[str, str]:
    """A Moa parameter referring to a server-side session binding
    created with :meth:`ServiceClient.bind_stats`."""
    return {"$session": name}


class _Surface:
    """The service surface, written once for both clients.  Each method
    builds its request from the op's :data:`~repro.service.ops.OPS` row
    and hands it to the transport's ``_call(header, result_key)``:
    :class:`ServiceClient` returns the value, :class:`AsyncServiceClient`
    an awaitable of it."""

    def _op(self, op: str, **fields: Any):
        row = OPS[op]
        header: Dict[str, Any] = {"op": op}
        for field in row.fields:
            if field.required or fields.get(field.name) is not None:
                header[field.name] = fields.get(field.name)
        return self._call(header, row.result)

    def request(self, header: Dict[str, Any]):
        """Send one request header; its decoded result."""
        return self._call(header, None)

    def ping(self):
        return self._op("ping")

    def status(self):
        return self._op("status")

    def mil(self, source: str, *, binary: bool = True, deadline_ms: Optional[float] = None):
        """Run a MIL program; *deadline_ms* replaces the service's
        default per-query deadline."""
        return self._op("mil", q=source, binary=binary, deadline_ms=deadline_ms)

    def moa(
        self,
        source: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        binary: bool = True,
        deadline_ms: Optional[float] = None,
    ):
        return self._op(
            "moa", q=source, binary=binary, params=params or None, deadline_ms=deadline_ms
        )

    def define(self, ddl: str):
        return self._op("define", ddl=ddl)

    def insert(self, collection: str, values: List[Any]):
        """Insert *values*; the new cardinality -- or, inside an open
        transaction (:meth:`begin`), the staged row count."""
        return self._op("insert", collection=collection, values=values)

    def count(self, collection: str):
        return self._op("count", collection=collection)

    def delete(self, collection: str, where: Any = None):
        """Delete the tuples matching *where* (an object of field
        equalities, or a bare literal for ``SET<Atomic>`` elements;
        ``None`` deletes all).  Returns the mutation result; inside an
        open transaction (:meth:`begin`) the op is staged."""
        return self._op("delete", collection=collection, where=where)

    def update(self, collection: str, assignments: Any, where: Any = None):
        """Patch the tuples matching *where* with *assignments* (an
        object of field values, or a bare literal for ``SET<Atomic>``).
        Returns the mutation result; staged inside a transaction."""
        return self._op("update", collection=collection, set=assignments, where=where)

    def begin(self):
        """Open a transaction: pins one catalog epoch for this
        session's statements until :meth:`commit`/:meth:`abort`.
        Returns the pinned epoch."""
        return self._op("begin")

    def commit(self):
        """Commit the open transaction: publishes every staged mutation
        and returns the commit result with its ``applied`` list."""
        return self._op("commit")

    def abort(self):
        """Abort the open transaction; staged mutations are dropped."""
        return self._op("abort")

    def collections(self):
        return self._op("collections")

    def bind_stats(self, collection: str, attribute: str, name: str):
        """Bind collection statistics server-side under *name*; pass
        ``session_ref(name)`` as a Moa parameter to use them."""
        return self._op("stats", collection=collection, attribute=attribute, bind=name)


class ServiceClient(_Surface):
    """Blocking client over a plain TCP socket."""

    def __init__(self, host: str, port: int, *, timeout: Optional[float] = None):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        try:
            # The server greets with a hello carrying our session id.
            hello = _unwrap(read_message(self._read_exactly))
        except BaseException:
            self._file.close()
            self._sock.close()
            raise
        self.session_id = hello.get("session") if isinstance(hello, dict) else None

    def _read_exactly(self, n: int) -> bytes:
        data = self._file.read(n)
        return data if data is not None else b""

    def _call(self, header: Dict[str, Any], key: Optional[str]) -> Any:
        self._sock.sendall(pack_message(header))
        return _unwrap(read_message(self._read_exactly), key)

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._op("close")
        except (OSError, EOFError):
            pass
        finally:
            self._file.close()
            self._sock.close()
            self._sock = None  # type: ignore[assignment]

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServiceClient(_Surface):
    """Asyncio client over stream reader/writer pairs: the methods of
    :class:`ServiceClient`, each returning an awaitable."""

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader = None
        self._writer = None
        self.session_id: Optional[str] = None

    async def connect(self) -> "AsyncServiceClient":
        import asyncio

        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        try:
            hello = _unwrap(await read_message_async(self._reader))
        except BaseException:
            await self._release()
            raise
        self.session_id = hello.get("session") if isinstance(hello, dict) else None
        return self

    async def _call(self, header: Dict[str, Any], key: Optional[str]) -> Any:
        if self._writer is None:
            raise RuntimeError("client not connected; call connect()")
        self._writer.write(pack_message(header))
        await self._writer.drain()
        return _unwrap(await read_message_async(self._reader), key)

    async def _release(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass
        self._writer = None
        self._reader = None

    async def close(self) -> None:
        if self._writer is None:
            return
        try:
            await self._op("close")
        except (OSError, EOFError):
            pass
        finally:
            await self._release()

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
