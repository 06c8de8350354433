"""Per-connection sessions over one shared MirrorDBMS.

A :class:`Session` is what a connected client owns: a private *temp
namespace* layered over the shared :class:`~repro.monet.bbp
.BATBufferPool`, its own MIL interpreter bound to that namespace, a
registry of server-side parameter bindings (collection statistics are
bound once and referenced by name instead of crossing the wire per
query), a per-session token bucket, and the disconnect flag the
query checkpoints poll.

The namespace discipline follows the mobile-database survey's session
model: everything a session persists is *tentative* -- session
scratch, visible to that session only, mapped into the shared pool
under a mangled name, and dropped wholesale when the session ends.  A
temp never becomes shared data: shared collections change only through
the mutation ops (``insert``/``update``/``delete``, staged between
``begin`` and ``commit``), which serialize on the database's
``write_lock``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Set

from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError, TransactionError
from repro.monet.fragments import FragmentationPolicy
from repro.monet.mil import MILInterpreter
from repro.service.admission import TokenBucket


class _PrivateFirst:
    """The :class:`BATBufferPool` read surface over ``self._catalog``:
    a private name resolves to its mangled registration, any other name
    falls through to the shared catalog."""

    def _resolve(self, name: str) -> str:
        return self._mangle(name) if self._is_private(name) else name

    def is_fragmented(self, name: str) -> bool:
        return self._catalog.is_fragmented(self._resolve(name))

    def lookup(self, name: str):
        return self._catalog.lookup(self._resolve(name))

    def lookup_fragments(self, name: str, policy: Optional[FragmentationPolicy] = None):
        return self._catalog.lookup_fragments(self._resolve(name), policy)

    def exists(self, name: str) -> bool:
        return self._is_private(name) or self._catalog.exists(name)


class SessionNamespace(_PrivateFirst):
    """A session-private view of the shared pool.

    Reads (the surface the guard uses) try the session's private names
    first and fall back to the shared catalog.  A plan reads and writes
    through its :meth:`read_snapshot` view, whose writes (``persists``
    -> :meth:`_NamespaceSnapshot.register`) always land in the private
    namespace, so no session can clobber shared data or another
    session's temps.  Private names are mangled into the shared pool as
    ``@<session-id>:<name>`` -- one shared catalog (and its one lock)
    stays the single accounting point for memory.
    """

    def __init__(self, pool: BATBufferPool, session_id: str):
        self.pool = self._catalog = pool
        self.session_id = session_id
        self._names: Set[str] = set()
        self._lock = threading.Lock()

    def _mangle(self, name: str) -> str:
        return f"@{self.session_id}:{name}"

    def _is_private(self, name: str) -> bool:
        with self._lock:
            return name in self._names

    def read_snapshot(self) -> "_NamespaceSnapshot":
        """An epoch-pinned view of this namespace: shared names resolve
        against one :class:`~repro.monet.bbp.PoolSnapshot` for a whole
        plan, private names keep their mangling.  The MIL interpreter
        calls this once per plan."""
        return self.pinned_snapshot(self.pool.read_snapshot())

    def pinned_snapshot(self, pool_snapshot) -> "_NamespaceSnapshot":
        """Build the namespace view over an *already pinned* pool
        snapshot -- the transaction path uses this so every plan of an
        open transaction reads the begin-time epoch."""
        with self._lock:
            private = set(self._names)
        return _NamespaceSnapshot(self, pool_snapshot, private)

    def cleanup(self) -> int:
        """Drop every private registration; returns how many."""
        with self._lock:
            names, self._names = self._names, set()
        dropped = 0
        for name in names:
            try:
                self.pool.drop(self._mangle(name))
                dropped += 1
            except BBPError:  # already gone (concurrent cleanup)
                pass
        return dropped


class _NamespaceSnapshot(_PrivateFirst):
    """A plan-pinned view of a :class:`SessionNamespace`.

    Shared-name reads resolve against one epoch-stamped
    :class:`~repro.monet.bbp.PoolSnapshot` for the plan's whole
    lifetime, so a session's pipeline never observes a concurrent
    append/drop/commit mid-plan.  Private names stay mangled; writes
    the plan issues (``persists``/``unpersists``) go through the
    snapshot's write-through path, landing in the live pool *and* the
    live namespace so they survive the plan.
    """

    def __init__(
        self, namespace: SessionNamespace, snapshot, private: Set[str]
    ):
        self._namespace = namespace
        self._catalog = snapshot
        self._private = private
        self.epoch = getattr(snapshot, "epoch", None)

    def read_snapshot(self) -> "_NamespaceSnapshot":
        return self

    def _mangle(self, name: str) -> str:
        return self._namespace._mangle(name)

    def _is_private(self, name: str) -> bool:
        return name in self._private

    def register(self, name: str, bat, *, replace: bool = True):
        return self._register_private(self._catalog.register, name, bat)

    def register_fragmented(self, name: str, fragmented, *, replace: bool = True):
        return self._register_private(self._catalog.register_fragmented, name, fragmented)

    def _register_private(self, register, name: str, value):
        # Always replacing: a private name is this session's own.
        result = register(self._mangle(name), value, replace=True)
        self._private.add(name)
        with self._namespace._lock:
            self._namespace._names.add(name)
        return result

    def drop(self, name: str) -> None:
        if name in self._private:
            self._catalog.drop(self._mangle(name))
            self._private.discard(name)
            with self._namespace._lock:
                self._namespace._names.discard(name)
            return
        if self._catalog.exists(name) or self._namespace.pool.exists(name):
            raise BBPError(
                f"cannot drop shared BAT {name!r} from a session "
                "(sessions own only their temp namespace)"
            )
        raise BBPError(f"cannot drop unknown BAT {name!r}")

    def new_oids(self, count: int) -> int:
        return self._catalog.new_oids(count)


class Session:
    """One connected client: namespace + interpreter + control state."""

    def __init__(
        self,
        session_id: str,
        db,
        *,
        rate_limiter=None,
    ):
        self.session_id = session_id
        self.db = db
        self.namespace = SessionNamespace(db.pool, session_id)
        self.mil = MILInterpreter(
            self.namespace, fragment_policy=db.executor.fragment_policy
        )
        self.rate_limiter: Optional[TokenBucket] = rate_limiter
        #: Server-side parameter bindings (e.g. CollectionStats) that
        #: Moa queries reference as ``{"$session": name}``.
        self.bindings: Dict[str, Any] = {}
        #: Set when the connection goes away; polled by the per-query
        #: checkpoint so an in-flight plan aborts between statements.
        self.disconnected = threading.Event()
        #: The session's open :class:`~repro.core.mirror.Transaction`,
        #: if any (one at a time; wire ops begin/commit/abort manage it).
        self.transaction = None

    # -- transactions --------------------------------------------------
    def begin(self):
        """Open a transaction on the shared database: one pinned epoch
        for every statement until commit/abort.  One open transaction
        per session."""
        if self.open_transaction() is not None:
            raise TransactionError(
                f"session {self.session_id} already has an open transaction"
            )
        self.transaction = self.db.begin()
        return self.transaction

    def open_transaction(self):
        """The session's open transaction, or ``None``."""
        txn = self.transaction
        if txn is not None and txn.state == "open":
            return txn
        return None

    def end_transaction(self, outcome: str):
        """``commit`` or ``abort`` the open transaction; returns its
        :class:`~repro.core.mirror.MutationResult` summary."""
        txn = self.open_transaction()
        if txn is None:
            raise TransactionError(
                f"session {self.session_id} has no open transaction"
            )
        result = getattr(txn, outcome)()
        self.transaction = None
        return result

    def mil_reader(self):
        """The catalog reader the next MIL plan should pin: the open
        transaction's begin-time snapshot (namespace-wrapped) when one
        exists, else ``None`` (a fresh per-plan snapshot)."""
        txn = self.open_transaction()
        if txn is None:
            return None
        return self.namespace.pinned_snapshot(txn.snapshot)

    def close(self) -> int:
        """Mark disconnected, abort any open transaction, and reclaim
        the temp namespace."""
        self.disconnected.set()
        txn = self.open_transaction()
        if txn is not None:
            txn.abort()
        self.transaction = None
        self.bindings.clear()
        return self.namespace.cleanup()
