"""The BAT Buffer Pool (BBP): Monet's catalog of named persistent BATs.

Every persistent BAT in a Monet database is registered in the BBP under
a logical name; MIL programs refer to persistent BATs with ``bat("name")``.
The Moa mapping layer stores each logical attribute under a dotted name
such as ``ImageLibrary.annotation.tf`` (see :mod:`repro.moa.mapping`).

Large attributes may be registered *fragmented*
(:class:`repro.monet.fragments.FragmentedBAT`): the pool keeps the
fragments as the unit of storage and persistence, while :meth:`lookup`
stays transparent by lazily coalescing to a monolithic BAT (cached).
Fragment-aware callers use :meth:`lookup_fragments` to run the
fragment-parallel operators of :mod:`repro.monet.fragments`.

Persistence is a directory with one ``.npz`` per BAT (one per fragment
for fragmented BATs) plus a JSON catalog.  It deliberately mirrors
Monet's "BBP dir + heap files" layout at a coarse granularity: enough
to round-trip a whole Mirror database.  A str column is stored as
Monet's string heap: codes in the column, each distinct value once in
a UTF-8 heap.  Files are read without pickle and validated; any other
layout is refused (columns in the :mod:`repro.monet.codec` format,
file and catalog rules above :func:`_read_catalog`).
The catalog holds no tuning: knobs come from the environment
(:mod:`repro.monet.tuning`), and a ``tuning`` key written by an older
build is ignored on load and dropped by the next save.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import itertools
import json
import os
import re
import shutil
import tempfile
import threading
import time
import warnings
import zipfile
import zlib
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.monet.atoms import OID_NIL, OidGenerator, atom
from repro.monet import codec as _codec
from repro.monet.bat import BAT, Column, StrColumn, column_to_list, empty_bat, rebase
from repro.monet.errors import (
    BBPError,
    KernelError,
    MonetError,
    UnknownMutationTarget,
)
from repro.monet import fragments as _fragments
from repro.monet import tuning as _tuning
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fragment_bat,
)


def __getattr__(name: str):
    # Forced vestige: ``bbp.WAL_GROUP_MS`` is a read-only view of the
    # live ``wal_group_ms`` knob, kept only because the frozen
    # benchmark's fingerprint (benchmarks/mirrorbench/harness.py, under
    # BENCHMARK.json ``paths``) reads it.  Assigning it steers nothing.
    if name == "WAL_GROUP_MS":
        return _tuning.current().wal_group_ms
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: glibc ``mallopt`` parameters.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def pin_allocator() -> bool:
    """Pin the C allocator's large-block policy at the state glibc's
    own dynamic adjustment converges to: blocks under 32 MiB come from
    the heap, and the heap top is returned to the system only past
    64 MiB free.  Returns whether it was set (glibc only; elsewhere a
    no-op).

    Every BAT operator allocates column-sized temporaries.  By default
    glibc maps each block above 128 KiB afresh (so an operator
    page-faults its result in on every call), raising that threshold
    only when a larger mapped block is freed and trimming the heap top
    past twice it -- so a query's cost depended on what the process
    happened to free earlier: on a 2-core host, a Sec. 3 query on the
    30 000-document ``text_rank`` collection took 22 page faults after
    a value-at-a-time load that had freed a 6 MiB block, and 400 (p90
    +28 %) after a columnar load that freed none that large.  The
    first pool of a process pins the policy."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    )


class BATBufferPool:
    """Mutable registry name -> BAT with save/load and an oid sequence.

    Names map to either a monolithic BAT or a fragmented one; the two
    sub-catalogs share one namespace.

    The pool is thread-safe: one re-entrant lock guards the two
    sub-catalogs, both view caches and the oid sequence, so concurrent
    sessions of the query service can register, drop and look up names
    against one shared pool.  Lookups hold the lock while a coalesced
    or split view materializes -- a concurrent re-register of the same
    name therefore either happens-before (the new view is built from
    the new registration) or happens-after (its invalidation evicts the
    view just cached); a stale view can never survive the
    invalidation.
    """

    def __init__(self):
        pin_allocator()
        self._bats: Dict[str, BAT] = {}
        self._fragmented: Dict[str, FragmentedBAT] = {}
        # Per-name view caches, invalidated on (re-)register and drop:
        # coalesced monolithic views of fragmented registrations
        # (lookup) and on-the-fly fragmentations of monolithic
        # registrations (lookup_fragments).  Without these, every MIL
        # reference to the same name would re-materialize the view.
        self._coalesced_views: Dict[str, BAT] = {}
        self._fragment_views: Dict[str, FragmentedBAT] = {}
        self._lock = threading.RLock()
        self.oid_generator = OidGenerator()
        #: Monotone catalog version, bumped under the lock by every
        #: register/append/drop (and by merge-daemon swaps).  A
        #: :class:`PoolSnapshot` is stamped with the epoch it froze, so
        #: two snapshots at the same epoch hold the same logical
        #: catalog.
        self._epoch = 0
        # Write-ahead state: set once the pool is attached to a
        # directory (save/load); mutations then log their intent to
        # wal.jsonl before publishing, and load() replays it.
        self._directory: Optional[Path] = None
        self._wal_file = None
        self._generation = 0
        self._arm_mutation_state()
        # Background delta-merge daemon (started on demand).
        self._merge_stop: Optional[threading.Event] = None
        self._merge_thread: Optional[threading.Thread] = None
        _sweep_spill_once()

    def _arm_mutation_state(self) -> None:
        """(Re-)create the unpicklable mutation machinery: per-name
        mutator locks, the group-commit queue state, and the WAL file
        mutex.  Counters survive pickling; locks and queues do not."""
        # One mutex per name serializes mutators of that name while the
        # pool lock stays free for readers and other names' mutators --
        # which is what lets concurrent WAL intents overlap into one
        # group-commit fsync.  Ordering discipline: name lock -> pool
        # lock -> WAL file mutex; the condition variable is taken on its
        # own (never while holding the pool lock's critical section
        # except for the rare re-log path, which is pool -> io only).
        self._name_locks: Dict[str, threading.Lock] = {}
        # Group-commit state, all guarded by the condition's mutex:
        # encoded intent lines queue up, the first waiter becomes the
        # leader, drains the queue after the wal_group_ms window, and
        # one fsync covers the whole batch.
        self._wal_cv = threading.Condition()
        self._wal_queue: List[str] = []
        self._wal_next_seq = 0
        self._wal_flushed_seq = -1
        self._wal_failed_seq = -1
        self._wal_failure: Optional[BaseException] = None
        self._wal_leader_active = False
        # The file handle itself (open/write/fsync/close) is guarded by
        # this mutex so the leader's batch write cannot race save()'s
        # truncation or a publish-time re-log.
        self._wal_io = threading.Lock()
        #: Observability counters for the group-commit bench row:
        #: fsyncs issued vs records logged (fsyncs/record < 1 under
        #: concurrent writers is the group commit working).
        self.wal_fsyncs = 0
        self.wal_records = 0

    def __getstate__(self):
        # Locks, file handles and threads do not pickle; a pool
        # crossing a marshalling boundary (the ORB deep-copies
        # arguments) re-arms fresh ones and loses the WAL attachment.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_wal_file"] = None
        state["_merge_stop"] = None
        state["_merge_thread"] = None
        for key in (
            "_name_locks",
            "_wal_cv",
            "_wal_queue",
            "_wal_next_seq",
            "_wal_flushed_seq",
            "_wal_failed_seq",
            "_wal_failure",
            "_wal_leader_active",
            "_wal_io",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self._lock = threading.RLock()
        self._arm_mutation_state()
        self.__dict__.update(state)

    @property
    def epoch(self) -> int:
        """Current catalog version (see :class:`PoolSnapshot`)."""
        with self._lock:
            return self._epoch

    @property
    def directory(self) -> Optional[Path]:
        """The directory the pool is attached to (its WAL lives there),
        or ``None`` before the first :meth:`save`/:meth:`load`."""
        return self._directory

    def _invalidate_views(self, name: str) -> None:
        self._coalesced_views.pop(name, None)
        self._fragment_views.pop(name, None)

    def _mutation_lock(self, name: str) -> threading.Lock:
        """The per-name mutator mutex (created on first use).  Catalog
        writers for one name serialize here *before* touching the pool
        lock, so the heavy parts of a mutation -- building the new
        value, waiting out the group-commit fsync -- overlap freely
        across names without ever blocking readers."""
        with self._lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = self._name_locks[name] = threading.Lock()
            return lock

    # ------------------------------------------------------------------
    # Catalog operations
    # ------------------------------------------------------------------
    def register(self, name: str, bat: BAT, *, replace: bool = False) -> BAT:
        """Register *bat* under *name* (Monet ``persists``)."""
        if not name:
            raise BBPError("BAT name must be non-empty")
        with self._mutation_lock(name):
            with self._lock:
                if name in self and not replace:
                    raise BBPError(f"BAT {name!r} already registered")
                self._fragmented.pop(name, None)
                self._invalidate_views(name)
                bat.name = name
                self._bats[name] = bat
                self._bump_oids(bat)
                self._epoch += 1
        return bat

    def create(self, bats: Dict[str, str], *, _log: bool = True) -> None:
        """Register one empty ``[void, atom]`` BAT per ``name: atom`` of
        *bats* (none registered yet) under one epoch bump.  Durable like
        :meth:`append`: on an attached pool one ``{"create": {...}}``
        record group-commits before the publish (re-logged if a save
        slid in between, as in :meth:`_publish_mutation`)."""
        fresh = {name: empty_bat("oid", atom) for name, atom in bats.items()}
        with ExitStack() as held:
            # Every name's mutator mutex (sorted; other holders take
            # one at a time), so no register can slip in between the
            # check and the publish.
            for name in sorted(fresh):
                held.enter_context(self._mutation_lock(name))
            with self._lock:
                taken = sorted(name for name in fresh if name in self)
                if taken:
                    raise BBPError(f"cannot create registered BAT(s) {taken}")
                generation = self._generation
            record = None
            if _log and self._directory is not None:
                record = {"generation": generation, "create": dict(bats)}
                self._wal_log(record)
            with self._lock:
                if record is not None and self._generation != record["generation"]:
                    self._wal_direct({**record, "generation": self._generation})
                for name, bat in fresh.items():
                    bat.name = name
                    self._bats[name] = bat
                    self._invalidate_views(name)
                self._epoch += 1

    def register_fragmented(
        self, name: str, fragmented: FragmentedBAT, *, replace: bool = False
    ) -> FragmentedBAT:
        """Register a fragmented BAT under *name*; :meth:`lookup` will
        transparently coalesce it, :meth:`lookup_fragments` returns it
        as-is."""
        if not name:
            raise BBPError("BAT name must be non-empty")
        with self._mutation_lock(name):
            with self._lock:
                if name in self and not replace:
                    raise BBPError(f"BAT {name!r} already registered")
                self._bats.pop(name, None)
                self._invalidate_views(name)
                fragmented.name = name
                if fragmented._coalesced is not None:
                    fragmented._coalesced.name = name
                self._fragmented[name] = fragmented
                self._bump_oids(fragmented)
                self._epoch += 1
        return fragmented

    def lookup(self, name: str) -> BAT:
        """The BAT registered under *name* (MIL ``bat("name")``);
        fragmented registrations are coalesced once and the view cached
        until the name is re-registered or dropped, so repeated MIL
        references never re-materialize."""
        with self._lock:
            try:
                return self._bats[name]
            except KeyError:
                pass
            cached = self._coalesced_views.get(name)
            if cached is not None:
                return cached
            try:
                view = self._fragmented[name].to_bat()
            except KeyError:
                raise BBPError(f"no BAT named {name!r} in the pool") from None
            self._coalesced_views[name] = view
            return view

    def lookup_fragments(
        self, name: str, policy: Optional[FragmentationPolicy] = None
    ) -> FragmentedBAT:
        """A fragmented view of *name*: the registered fragmentation if
        there is one, otherwise the monolithic BAT split on the fly
        (cached per name; a different explicit *policy* re-splits)."""
        with self._lock:
            if name in self._fragmented:
                return self._fragmented[name]
            cached = self._fragment_views.get(name)
            if cached is not None and (policy is None or policy == cached.policy):
                return cached
            view = fragment_bat(self.lookup(name), policy or FragmentationPolicy())
            self._fragment_views[name] = view
            return view

    def is_fragmented(self, name: str) -> bool:
        """True when *name* is registered as a fragmented BAT."""
        return name in self._fragmented

    def exists(self, name: str) -> bool:
        return name in self

    def drop(self, name: str) -> None:
        """Remove *name* from the catalog."""
        with self._mutation_lock(name):
            with self._lock:
                if name in self._bats:
                    del self._bats[name]
                elif name in self._fragmented:
                    del self._fragmented[name]
                else:
                    raise BBPError(f"cannot drop unknown BAT {name!r}")
                self._invalidate_views(name)
                self._epoch += 1

    # ------------------------------------------------------------------
    # The write path: mutations, snapshots, delta merging
    # ------------------------------------------------------------------
    def _mutate(
        self,
        name: str,
        kind: str,
        compute: Callable,
        record_fields: Callable[[], dict],
        bump: Optional[Callable] = None,
        *,
        log: bool = True,
    ):
        """The unified mutation core behind :meth:`append`,
        :meth:`delete` and :meth:`update`.

        Flow, under the per-name mutator mutex (one in-flight mutation
        per name; other names overlap freely):

        1. read the current registration and catalog generation under
           the pool lock (brief);
        2. build the new copy-on-write value *outside* the pool lock --
           a failing batch raises here, before any WAL record exists;
        3. group-commit the WAL intent record (:meth:`_wal_log`): the
           record is durable, stamped with the generation it applies on
           top of, before anything publishes;
        4. publish under the pool lock (:meth:`_publish_mutation`): swap
           the value in, bump oids, invalidate views, bump the epoch.
           If a concurrent save slid between steps 3 and 4 it truncated
           our record while its catalog missed our rows, so the record
           is re-logged under the new generation first.

        A crash between 3 and 4 is recovered by :func:`_replay_wal`; a
        crash before 3 loses nothing and leaves no record behind.
        """
        with self._mutation_lock(name):
            with self._lock:
                if name in self._bats:
                    current: Union[BAT, FragmentedBAT] = self._bats[name]
                elif name in self._fragmented:
                    current = self._fragmented[name]
                else:
                    raise UnknownMutationTarget(
                        f"cannot {kind} unknown BAT {name!r}"
                    )
                generation = self._generation
            new = compute(current)
            if new is current:  # empty batch
                return current
            record = None
            if log and self._directory is not None:
                record = {"name": name, "generation": generation}
                record.update(record_fields())
                self._wal_log(record)
            self._publish_mutation(name, current, new, record, bump)
            return new

    def _publish_mutation(self, name, current, new, record, bump) -> None:
        """Swap the new value in under the pool lock (step 4 of
        :meth:`_mutate`; a separate method so fault-injection tests can
        crash a mutation between its fsync and its publish)."""
        with self._lock:
            if record is not None and self._generation != record["generation"]:
                # A save committed between our fsync and this publish:
                # it truncated the WAL (dropping our record) without
                # folding our rows into its catalog.  Re-log under the
                # current generation so a crash from here still
                # replays us; the stale-generation record, wherever it
                # survived, is fenced off at replay.
                self._wal_direct({**record, "generation": self._generation})
            new.name = name
            if isinstance(new, FragmentedBAT):
                self._fragmented[name] = new
            else:
                self._bats[name] = new
            if bump is not None:
                bump(new)
            self._invalidate_views(name)
            self._epoch += 1

    def append(
        self,
        name: str,
        pairs=None,
        *,
        tails=None,
        _log: bool = True,
    ):
        """Append BUNs to the registration under *name* and return the
        newly registered value (BAT or FragmentedBAT).

        Copy-on-write underneath (:meth:`BAT.append` /
        :meth:`FragmentedBAT.append`): the old object is swapped for a
        new one under the lock, so any :class:`PoolSnapshot` taken
        before the append keeps reading the old BUNs.  When the pool is
        attached to a directory, the append intent is group-committed
        to ``wal.jsonl`` (one fsync per batch of concurrent mutators,
        see :meth:`_wal_log`) after the new value has been built -- i.e.
        after the batch is known to be appendable -- but *before* the
        in-memory swap publishes it.  A crash after this method returns
        therefore never loses the append (:meth:`load` replays the log
        over the last saved catalog), while an append that *fails*
        leaves no WAL record behind to poison recovery.

        ``pairs`` is a sequence of (head, tail) Python pairs; ``tails``
        appends tail values under a densely extended void head (the
        shape of every Moa attribute BAT): Python values, coerced one
        by one, or a column -- an array or a str run in codes
        (:func:`~repro.monet.bat.column_from_values`; its record
        carries the same Python values, NIL as ``null``, as the list
        would, decoded only when a WAL is armed).  Raises
        :class:`~repro.monet.errors.MutationError` subclasses.
        """
        # Materialize once up front: the batch is iterated by the
        # append itself, the WAL encoder and the oid bump, and a
        # generator argument must not leave them seeing different
        # sequences (the live pool would diverge from recovery).
        if pairs is not None:
            pairs = list(pairs)
        if tails is not None and not isinstance(tails, _COLUMN_FORMS):
            tails = list(tails)
        tail_atom = None

        def compute(current):
            nonlocal tail_atom
            if pairs is not None:
                return current.append(pairs)
            tail_atom = current.ttype
            return current.append(tails=tails if tails is not None else [])

        def record_fields() -> dict:
            if pairs is not None:
                return {
                    "pairs": [[_wal_value(h), _wal_value(t)] for h, t in pairs]
                }
            values = _python_values(tails, tail_atom)
            return {"tails": [_wal_value(t) for t in values]}

        def bump(new):
            self._bump_oids(new, batch=len(pairs if pairs is not None else tails))

        return self._mutate(
            name, "append to", compute, record_fields, bump, log=_log
        )

    def delete(
        self,
        name: str,
        positions,
        *,
        renumber=None,
        _log: bool = True,
    ):
        """Delete the BUNs at *positions* (0-based BUN positions) from
        the registration under *name*; returns the new value.

        The tombstone delta kind: fragmented registrations tombstone
        copy-on-write at fragment granularity
        (:meth:`FragmentedBAT.delete` -- untouched fragments shared by
        reference, dense oid heads re-densified), monolithic ones
        gather their survivors (:meth:`BAT.delete_positions`).  Durable
        and exactly-once like :meth:`append`: the intent record
        (``{"delete": [...]}``) group-commits before the publish and is
        generation-fenced at replay.

        ``renumber`` (sorted deleted parent oids) shifts every surviving
        tail value ``t`` to ``t - |{d < t}|`` -- how a Moa ``__nest__``
        or ``owner`` tail follows its parents' deletion, and, with
        ``renumber=positions``, how an extent's oid tail stays
        ``0..n-1``.  Monolithic and fragmented registrations give the
        same BUNs; the list rides in the record as ``"renumber"`` (a
        record's ``true`` means its own positions).
        """
        positions = [int(p) for p in positions]
        if renumber is not None:
            renumber = sorted({int(d) for d in renumber})

        def compute(current):
            if isinstance(current, FragmentedBAT):
                return current.delete(positions, renumber=renumber)
            return current.delete_positions(positions, renumber=renumber)

        def record_fields() -> dict:
            record = {"delete": positions}
            if renumber is not None:
                record["renumber"] = renumber
            return record

        return self._mutate(
            name, "delete from", compute, record_fields, log=_log
        )

    def update(self, name: str, positions, values, *, _log: bool = True):
        """Replace the tail values at *positions* (0-based BUN
        positions, aligned with *values*; duplicates last-wins) in the
        registration under *name*; returns the new value.

        The patch delta kind: fragmented registrations patch only the
        touched fragments' tails (:meth:`FragmentedBAT.update` --
        heads, positions and untouched fragments shared by reference),
        monolithic ones patch one tail copy
        (:meth:`BAT.update_positions`).  Durable and exactly-once like
        :meth:`append`: the intent record (``{"update": [...],
        "values": [...]}``) group-commits before the publish and is
        generation-fenced at replay.

        *values* are Python values or, as :meth:`append` takes its
        ``tails``, an array of the atom's dtype (the in-column form,
        NIL as the sentinel), logged as the same Python values.
        """
        positions = [int(p) for p in positions]
        if not isinstance(values, np.ndarray):
            values = list(values)
        tail_atom = None

        def compute(current):
            nonlocal tail_atom
            tail_atom = current.ttype
            if isinstance(current, FragmentedBAT):
                return current.update(positions, values)
            return current.update_positions(positions, values)

        def record_fields() -> dict:
            return {
                "update": positions,
                "values": [_wal_value(v) for v in _python_values(values, tail_atom)],
            }

        def bump(new):
            if new.ttype == "oid":
                top = max(
                    (int(v) for v in _python_values(values, "oid") if v is not None),
                    default=-1,
                )
                if top >= 0:
                    self.oid_generator.bump_past(top)

        return self._mutate(
            name, "update", compute, record_fields, bump, log=_log
        )

    def read_snapshot(self) -> "PoolSnapshot":
        """An immutable point-in-time view of the catalog (MVCC-style
        snapshot read).  O(#names): the name->value maps are copied,
        the (immutable) values are shared."""
        with self._lock:
            return PoolSnapshot(
                self, dict(self._bats), dict(self._fragmented), self._epoch
            )

    def merge_deltas(
        self, policy: Optional[FragmentationPolicy] = None
    ) -> int:
        """One synchronous merge pass over the fragmented registrations:
        fold oversized append-tail deltas back to policy-sized
        fragments, compact starved tombstone residue, and re-split a
        registration whose fragment count has drifted
        (:func:`repro.monet.fragments.refragment` with
        ``compact=True``, which prefers the non-coalescing
        :func:`~repro.monet.fragments.fold_tail`).

        Reorganization happens *outside* the lock on the immutable
        fragment lists; the swap-in is a per-name compare-and-swap --
        if a concurrent mutation replaced the registration meanwhile,
        the stale reorganization is discarded (the next pass sees the
        new tail).  Readers are never blocked: their snapshots keep the
        old fragment objects.  Returns how many names were
        reorganized."""
        with self._lock:
            work = list(self._fragmented.items())
        merged = 0
        for name, fragmented in work:
            reorganized = _fragments.refragment(
                fragmented, policy or fragmented.policy, compact=True
            )
            if reorganized is fragmented:
                continue
            with self._lock:
                if self._fragmented.get(name) is not fragmented:
                    continue  # lost the race to an append/drop; next pass
                reorganized.name = name
                self._fragmented[name] = reorganized
                self._invalidate_views(name)
                self._epoch += 1
            merged += 1
        return merged

    def start_merge_daemon(self, interval: float = 0.1) -> None:
        """Start the background delta-merge thread (idempotent): every
        *interval* seconds it runs :meth:`merge_deltas`."""
        with self._lock:
            if self._merge_thread is not None and self._merge_thread.is_alive():
                return
            stop = threading.Event()

            def loop() -> None:
                while not stop.wait(interval):
                    try:
                        self.merge_deltas()
                    except Exception:  # pragma: no cover - daemon survives
                        pass

            thread = threading.Thread(
                target=loop, name="bbp-merge-daemon", daemon=True
            )
            self._merge_stop = stop
            self._merge_thread = thread
            thread.start()

    def stop_merge_daemon(self) -> None:
        """Stop the background merge thread and wait for it to exit."""
        with self._lock:
            stop, thread = self._merge_stop, self._merge_thread
            self._merge_stop = None
            self._merge_thread = None
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=5.0)

    def names(self, prefix: str = "") -> List[str]:
        """Registered names, optionally filtered by prefix, sorted."""
        return sorted(n for n in self._all_names() if n.startswith(prefix))

    def _all_names(self) -> List[str]:
        with self._lock:
            return list(self._bats) + list(self._fragmented)

    def __contains__(self, name: str) -> bool:
        return name in self._bats or name in self._fragmented

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._all_names()))

    def __len__(self) -> int:
        return len(self._bats) + len(self._fragmented)

    def new_oids(self, count: int) -> int:
        """Allocate *count* fresh oids; returns the first."""
        with self._lock:
            return self.oid_generator.allocate(count)

    def _bump_oids(
        self, value: Union[BAT, FragmentedBAT], *, batch: Optional[int] = None
    ) -> None:
        """Keep the oid sequence ahead of any oid stored in *value*, or,
        with *batch*, in the last *batch* BUNs an append just built (the
        end of its last fragment; O(batch), numpy)."""
        if isinstance(value, FragmentedBAT):
            if batch is None:
                for fragment in value.fragments:
                    self._bump_oids(fragment)
                return
            value = value.fragments[-1]
        for column in (value.head, value.tail):
            if column.is_void:
                top = column.seqbase + len(column) - 1
                if len(column):
                    self.oid_generator.bump_past(top)
            elif column.atom_type.name == "oid" and len(column):
                # One pass: OID_NIL is the greatest int64, so only a
                # column whose max *is* NIL needs the NILs filtered.
                values = column.values[-batch:] if batch else column.values
                top = values.max()
                if top == OID_NIL:
                    finite = values[values != OID_NIL]
                    if not len(finite):
                        continue
                    top = finite.max()
                self.oid_generator.bump_past(int(top))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Write the whole pool to *directory* (catalog + one npz per
        BAT or fragment).

        Crash-safe: data files land under generation-stamped names via
        temp-file + ``os.replace``, and the catalog replacement is the
        single atomic commit point -- a crash anywhere mid-save leaves
        the previous complete catalog (and the files it references)
        intact.  Files the new catalog no longer references (the old
        generation, aborted-save leftovers) are deleted after the
        commit.  A successful save supersedes the append WAL, which is
        truncated; the pool stays *attached* to the directory so
        subsequent appends log their intent there."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._save_locked(directory)
            self._attach_locked(directory)
            self._wal_truncate_locked()

    def _save_locked(self, directory: Path) -> None:
        generation = self._generation
        existing = directory / "catalog.json"
        if existing.exists():
            try:
                generation = max(generation, _read_catalog(existing).get("generation", 0))
            except BBPError:
                pass
        generation += 1
        catalog = {
            "oid_next": self.oid_generator.current,
            "generation": generation,
            "bats": {},
        }
        # Session-private temps (the @<sid>: namespace) are tentative by
        # definition -- they must not be resurrected on reload.
        entries = sorted(n for n in self._all_names() if not n.startswith("@"))
        for index, name in enumerate(entries):
            if name in self._bats:
                bat = self._bats[name]
                filename = f"bat_g{generation:04d}_{index:05d}.npz"
                entry, arrays = _bat_entry(bat, filename)
                _write_npz_atomic(directory, filename, arrays)
            else:
                fragmented = self._fragmented[name]
                entry = {
                    "fragmented": True,
                    "target_size": fragmented.policy.target_size,
                    "fragments": [],
                }
                for findex, fragment in enumerate(fragmented.fragments):
                    filename = f"bat_g{generation:04d}_{index:05d}_f{findex:03d}.npz"
                    sub_entry, arrays = _bat_entry(fragment, filename)
                    _write_npz_atomic(directory, filename, arrays)
                    entry["fragments"].append(sub_entry)
            catalog["bats"][name] = entry
        # The commit point: everything before this is invisible to load.
        replace_text(directory / "catalog.json", json.dumps(catalog, indent=1))
        self._generation = generation
        _sweep_unreferenced(directory, catalog, reclaim_own_tmp=True)

    # -- WAL attachment ------------------------------------------------
    def _attach_locked(self, directory: Path) -> None:
        directory = Path(directory)
        with self._wal_io:
            if self._directory != directory:
                self._close_wal_file()
            self._directory = directory

    def close(self) -> None:
        """Close the WAL file handle, if one is open.  Idempotent; the
        pool stays attached and usable -- its next logged mutation
        reopens ``wal.jsonl`` for appending."""
        with self._wal_io:
            self._close_wal_file()

    def _close_wal_file(self) -> None:
        """Close the WAL handle (under ``_wal_io``)."""
        if self._wal_file is not None:
            try:
                self._wal_file.close()
            except OSError:  # pragma: no cover - close best-effort
                pass
            self._wal_file = None

    def _wal_log(self, record: dict) -> None:
        """Group-commit one mutation intent record.

        Mutators enqueue their encoded line and the first waiter
        elects itself *leader*: it sleeps out the ``wal_group_ms`` tuning
        window (so concurrent arrivals pile on), drains the whole
        queue, writes it in one system call and issues **one fsync**
        for the batch, then wakes the followers.  Mutators that arrive
        while a flush is in flight simply form the next batch -- so
        even at a zero window, N concurrent writers share far fewer
        than N fsyncs.  A record is *committed* once its full line
        (with trailing newline) is durable; :meth:`load` discards a
        torn final line.

        Each record is fenced with the catalog generation it applies on
        top of: a save folds every applied mutation into the next
        generation's catalog, so if a crash lands between the catalog
        commit and the WAL truncation, :func:`_replay_wal` sees the
        stale records stamped with the *previous* generation and skips
        them instead of silently duplicating the mutations.  A failed
        flush raises in every mutator whose record it covered -- none
        of them publish."""
        if self._directory is None:
            return
        line = json.dumps(record) + "\n"
        with self._wal_cv:
            seq = self._wal_next_seq
            self._wal_next_seq += 1
            self._wal_queue.append(line)
            self.wal_records += 1
            while True:
                if self._wal_flushed_seq >= seq:
                    return
                if self._wal_failed_seq >= seq:
                    raise BBPError(
                        f"WAL group commit failed: {self._wal_failure}"
                    )
                if not self._wal_leader_active:
                    self._wal_leader_active = True
                    break
                self._wal_cv.wait()
        # This mutator is the leader for the next batch.
        try:
            window = _tuning.current().wal_group_ms
            if window > 0:
                time.sleep(window / 1000.0)
            with self._wal_cv:
                batch = self._wal_queue
                self._wal_queue = []
                top = self._wal_next_seq - 1
            failure: Optional[BaseException] = None
            if batch:
                try:
                    self._wal_write_batch(batch)
                except Exception as exc:
                    failure = exc
        except BaseException:
            # Interrupted before an outcome existed: hand leadership
            # back so waiting followers can elect a new leader.
            with self._wal_cv:
                self._wal_leader_active = False
                self._wal_cv.notify_all()
            raise
        # Publish the outcome and step down in one critical section, so
        # no follower can observe a leaderless, outcome-less state.
        with self._wal_cv:
            if failure is None:
                self._wal_flushed_seq = max(self._wal_flushed_seq, top)
            else:
                self._wal_failed_seq = max(self._wal_failed_seq, top)
                self._wal_failure = failure
            self._wal_leader_active = False
            self._wal_cv.notify_all()
            if self._wal_failed_seq >= seq:
                raise BBPError(f"WAL group commit failed: {self._wal_failure}")

    def _wal_write_batch(self, lines: List[str]) -> None:
        """Write *lines* to the WAL and fsync once (the leader's half
        of the group commit).  The file handle is guarded by
        ``_wal_io`` so the batch write cannot race save()'s truncation
        or a publish-time re-log."""
        with self._wal_io:
            if self._directory is None:
                return
            if self._wal_file is None:
                self._wal_file = open(
                    self._directory / "wal.jsonl", "a", encoding="utf-8"
                )
            self._wal_file.write("".join(lines))
            self._wal_file.flush()
            os.fsync(self._wal_file.fileno())
            self.wal_fsyncs += 1

    def _wal_direct(self, record: dict) -> None:
        """Write one record immediately (flush + fsync), bypassing the
        group queue -- the rare publish-time re-log after a save raced
        a mutation (see :meth:`_publish_mutation`); called under the
        pool lock."""
        if self._directory is None:
            return
        with self._wal_io:
            if self._wal_file is None:
                self._wal_file = open(
                    self._directory / "wal.jsonl", "a", encoding="utf-8"
                )
            self._wal_file.write(json.dumps(record) + "\n")
            self._wal_file.flush()
            os.fsync(self._wal_file.fileno())
            self.wal_fsyncs += 1
            self.wal_records += 1

    def _wal_truncate_locked(self) -> None:
        with self._wal_io:
            self._close_wal_file()
            if self._directory is not None:
                (self._directory / "wal.jsonl").unlink(missing_ok=True)

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "BATBufferPool":
        """Read a pool previously written by :meth:`save`.

        Recovery-safe: the catalog names exactly the data files of the
        last complete save; dead leftovers of crashed saves are swept
        (a concurrent saver's newer-generation files and live writers'
        temp files are kept, see :func:`_sweep_unreferenced`), and
        committed append intents in ``wal.jsonl`` are replayed on top
        -- a torn trailing record (crash mid-append) is discarded and
        records a newer catalog already folded in are fenced off by
        generation, so the pool never surfaces a partial append nor
        replays one twice."""
        directory = Path(directory)
        catalog_path = directory / "catalog.json"
        if not catalog_path.exists():
            raise BBPError(f"no catalog.json under {directory}")
        catalog = _read_catalog(catalog_path)
        pool = cls()
        for name, entry in catalog["bats"].items():
            if entry.get("fragmented"):
                fragments = _one_heap(
                    [_restore_bat(directory, sub_entry, name) for sub_entry in entry["fragments"]]
                )
                try:
                    pool._fragmented[name] = FragmentedBAT(
                        fragments,
                        policy=FragmentationPolicy(target_size=entry["target_size"]),
                        name=name,
                    )
                except KernelError as exc:
                    raise BBPError(f"catalog entry {name!r}: {exc}") from None
            else:
                bat = pool._bats[name] = _restore_bat(directory, entry, name)
                bat.name = name
        pool.oid_generator.bump_past(catalog.get("oid_next", 0) - 1)
        pool._generation = catalog.get("generation", 0)
        _sweep_unreferenced(directory, catalog)
        _replay_wal(pool, directory)
        with pool._lock:
            pool._attach_locked(directory)
        return pool


class PoolSnapshot:
    """An immutable point-in-time view of a pool's catalog (MVCC-style
    snapshot read), stamped with the :attr:`epoch` it froze at.

    The MIL interpreter pins one snapshot per plan: ``bat("name")``
    resolves against the frozen name->value maps, so a pipeline never
    observes a concurrent append/drop mid-plan (no torn appends --
    every read of a name sees the same BUNs for the whole plan).  The
    values themselves are shared with the live pool; that is safe
    because BATs and FragmentedBATs are copy-on-write (appends swap in
    new objects, they never mutate registered ones).

    Writes issued *by the plan itself* (``persists`` / ``unpersists``)
    write through to the live pool **and** update the snapshot's own
    maps, so a plan sees its own effects while staying isolated from
    everyone else's.

    A snapshot belongs to one plan on one thread; its lazy view caches
    (coalesce/split) are unsynchronized by design.
    """

    def __init__(
        self,
        pool: BATBufferPool,
        bats: Dict[str, BAT],
        fragmented: Dict[str, FragmentedBAT],
        epoch: int,
    ):
        self._pool = pool
        self._bats = bats
        self._fragmented = fragmented
        self._coalesced_views: Dict[str, BAT] = {}
        self._fragment_views: Dict[str, FragmentedBAT] = {}
        self.epoch = epoch

    def read_snapshot(self) -> "PoolSnapshot":
        """Snapshots are idempotent: pinning a pinned view is a no-op."""
        return self

    # -- reads (frozen) ------------------------------------------------
    def is_fragmented(self, name: str) -> bool:
        return name in self._fragmented

    def exists(self, name: str) -> bool:
        return name in self

    def __contains__(self, name: str) -> bool:
        return name in self._bats or name in self._fragmented

    def lookup(self, name: str) -> BAT:
        try:
            return self._bats[name]
        except KeyError:
            pass
        cached = self._coalesced_views.get(name)
        if cached is not None:
            return cached
        try:
            view = self._fragmented[name].to_bat()
        except KeyError:
            raise BBPError(f"no BAT named {name!r} in the pool") from None
        self._coalesced_views[name] = view
        return view

    def lookup_fragments(
        self, name: str, policy: Optional[FragmentationPolicy] = None
    ) -> FragmentedBAT:
        if name in self._fragmented:
            return self._fragmented[name]
        cached = self._fragment_views.get(name)
        if cached is not None and (policy is None or policy == cached.policy):
            return cached
        view = fragment_bat(self.lookup(name), policy or FragmentationPolicy())
        self._fragment_views[name] = view
        return view

    # -- writes (write-through + local adoption) -----------------------
    def register(self, name: str, bat: BAT, *, replace: bool = False) -> BAT:
        result = self._pool.register(name, bat, replace=replace)
        self._adopt(name, result)
        return result

    def register_fragmented(
        self, name: str, fragmented: FragmentedBAT, *, replace: bool = False
    ) -> FragmentedBAT:
        result = self._pool.register_fragmented(name, fragmented, replace=replace)
        self._adopt(name, result)
        return result

    def drop(self, name: str) -> None:
        if name not in self:
            raise BBPError(f"cannot drop unknown BAT {name!r}")
        try:
            self._pool.drop(name)
        except BBPError:
            pass  # a concurrent writer already dropped it live
        self._discard(name)

    def append(self, name: str, pairs=None, *, tails=None):
        result = self._pool.append(name, pairs, tails=tails)
        self._adopt(name, result)
        return result

    def delete(self, name: str, positions, *, renumber=None):
        result = self._pool.delete(name, positions, renumber=renumber)
        self._adopt(name, result)
        return result

    def update(self, name: str, positions, values):
        result = self._pool.update(name, positions, values)
        self._adopt(name, result)
        return result

    def new_oids(self, count: int) -> int:
        return self._pool.new_oids(count)

    def _adopt(self, name: str, value: Union[BAT, FragmentedBAT]) -> None:
        self._discard(name)
        if isinstance(value, FragmentedBAT):
            self._fragmented[name] = value
        else:
            self._bats[name] = value

    def _discard(self, name: str) -> None:
        self._bats.pop(name, None)
        self._fragmented.pop(name, None)
        self._coalesced_views.pop(name, None)
        self._fragment_views.pop(name, None)


def _write_npz_atomic(directory: Path, filename: str, arrays: dict) -> None:
    """Write one npz data file via temp + fsync + ``os.replace`` so a
    crash can never leave a half-written file under its final name."""
    tmp = directory / f"{filename}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, directory / filename)


def replace_text(path: Path, text: str) -> None:
    """Atomically replace *path* with *text* (temp + fsync + replace +
    best-effort directory fsync) -- the WAL/catalog commit primitive,
    shared by every text file persisted next to the catalog (the
    MirrorDBMS uses it for ``schema.ddl``)."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


_FILE_GENERATION_RE = re.compile(r"^bat_g(\d+)_")


def _file_generation(filename: str) -> Optional[int]:
    """Generation stamped into a data-file name, or None (legacy/alien
    layouts)."""
    match = _FILE_GENERATION_RE.match(filename)
    return int(match.group(1)) if match else None


def _pid_alive(pid: int) -> bool:
    """Liveness probe for sweep decisions: only a pid that provably
    maps to no process is considered dead (EPERM etc. count as alive --
    when unknowable, never reclaim)."""
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # alive under another uid (EPERM) or unknowable
    return True


def _sweep_unreferenced(
    directory: Path, catalog: dict, *, reclaim_own_tmp: bool = False
) -> int:
    """Delete data files the committed *catalog* does not reference:
    the previous generation after a successful save, or the
    half-written files of a crashed one.  Returns how many were removed.

    Two guards keep the sweep safe next to concurrent writers on the
    same directory:

    * npz files of a generation *newer* than the catalog belong to a
      saver whose commit has not landed yet (another process mid-save);
      deleting them would leave its freshly committed catalog pointing
      at nothing.  They are kept -- if that save in fact crashed, the
      sweep after the next successful save reclaims them.
    * ``*.tmp-<pid>`` scratch files are only reclaimed once the owning
      process is dead (same liveness probe as
      :func:`sweep_stale_spill_dirs`), or -- from :meth:`save`, which
      holds the writer's lock so no sibling write is in flight -- when
      they are this process's own leftovers (*reclaim_own_tmp*).
    """
    generation = int(catalog.get("generation", 0))
    referenced = set()
    for entry in catalog.get("bats", {}).values():
        if entry.get("fragmented"):
            referenced.update(sub["file"] for sub in entry["fragments"])
        else:
            referenced.add(entry["file"])
    victims = []
    for path in directory.glob("bat_*.npz"):
        if path.name in referenced:
            continue
        file_generation = _file_generation(path.name)
        if file_generation is not None and file_generation > generation:
            continue  # a concurrent saver's uncommitted next generation
        victims.append(path)
    for path in directory.glob("*.tmp-*"):
        pid_text = path.name.rsplit(".tmp-", 1)[1]
        if pid_text.isdigit():
            pid = int(pid_text)
            if pid == os.getpid():
                if not reclaim_own_tmp:
                    continue
            elif _pid_alive(pid):
                continue  # a live writer's in-flight temp file
        victims.append(path)
    removed = 0
    for path in victims:
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - concurrent sweep
            pass
    return removed


#: The column forms a batch may take besides a list: an array of the
#: atom's dtype, or a str run in codes.
_COLUMN_FORMS = (np.ndarray, StrColumn)


def _python_values(values, atom_name: str):
    """The Python values of a batch's list form, NIL as ``None``, for a
    batch given in a column form (:data:`_COLUMN_FORMS`) -- the values
    a WAL record carries.  The mutation already accepted the column,
    so an array is the in-column form of *atom_name*."""
    if isinstance(values, StrColumn):
        return values.materialize().tolist()
    if not isinstance(values, np.ndarray):
        return values
    if atom_name == "str":
        return values.tolist()
    return column_to_list(Column(atom_name, values))


def _wal_value(value):
    """JSON-safe form of one appended Python value (numpy scalars
    unwrap; dbl NIL rides as NaN, which json round-trips)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _replay_wal(pool: "BATBufferPool", directory: Path) -> int:
    """Replay committed append intents over a freshly loaded pool.

    Only complete lines count (a record commits when its trailing
    newline is durable); the first torn/corrupt line discards itself
    and everything after it.  Records are fenced by generation: each
    carries the catalog generation it was logged on top of, and only
    records matching the loaded catalog's generation replay -- a WAL
    that survived a crash between the catalog commit and its own
    truncation is already folded into that catalog, and replaying it
    would silently duplicate every append since the previous save.
    Appends naming BATs absent from the catalog are skipped -- a
    registration that was never saved is not resurrected by its
    appends -- except after a ``create`` record: it registers the empty
    BATs it names that the catalog lacks (a collection first inserted
    into after the save), so the appends logged after it apply.  A
    record that no longer applies (e.g. logged by a buggy or older
    writer) is skipped with a warning rather than rendering the store
    unloadable.  Returns how many records applied.
    """
    path = directory / "wal.jsonl"
    if not path.exists():
        return 0
    generation = pool._generation
    text = path.read_text(encoding="utf-8", errors="replace")
    applied = 0
    lines = text.split("\n")
    # Everything before the final "\n" is a complete line; the chunk
    # after it (empty on a clean file) is a torn record.
    for line in lines[:-1]:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, ValueError):
            break
        record_generation = record.get("generation")
        if record_generation is not None and record_generation != generation:
            continue  # already folded into the loaded catalog
        name = record.get("name")
        created = record.get("create")
        if isinstance(created, dict):
            name = ", ".join(created)
        elif not isinstance(name, str) or name not in pool:
            continue
        try:
            if isinstance(created, dict):
                absent = {b: a for b, a in created.items() if b not in pool}
                pool.create(absent, _log=False)
            elif "pairs" in record:
                pool.append(
                    name, pairs=[tuple(p) for p in record["pairs"]], _log=False
                )
            elif "delete" in record:
                renumber = record.get("renumber")
                if isinstance(renumber, bool):  # pre-list records
                    renumber = record["delete"] if renumber else None
                pool.delete(name, record["delete"], renumber=renumber, _log=False)
            elif "update" in record:
                pool.update(
                    name, record["update"], record.get("values", []), _log=False
                )
            else:
                pool.append(name, tails=record.get("tails", []), _log=False)
        except MonetError as exc:
            warnings.warn(
                f"skipping unreplayable WAL record for {name!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        applied += 1
    return applied


# ----------------------------------------------------------------------
# Operator spill units
#
# Out-of-core operators (the grace hash join's partitioned build in
# :mod:`repro.monet.fragments`) park intermediate partitions on disk as
# npz units under a process-wide scratch directory, the BBP's transient
# sibling of the persistent per-fragment files above.  Units hold
# numeric arrays only (keys and build positions; the join gathers tails
# from its resident build fragments) and are read without pickle like
# every other file.
# ----------------------------------------------------------------------

_SPILL_ROOT: Optional[Path] = None
_SPILL_COUNTER = itertools.count()
_SPILL_PREFIX = "repro-bbp-spill-"
_SPILL_SWEPT = False


def spill_directory() -> Path:
    """Scratch directory for operator spill units, created lazily and
    removed at interpreter exit.  The directory name embeds this
    process's pid so a crashed process's orphans can be liveness-checked
    and swept by the next one (:func:`sweep_stale_spill_dirs`)."""
    global _SPILL_ROOT
    if _SPILL_ROOT is None:
        _SPILL_ROOT = Path(
            tempfile.mkdtemp(prefix=f"{_SPILL_PREFIX}{os.getpid()}-")
        )
        atexit.register(_cleanup_spill_directory)
    return _SPILL_ROOT


def sweep_stale_spill_dirs() -> int:
    """Remove spill directories left by *dead* processes.

    ``atexit`` cleanup never runs for a crashed/killed process, so its
    spill tempdirs leaked forever.  Spill directory names embed the
    owning pid; any such directory whose pid no longer maps to a live
    process is stale and removed.  Directories with unparseable names
    (pre-pid-stamp layouts) and live owners are left alone.  Returns
    how many directories were removed."""
    removed = 0
    try:
        entries = list(Path(tempfile.gettempdir()).glob(f"{_SPILL_PREFIX}*"))
    except OSError:  # pragma: no cover - tempdir unreadable
        return 0
    for entry in entries:
        pid_text = entry.name[len(_SPILL_PREFIX):].split("-", 1)[0]
        if not pid_text.isdigit():
            continue
        if _pid_alive(int(pid_text)):
            continue  # alive (or our own, or unknowable): not ours to reclaim
        shutil.rmtree(entry, ignore_errors=True)
        removed += 1
    return removed


def _sweep_spill_once() -> None:
    """Run the stale-spill sweep the first time a pool starts in this
    process (pool startup is the natural recovery point)."""
    global _SPILL_SWEPT
    if _SPILL_SWEPT:
        return
    _SPILL_SWEPT = True
    try:
        sweep_stale_spill_dirs()
    except Exception:  # pragma: no cover - sweep must never break init
        pass


def _cleanup_spill_directory() -> None:
    global _SPILL_ROOT
    root, _SPILL_ROOT = _SPILL_ROOT, None
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)


def new_spill_tag(prefix: str) -> str:
    """A unique (per process, per call) spill-unit tag."""
    return f"{prefix}-{os.getpid():x}-{next(_SPILL_COUNTER):06d}"


def write_spill_unit(tag: str, **arrays: np.ndarray) -> Path:
    """Write the named *arrays* as one npz spill unit; returns its path."""
    path = spill_directory() / f"{tag}.npz"
    np.savez(path, **arrays)
    return path


def read_spill_unit(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load every array of a spill unit back into memory."""
    path = Path(path)
    return _read_npz(path, f"spill unit {path.name}")


def drop_spill_unit(path: Union[str, Path]) -> None:
    """Delete one spill unit (idempotent)."""
    Path(path).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# The BAT files
#
# One npz per BAT or fragment: each non-void column is its parts in the
# format of :mod:`repro.monet.codec` (members ``<key>``, ``<key>_heap``,
# ``<key>_offsets``); a void column's seqbase and the count ride in the
# catalog entry.  A data directory is outside input: no pickle is read,
# the catalog is validated (:func:`_read_catalog`), the codec validates
# every column, and a file holds exactly the arrays its entry implies.
# Unknown catalog keys are ignored (a fragmented entry's old ``workers``
# key); anything else -- the round-robin layout (fragment files carrying
# ``positions``), an entry without ``target_size``, a ``<U`` str array
# -- is a BBPError naming the entry, the file and the array at fault.
# ----------------------------------------------------------------------

_ENTRY_KEYS = frozenset(
    {"file", "htype", "ttype", "hsorted", "tsorted", "hkey", "tkey", "hvoid", "tvoid"}
)
#: A catalog ``file``: a name inside the data directory, never a path.
_BARE_FILENAME = re.compile(r"(?!\.\.?$)[\w.-]+")
#: What ``np.load`` raises on a missing, truncated, corrupt or pickled
#: file or member.
_NPZ_ERRORS = (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def _read_catalog(path: Path) -> dict:
    """The catalog at *path*, validated before anything reads it: a JSON
    object whose ``bats`` is an object, ``oid_next``/``generation``
    non-negative ints when present, and every entry but a session
    temp's (``@``, dropped) an object -- a fragmented one with an
    integer ``target_size`` and a non-empty ``fragments`` list of BAT
    entries.  Each violation is a BBPError naming catalog.json and,
    below the top level, the entry."""
    try:
        catalog = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BBPError(f"{path.name}: unreadable: {exc}") from None
    if not isinstance(catalog, dict) or not isinstance(catalog.get("bats"), dict):
        raise BBPError(f"{path.name}: not an object with a 'bats' object")
    for key in ("oid_next", "generation"):
        value = catalog.get(key, 0)
        if type(value) is not int or value < 0:
            raise BBPError(f"{path.name}: {key!r} is {value!r}, not a non-negative int")
    # Session temps leaked into a catalog written before the @-namespace
    # exclusion: dead sessions stay dead, and their files are garbage.
    catalog["bats"] = {
        name: entry for name, entry in catalog["bats"].items() if not name.startswith("@")
    }
    for name, entry in catalog["bats"].items():
        where = f"{path.name}: catalog entry {name!r}"
        if not isinstance(entry, dict) or not entry.get("fragmented"):
            _check_bat_entry(entry, where)
            continue
        target_size, fragments = entry.get("target_size"), entry.get("fragments")
        if type(target_size) is not int or target_size < 1:
            raise BBPError(f"{where}: no integer target_size")
        if not isinstance(fragments, list) or not fragments:
            raise BBPError(f"{where}: no 'fragments' list")
        for sub_entry in fragments:
            _check_bat_entry(sub_entry, where)
    return catalog


def _check_bat_entry(entry, where: str) -> None:
    """One BAT entry's fields: all of :data:`_ENTRY_KEYS`, ``file`` a
    bare filename inside the directory, the atoms strings, the flags
    booleans (or 0/1), and a void side's seqbase and the count
    non-negative ints."""
    if not isinstance(entry, dict):
        raise BBPError(f"{where}: {entry!r} is not an object")
    missing = _ENTRY_KEYS - set(entry)
    if missing:
        raise BBPError(f"{where}: no {sorted(missing)}")
    filename = entry["file"]
    if not isinstance(filename, str) or not _BARE_FILENAME.fullmatch(filename):
        raise BBPError(f"{where}: file {filename!r} is not a bare filename")
    where = f"{where}, {filename}"
    for key in sorted(_ENTRY_KEYS - {"file"}):
        value = entry[key]
        if not (type(value) is str if key.endswith("type") else value in (False, True)):
            raise BBPError(f"{where}: {key!r} is {value!r}")
    for prefix, key in (("h", "head"), ("t", "tail")):
        counts = (entry.get(f"{prefix}seqbase"), entry.get("count"))
        if entry[f"{prefix}void"] and not all(type(n) is int and n >= 0 for n in counts):
            raise BBPError(f"{where}: void {key} needs {prefix}seqbase and count")


def _bat_entry(bat: BAT, filename: str) -> tuple:
    """Catalog entry + stored arrays for one BAT (or fragment)."""
    entry = {
        "file": filename,
        "htype": bat.htype,
        "ttype": bat.ttype,
        "hsorted": bat.hsorted,
        "tsorted": bat.tsorted,
        "hkey": bat.hkey,
        "tkey": bat.tkey,
        "hvoid": bat.head.is_void,
        "tvoid": bat.tail.is_void,
    }
    arrays = {}
    for prefix, key, column in (("h", "head", bat.head), ("t", "tail", bat.tail)):
        spec, parts = _codec.encode(column)
        if column.is_void:
            entry[f"{prefix}seqbase"] = spec["seqbase"]
            entry["count"] = spec["count"]
        arrays.update(zip(_codec.part_names(spec["atom"], key), parts))
    return entry, arrays


def _one_heap(fragments: List[BAT]) -> List[BAT]:
    """The fragments of one stored column, just read, put on one heap
    per str column: the first fragment's, extended by the values each
    later file adds (:func:`~repro.monet.bat.rebase`: one lookup per
    distinct value)."""
    for side in ("head", "tail"):
        first = getattr(fragments[0], side)
        for fragment in fragments[1:] if isinstance(first, StrColumn) else ():
            column = getattr(fragment, side)
            setattr(fragment, side, StrColumn(rebase(column, first.heap), first.heap))
    return fragments


def _read_npz(path: Path, where: str) -> Dict[str, np.ndarray]:
    """Every array of one npz file, read without pickle (``np.load``'s
    default refuses object arrays and pickled files; nothing here or
    anywhere in ``src/`` turns that off)."""
    try:
        data = np.load(path)
    except _NPZ_ERRORS as exc:
        raise BBPError(f"{where}: unreadable: {exc}") from None
    arrays = {}
    with data:
        for key in data.files:
            try:
                arrays[key] = data[key]
            except _NPZ_ERRORS as exc:
                raise BBPError(f"{where}: cannot read array {key!r}: {exc}") from None
    return arrays


def _restore_bat(directory: Path, entry: dict, name: str) -> BAT:
    """The BAT (or fragment) one validated catalog entry describes, its
    columns decoded by the codec."""
    where = f"catalog entry {name!r}, {entry['file']}"
    arrays = _read_npz(directory / entry["file"], where)
    count = entry.get("count") if entry["hvoid"] or entry["tvoid"] else None
    columns = []
    for prefix, key in (("h", "head"), ("t", "tail")):
        atom_name = "void" if entry[f"{prefix}void"] else entry[f"{prefix}type"]
        spec = {"atom": atom_name, "seqbase": entry.get(f"{prefix}seqbase"), "count": count}
        try:
            parts = [arrays.pop(part, None) for part in _codec.part_names(atom_name, key)]
            columns.append(_codec.decode(spec, parts, key))
        except _codec.CodecError as exc:
            raise BBPError(f"{where}: {exc}") from None
        count = len(columns[-1])
    if arrays:
        raise BBPError(f"{where}: unexpected arrays {sorted(arrays)}")
    return BAT(
        *columns,
        hsorted=entry["hsorted"],
        tsorted=entry["tsorted"],
        hkey=entry["hkey"],
        tkey=entry["tkey"],
    )
