"""Shared-memory column transport for the process executor backend.

The fragment operators of :mod:`repro.monet.fragments` fan out on
threads by default, which is fine for numpy's GIL-releasing numeric
kernels but leaves object-dtype (str) operators serialized on the GIL.
The process backend ships those per-fragment computations to worker
processes instead, and this module is the transport: the parent
*exports* each fragment's predicate column into a
:mod:`multiprocessing.shared_memory` segment, workers *attach* the
segment, rebuild the column, run a registered task
(:data:`repro.monet.kernel.FRAGMENT_TASKS`) and return only the small
result -- qualifying positions or a membership key set -- over the
regular result pipe.

Segment layout:

numeric column
    the raw little-endian array bytes; the handle carries
    ``(name, atom, dtype, length)`` and the worker maps the array
    **zero-copy** with ``np.frombuffer`` over the shared buffer.
str (object) column
    a length-prefixed encoded heap of UTF-8 strings, written via the
    pickle protocol: its ``BINUNICODE`` framing is exactly that layout
    -- an opcode, the byte length, the UTF-8 payload per string (NIL
    is pickle's ``None`` opcode) -- produced and parsed by one C-level
    pass.  That pass is what makes the backend viable:
    at 1M values the C codec round-trips in ~25 ms where a Python-loop
    heap codec costs ~600 ms, ten times the very scan the offload is
    trying to parallelize (measured; see ``bench_fragments
    --strings``).  The worker reconstructs the object array and
    releases the mapping immediately.
void column
    no segment at all; the handle is ``(seqbase, count)``.
broadcast blob
    an arbitrary pickled object (e.g. the shared membership build of
    the set operators) placed in one segment and attached by every
    worker, with a small per-process cache so each worker deserializes
    a given build once.

Lifetime: the parent owns every segment and unlinks it as soon as the
fan-out completes (:func:`release_segments`); workers close their
mappings inside the task.  Resource-tracker accounting stays balanced
because the spawn-context workers share the parent's tracker (see
:func:`_attach`), so a clean run emits no "leaked shared_memory"
warnings at interpreter exit -- the lifecycle tests assert this, plus
that :data:`_LIVE_SEGMENTS` (parent-side segments between export and
release) drains to empty.
"""

from __future__ import annotations

import os
import pickle
import secrets
from collections import OrderedDict
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.monet.bat import AnyColumn, Column, VoidColumn

try:  # pragma: no cover - import guard for shared_memory-less platforms
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: Prefix of every segment name this module creates; the leak tests
#: scan ``/dev/shm`` for leftovers carrying it.
SHM_PREFIX = "reprofrag"

#: Names of parent-side segments exported but not yet released.
_LIVE_SEGMENTS: set = set()


def available() -> bool:
    """True when :mod:`multiprocessing.shared_memory` importable."""
    return shared_memory is not None


def _new_segment(size: int):
    name = f"{SHM_PREFIX}{os.getpid():x}_{secrets.token_hex(6)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=max(1, size))
    _LIVE_SEGMENTS.add(segment.name)
    return segment


def _attach(name: str):
    """Worker-side attach.

    Python 3.11 registers shared-memory *attachments* with the
    resource tracker exactly like creations (bpo-39959; ``track=False``
    only exists from 3.13).  That is harmless here -- but only because
    of how the processes are wired: the spawn-context workers inherit
    the parent's tracker fd, and the tracker's registry is a *set*, so
    the worker's attach-register of an already-registered name is a
    no-op and the parent's ``unlink`` removes it exactly once.  Do NOT
    "fix" the 3.11 behavior by unregistering after attach: with the
    shared tracker that removes the parent's registration and every
    later unlink trips a tracker KeyError."""
    return shared_memory.SharedMemory(name=name)


def _detach(segment) -> None:
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a view outlived the task
        pass


def release_segments(segments: List[Any]) -> None:
    """Parent-side cleanup after a fan-out: close and unlink every
    exported segment (workers only ever hold short-lived mappings)."""
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _LIVE_SEGMENTS.discard(segment.name)


# ----------------------------------------------------------------------
# Column export (parent) / load (worker)
# ----------------------------------------------------------------------


def export_column(column: AnyColumn) -> Tuple[tuple, List[Any]]:
    """Shared-memory handle for *column* plus the segments backing it
    (for the parent to release after the fan-out).  The handle is a
    plain picklable tuple."""
    if column.is_void:
        return ("void", column.seqbase, len(column)), []
    atom_name = column.atom_type.name
    values = column.materialize()
    if values.dtype == np.dtype(object):
        # The length-prefixed UTF-8 heap, written by the C pickler (see
        # the module docstring for why not a Python-loop codec).
        payload = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
        segment = _new_segment(len(payload))
        segment.buf[: len(payload)] = payload
        handle = ("obj", segment.name, atom_name, len(payload))
        return handle, [segment]
    raw = np.ascontiguousarray(values)
    segment = _new_segment(raw.nbytes)
    if len(raw):
        np.frombuffer(segment.buf, dtype=raw.dtype, count=len(raw))[:] = raw
    handle = ("num", segment.name, atom_name, str(raw.dtype), len(raw))
    return handle, [segment]


def load_column(handle: tuple) -> Tuple[AnyColumn, Optional[Any]]:
    """Worker-side inverse of :func:`export_column`.

    Returns ``(column, segment)``; numeric columns are zero-copy views
    into the still-open *segment* (the caller closes it once the task's
    result no longer references the buffer), str columns are decoded
    copies and come back with ``segment=None`` (already closed)."""
    kind = handle[0]
    if kind == "void":
        return VoidColumn(handle[1], handle[2]), None
    if kind == "num":
        _, name, atom_name, dtype_name, length = handle
        segment = _attach(name)
        values = np.frombuffer(segment.buf, dtype=np.dtype(dtype_name), count=length)
        return Column(atom_name, values), segment
    _, name, atom_name, size = handle
    segment = _attach(name)
    try:
        payload = bytes(segment.buf[:size])
    finally:
        _detach(segment)
    return Column(atom_name, pickle.loads(payload)), None


# ----------------------------------------------------------------------
# Broadcast blobs (shared build sides)
# ----------------------------------------------------------------------

#: Worker-side cache of deserialized broadcast blobs, keyed by segment
#: name (unique per export, so entries can never go stale).
_BLOB_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_BLOB_CACHE_MAX = 8


def export_blob(obj: Any) -> Tuple[tuple, List[Any]]:
    """Pickle *obj* into one shared segment every worker can attach;
    used for build sides shared across all probe fragments (e.g. the
    membership set of the fragmented set operators)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    segment = _new_segment(len(payload))
    segment.buf[: len(payload)] = payload
    return (segment.name, len(payload)), [segment]


def load_blob(handle: tuple) -> Any:
    """Worker-side blob fetch with a small per-process cache, so a
    build side broadcast to N fragments deserializes once per worker,
    not once per task."""
    name, size = handle
    if name in _BLOB_CACHE:
        _BLOB_CACHE.move_to_end(name)
        return _BLOB_CACHE[name]
    segment = _attach(name)
    try:
        payload = bytes(segment.buf[:size])
    finally:
        _detach(segment)
    obj = pickle.loads(payload)
    _BLOB_CACHE[name] = obj
    while len(_BLOB_CACHE) > _BLOB_CACHE_MAX:
        _BLOB_CACHE.popitem(last=False)
    return obj


# ----------------------------------------------------------------------
# The worker entry point
# ----------------------------------------------------------------------


def _copy_off_segment(result: Any) -> Any:
    """Deep-copy every ndarray in *result* (descending through list and
    tuple shells) so nothing aliases a shared-memory segment about to
    be detached."""
    if isinstance(result, np.ndarray):
        return result.copy()
    if isinstance(result, list):
        return [_copy_off_segment(item) for item in result]
    if isinstance(result, tuple):
        return tuple(_copy_off_segment(item) for item in result)
    return result


def run_column_task(
    task_name: str, handle: tuple, args: tuple, blob_handle: Optional[tuple] = None
) -> Any:
    """Execute registered task *task_name* over the column behind
    *handle* in a worker process.

    The task function comes from
    :data:`repro.monet.kernel.FRAGMENT_TASKS`; a *blob_handle* resolves
    to the broadcast object and is injected as the first argument after
    the column.  Only the (small, picklable) task result travels back.
    """
    from repro.monet import kernel

    fn = kernel.FRAGMENT_TASKS[task_name]
    column, segment = load_column(handle)
    try:
        if blob_handle is not None:
            result = fn(column, load_blob(blob_handle), *args)
        else:
            result = fn(column, *args)
        if segment is not None:
            # Never let a result view pin the shared buffer past the
            # task: copy unconditionally before the mapping closes
            # (ascontiguousarray would no-op on a contiguous view and
            # leave the result aliasing the unlinked segment).  Results
            # may also be containers of arrays (the grace-join radix
            # split returns one positions array per partition), so the
            # copy recurses through list/tuple shells.
            result = _copy_off_segment(result)
        return result
    finally:
        del column
        if segment is not None:
            _detach(segment)
