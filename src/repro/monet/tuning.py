"""The physical tuning knobs: one record, one table, one resolution.

This module alone knows how a knob gets its value.  :data:`KNOBS` has
one row per field of the frozen :class:`Tuning` record (environment
variable, kind, bound, cores-derived default), and :func:`resolve`
applies one precedence knob by knob: **override > environment >
derived default**.  The environment is the only outside input: it is
read and validated once, at import, and the whole ``REPRO_`` prefix is
this module's namespace, so a set ``REPRO_*`` variable that is not a
knob fails the import like a malformed value.  :func:`override` is the
test seam; one validator serves it and the environment.  Everything
else reads the live record -- ``tuning.current().merge_fanout``.
Nothing here is persisted: a ``tuning`` entry in a catalog written by
an older build is ignored like any unknown catalog key.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.monet.errors import KernelError


@dataclass(frozen=True)
class Tuning:
    """One resolved physical configuration (fields in :data:`KNOBS`
    order)."""

    fragment_size: int
    parallel_min: int
    merge_fanout: int
    join_fanout: int
    join_spill: int
    wal_group_ms: float


@dataclass(frozen=True)
class Knob:
    """One row of the knob table.  Knobs are numbers (``kind`` int or
    float) bounded below by zero, exclusive when ``positive``.
    ``default`` is a value, or ``f(cores, resolved)`` seeing the knobs
    of earlier rows."""

    field: str
    env: str
    kind: type
    default: Any
    positive: bool = False

    @property
    def expects(self) -> str:
        noun = "an integer" if self.kind is int else "a number"
        return f"{noun} {'>' if self.positive else '>='} 0"


KNOBS: Tuple[Knob, ...] = (
    # BUNs per fragment.  Two pressures: a fragment of int64 tails
    # should stay inside an L2-sized working set (64Ki BUNs ~ 0.5 MB),
    # and a moderately large BAT (1M BUNs) should still yield at least
    # two fragments per core so the pool saturates.  Many-core hosts
    # therefore get smaller fragments; the 8Ki floor keeps per-fragment
    # dispatch overhead negligible.
    Knob("fragment_size", "REPRO_FRAGMENT_SIZE", int,
         lambda cores, _: max(8 * 1024, min(64 * 1024, (1 << 20) // (2 * cores))),
         positive=True),
    # Serial-execution floor: below this many total BUNs an operator
    # runs its fragments serially (the numpy work is in the tens of
    # microseconds there and thread dispatch would dominate it).
    # Parallel dispatch pays off once a BAT spans a few fragments; with
    # more cores the thread-pool cost amortizes earlier.
    Knob("parallel_min", "REPRO_PARALLEL_MIN_BUNS", int,
         lambda cores, resolved: resolved["fragment_size"] * max(2, 8 // cores)),
    # Cap on the range partitions the sample-sort merge builds in
    # parallel.  Cache-driven at least as much as core-driven: a
    # partition whose key+position working set stays L2-resident sorts
    # in cache even on one core, so the floor is generous; extra cores
    # raise it for genuine parallelism.  The
    # actual count also respects a ~64k-BUN-per-partition floor
    # (``fragments._merge_partition_count``).
    Knob("merge_fanout", "REPRO_MERGE_FANOUT", int,
         lambda cores, _: max(16, 4 * cores), positive=True),
    # Cap on grace-join radix partitions.  Same two pressures as the
    # merge fan-out: enough partitions that the per-partition builds
    # saturate the pool and stay cache-resident, not so many that
    # dispatch and gather overhead dominate.
    Knob("join_fanout", "REPRO_JOIN_FANOUT", int,
         lambda cores, _: max(16, 4 * cores), positive=True),
    # Build sides above this many BUNs spill their radix partitions to
    # disk through the BBP scratch directory and are processed one
    # partition at a time, capping a join's resident build state near
    # this threshold.  0 forces every partitioned build to spill.
    Knob("join_spill", "REPRO_JOIN_SPILL_BUNS", int, 4 * 1024 * 1024),
    # Group-commit window (ms): the WAL leader sleeps this long before
    # draining the intent queue so concurrent mutators pile onto one
    # fsync.  Zero still batches: a mutator arriving while a flush is
    # in flight joins the next batch.
    Knob("wal_group_ms", "REPRO_WAL_GROUP_MS", float, 0.0),
)

_BY_FIELD = {knob.field: knob for knob in KNOBS}


def _validated(knob: Knob, raw: Any, origin: str, *, text: bool = False) -> Any:
    """The one validator behind the environment and :func:`override`.
    *text* marks an environment string, which the knob's kind parses
    first; everything else must already be typed."""
    value = raw
    if text:
        try:
            value = knob.kind(raw)
        except ValueError:
            value = None
    typed = numbers.Integral if knob.kind is int else numbers.Real
    valid = (
        isinstance(value, typed)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if knob.positive else value >= 0)
    )
    if not valid:
        raise KernelError(f"{origin}={raw!r}: expected {knob.expects}")
    return knob.kind(value)


def _validated_fields(changes: Mapping[str, Any], origin: str) -> Dict[str, Any]:
    unknown = sorted(set(changes) - set(_BY_FIELD))
    if unknown:
        raise KernelError(
            f"{origin}: unknown tuning knob(s) {', '.join(unknown)}; "
            f"expected {', '.join(_BY_FIELD)}"
        )
    return {
        field: _validated(_BY_FIELD[field], value, f"{origin}({field})")
        for field, value in changes.items()
    }


def _environment() -> Dict[str, Any]:
    """The knobs the environment sets.  An unset or empty variable is
    "not set"; a ``REPRO_*`` name that is no knob's (a typo, a knob
    since removed) or a malformed or out-of-range value raises."""
    by_env = {knob.env: knob for knob in KNOBS}
    values: Dict[str, Any] = {}
    for name, raw in os.environ.items():
        if not name.startswith("REPRO_") or not raw:
            continue
        if name not in by_env:
            raise KernelError(
                f"{name}={raw!r}: not a tuning variable; known: {', '.join(by_env)}"
            )
        values[by_env[name].field] = _validated(by_env[name], raw, name, text=True)
    return values


# The layers, in precedence order.  ``_ENV`` is read once, here, so a
# bad environment fails the import.  ``_FORCED`` is :func:`override`'s.
_FORCED: Dict[str, Any] = {}
_ENV: Dict[str, Any] = _environment()
_LAYERS = (_FORCED, _ENV)
_LOCK = threading.Lock()


def resolve(cores: Optional[int] = None) -> Tuning:
    """Resolve every knob through the layers (first hit wins), falling
    back to its default derived from *cores* (default: the live count)."""
    cores = cores or os.cpu_count() or 1
    values: Dict[str, Any] = {}
    for knob in KNOBS:
        layer = next((layer for layer in _LAYERS if knob.field in layer), None)
        if layer is not None:
            values[knob.field] = layer[knob.field]
        elif callable(knob.default):
            values[knob.field] = knob.default(cores, values)
        else:
            values[knob.field] = knob.default
    return Tuning(**values)


_live = resolve()


def current() -> Tuning:
    """The live record.  Frozen: read a field per use, never cache one."""
    return _live


def _refresh() -> None:
    global _live
    _live = resolve()


@contextmanager
def override(**changes: Any) -> Iterator[Tuning]:
    """Force *changes* over the environment for the duration of the
    block.  For tests."""
    checked = _validated_fields(changes, "override")
    with _LOCK:
        saved = dict(_FORCED)
        _FORCED.update(checked)
        _refresh()
    try:
        yield current()
    finally:
        with _LOCK:
            _FORCED.clear()
            _FORCED.update(saved)
            _refresh()
