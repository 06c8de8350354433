"""Logical-to-physical mapping: how Moa structures become BATs.

This module implements the "translation from the logical data model
into a different physical model" (Mirror paper, section 2) -- the data
independence layer.  Every top-level collection ``Lib`` of type
``SET<TUPLE<...>>`` is decomposed into named BATs in the buffer pool:

========================  =============================================
``Lib.__extent__``        [void position, tuple-oid] -- set membership
``Lib.<a>``               [void tuple-oid, value] -- Atomic attribute
``Lib.<s>.__nest__``      [void child-oid, parent-oid] -- SET/LIST attr
``Lib.<s>.<a>``           [void child-oid, value] -- nested attributes
``Lib.<s>.__value__``     [void child-oid, value] -- SET<Atomic> attr
``Lib.<s>.__index__``     [void child-oid, int] -- LIST order
========================  =============================================

Oids are *dense per collection* (tuple-oid == extent position), the
Monet void-head discipline: every attribute access compiles to a
positional ``fetchjoin`` instead of a value join.

One write path: :func:`create_collection` registers a collection's BATs
empty, and rows only enter through :func:`append_collection` (the
pool's logged copy-on-write append).

Extension structures register their own mappers through
:func:`register_mapper`; :mod:`repro.moa.structures.contrep` adds the
inverted-file layout for ``CONTREP`` attributes this way, keeping the
kernel mapping code unaware of IR.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.moa.errors import MoaTypeError
from repro.moa.types import (
    AtomicType,
    ListType,
    MoaType,
    SetType,
    TupleType,
)
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat

EXTENT_SUFFIX = "__extent__"
NEST_SUFFIX = "__nest__"
VALUE_SUFFIX = "__value__"
INDEX_SUFFIX = "__index__"

# ----------------------------------------------------------------------
# Fragmentation threshold
# ----------------------------------------------------------------------

#: Active (threshold, policy) pair.  When the threshold is set, an
#: append that grows an attribute BAT to at least that many BUNs
#: promotes it to fragments (see :mod:`repro.monet.fragments`);
#: ``None`` disables transparent fragmentation (the seed behaviour).
#: A ContextVar keeps the setting local to the thread/task doing the
#: write, so concurrent executors with different thresholds cannot
#: cross-contaminate.
_FRAGMENTATION: ContextVar[Tuple[Optional[int], FragmentationPolicy]] = ContextVar(
    "moa_fragmentation", default=(None, FragmentationPolicy())
)


def get_fragment_threshold() -> Optional[int]:
    return _FRAGMENTATION.get()[0]


@contextmanager
def fragmentation(
    threshold: Optional[int], policy: Optional[FragmentationPolicy] = None
):
    """Scoped fragmentation threshold: appends inside the context
    promote large attribute BATs to fragments; the previous setting is
    restored."""
    previous = _FRAGMENTATION.get()
    token = _FRAGMENTATION.set(
        (threshold, policy if policy is not None else previous[1])
    )
    try:
        yield
    finally:
        _FRAGMENTATION.reset(token)


def append_attribute(
    pool: BATBufferPool, name: str, tails: Union[Sequence[Any], np.ndarray]
) -> None:
    """Append tail values to an attribute BAT through the pool's
    copy-on-write/WAL path, promoting a monolithic registration to
    fragments when the append pushes it across the active threshold.
    All mapper ``append`` hooks go through here, so fragmentation stays
    transparent to the logical layer.

    *tails* is a column: an ndarray of the attribute atom's dtype is
    taken as the in-column form (NIL as the atom's sentinel) without a
    per-value coercion; a Python list -- row values as the user gave
    them -- is coerced value by value
    (:func:`~repro.monet.bat.column_from_values`)."""
    appended = pool.append(name, tails=tails)
    threshold, policy = _FRAGMENTATION.get()
    if (
        threshold is not None
        and not pool.is_fragmented(name)
        and len(appended) >= threshold
    ):
        pool.register_fragmented(
            name, fragment_bat(appended, policy), replace=True
        )


def children_of(pool: BATBufferPool, name: str, parents: Sequence[int]) -> np.ndarray:
    """Positions in the parent-oid BAT *name* (a ``__nest__`` or CONTREP
    ``owner``) whose tail names one of *parents*.  The tail's order is
    not an invariant, so this is a membership scan, not a range."""
    return np.flatnonzero(np.isin(pool.lookup(name).tail_values(), parents))


class StructureMapper:
    """The physical hooks of one structure kind.

    Every mapper implements all five; there are no capability flags and
    no caller-side fallback, so every mutation of every type tree -- a
    load is an append to the empty BATs ``bat_names`` lists -- goes
    through the logged delta path.  Oids are dense per level: a hook's
    *parent oids* are the tuple-oids of the level above (for a
    top-level collection, the extent positions).

    * ``bat_names(prefix, ty)`` -- every BAT the hooks maintain, as
      ``(name, atom)`` pairs (the atom of its tail).
    * ``reconstruct(pool, prefix, ty, count)`` -- reads them back into
      Python values, one per parent.
    * ``append(pool, prefix, ty, values, offset)`` -- *values* aligned
      with *new* parent oids ``offset..offset+len(values)-1``; extends
      the registered BATs in place via :func:`append_attribute`
      (O(batch), never a reload), a whole batch at a time: what a
      mapper derives (parent oids, LIST indexes, CONTREP postings and
      lengths, the extent) it hands over as column arrays, while the
      user's atomic values travel as the list they came in and are
      coerced per value.
    * ``delete(pool, prefix, ty, positions)`` -- *positions* are the
      sorted unique parent oids being removed.  Per-parent rows drop
      through ``pool.delete``; a structure with children (SET/LIST
      elements, CONTREP postings) also drops every child naming a
      deleted parent, recursing into the element with the child
      positions, and renumbers the survivors' parent oids with
      ``pool.delete(renumber=positions)``.
    * ``update(pool, prefix, ty, positions, values)`` -- *positions*
      unique parent oids aligned with *values*.  Per-parent rows patch
      through ``pool.update``; children are replaced: the old ones are
      deleted *without* renumbering (their parents stay), then the new
      ones are appended with parent oid = position.

    A consequence of update: the parent-oid tails (``__nest__``,
    ``owner``) are *not* sorted by parent in general -- a patched
    parent's children sit at the end.  Nothing may assume that order;
    the tails' ``tsorted`` flag says when it holds.
    """

    def reconstruct(
        self, pool: BATBufferPool, prefix: str, ty: MoaType, count: int
    ) -> List[Any]:
        raise NotImplementedError

    def append(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        values: Sequence[Any],
        offset: int,
    ) -> None:
        raise NotImplementedError

    def delete(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        positions: Sequence[int],
    ) -> None:
        raise NotImplementedError

    def update(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        positions: Sequence[int],
        values: Sequence[Any],
    ) -> None:
        raise NotImplementedError

    def bat_names(self, prefix: str, ty: MoaType) -> List[Tuple[str, str]]:
        raise NotImplementedError


_MAPPERS: Dict[Type[MoaType], StructureMapper] = {}


def register_mapper(type_cls: Type[MoaType], mapper: StructureMapper) -> None:
    """Register the physical mapper for a structure type class."""
    if type_cls in _MAPPERS and type(_MAPPERS[type_cls]) is not type(mapper):
        raise MoaTypeError(f"mapper for {type_cls.__name__} already registered")
    _MAPPERS[type_cls] = mapper


def mapper_for(ty: MoaType) -> StructureMapper:
    for cls in type(ty).__mro__:
        if cls in _MAPPERS:
            return _MAPPERS[cls]
    raise MoaTypeError(f"no physical mapper for {ty.render()}")


def _element_at(prefix: str, element_ty: MoaType) -> Tuple[StructureMapper, str]:
    """The mapper and prefix of a SET/LIST element: an atomic element is
    one ``<prefix>.__value__`` BAT, a structured one maps under
    *prefix* itself."""
    if isinstance(element_ty, AtomicType):
        return mapper_for(element_ty), f"{prefix}.{VALUE_SUFFIX}"
    return mapper_for(element_ty), prefix


# ----------------------------------------------------------------------
# Kernel mappers
# ----------------------------------------------------------------------


class AtomicMapper(StructureMapper):
    """Atomic<B> attribute -> one [void, value] BAT."""

    def reconstruct(self, pool, prefix, ty: AtomicType, count):
        bat = pool.lookup(prefix)
        if len(bat) != count:
            raise MoaTypeError(
                f"{prefix}: expected {count} values, found {len(bat)}"
            )
        return bat.tail_list()

    def append(self, pool, prefix, ty: AtomicType, values, offset):
        append_attribute(pool, prefix, values)

    def delete(self, pool, prefix, ty: AtomicType, positions):
        pool.delete(prefix, positions)

    def update(self, pool, prefix, ty: AtomicType, positions, values):
        pool.update(prefix, positions, values)

    def bat_names(self, prefix, ty: AtomicType):
        return [(prefix, ty.atom)]


class TupleMapper(StructureMapper):
    """TUPLE attribute: recurse per field under ``prefix.field``."""

    def reconstruct(self, pool, prefix, ty: TupleType, count):
        columns = {
            field_name: mapper_for(field_ty).reconstruct(
                pool, f"{prefix}.{field_name}", field_ty, count
            )
            for field_name, field_ty in ty.fields
        }
        return [
            {name: columns[name][i] for name in columns} for i in range(count)
        ]

    def append(self, pool, prefix, ty: TupleType, values, offset):
        for field_name, field_ty in ty.fields:
            field_values = [_field(v, field_name) for v in values]
            mapper_for(field_ty).append(
                pool, f"{prefix}.{field_name}", field_ty, field_values, offset
            )

    def delete(self, pool, prefix, ty: TupleType, positions):
        for field_name, field_ty in ty.fields:
            mapper_for(field_ty).delete(
                pool, f"{prefix}.{field_name}", field_ty, positions
            )

    def update(self, pool, prefix, ty: TupleType, positions, values):
        # Partial updates: only fields present in the value dicts are
        # patched (every dict must carry the same field set -- the DDL
        # SET clause guarantees this).
        touched = set(values[0].keys()) if values else set()
        for field_name, field_ty in ty.fields:
            if field_name not in touched:
                continue
            field_values = [_field(v, field_name) for v in values]
            mapper_for(field_ty).update(
                pool, f"{prefix}.{field_name}", field_ty, positions,
                field_values,
            )

    def bat_names(self, prefix, ty: TupleType):
        return [
            pair
            for field_name, field_ty in ty.fields
            for pair in mapper_for(field_ty).bat_names(
                f"{prefix}.{field_name}", field_ty
            )
        ]


class SetMapper(StructureMapper):
    """Nested SET attribute: __nest__ parent map + element payload."""

    ordered = False

    def reconstruct(self, pool, prefix, ty: SetType, count):
        parents = pool.lookup(f"{prefix}.{NEST_SUFFIX}").tail_values()
        mapper, at = _element_at(prefix, ty.element)
        elements = mapper.reconstruct(pool, at, ty.element, len(parents))
        out: List[List[Any]] = [[] for _ in range(count)]
        if self.ordered:
            order = pool.lookup(f"{prefix}.{INDEX_SUFFIX}").tail_values()
            by_parent: Dict[int, List] = {}
            for child, parent in enumerate(parents):
                by_parent.setdefault(int(parent), []).append(
                    (int(order[child]), elements[child])
                )
            for parent, items in by_parent.items():
                out[parent] = [e for _, e in sorted(items)]
        else:
            for child, parent in enumerate(parents):
                out[int(parent)].append(elements[child])
        return out

    def append(self, pool, prefix, ty: SetType, values, offset):
        self._append_children(
            pool, prefix, ty, range(offset, offset + len(values)), values
        )

    def delete(self, pool, prefix, ty: SetType, positions):
        self._drop_children(pool, prefix, ty, positions, renumber=positions)

    def update(self, pool, prefix, ty: SetType, positions, values):
        self._drop_children(pool, prefix, ty, positions, renumber=None)
        self._append_children(pool, prefix, ty, positions, values)

    def bat_names(self, prefix, ty: SetType):
        names = [(f"{prefix}.{NEST_SUFFIX}", "oid")]
        if self.ordered:
            names.append((f"{prefix}.{INDEX_SUFFIX}", "int"))
        mapper, at = _element_at(prefix, ty.element)
        return names + mapper.bat_names(at, ty.element)

    def _append_children(self, pool, prefix, ty: SetType, parents, collections):
        """Append one collection of children per explicit parent oid."""
        # New children pick up oids after the existing ones, so the
        # element's offset is the current __nest__ cardinality.
        child_base = _attribute_len(pool, f"{prefix}.{NEST_SUFFIX}")
        nest, elements, indexes = _flatten(parents, collections)
        append_attribute(pool, f"{prefix}.{NEST_SUFFIX}", nest)
        if self.ordered:
            append_attribute(pool, f"{prefix}.{INDEX_SUFFIX}", indexes)
        mapper, at = _element_at(prefix, ty.element)
        mapper.append(pool, at, ty.element, elements, child_base)

    def _drop_children(self, pool, prefix, ty: SetType, parents, renumber):
        """Delete every child naming one of *parents*, element rows
        (and their own children) included; *renumber* as in
        ``pool.delete``."""
        nest_name = f"{prefix}.{NEST_SUFFIX}"
        children = children_of(pool, nest_name, parents)
        pool.delete(nest_name, children, renumber=renumber)
        if self.ordered:
            pool.delete(f"{prefix}.{INDEX_SUFFIX}", children)
        mapper, at = _element_at(prefix, ty.element)
        mapper.delete(pool, at, ty.element, children)


class ListMapper(SetMapper):
    """LIST attribute: a SET plus an explicit order column."""

    ordered = True


register_mapper(AtomicType, AtomicMapper())
register_mapper(TupleType, TupleMapper())
register_mapper(SetType, SetMapper())
register_mapper(ListType, ListMapper())


def _attribute_len(pool: BATBufferPool, name: str) -> int:
    """Cardinality of an attribute BAT without coalescing fragments."""
    if pool.is_fragmented(name):
        return len(pool.lookup_fragments(name))
    return len(pool.lookup(name))


def _flatten(
    parents: Sequence[int], collections: Iterable[Any]
) -> Tuple[np.ndarray, List[Any], np.ndarray]:
    """Children columns (parent oid, element, index within its
    collection) of one collection per parent; ``None`` is empty.  The
    parent oids and indexes are int64 arrays."""
    items = [list(c) if c is not None else [] for c in collections]
    lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    nest = np.repeat(np.asarray(parents, dtype=np.int64), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    indexes = np.arange(len(nest), dtype=np.int64) - starts
    return nest, list(itertools.chain.from_iterable(items)), indexes


def _field(value: Any, name: str) -> Any:
    if isinstance(value, dict):
        if name not in value:
            raise MoaTypeError(f"tuple value missing field {name!r}")
        return value[name]
    attr = getattr(value, name, None)
    if attr is None:
        raise MoaTypeError(
            f"cannot read field {name!r} from {type(value).__name__}"
        )
    return attr


# ----------------------------------------------------------------------
# Top-level collections
# ----------------------------------------------------------------------


def create_collection(pool: BATBufferPool, name: str, ty: MoaType) -> None:
    """Create the empty top-level collection *name*: one empty
    ``[void, atom]`` BAT per BAT of ``SET<TUPLE<...>>`` (or SET of
    atomics) *ty*, extent included, registered by one logged
    ``pool.create``.  Rows then enter through
    :func:`append_collection` only."""
    if not isinstance(ty, (SetType, ListType)):
        raise MoaTypeError(
            f"top-level collection must be a SET/LIST, got {ty.render()}"
        )
    pool.create(dict(_collection_bats(name, ty)))


def append_collection(
    pool: BATBufferPool, name: str, ty: MoaType, values: Sequence[Any]
) -> int:
    """Append *values* to a created collection in O(batch); returns
    the new cardinality.

    New tuples get the next dense oids; every attribute BAT and then the
    extent grow through the pool's copy-on-write append (delta tails,
    WAL logged), so concurrent snapshot readers keep seeing the
    pre-append state.
    """
    values = list(values)
    base = collection_count(pool, name)
    count = base + len(values)
    if not values:
        return count
    mapper, at = _element_at(name, ty.element)
    mapper.append(pool, at, ty.element, values, base)
    # The extent last: a snapshot pinned between these appends still
    # sees the old extent, and every gather from it ignores the new
    # rows.  Appending the next dense oid run keeps its flags intact.
    pool.append(f"{name}.{EXTENT_SUFFIX}", tails=np.arange(base, count, dtype=np.int64))
    return count


def delete_collection(
    pool: BATBufferPool, name: str, ty: MoaType, positions: Sequence[int]
) -> int:
    """Delete the tuples at extent *positions* (== dense oids) in
    O(changed fragments); returns the new cardinality.

    Every attribute BAT drops the same positions through the pool's
    tombstone-delta path (``pool.delete``: copy-on-write, WAL logged),
    children naming a deleted tuple go with it, and every surviving oid
    -- the extent's tail and each child's parent oid -- is renumbered
    so the dense ``0..n-1`` discipline every positional fetchjoin
    relies on holds again.
    """
    positions = sorted({int(p) for p in positions})
    count = collection_count(pool, name)
    if not positions:
        return count
    mapper, at = _element_at(name, ty.element)
    mapper.delete(pool, at, ty.element, positions)
    # The extent last: its tail is renumbered back to the dense run so
    # a crash replaying the WAL reproduces the same final state.
    pool.delete(f"{name}.{EXTENT_SUFFIX}", positions, renumber=positions)
    return count - len(positions)


def update_collection(
    pool: BATBufferPool,
    name: str,
    ty: MoaType,
    positions: Sequence[int],
    values: Sequence[Any],
) -> int:
    """Patch the tuples at extent *positions* with *values* (aligned;
    for TUPLE elements each value is a dict of the fields to set, all
    dicts carrying the same field set; a repeated position keeps its
    last value).  Atomic tails are patched through the pool's
    patch-delta path (``pool.update``) and nested children replaced
    (see :class:`StructureMapper`); untouched attributes and fragments
    are shared by reference.  Returns the cardinality.
    """
    latest = dict(zip(map(int, positions), values, strict=True))
    count = collection_count(pool, name)
    if latest:
        mapper, at = _element_at(name, ty.element)
        mapper.update(pool, at, ty.element, list(latest), list(latest.values()))
    return count


def collection_count(pool: BATBufferPool, name: str) -> int:
    """Cardinality of a created collection."""
    return len(pool.lookup(f"{name}.{EXTENT_SUFFIX}"))


def reconstruct_collection(
    pool: BATBufferPool, name: str, ty: MoaType
) -> List[Any]:
    """Read a collection back into Python values (inverse of
    :func:`append_collection` on a fresh collection; round-trip
    tested)."""
    count = collection_count(pool, name)
    mapper, at = _element_at(name, ty.element)
    return mapper.reconstruct(pool, at, ty.element, count)


def _collection_bats(name: str, ty: MoaType) -> List[Tuple[str, str]]:
    """``(BAT name, atom)`` of every BAT a collection of type *ty*
    occupies, the extent first."""
    mapper, at = _element_at(name, ty.element)
    return [(f"{name}.{EXTENT_SUFFIX}", "oid")] + mapper.bat_names(at, ty.element)


def attribute_bat_names(name: str, ty: MoaType) -> List[str]:
    """All BAT names a collection of type *ty* occupies (catalog tool)."""
    return [bat for bat, _ in _collection_bats(name, ty)]
