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

Oids are *dense per collection* (tuple-oid == load position), the Monet
void-head discipline: every attribute access compiles to a positional
``fetchjoin`` instead of a value join.

Extension structures register their own mappers through
:func:`register_mapper`; :mod:`repro.moa.structures.contrep` adds the
inverted-file layout for ``CONTREP`` attributes this way, keeping the
kernel mapping code unaware of IR.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.moa.errors import MoaTypeError
from repro.moa.types import (
    AtomicType,
    ListType,
    MoaType,
    SetType,
    TupleType,
)
from repro.monet.bat import BAT, Column, VoidColumn, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat

EXTENT_SUFFIX = "__extent__"
NEST_SUFFIX = "__nest__"
VALUE_SUFFIX = "__value__"
INDEX_SUFFIX = "__index__"

# ----------------------------------------------------------------------
# Fragmentation threshold
# ----------------------------------------------------------------------

#: Active (threshold, policy) pair.  When the threshold is set,
#: attribute BATs with at least that many BUNs are registered
#: fragmented (see :mod:`repro.monet.fragments`); ``None`` disables
#: transparent fragmentation (the seed behaviour).  A ContextVar keeps
#: the setting local to the thread/task doing the load, so concurrent
#: executors with different thresholds cannot cross-contaminate.
_FRAGMENTATION: ContextVar[Tuple[Optional[int], FragmentationPolicy]] = ContextVar(
    "moa_fragmentation", default=(None, FragmentationPolicy())
)


def get_fragment_threshold() -> Optional[int]:
    return _FRAGMENTATION.get()[0]


@contextmanager
def fragmentation(
    threshold: Optional[int], policy: Optional[FragmentationPolicy] = None
):
    """Scoped fragmentation threshold: loads inside the context register
    large attribute BATs fragmented; the previous setting is restored."""
    previous = _FRAGMENTATION.get()
    token = _FRAGMENTATION.set(
        (threshold, policy if policy is not None else previous[1])
    )
    try:
        yield
    finally:
        _FRAGMENTATION.reset(token)


def register_attribute(pool: BATBufferPool, name: str, bat: BAT) -> None:
    """Register an attribute BAT, fragmenting it when it crosses the
    active threshold.  All mapper ``load`` hooks go through here so
    fragmentation stays transparent to the logical layer."""
    threshold, policy = _FRAGMENTATION.get()
    if threshold is not None and len(bat) >= threshold:
        pool.register_fragmented(name, fragment_bat(bat, policy), replace=True)
    else:
        pool.register(name, bat, replace=True)


def append_attribute(pool: BATBufferPool, name: str, tails: Sequence[Any]) -> None:
    """Append tail values to an attribute BAT through the pool's
    copy-on-write/WAL path, promoting a monolithic registration to
    fragments when the append pushes it across the active threshold.
    All mapper ``append`` hooks go through here, mirroring
    :func:`register_attribute`."""
    appended = pool.append(name, tails=list(tails))
    threshold, policy = _FRAGMENTATION.get()
    if (
        threshold is not None
        and not pool.is_fragmented(name)
        and len(appended) >= threshold
    ):
        pool.register_fragmented(
            name, fragment_bat(appended, policy), replace=True
        )


class StructureMapper:
    """Load/reconstruct/append hooks for one structure kind.

    ``load`` receives the attribute values aligned with parent oids
    ``0..len(values)-1`` and must register BATs under *prefix*;
    ``reconstruct`` reads them back into Python values, one per parent.

    ``append`` is the incremental load path: it receives values aligned
    with *new* parent oids ``offset..offset+len(values)-1`` and must
    extend the registered BATs in place via :func:`append_attribute`
    (O(batch), never a reload).  A mapper advertises support with
    ``can_append``; callers must check it for the *whole* type tree
    before appending anything, so an unsupported branch (``False``,
    e.g. CONTREP's inverted file) falls back to reconstruct+reload
    without leaving a half-appended collection behind.

    ``delete``/``update`` are the in-place mutation paths (tombstone /
    patch deltas through ``pool.delete``/``pool.update``): *positions*
    are parent oids, and deletion renumbers the dense oid discipline so
    survivors stay ``0..n-1``.  As with append, ``can_delete`` /
    ``can_update`` gate the whole type tree before the first mutation;
    nested SET/LIST attributes answer ``False`` (child-side compaction
    would need a value join, not a positional gather), so tuples with
    nested members fall back to reconstruct+reload at the collection
    level.
    """

    def load(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        values: Sequence[Any],
    ) -> None:
        raise NotImplementedError

    def reconstruct(
        self, pool: BATBufferPool, prefix: str, ty: MoaType, count: int
    ) -> List[Any]:
        raise NotImplementedError

    def can_append(self, ty: MoaType) -> bool:
        return False

    def append(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        values: Sequence[Any],
        offset: int,
    ) -> None:
        raise NotImplementedError

    def can_delete(self, ty: MoaType) -> bool:
        return False

    def delete(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        positions: Sequence[int],
    ) -> None:
        raise NotImplementedError

    def can_update(self, ty: MoaType) -> bool:
        return False

    def update(
        self,
        pool: BATBufferPool,
        prefix: str,
        ty: MoaType,
        positions: Sequence[int],
        values: Sequence[Any],
    ) -> None:
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


# ----------------------------------------------------------------------
# Kernel mappers
# ----------------------------------------------------------------------


class AtomicMapper(StructureMapper):
    """Atomic<B> attribute -> one [void, value] BAT."""

    def load(self, pool, prefix, ty: AtomicType, values):
        register_attribute(pool, prefix, dense_bat(ty.atom, list(values)))

    def reconstruct(self, pool, prefix, ty: AtomicType, count):
        bat = pool.lookup(prefix)
        if len(bat) != count:
            raise MoaTypeError(
                f"{prefix}: expected {count} values, found {len(bat)}"
            )
        return bat.tail_list()

    def can_append(self, ty: AtomicType) -> bool:
        return True

    def append(self, pool, prefix, ty: AtomicType, values, offset):
        append_attribute(pool, prefix, values)

    def can_delete(self, ty: AtomicType) -> bool:
        return True

    def delete(self, pool, prefix, ty: AtomicType, positions):
        pool.delete(prefix, positions)

    def can_update(self, ty: AtomicType) -> bool:
        return True

    def update(self, pool, prefix, ty: AtomicType, positions, values):
        pool.update(prefix, positions, values)


class TupleMapper(StructureMapper):
    """TUPLE attribute: recurse per field under ``prefix.field``."""

    def load(self, pool, prefix, ty: TupleType, values):
        for field_name, field_ty in ty.fields:
            field_values = [_field(v, field_name) for v in values]
            mapper_for(field_ty).load(
                pool, f"{prefix}.{field_name}", field_ty, field_values
            )

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

    def can_append(self, ty: TupleType) -> bool:
        return all(
            mapper_for(field_ty).can_append(field_ty)
            for _, field_ty in ty.fields
        )

    def append(self, pool, prefix, ty: TupleType, values, offset):
        for field_name, field_ty in ty.fields:
            field_values = [_field(v, field_name) for v in values]
            mapper_for(field_ty).append(
                pool, f"{prefix}.{field_name}", field_ty, field_values, offset
            )

    def can_delete(self, ty: TupleType) -> bool:
        return all(
            mapper_for(field_ty).can_delete(field_ty)
            for _, field_ty in ty.fields
        )

    def delete(self, pool, prefix, ty: TupleType, positions):
        for field_name, field_ty in ty.fields:
            mapper_for(field_ty).delete(
                pool, f"{prefix}.{field_name}", field_ty, positions
            )

    def can_update(self, ty: TupleType) -> bool:
        return all(
            mapper_for(field_ty).can_update(field_ty)
            for _, field_ty in ty.fields
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


class SetMapper(StructureMapper):
    """Nested SET attribute: __nest__ parent map + element payload."""

    ordered = False

    def load(self, pool, prefix, ty: SetType, values):
        parents: List[int] = []
        elements: List[Any] = []
        indexes: List[int] = []
        for parent_oid, collection in enumerate(values):
            items = list(collection) if collection is not None else []
            for index, item in enumerate(items):
                parents.append(parent_oid)
                elements.append(item)
                indexes.append(index)
        register_attribute(
            pool, f"{prefix}.{NEST_SUFFIX}", dense_bat("oid", parents)
        )
        if self.ordered:
            register_attribute(
                pool, f"{prefix}.{INDEX_SUFFIX}", dense_bat("int", indexes)
            )
        element_ty = ty.element
        if isinstance(element_ty, AtomicType):
            register_attribute(
                pool,
                f"{prefix}.{VALUE_SUFFIX}",
                dense_bat(element_ty.atom, elements),
            )
        else:
            mapper_for(element_ty).load(pool, prefix, element_ty, elements)

    def reconstruct(self, pool, prefix, ty: SetType, count):
        nest = pool.lookup(f"{prefix}.{NEST_SUFFIX}")
        parents = nest.tail_values()
        element_ty = ty.element
        if isinstance(element_ty, AtomicType):
            elements = pool.lookup(f"{prefix}.{VALUE_SUFFIX}").tail_list()
        else:
            elements = mapper_for(element_ty).reconstruct(
                pool, prefix, element_ty, len(nest)
            )
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

    def can_append(self, ty: SetType) -> bool:
        element_ty = ty.element
        if isinstance(element_ty, AtomicType):
            return True
        return mapper_for(element_ty).can_append(element_ty)

    def append(self, pool, prefix, ty: SetType, values, offset):
        # New children pick up oids after the existing ones, so the
        # recursion offset is the current __nest__ cardinality.
        child_base = _attribute_len(pool, f"{prefix}.{NEST_SUFFIX}")
        parents: List[int] = []
        elements: List[Any] = []
        indexes: List[int] = []
        for i, collection in enumerate(values):
            items = list(collection) if collection is not None else []
            for index, item in enumerate(items):
                parents.append(offset + i)
                elements.append(item)
                indexes.append(index)
        append_attribute(pool, f"{prefix}.{NEST_SUFFIX}", parents)
        if self.ordered:
            append_attribute(pool, f"{prefix}.{INDEX_SUFFIX}", indexes)
        element_ty = ty.element
        if isinstance(element_ty, AtomicType):
            append_attribute(pool, f"{prefix}.{VALUE_SUFFIX}", elements)
        else:
            mapper_for(element_ty).append(
                pool, prefix, element_ty, elements, child_base
            )


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


def load_collection(
    pool: BATBufferPool, name: str, ty: MoaType, values: Sequence[Any]
) -> None:
    """Load a top-level collection: ``SET<TUPLE<...>>`` (or SET of
    atomics) decomposed under *name* plus its extent BAT."""
    if not isinstance(ty, (SetType, ListType)):
        raise MoaTypeError(
            f"top-level collection must be a SET/LIST, got {ty.render()}"
        )
    values = list(values)
    count = len(values)
    extent = BAT(
        VoidColumn(0, count),
        Column("oid", np.arange(count, dtype=np.int64)),
        tkey=True,
        tsorted=True,
    )
    # The extent stays monolithic: it is the spine every reconstruction
    # counts against and its tkey/tsorted flags must survive exactly.
    pool.register(f"{name}.{EXTENT_SUFFIX}", extent, replace=True)
    element_ty = ty.element
    if isinstance(element_ty, AtomicType):
        register_attribute(
            pool,
            f"{name}.{VALUE_SUFFIX}",
            dense_bat(element_ty.atom, values),
        )
    else:
        mapper_for(element_ty).load(pool, name, element_ty, values)


def can_append_collection(ty: MoaType) -> bool:
    """Whether a collection of type *ty* supports the incremental
    append path end to end (every mapper in the type tree implements
    ``append``)."""
    if not isinstance(ty, (SetType, ListType)):
        return False
    element_ty = ty.element
    if isinstance(element_ty, AtomicType):
        return True
    return mapper_for(element_ty).can_append(element_ty)


def append_collection(
    pool: BATBufferPool, name: str, ty: MoaType, values: Sequence[Any]
) -> Optional[int]:
    """Append *values* to an already-loaded collection in O(batch).

    New tuples get the next dense oids; the extent and every attribute
    BAT grow through the pool's copy-on-write append (delta tails, WAL
    logged), so concurrent snapshot readers keep seeing the pre-append
    state.  Returns the new cardinality, or ``None`` when any mapper in
    the type tree lacks an append hook (e.g. CONTREP's inverted file)
    -- the caller must then fall back to reconstruct+reload.  Support
    is checked for the whole tree *before* the first append so the
    fallback never observes a half-appended collection.
    """
    if not can_append_collection(ty):
        return None
    values = list(values)
    base = collection_count(pool, name)
    count = base + len(values)
    if not values:
        return count
    # The extent stays monolithic (see load_collection): appending the
    # next dense oid run keeps its tkey/tsorted flags intact.
    pool.append(f"{name}.{EXTENT_SUFFIX}", tails=list(range(base, count)))
    element_ty = ty.element  # type: ignore[union-attr]
    if isinstance(element_ty, AtomicType):
        append_attribute(pool, f"{name}.{VALUE_SUFFIX}", values)
    else:
        mapper_for(element_ty).append(pool, name, element_ty, values, base)
    return count


def can_delete_collection(ty: MoaType) -> bool:
    """Whether a collection of type *ty* supports positional delete end
    to end (every mapper in the type tree implements ``delete``)."""
    if not isinstance(ty, (SetType, ListType)):
        return False
    element_ty = ty.element
    if isinstance(element_ty, AtomicType):
        return True
    return mapper_for(element_ty).can_delete(element_ty)


def delete_collection(
    pool: BATBufferPool, name: str, ty: MoaType, positions: Sequence[int]
) -> Optional[int]:
    """Delete the tuples at extent *positions* (== dense oids) in
    O(changed fragments).

    Every attribute BAT drops the same positions through the pool's
    tombstone-delta path (``pool.delete``: copy-on-write, WAL logged),
    and the extent is renumbered so surviving oids stay the dense run
    ``0..n-1`` -- the void-head discipline every positional fetchjoin
    relies on.  Returns the new cardinality, or ``None`` when any
    mapper in the type tree lacks a delete hook (nested SET/LIST,
    CONTREP) -- the caller must fall back to reconstruct+reload.
    """
    if not can_delete_collection(ty):
        return None
    positions = sorted({int(p) for p in positions})
    count = collection_count(pool, name)
    if not positions:
        return count
    element_ty = ty.element  # type: ignore[union-attr]
    if isinstance(element_ty, AtomicType):
        pool.delete(f"{name}.{VALUE_SUFFIX}", positions)
    else:
        mapper_for(element_ty).delete(pool, name, element_ty, positions)
    # The extent last: its tail is renumbered back to the dense run so
    # a crash replaying the WAL reproduces the same final state.
    pool.delete(
        f"{name}.{EXTENT_SUFFIX}", positions, renumber_dense_tails=True
    )
    return count - len(positions)


def can_update_collection(ty: MoaType, fields: Optional[Sequence[str]] = None) -> bool:
    """Whether a collection of type *ty* supports positional update.
    With *fields* given (a tuple element's touched field names), only
    those branches of the type tree are checked, so a partial update
    that leaves a nested attribute alone still takes the fast path."""
    if not isinstance(ty, (SetType, ListType)):
        return False
    element_ty = ty.element
    if isinstance(element_ty, AtomicType):
        return True
    if fields is not None and isinstance(element_ty, TupleType):
        by_name = dict(element_ty.fields)
        return all(
            f in by_name and mapper_for(by_name[f]).can_update(by_name[f])
            for f in fields
        )
    return mapper_for(element_ty).can_update(element_ty)


def update_collection(
    pool: BATBufferPool,
    name: str,
    ty: MoaType,
    positions: Sequence[int],
    values: Sequence[Any],
) -> Optional[int]:
    """Patch the tuples at extent *positions* with *values* (aligned;
    for TUPLE elements each value is a dict of the fields to set, all
    dicts carrying the same field set).  Attribute tails are patched
    through the pool's patch-delta path (``pool.update``); untouched
    attributes and fragments are shared by reference.  Returns the
    cardinality, or ``None`` when a touched branch lacks an update
    hook -- the caller must fall back to reconstruct+reload.
    """
    element_ty = ty.element if isinstance(ty, (SetType, ListType)) else None
    fields = None
    if isinstance(element_ty, TupleType) and values:
        first = values[0]
        if isinstance(first, dict):
            fields = list(first.keys())
    if not can_update_collection(ty, fields):
        return None
    count = collection_count(pool, name)
    if not len(positions):
        return count
    if isinstance(element_ty, AtomicType):
        pool.update(f"{name}.{VALUE_SUFFIX}", positions, values)
    else:
        mapper_for(element_ty).update(pool, name, element_ty, positions, values)
    return count


def collection_count(pool: BATBufferPool, name: str) -> int:
    """Cardinality of a loaded collection."""
    return len(pool.lookup(f"{name}.{EXTENT_SUFFIX}"))


def reconstruct_collection(
    pool: BATBufferPool, name: str, ty: MoaType
) -> List[Any]:
    """Read a loaded collection back into Python values (inverse of
    :func:`load_collection`; round-trip tested)."""
    count = collection_count(pool, name)
    element_ty = ty.element  # type: ignore[union-attr]
    if isinstance(element_ty, AtomicType):
        return pool.lookup(f"{name}.{VALUE_SUFFIX}").tail_list()
    return mapper_for(element_ty).reconstruct(pool, name, element_ty, count)


def attribute_bat_names(name: str, ty: MoaType) -> List[str]:
    """All BAT names a collection of type *ty* occupies (catalog tool)."""
    names: List[str] = [f"{name}.{EXTENT_SUFFIX}"]

    def visit(prefix: str, t: MoaType) -> None:
        if isinstance(t, AtomicType):
            names.append(prefix)
            return
        if isinstance(t, TupleType):
            for field_name, field_ty in t.fields:
                visit(f"{prefix}.{field_name}", field_ty)
            return
        if isinstance(t, (SetType, ListType)):
            names.append(f"{prefix}.{NEST_SUFFIX}")
            if isinstance(t, ListType):
                names.append(f"{prefix}.{INDEX_SUFFIX}")
            if isinstance(t.element, AtomicType):
                names.append(f"{prefix}.{VALUE_SUFFIX}")
            else:
                visit(prefix, t.element)
            return
        # Extension structures: ask their mapper if it cooperates.
        mapper = mapper_for(t)
        extra = getattr(mapper, "bat_names", None)
        if extra is not None:
            names.extend(extra(prefix))
        else:  # pragma: no cover - defensive
            names.append(prefix)

    element_ty = ty.element  # type: ignore[union-attr]
    if isinstance(element_ty, AtomicType):
        names.append(f"{name}.{VALUE_SUFFIX}")
    else:
        visit(name, element_ty)
    return names
