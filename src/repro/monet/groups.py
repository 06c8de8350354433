"""Grouping operators (Monet's ``group``/``refine`` a.k.a. CTgroup).

Grouping in Monet is value-based: ``group(b)`` assigns every BUN of
``b`` a *group oid* such that two BUNs share a group oid iff their tail
values are equal.  Multi-attribute grouping is expressed by *refining*
an existing grouping with another column.

The Moa compiler uses grouping to implement nested-set reconstruction
and grouped aggregation (the ``map[sum(THIS)]`` pattern of the Mirror
paper's ranking queries).
"""

from __future__ import annotations


import numpy as np

from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.errors import KernelError
from repro.monet.kernel import dedup_keys, stable_order


def group(bat: BAT) -> BAT:
    """[head, group-oid]: equal tail values share a dense group oid.

    Group oids are assigned in order of first appearance, starting at 0,
    so the result is deterministic and the number of groups equals
    ``max(tail)+1`` of the result.  Values compare by their identity
    keys (:func:`repro.monet.kernel.dedup_keys`: a str value by its
    code), so every NIL lands in one group.
    """
    return BAT(
        bat.head,
        Column("oid", _dense_group_ids(dedup_keys(bat.tail))),
        hsorted=bat.hsorted,
        hkey=bat.hkey,
    )


def refine(grouping: BAT, bat: BAT) -> BAT:
    """Refine *grouping* (a [head, group-oid] BAT) by the tail values of
    *bat*: BUNs end up in the same group iff they agreed before **and**
    agree on the new column.  Both inputs must be positionally aligned
    (same head sequence)."""
    if len(grouping) != len(bat):
        raise KernelError("refine requires positionally aligned inputs")
    old_ids = grouping.tail_values().astype(np.int64)
    # Key equality is all that matters here, so the uint64 float keys
    # may wrap into int64.
    values = dedup_keys(bat.tail).astype(np.int64, copy=False)
    pair = np.stack((old_ids, values), axis=1)
    _, first_idx, inverse = np.unique(
        pair, axis=0, return_index=True, return_inverse=True
    )
    return BAT(
        grouping.head,
        Column("oid", _first_appearance_relabel(first_idx, inverse)),
        hsorted=grouping.hsorted,
        hkey=grouping.hkey,
    )


def group_sizes(grouping: BAT) -> BAT:
    """[group-oid, count]: how many BUNs fell into each group."""
    ids = grouping.tail_values()
    if len(ids) == 0:
        return BAT(VoidColumn(0, 0), Column("int", np.empty(0, dtype=np.int64)))
    n_groups = int(ids.max()) + 1
    counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
    return BAT(VoidColumn(0, n_groups), Column("int", counts))


def group_representatives(grouping: BAT, bat: BAT) -> BAT:
    """[group-oid, tail]: the tail value of the first member of each
    group -- reconstructs the grouping key column."""
    if len(grouping) != len(bat):
        raise KernelError("group_representatives requires aligned inputs")
    ids = grouping.tail_values()
    if len(ids) == 0:
        return BAT(VoidColumn(0, 0), bat.tail.take(ids))
    n_groups = int(ids.max()) + 1
    uniq, first_positions = np.unique(ids, return_index=True)
    if len(uniq) != n_groups:
        raise KernelError("grouping has gaps in its group-oid sequence")
    tail = bat.tail.take(first_positions)
    return BAT(VoidColumn(0, n_groups), tail, hkey=True)


def _dense_group_ids(keys: np.ndarray) -> np.ndarray:
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    _, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return _first_appearance_relabel(first_idx, inverse)


def _first_appearance_relabel(first_idx: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Relabel np.unique inverse codes so group ids follow first
    appearance order (deterministic, Monet-like); fully vectorized."""
    order = stable_order(first_idx)
    relabel = np.empty(len(order), dtype=np.int64)
    relabel[order] = np.arange(len(order), dtype=np.int64)
    return relabel[inverse.astype(np.int64).ravel()]
