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
from repro.monet.kernel import TAIL, Identity


#: [head, group-oid]: equal tail values share a dense group oid.  Group
#: oids are assigned in order of first appearance, starting at 0, so the
#: result is deterministic and the number of groups is ``max(tail)+1``
#: of the result.  Values compare by their identity keys
#: (:func:`repro.monet.kernel.key_space`: a str value by its code), so
#: every NIL lands in one group.
group = Identity("group", (TAIL,), "label")
#: Refine a grouping (a [head, group-oid] BAT) by the tail values of a
#: second BAT: BUNs end up in the same group iff they agreed before
#: **and** agree on the new column.  Both inputs must be positionally
#: aligned (same head sequence).
refine = Identity("refine", (TAIL, (1, "tail")), "label")


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
