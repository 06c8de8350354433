"""Aggregation: scalar aggregates and Monet's grouped "pump" variants.

Scalar aggregates reduce a whole BAT tail to one value (``count``,
``sum``, ``max``, ``min``, ``avg``).  The *pump* variants (MIL writes
them ``{sum}``) aggregate per group: given a value BAT and a positionally
aligned grouping BAT ([head, group-oid], as produced by
:func:`repro.monet.groups.group`), they return [group-oid, aggregate].

The Mirror ranking query ``map[sum(THIS)]( map[getBL(...)](...) )``
compiles exactly to a ``{sum}`` pump over the belief BAT grouped by
document oid, which is why these operators are on the critical path of
every experiment in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.errors import KernelError
from repro.monet.kernel import key_space, stable_order

# ----------------------------------------------------------------------
# Scalar aggregates
# ----------------------------------------------------------------------


def count(bat: BAT) -> int:
    """Number of BUNs."""
    return len(bat)


def sum_(bat: BAT) -> Any:
    """Sum of tail values (0 for an empty BAT, Monet convention)."""
    _require_numeric(bat, "sum")
    tails = bat.tail_values()
    if len(tails) == 0:
        return 0.0 if bat.ttype == "dbl" else 0
    total = tails.sum()
    return float(total) if bat.ttype == "dbl" else int(total)


def max_(bat: BAT) -> Any:
    """Maximum tail value; NIL (None) for an empty BAT."""
    _require_numeric(bat, "max")
    tails = bat.tail_values()
    if len(tails) == 0:
        return None
    value = tails.max()
    return float(value) if bat.ttype == "dbl" else int(value)


def min_(bat: BAT) -> Any:
    """Minimum tail value; NIL (None) for an empty BAT."""
    _require_numeric(bat, "min")
    tails = bat.tail_values()
    if len(tails) == 0:
        return None
    value = tails.min()
    return float(value) if bat.ttype == "dbl" else int(value)


def avg(bat: BAT) -> Optional[float]:
    """Arithmetic mean of tail values; NIL for an empty BAT."""
    _require_numeric(bat, "avg")
    tails = bat.tail_values()
    if len(tails) == 0:
        return None
    return float(tails.mean())


def _require_numeric(bat: BAT, op: str) -> None:
    if bat.ttype not in ("int", "dbl", "oid", "bit"):
        raise KernelError(f"{op} requires a numeric tail, got {bat.ttype}")


# ----------------------------------------------------------------------
# Pump (grouped) aggregates
# ----------------------------------------------------------------------


def _aligned_group_ids(values: BAT, grouping: BAT) -> np.ndarray:
    """Group ids positionally aligned with *values*.

    When both BATs have void heads over the same oid range the
    alignment is positional; otherwise the grouping is joined on head
    values (the general Monet behaviour).
    """
    if len(values) != len(grouping):
        raise KernelError(
            "pump aggregate requires the grouping to cover every value BUN "
            f"({len(values)} values vs {len(grouping)} group entries)"
        )
    if values.hdense and grouping.hdense:
        if values.head.seqbase != grouping.head.seqbase:
            raise KernelError("pump aggregate: misaligned void heads")
        return grouping.tail_values()
    if len(values) == 0:
        return grouping.tail_values()
    if "str" in (values.htype, grouping.htype):
        # str heads in one code space (all NILs one key, the identity
        # rule); a str equals no number.
        keys_of = key_space(grouping.head, values.head)
        if keys_of is None:
            raise KernelError(
                f"pump aggregate: head {values.head.python_value(0)!r} has no group"
            )
        group_codes = keys_of(grouping.head)
        value_codes = keys_of(values.head)
    else:
        group_codes = grouping.head_values()
        value_codes = values.head_values()
    group_ids = grouping.tail_values()
    if np.array_equal(value_codes, group_codes):
        return group_ids
    order = stable_order(group_codes)
    sorted_codes = group_codes[order]
    hi = np.searchsorted(sorted_codes, value_codes, side="right")
    found = hi > 0
    slot = np.where(found, hi - 1, 0)
    found &= sorted_codes[slot] == value_codes
    if not found.all():
        missing = values.head.python_value(int(np.nonzero(~found)[0][0]))
        raise KernelError(f"pump aggregate: head {missing!r} has no group")
    # side="right" - 1 lands on the *last* duplicate head: the last
    # grouping BUN of a head wins.
    return group_ids[order[slot]].astype(np.int64)


def _n_groups(group_ids: np.ndarray, explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    return int(group_ids.max()) + 1 if len(group_ids) else 0


def grouped_sum(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{sum}: [group-oid, sum of values in that group].

    Groups without members get 0 (matching InQuery's treatment of
    absent evidence as contributing the default belief separately).
    """
    _require_numeric(values, "{sum}")
    ids = _aligned_group_ids(values, grouping)
    size = _n_groups(ids, n_groups)
    tails = values.tail_values().astype(np.float64)
    sums = np.bincount(ids, weights=tails, minlength=size) if size else np.zeros(0)
    if values.ttype == "int":
        return BAT(VoidColumn(0, size), Column("int", sums.astype(np.int64)))
    return BAT(VoidColumn(0, size), Column("dbl", sums))


def grouped_count(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{count}: [group-oid, member count]."""
    ids = _aligned_group_ids(values, grouping)
    size = _n_groups(ids, n_groups)
    counts = np.bincount(ids, minlength=size).astype(np.int64) if size else np.zeros(0, np.int64)
    return BAT(VoidColumn(0, size), Column("int", counts))


def grouped_max(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{max}: [group-oid, max]; empty groups get NIL."""
    return _grouped_extreme(values, grouping, n_groups, np.maximum, -np.inf)


def grouped_min(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{min}: [group-oid, min]; empty groups get NIL."""
    return _grouped_extreme(values, grouping, n_groups, np.minimum, np.inf)


def _grouped_extreme(values, grouping, n_groups, ufunc, identity) -> BAT:
    _require_numeric(values, "{extreme}")
    ids = _aligned_group_ids(values, grouping)
    size = _n_groups(ids, n_groups)
    out = np.full(size, identity, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # NaN members poison their group
        ufunc.at(out, ids, values.tail_values().astype(np.float64))
    out[np.isinf(out)] = np.nan  # empty group -> dbl NIL
    if values.ttype == "int":
        ints = np.where(np.isnan(out), np.iinfo(np.int64).min, out).astype(np.int64)
        return BAT(VoidColumn(0, size), Column("int", ints))
    return BAT(VoidColumn(0, size), Column("dbl", out))


def grouped_avg(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{avg}: [group-oid, mean]; empty groups get NIL (nan)."""
    _require_numeric(values, "{avg}")
    ids = _aligned_group_ids(values, grouping)
    size = _n_groups(ids, n_groups)
    tails = values.tail_values().astype(np.float64)
    sums = np.bincount(ids, weights=tails, minlength=size)
    counts = np.bincount(ids, minlength=size)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    return BAT(VoidColumn(0, size), Column("dbl", means))


def grouped_prod(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{prod}: [group-oid, product]; the physical operator behind the
    inference network's #and combinator (product of beliefs)."""
    _require_numeric(values, "{prod}")
    ids = _aligned_group_ids(values, grouping)
    size = _n_groups(ids, n_groups)
    tails = values.tail_values().astype(np.float64)
    # log-space product: safe because beliefs are positive; zeros handled
    # by masking.
    out = np.ones(size, dtype=np.float64)
    zero_mask = tails == 0.0
    if zero_mask.any():
        has_zero = np.zeros(size, dtype=bool)
        np.logical_or.at(has_zero, ids[zero_mask], True)
    else:
        has_zero = np.zeros(size, dtype=bool)
    positive = ~zero_mask & (tails > 0)
    logs = np.zeros(len(tails))
    logs[positive] = np.log(tails[positive])
    log_sums = np.bincount(ids[positive], weights=logs[positive], minlength=size)
    counts = np.bincount(ids, minlength=size)
    out = np.exp(log_sums)
    out[has_zero] = 0.0
    out[counts == 0] = 1.0
    negative = tails < 0
    if negative.any():
        # Track sign parity for negative factors.
        neg_counts = np.bincount(ids[negative], minlength=size)
        abs_logs = np.log(np.abs(tails[negative]))
        extra = np.bincount(ids[negative], weights=abs_logs, minlength=size)
        out = out * np.exp(extra)
        out[neg_counts % 2 == 1] *= -1.0
    return BAT(VoidColumn(0, size), Column("dbl", out))
