"""Aggregation: scalar aggregates and Monet's grouped "pump" variants.

Scalar aggregates reduce a whole BAT tail to one value (``count``,
``sum``, ``max``, ``min``, ``avg``).  The *pump* variants (MIL writes
them ``{sum}``) aggregate per group: given a value BAT and a positionally
aligned grouping BAT ([head, group-oid], as produced by
:func:`repro.monet.groups.group`), they return [group-oid, aggregate].

Each aggregate is defined once (:class:`Aggregate`): a *partial* of
one run of BUNs, a *combine* of several partials, and a *finish* of the
one partial into the result.  The monolithic operator finishes the
partial of the whole BAT; a fragmented operand combines the partials
of its fragments (:func:`repro.monet.fragments.reduce`), so both paths
share every NIL rule.  ``{prod}`` is monolithic only.

The Mirror ranking query ``map[sum(THIS)]( map[getBL(...)](...) )``
compiles exactly to a ``{sum}`` pump over the belief BAT grouped by
document oid, which puts these operators on the critical path of the
benchmark's ranking workloads (``BENCHMARK.json``, mirrorbench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.errors import KernelError
from repro.monet.kernel import each, key_space, stable_order


#: What :meth:`Aggregate.over` gives for runs whose heads are not
#: positionally equal.
UNALIGNED = object()


@dataclass(frozen=True)
class Aggregate:
    """One aggregate.  A scalar aggregate's *partial* takes a BAT and
    its *finish* ``(partial, tail type)``; a *grouped* (pump) one's
    *partial* takes ``(values, group ids, group count)`` and its
    *finish* also the group count.  Calling it is the monolithic
    operator: ``sum_(bat)``, ``grouped_sum(values, grouping[,
    n_groups])``."""

    name: str
    partial: Callable[..., Any]
    combine: Callable[[List[Any]], Any]
    finish: Callable[..., Any]
    numeric: bool = True
    grouped: bool = False

    def __call__(self, *operands: Any) -> Any:
        return self.over([operands])

    def over(self, parts: Sequence[Sequence[Any]], mapper=each) -> Any:
        """The aggregate of *parts*, the operands of its BUN runs in BUN
        order (a pump's group count, if any, read from the first).
        ``mapper(fn, items)`` applies *fn* to every item in order; one
        partial is finished as it is, without a combine.

        A pump over several runs joins no heads: it gives
        :data:`UNALIGNED` unless every run's values and grouping have
        positionally equal heads, for a join on heads within one run is
        not the join over the whole BAT (a permuted or repeated head may
        have its group in another run).  The caller then aggregates the
        whole BATs."""
        first = parts[0][0]
        if self.numeric:
            _require_numeric(first, self.name)
        if not self.grouped:
            partials = mapper(lambda part: self.partial(part[0]), parts)
            return self.finish(self._combined(partials), first.ttype)
        group_ids = _aligned_group_ids if len(parts) == 1 else _positional_group_ids
        size = parts[0][2] if len(parts[0]) > 2 else None
        if size is None:
            ids = mapper(lambda part: group_ids(part[0], part[1]), parts)
            if any(run is None for run in ids):
                return UNALIGNED
            size = _n_groups(ids, None)
            partials = mapper(
                lambda index: self.partial(parts[index][0], ids[index], size),
                range(len(parts)),
            )
        else:

            def one(part: Sequence[Any]) -> Any:
                ids = group_ids(part[0], part[1])
                return None if ids is None else self.partial(part[0], ids, size)

            partials = mapper(one, parts)
            if any(partial is None for partial in partials):
                return UNALIGNED
        return self.finish(self._combined(partials), first.ttype, size)

    def _combined(self, partials: List[Any]) -> Any:
        return partials[0] if len(partials) == 1 else self.combine(partials)


def _require_numeric(bat: BAT, op: str) -> None:
    if bat.ttype not in ("int", "dbl", "oid", "bit"):
        raise KernelError(f"{op} requires a numeric tail, got {bat.ttype}")


def _sum_all(partials: List[Any]) -> Any:
    return np.sum(partials, axis=0)


def _sum_pairs(partials: List[Any]) -> Any:
    """Combine (sum, count) partials member by member."""
    return tuple(np.sum(member, axis=0) for member in zip(*partials))


# ----------------------------------------------------------------------
# Scalar aggregates
# ----------------------------------------------------------------------


def _scalar(value: Any, ttype: str) -> Any:
    """A scalar result as a Python number of the tail's kind; NIL (an
    empty BAT's ``None``) stays."""
    if value is None:
        return None
    return float(value) if ttype == "dbl" else int(value)


def _extreme(name: str, pick: Callable[[Any], Any]) -> Aggregate:
    """``max``/``min``: NIL (None) for an empty BAT.  *pick* is
    ``np.max``/``np.min``, which propagate NaN (dbl NIL) from a tail and
    from a partial alike; Python's ``max()`` would drop it depending on
    the order."""

    def partial(bat: BAT) -> Any:
        tails = bat.tail_values()
        return pick(tails) if len(tails) else None

    def combine(partials: List[Any]) -> Any:
        kept = [p for p in partials if p is not None]
        return pick(kept) if kept else None

    return Aggregate(name, partial, combine, _scalar)


def _avg_partial(bat: BAT):
    # A float64 sum is exactly what ndarray.mean adds before it
    # divides, so the monolithic average is ``tails.mean()`` bit for bit.
    tails = bat.tail_values()
    return tails.sum(dtype=np.float64), len(tails)


#: Number of BUNs.
count = Aggregate("count", len, sum, lambda total, ttype: total, numeric=False)
#: Sum of tail values (0 for an empty BAT, Monet convention).
sum_ = Aggregate("sum", lambda bat: bat.tail_values().sum(), _sum_all, _scalar)
#: Maximum tail value; NIL (None) for an empty BAT.
max_ = _extreme("max", np.max)
#: Minimum tail value; NIL (None) for an empty BAT.
min_ = _extreme("min", np.min)
#: Arithmetic mean of tail values; NIL for an empty BAT.
avg = Aggregate(
    "avg",
    _avg_partial,
    _sum_pairs,
    lambda total, ttype: float(total[0] / total[1]) if total[1] else None,
)

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


def _n_groups(ids: Sequence[np.ndarray], explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    return max((int(part.max()) + 1 for part in ids if len(part)), default=0)


def _positional_group_ids(values: BAT, grouping: BAT) -> Optional[np.ndarray]:
    """The grouping's tail, when its heads equal the values' heads
    position by position (void heads over one oid range, or the same
    non-str head values); else ``None``."""
    if values.hdense and grouping.hdense:
        aligned = values.head.seqbase == grouping.head.seqbase
    else:
        aligned = "str" not in (values.htype, grouping.htype) and np.array_equal(
            values.head_values(), grouping.head_values()
        )
    return grouping.tail_values() if aligned else None


def _pump_bat(out: np.ndarray, ttype: str, size: int) -> BAT:
    """[group-oid, aggregate]: an ``int`` aggregate stays ``int`` (a
    NaN, an empty group's NIL, becomes the int NIL), any other is
    ``dbl``."""
    if ttype == "int":
        ints = np.where(np.isnan(out), np.iinfo(np.int64).min, out).astype(np.int64)
        return BAT(VoidColumn(0, size), Column("int", ints))
    return BAT(VoidColumn(0, size), Column("dbl", out))


def _sum_partial(values: BAT, ids: np.ndarray, size: int) -> np.ndarray:
    if not size:
        return np.zeros(0)
    return np.bincount(ids, weights=values.tail_values().astype(np.float64), minlength=size)


def _count_partial(values: BAT, ids: np.ndarray, size: int) -> np.ndarray:
    if not size:
        return np.zeros(0, np.int64)
    return np.bincount(ids, minlength=size).astype(np.int64)


def _grouped_extreme(name: str, ufunc, identity: float) -> Aggregate:
    """``{max}``/``{min}``: a NaN member poisons its group
    (``np.maximum``/``np.minimum`` propagate it, unlike fmax/fmin), and
    a group with no member anywhere stays at the +-inf identity, which
    *finish* turns into NIL."""

    def partial(values: BAT, ids: np.ndarray, size: int) -> np.ndarray:
        out = np.full(size, identity, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            ufunc.at(out, ids, values.tail_values().astype(np.float64))
        return out

    def combine(partials: List[np.ndarray]) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return ufunc.reduce(partials, axis=0)

    def finish(out: np.ndarray, ttype: str, size: int) -> BAT:
        out[np.isinf(out)] = np.nan  # empty group -> dbl NIL
        return _pump_bat(out, ttype, size)

    return Aggregate(name, partial, combine, finish, grouped=True)


def _avg_grouped_partial(values: BAT, ids: np.ndarray, size: int):
    return _sum_partial(values, ids, size), _count_partial(values, ids, size)


def _avg_grouped_finish(total, ttype: str, size: int) -> BAT:
    sums, counts = total
    with np.errstate(invalid="ignore", divide="ignore"):
        return BAT(VoidColumn(0, size), Column("dbl", sums / counts))


#: {sum}: [group-oid, sum of values in that group].  Groups without
#: members get 0 (matching InQuery's treatment of absent evidence as
#: contributing the default belief separately).
grouped_sum = Aggregate("{sum}", _sum_partial, _sum_all, _pump_bat, grouped=True)
#: {count}: [group-oid, member count].
grouped_count = Aggregate(
    "{count}",
    _count_partial,
    _sum_all,
    lambda counts, ttype, size: BAT(VoidColumn(0, size), Column("int", counts)),
    numeric=False,
    grouped=True,
)
#: {max}: [group-oid, max]; empty groups get NIL.
grouped_max = _grouped_extreme("{max}", np.maximum, -np.inf)
#: {min}: [group-oid, min]; empty groups get NIL.
grouped_min = _grouped_extreme("{min}", np.minimum, np.inf)
#: {avg}: [group-oid, mean]; empty groups get NIL (nan).
grouped_avg = Aggregate(
    "{avg}", _avg_grouped_partial, _sum_pairs, _avg_grouped_finish, grouped=True
)


def grouped_prod(values: BAT, grouping: BAT, n_groups: Optional[int] = None) -> BAT:
    """{prod}: [group-oid, product]; the physical operator behind the
    inference network's #and combinator (product of beliefs)."""
    _require_numeric(values, "{prod}")
    ids = _aligned_group_ids(values, grouping)
    size = _n_groups([ids], n_groups)
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
