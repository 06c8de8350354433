"""The MIL builtin table: one row per operator, one driver for all.

Each builtin is a row of :data:`BUILTINS` under its MIL name and may be
invoked both function-style (``join(a, b)``) and method-style
(``a.join(b)``); the receiver becomes the first operand, exactly like
MIL.  The pump aggregates are rows too, under the name MIL spells them
with (``{sum}``).  A row says everything the system knows about its
operator: the signature text of the arity error, how many operands are
required and what each accepted operand must be (a BAT, a scalar to
coerce, anything), the monolithic implementation
(:mod:`repro.monet.kernel` / ``groups`` / ``aggregates``), the
fragment-parallel one in :mod:`repro.monet.fragments` (or ``None``),
and when the fragment-parallel one applies.  Adding an operator is
adding a row.

:func:`invoke_builtin` is the one driver.  It checks arity, type-checks
the BAT operands and coerces the scalars *before* choosing a path -- so
a mistake raises the same :class:`MILRuntimeError` whether the receiver
is monolithic or fragmented, never a bare ``TypeError``/``ValueError``/
``AttributeError`` from inside an implementation -- then routes: to the
fragment-parallel implementation when the row has one and its ``when``
condition holds (re-fragmenting a drifted
:class:`~repro.monet.fragments.FragmentedBAT` result under the active
:class:`~repro.monet.fragments.FragmentationPolicy`), otherwise to the
monolithic one over coalesced operands (cached, at most once per BAT),
so every MIL program stays valid over fragmented BATs.  The
order-sensitive operators (``sort``/``tsort``,
``unique``/``kunique``/``tunique``, ``refine``) and the set operators
have fragment-parallel rows, so a pipeline containing them still
coalesces only at result return; the few without one
(``group_sizes``, ``group_representatives``, ``{prod}``, ...) coalesce.

The policy says how BATs split, never where they run: every
fragment-parallel implementation fans out through
:func:`repro.monet.fragments.map_fragments`.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, NamedTuple, Optional, Tuple

from repro.monet import aggregates, fragments, groups, kernel
from repro.monet.bat import BAT, bat_from_pairs, empty_bat
from repro.monet.errors import MILRuntimeError
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT

#: ``Builtin.when`` -- the condition under which the fragment-parallel
#: implementation runs.  RECEIVER: the receiver is fragmented (every
#: implementation accepts monolithic or fragmented right operands).
#: ANY_OPERAND: any BAT operand is -- a monolithic receiver is
#: fragmented on the fly, because the grace-join family consumes a
#: fragmented *right* operand without coalescing it.  ALIGNED: every
#: BAT operand is, identically (the shape a fragment-parallel ``group``
#: hands to a pump).
RECEIVER, ANY_OPERAND, ALIGNED = "receiver", "any operand", "aligned"


class Builtin(NamedTuple):
    """One row of the builtin table.  ``operands`` has one entry per
    accepted operand, the method-style receiver first: ``BAT`` (must be
    a BAT, monolithic or fragmented), a scalar coercion (``int``,
    ``str``, ``bool``), or ``None`` (passed through as is); the first
    ``required`` of them are mandatory.  ``signature`` is the text of
    the arity error."""

    name: str
    signature: str
    required: int
    operands: Tuple[Any, ...]
    mono: Callable[..., Any]
    frag: Optional[Callable[..., Any]] = None
    when: str = RECEIVER


def _insert(bat, head, tail):
    """Functional single-BUN insert: returns a new BAT with the pair
    appended (MIL's ``insert`` mutates; our BATs are immutable, and the
    Moa compiler never relies on aliasing)."""
    pairs = bat.to_pairs()
    pairs.append((head, tail))
    return bat_from_pairs(bat.htype, bat.ttype, pairs)


def _insert_fragmented(fb, head, tail):
    # Through the copy-on-write delta tail: the committed prefix
    # fragments are shared, only the tail is rebuilt -- no coalesce,
    # O(tail) not O(total).
    return fb.append([(head, tail)])


_PUMP = (BAT, BAT, int)

BUILTINS: Tuple[Builtin, ...] = tuple(Builtin(*row) for row in (
    ("select", "select(bat, value) or select(bat, low, high)", 2, (BAT, None, None),
     kernel.select, fragments.select),
    ("uselect", "uselect(bat, value) or uselect(bat, low, high)", 2, (BAT, None, None),
     kernel.uselect, fragments.uselect),
    ("likeselect", "likeselect(bat, pattern)", 2, (BAT, str),
     kernel.likeselect, fragments.likeselect),
    ("join", "join(left, right)", 2, (BAT, BAT), kernel.join, fragments.join, ANY_OPERAND),
    ("leftjoin", "leftjoin(left, right)", 2, (BAT, BAT),
     kernel.join, fragments.join, ANY_OPERAND),
    ("fetchjoin", "fetchjoin(left, right)", 2, (BAT, BAT),
     kernel.fetchjoin, fragments.fetchjoin, ANY_OPERAND),
    ("outerjoin", "outerjoin(left, right)", 2, (BAT, BAT),
     kernel.outerjoin, fragments.outerjoin, ANY_OPERAND),
    ("semijoin", "semijoin(left, right)", 2, (BAT, BAT),
     kernel.semijoin, fragments.semijoin, ANY_OPERAND),
    ("kdiff", "kdiff(left, right)", 2, (BAT, BAT),
     kernel.kdiff, fragments.kdiff, ANY_OPERAND),
    ("kunion", "kunion(left, right)", 2, (BAT, BAT), kernel.kunion, fragments.kunion),
    ("kintersect", "kintersect(left, right)", 2, (BAT, BAT),
     kernel.kintersect, fragments.kintersect),
    ("reverse", "reverse(bat)", 1, (BAT,), BAT.reverse, fragments.reverse),
    ("mirror", "mirror(bat)", 1, (BAT,), BAT.mirror, fragments.mirror),
    ("mark", "mark(bat[, base])", 1, (BAT, int), kernel.mark, fragments.mark),
    ("number", "number(bat[, base])", 1, (BAT, int), kernel.number, fragments.number),
    ("sort", "sort(bat)", 1, (BAT,), kernel.sort, fragments.sort),
    ("tsort", "tsort(bat)", 1, (BAT,), kernel.tsort, fragments.tsort),
    ("unique", "unique(bat)", 1, (BAT,), kernel.unique, fragments.unique),
    ("kunique", "kunique(bat)", 1, (BAT,), kernel.kunique, fragments.kunique),
    ("tunique", "tunique(bat)", 1, (BAT,), kernel.tunique, fragments.tunique),
    ("slice", "slice(bat, start, stop)", 3, (BAT, int, int),
     kernel.slice_bat, fragments.slice_),
    ("topn", "topn(bat, n[, descending])", 2, (BAT, int, bool), kernel.topn, fragments.topn),
    ("group", "group(bat)", 1, (BAT,), groups.group, fragments.group),
    ("refine", "refine(grouping, bat)", 2, (BAT, BAT), groups.refine, fragments.refine),
    ("group_sizes", "group_sizes(grouping)", 1, (BAT,), groups.group_sizes),
    ("group_representatives", "group_representatives(grouping, bat)", 2, (BAT, BAT),
     groups.group_representatives),
    ("count", "count(bat)", 1, (BAT,), aggregates.count, fragments.count),
    ("sum", "sum(bat)", 1, (BAT,), aggregates.sum_, fragments.sum_),
    ("max", "max(bat)", 1, (BAT,), aggregates.max_, fragments.max_),
    ("min", "min(bat)", 1, (BAT,), aggregates.min_, fragments.min_),
    ("avg", "avg(bat)", 1, (BAT,), aggregates.avg, fragments.avg),
    ("exist", "exist(bat, head_value)", 2, (BAT, None), kernel.exist),
    ("find", "find(bat, head_value)", 2, (BAT, None), BAT.find),
    ("const", "const(bat, atom_name, value)", 3, (BAT, str, None),
     kernel.const_bat, fragments.const),
    ("new", "new(head_type, tail_type)", 2, (str, str), empty_bat),
    ("insert", "insert(bat, head, tail)", 3, (BAT, None, None), _insert, _insert_fragmented),
    # scalar casts -- MIL writes oid(0), dbl(x), ...
    ("oid", "oid(value)", 1, (None,), int),
    ("int", "int(value)", 1, (None,), int),
    ("dbl", "dbl(value)", 1, (None,), float),
    ("str", "str(value)", 1, (None,), str),
    ("bit", "bit(value)", 1, (None,), bool),
    ("neg", "neg(value)", 1, (None,), operator.neg),
    ("isnil", "isnil(value)", 1, (None,), lambda value: value is None),
    # scalar math (BAT-wide versions are the multiplexed [log] etc.)
    ("log", "log(value)", 1, (None,), math.log),
    ("exp", "exp(value)", 1, (None,), math.exp),
    ("sqrt", "sqrt(value)", 1, (None,), math.sqrt),
    # pump aggregates, under the name MIL spells them with
    ("{sum}", "{sum}(values, groups[, n_groups])", 2, _PUMP,
     aggregates.grouped_sum, fragments.grouped_sum, ALIGNED),
    ("{count}", "{count}(values, groups[, n_groups])", 2, _PUMP,
     aggregates.grouped_count, fragments.grouped_count, ALIGNED),
    ("{max}", "{max}(values, groups[, n_groups])", 2, _PUMP,
     aggregates.grouped_max, fragments.grouped_max, ALIGNED),
    ("{min}", "{min}(values, groups[, n_groups])", 2, _PUMP,
     aggregates.grouped_min, fragments.grouped_min, ALIGNED),
    ("{avg}", "{avg}(values, groups[, n_groups])", 2, _PUMP,
     aggregates.grouped_avg, fragments.grouped_avg, ALIGNED),
    ("{prod}", "{prod}(values, groups[, n_groups])", 2, _PUMP, aggregates.grouped_prod),
))

_BY_NAME = {row.name: row for row in BUILTINS}


def has_builtin(name: str) -> bool:
    return name in _BY_NAME


def _checked_operands(row: Builtin, args: list) -> list:
    """*args* with the row's arity, BAT-operand and scalar-coercion
    rules applied -- or the one :class:`MILRuntimeError` naming the
    builtin, whichever path the call would have taken."""
    if not row.required <= len(args) <= len(row.operands):
        plural = "" if len(args) == 1 else "s"
        raise MILRuntimeError(
            f"{row.name} takes {row.signature}, got {len(args)} argument{plural}"
        )
    checked = list(args)
    for index, (value, kind) in enumerate(zip(args, row.operands)):
        if kind is BAT:
            if not isinstance(value, (BAT, FragmentedBAT)):
                raise MILRuntimeError(
                    f"{row.name} expects a BAT, got {type(value).__name__}"
                )
        elif kind is not None:
            try:
                checked[index] = kind(value)
            except (TypeError, ValueError):
                raise MILRuntimeError(
                    f"{row.name} operand {index + 1}: "
                    f"cannot convert {value!r} to {kind.__name__}"
                ) from None
    return checked


def invoke_builtin(
    name: str, args: list, policy: Optional[FragmentationPolicy] = None
) -> Any:
    """Call builtin *name* on *args*: check, coerce, route (see the
    module docstring).  A drifted fragmented result is re-fragmented
    under *policy*."""
    row = _BY_NAME.get(name)
    if row is None:
        raise MILRuntimeError(f"unknown MIL operation {name!r}")
    args = _checked_operands(row, args)
    if any(isinstance(a, FragmentedBAT) for a in args):
        if row.frag is not None:
            if row.when == ANY_OPERAND and isinstance(args[0], BAT):
                args[0] = fragments.fragment_bat(args[0], policy or FragmentationPolicy())
            if isinstance(args[0], FragmentedBAT) and (
                row.when != ALIGNED or _aligned(row, args)
            ):
                result = row.frag(*args)
                if isinstance(result, FragmentedBAT):
                    result = fragments.refragment(result, policy)
                return result
        args = [fragments.coalesce(a) for a in args]
    return row.mono(*args)


def _aligned(row: Builtin, args: list) -> bool:
    """True when every BAT operand is fragmented exactly like the
    (fragmented) receiver."""
    return all(
        isinstance(a, FragmentedBAT) and fragments.same_fragmentation(args[0], a)
        for a, kind in zip(args, row.operands)
        if kind is BAT
    )
