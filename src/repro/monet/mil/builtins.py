"""The MIL builtin table: one row per operator, one driver for all.

Each builtin is a row of :data:`BUILTINS` under its MIL name and may be
invoked both function-style (``join(a, b)``) and method-style
(``a.join(b)``); the receiver becomes the first operand, exactly like
MIL.  The pump aggregates are rows under the name MIL spells them with
(``{sum}``), and multiplex is the row ``[op]``, the operator name its
first operand.  A row says everything the system knows about its
operator: the signature text of the arity error, how many operands are
required and what each accepted operand must be (a BAT, a scalar to
coerce, anything), its kernel function, and its fragment rule -- how it
runs when an operand is a :class:`~repro.monet.fragments.FragmentedBAT`
(:class:`Rule`; the condition under which each runs in brackets):

* *per fragment* (a fragmented receiver): the kernel function on every
  fragment (:func:`~repro.monet.fragments.per_fragment`), with the
  row's declaration of a global position -- a result column numbered
  across fragments (``mark``, ``number``, ``uselect``) or a BUN window
  clipped per fragment (``slice``); a *view* row's kernel function is
  an O(1) view and runs on the calling thread (``reverse``, ``mirror``,
  ``mark``, ``number``, ``slice``);
* *aligned* (operands cut alike, :func:`~repro.monet.fragments.align`):
  the kernel function on every fragment's operands (``[op]``);
* *reduce* (operands cut alike, and a pump's value and grouping heads
  equal position by position): the row's
  :class:`~repro.monet.aggregates.Aggregate`, partial per fragment,
  combine, finish (:func:`~repro.monet.fragments.reduce`);
* *identity* (operands cut alike): the row's
  :class:`~repro.monet.kernel.Identity` -- its key sides (head, tail,
  both, or grouping id and tail) and its finish (keep: ``unique``,
  ``kunique``, ``tunique``; label: ``group``, ``refine``) -- through
  the same driver: every fragment reports its distinct keys, their
  first positions and its local ids, one first-occurrence primitive
  merges the reports in fragment order, and the finish keeps or
  relabels per fragment;
* *build-probe* (any fragmented operand; a monolithic receiver is
  fragmented on the fly, because the grace-join family consumes a
  fragmented right operand without coalescing it): against a
  monolithic right with a provably dense head
  (:attr:`~repro.monet.bat.BAT.hseqbase`), the kernel function per
  fragment -- there is no build to share -- and otherwise the row's
  body in :mod:`repro.monet.fragments`;
* *fragmented receiver*: the row's body -- the order merges, the
  membership builds, ``insert``'s delta tail;
* *monolithic only* (``group_sizes``, ``{prod}``, the scalar
  functions).

:func:`invoke_builtin` is the one driver.  It checks arity, type-checks
the BAT operands and coerces the scalars *before* choosing a path -- so
a mistake raises the same :class:`MILRuntimeError` whether an operand
is monolithic or fragmented, never a bare ``TypeError``/``ValueError``/
``AttributeError`` from inside an implementation -- then fans a call
with a fragmented operand out through :func:`fan_out` (re-fragmenting
a drifted result under the active
:class:`~repro.monet.fragments.FragmentationPolicy`).  Where the rule's
condition does not hold, the kernel function runs on coalesced operands
(cached, at most once per BAT), so every MIL program stays valid over
fragmented BATs.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, NamedTuple, Optional, Tuple

from repro.monet import aggregates, fragments, groups, kernel
from repro.monet.bat import BAT, bat_from_pairs, empty_bat
from repro.monet.errors import MILRuntimeError
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.multiplex import multiplex


class Rule(NamedTuple):
    """A row's fragment rule (see the module docstring).  *body* is the
    fragmented algorithm of a build-probe or fragmented-receiver row;
    *dense* and *window* are a per-fragment row's declaration of a
    global position, and *inline* that its kernel function is an O(1)
    view (:func:`repro.monet.fragments.per_fragment`)."""

    kind: str
    body: Optional[Callable[..., Any]] = None
    dense: Optional[str] = None
    window: bool = False
    inline: bool = False


MONOLITHIC = Rule("monolithic only")
PER_FRAGMENT = Rule("per fragment")
VIEW = PER_FRAGMENT._replace(inline=True)
ALIGNED = Rule("aligned")
REDUCE = Rule("reduce")
IDENTITY = Rule("identity")
BUILD_PROBE = Rule("build-probe")
RECEIVER = Rule("fragmented receiver")


def _build_probe(body: Callable[..., Any]) -> Rule:
    return BUILD_PROBE._replace(body=body)


def _receiver(body: Callable[..., Any]) -> Rule:
    return RECEIVER._replace(body=body)


class Builtin(NamedTuple):
    """One row of the builtin table.  ``operands`` has one entry per
    accepted operand, the method-style receiver first: ``BAT`` (must be
    a BAT, monolithic or fragmented), a scalar coercion (``int``,
    ``str``, ``bool``), or ``None`` (passed through as is); the first
    ``required`` of them are mandatory.  ``signature`` is the text of
    the arity error; ``mono`` is the kernel function and ``rule`` its
    fragment rule."""

    name: str
    signature: str
    required: int
    operands: Tuple[Any, ...]
    mono: Callable[..., Any]
    rule: Rule = MONOLITHIC


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
     kernel.select, PER_FRAGMENT),
    ("uselect", "uselect(bat, value) or uselect(bat, low, high)", 2, (BAT, None, None),
     kernel.uselect, PER_FRAGMENT._replace(dense="tail")),
    ("likeselect", "likeselect(bat, pattern)", 2, (BAT, str),
     kernel.likeselect, PER_FRAGMENT),
    ("join", "join(left, right)", 2, (BAT, BAT), kernel.join, _build_probe(fragments.join)),
    ("leftjoin", "leftjoin(left, right)", 2, (BAT, BAT),
     kernel.join, _build_probe(fragments.join)),
    ("fetchjoin", "fetchjoin(left, right)", 2, (BAT, BAT),
     kernel.fetchjoin, _build_probe(fragments.fetchjoin)),
    ("outerjoin", "outerjoin(left, right)", 2, (BAT, BAT),
     kernel.outerjoin, _build_probe(fragments.outerjoin)),
    ("semijoin", "semijoin(left, right)", 2, (BAT, BAT),
     kernel.semijoin, _build_probe(fragments.semijoin)),
    ("kdiff", "kdiff(left, right)", 2, (BAT, BAT),
     kernel.kdiff, _build_probe(fragments.kdiff)),
    ("kunion", "kunion(left, right)", 2, (BAT, BAT),
     kernel.kunion, _receiver(fragments.kunion)),
    ("kintersect", "kintersect(left, right)", 2, (BAT, BAT),
     kernel.kintersect, _receiver(fragments.kintersect)),
    ("reverse", "reverse(bat)", 1, (BAT,), BAT.reverse, VIEW),
    ("mirror", "mirror(bat)", 1, (BAT,), BAT.mirror, VIEW),
    ("mark", "mark(bat[, base])", 1, (BAT, int), kernel.mark, VIEW._replace(dense="tail")),
    ("number", "number(bat[, base])", 1, (BAT, int),
     kernel.number, VIEW._replace(dense="head")),
    ("sort", "sort(bat)", 1, (BAT,), kernel.sort, _receiver(fragments.sort)),
    ("tsort", "tsort(bat)", 1, (BAT,), kernel.tsort, _receiver(fragments.tsort)),
    ("unique", "unique(bat)", 1, (BAT,), kernel.unique, IDENTITY),
    ("kunique", "kunique(bat)", 1, (BAT,), kernel.kunique, IDENTITY),
    ("tunique", "tunique(bat)", 1, (BAT,), kernel.tunique, IDENTITY),
    ("slice", "slice(bat, start, stop)", 3, (BAT, int, int),
     kernel.slice_bat, VIEW._replace(window=True)),
    ("topn", "topn(bat, n[, descending])", 2, (BAT, int, bool),
     kernel.topn, _receiver(fragments.topn)),
    ("group", "group(bat)", 1, (BAT,), groups.group, IDENTITY),
    ("refine", "refine(grouping, bat)", 2, (BAT, BAT), groups.refine, IDENTITY),
    ("group_sizes", "group_sizes(grouping)", 1, (BAT,), groups.group_sizes),
    ("group_representatives", "group_representatives(grouping, bat)", 2, (BAT, BAT),
     groups.group_representatives),
    ("count", "count(bat)", 1, (BAT,), aggregates.count, REDUCE),
    ("sum", "sum(bat)", 1, (BAT,), aggregates.sum_, REDUCE),
    ("max", "max(bat)", 1, (BAT,), aggregates.max_, REDUCE),
    ("min", "min(bat)", 1, (BAT,), aggregates.min_, REDUCE),
    ("avg", "avg(bat)", 1, (BAT,), aggregates.avg, REDUCE),
    ("exist", "exist(bat, head_value)", 2, (BAT, None), kernel.exist),
    ("find", "find(bat, head_value)", 2, (BAT, None), BAT.find),
    ("const", "const(bat, atom_name, value)", 3, (BAT, str, None),
     kernel.const_bat, PER_FRAGMENT),
    ("new", "new(head_type, tail_type)", 2, (str, str), empty_bat),
    ("insert", "insert(bat, head, tail)", 3, (BAT, None, None),
     _insert, _receiver(_insert_fragmented)),
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
    # multiplex, MIL's [op](operands), with the operator name first
    ("[op]", "[op](operand[, operand[, operand]])", 2, (str, None, None, None),
     multiplex, ALIGNED),
    # pump aggregates, under the name MIL spells them with
    ("{sum}", "{sum}(values, groups[, n_groups])", 2, _PUMP, aggregates.grouped_sum, REDUCE),
    ("{count}", "{count}(values, groups[, n_groups])", 2, _PUMP,
     aggregates.grouped_count, REDUCE),
    ("{max}", "{max}(values, groups[, n_groups])", 2, _PUMP, aggregates.grouped_max, REDUCE),
    ("{min}", "{min}(values, groups[, n_groups])", 2, _PUMP, aggregates.grouped_min, REDUCE),
    ("{avg}", "{avg}(values, groups[, n_groups])", 2, _PUMP, aggregates.grouped_avg, REDUCE),
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
    if not any(isinstance(a, FragmentedBAT) for a in args):
        return row.mono(*args)
    result = fan_out(name, *args, policy=policy)
    # An aligned row's result is cut exactly like its operands.
    if isinstance(result, FragmentedBAT) and row.rule.kind != ALIGNED.kind:
        result = fragments.refragment(result, policy)
    return result


def fan_out(
    name: str, *args: Any, policy: Optional[FragmentationPolicy] = None, **kwargs: Any
) -> Any:
    """Builtin *name* over operands of which at least one is
    fragmented: its rule's driver where the rule's condition holds,
    else its kernel function over coalesced operands.  Keyword operands
    (``select``'s ``include_low``/``include_high``) pass through to the
    kernel function or the body; MIL passes none."""
    row = _BY_NAME[name]
    rule = row.rule
    if rule.kind == BUILD_PROBE.kind:
        left, right = args
        if isinstance(left, BAT):
            left = fragments.fragment_bat(left, policy or FragmentationPolicy())
        if isinstance(right, BAT) and right.hseqbase is not None:
            # Positional: there is no build to share.
            return fragments.per_fragment(row.mono, left, right, **kwargs)
        args = (left, right)
    if rule.kind == ALIGNED.kind:
        return fragments.map_aligned(row.mono, *args)
    if rule.kind in (REDUCE.kind, IDENTITY.kind):
        return fragments.reduce(row.mono, *args)
    if isinstance(args[0], FragmentedBAT):
        if rule.kind == PER_FRAGMENT.kind:
            return fragments.per_fragment(
                row.mono,
                *args,
                dense=rule.dense,
                window=rule.window,
                inline=rule.inline,
                **kwargs,
            )
        if rule.body is not None:
            return rule.body(*args, **kwargs)
    return row.mono(*(fragments.coalesce(a) for a in args), **kwargs)
