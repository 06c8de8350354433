"""The BAT operator kernel: Monet's set-at-a-time algebra.

Every operator consumes and produces whole BATs; there is no
tuple-at-a-time path anywhere in this module.  This is the property the
Mirror paper leans on ("allows often for set-at-a-time processing of
complex query expressions", section 2) and that [BWK98] shows to be the
performance foundation of the architecture.

Operator vocabulary (Monet names kept):

=================  ====================================================
``select``         BUNs whose tail lies in a value/range predicate
``uselect``        like ``select`` but tail replaced by void (head set)
``likeselect``     tail matches a substring pattern (for str tails)
``join``           natural join on left.tail = right.head
``fetchjoin``      positional join against a void-headed right operand
``outerjoin``      left outer variant of ``join`` (NIL-padded)
``semijoin``       BUNs of left whose *head* occurs in right's head
``kdiff``          BUNs of left whose head does *not* occur (anti-semijoin)
``kintersect``     BUNs of left whose head occurs in right's head
``kunion``         left plus the right BUNs with unseen heads
``mark``           tail replaced by a fresh dense oid sequence
``number``         head replaced by a fresh dense oid sequence
``sort``           stable sort on head
``tsort``          stable sort on tail
``unique``         duplicate BUN elimination
``kunique``        duplicate head elimination (first BUN wins)
``slice_bat``      positional BUN range
=================  ====================================================

Join algorithm selection.  ``join`` (and ``outerjoin``, up to the NIL
padding) picks its algorithm from what the operands already *prove* --
property flags and column kinds, O(1) to read, plus by-products of work
the chosen arm does anyway (the range check, the match count) -- never
from a knob.  First matching row wins; the last column is what the
fragmented join (:func:`repro.monet.fragments.join`, the body of the
``BUILD_PROBE`` rule in :mod:`repro.monet.mil.builtins`) does on the
same row, with the arm chosen once from the whole build side:

============================  ==========================  ====================
condition                     arm                         fragmented join
============================  ==========================  ====================
right head provably dense     positional: the build       a monolithic right:
(:attr:`BAT.hseqbase`: void,  position is                 per fragment, one
or int/oid flagged sorted +   ``value - seqbase``         check in ``fan_out``
key with span == count - 1)   (:func:`fetch_positions`)   for the family
                                                          (``semijoin`` and
                                                          ``kdiff`` too); a
                                                          fragmented dense
                                                          right routes by
                                                          seqbase windows
-- and the left tail is void  no gather: head and tail    windows of the
                              are windows (views); a      owning right
                              window that covers the      fragments
                              right tail is that
                              ``Column`` object itself
-- and every probe is in      the result head is          per probe fragment,
range                         ``left.head`` itself (a     too
                              void head stays void)
either side str               code space: the heap codes  one shared index in
                              of the side with the        the probe fragments'
                              larger heap, the            shared heap when it
                              *distinct* values the       is the larger, else
                              other side uses translated  the build's; a probe
                              into them (``"code"``,      fragment translates
                              :func:`larger_code_space`)  only its distinct
                                                          values
-- and the build's heap is    held: the build column's    the build fragments'
the code space                own index, built at its     held indexes, one per
                              first join and kept on the  fragment version
                              column version              (*parts*), probed
                              (:func:`held_match_index`;  with one translation
                              the stats' ``idf_bat`` and  of the probe
                              a stored term column are    fragment's distinct
                              indexed once)               values
numeric keys, non-NIL build   code space ``key - lo``     one shared index
keys integral and spanning    (``"span"``): a probe       over the build
``hi - lo < 2 * count``       has a code only if it is    fragments in BUN
(:func:`span_bounds`)         integral, non-NIL and in    order, probed by
                              ``lo .. hi``                every fragment
otherwise (numeric)           stable sort of the build    radix-partitioned
                              side + binary search        (grace) join of
                              (``"sorted"``)              per-partition
                                                          sorted indexes;
                                                          spilled past
                                                          ``join_spill``
a value arm, right head key,  the result head is          --
as many matches as left BUNs  ``left.head`` itself
``outerjoin``: as many left   the result head is          per probe fragment,
positions as left BUNs (each  ``left.head`` itself        too
comes out exactly once)       (:func:`outer_head`)
============================  ==========================  ====================

Every arm, monolithic or fragmented, gathers the right tail (the
payload) as a column -- :meth:`Column.take`/:meth:`Column.window`,
parts joined by :func:`repro.monet.bat.concat_columns`, the outer
join's NIL fill by :func:`pad_unmatched` -- so a str payload keeps
its codes on its heap and the next keyed operator reads them.

Every arm yields the same BUNs in the same order (left BUN order, then
right BUN order per probe); the arms differ in cost and in how much of
the operands the result shares.  On the positional arm a value is a
position only if it is integral, non-NIL and in range
(:func:`fetch_positions`), so a dbl probe of ``1.5`` or NaN matches
nothing there exactly as it matches no oid by value; the span arm
applies the same test to ``lo .. hi``, comparing values rather than
differences so a sentinel cannot wrap into range.  ``fetchjoin`` is
the positional arm demanded explicitly: it insists on a void head.
The factor 2 of the span rule is a property, not a knob: it keeps the
two code tables (``hi - lo + 2`` entries each) no larger than the
sorted arm's order plus its sorted key copy.  A value arm's index is a
:class:`MatchIndex` whose ``arm`` names its row
(:func:`build_match_index` / :func:`probe_match_index`).

Key selection.  Every other operator reads its operands through one
integer key per value, chosen by the atom alone: a str column is read
only through its codes into its heap
(:class:`~repro.monet.bat.StrColumn`), never value by value.  This
table and the join table above are the one place an operator's sort,
dedup or predicate arm is declared; its last column names the fragment
rule (:class:`repro.monet.mil.builtins.Rule`) each family maps to:

=====================  ==========================  ========================
operator family        key                         fragmented
=====================  ==========================  ========================
order: ``sort``,       numbers: the value          ``RECEIVER`` rule, the
``tsort``, ``topn``    (:func:`_topn_sort_keys`    sample-sort merge: runs
                       its total-order image);     sorted per fragment,
                       str: the rank of the code   partitions merged by the
                       (:func:`order_keys`: the    same keys and primitive;
                       values in use sorted once   topn candidates per
                       per call), NIL ranked       fragment
                       above every string.  A
                       stable order is always
                       :func:`stable_order`: int
                       keys spanning ``hi - lo <
                       2**(63 - b)`` (``b`` the
                       position bits) sort as
                       unique -- hence stable --
                       words ``(key - lo) << b |
                       position`` by the
                       unstable sort; the rest
                       (dbl, a wider span) by
                       the stable argsort
identity: ``unique``,  numbers: the value's        ``IDENTITY`` rule: one
``kunique``,           integer image, all NaN one  record per operator
``tunique``,           key (:func:`key_space`);    (:class:`Identity`: key
``group``,             str: the code, NIL -1.      sides and a keep or
``refine``             :func:`first_occurrences`   label finish); each
                       numbers them, one key by    fragment reports its
                       :func:`stable_order`,       distinct keys, the same
                       several by lexsort          primitive merges the
                                                   reports in fragment
                                                   order, the finish runs
                                                   per fragment
``kunion``,            the identity keys above     ``RECEIVER`` rule: one
``kintersect``, pump                               membership build; the
alignment                                          pumps ``REDUCE``
comparison:            numbers: the values;        ``PER_FRAGMENT`` rule:
``select``,            str: the predicate once     the mask needs no
``uselect``,           per distinct value,         shared key space
``likeselect``         gathered by code; NIL
                       never qualifies, not even
                       an open range
                       (:func:`nil_mask`)
comparison:            the identity keys above,    ``BUILD_PROBE`` rule:
``semijoin``,          NIL masked on both sides;   radix-partitioned keys
``kdiff``              by position against a       (semijoin); one shared
                       provably dense right head,  build (kdiff); per
                       as in ``join``              fragment against a
                       (:func:`fetch_positions`)   monolithic dense right
=====================  ==========================  ========================

For str there is **one heap per stored column; two heaps translate
distinct values** (:class:`CodeSpace`, :func:`str_code_space`): the
fragments, windows and gathers of one stored column share its heap and
translate nothing; where columns on several heaps meet (a join, a set
operation, two operands of ``[=]``) the largest heap is the base and
the other columns' distinct values in use are numbered in after it.
Translations, ranks and predicate tables read only the codes a call's
BUNs use (:func:`~repro.monet.bat.by_code`): no Python pass over a
heap, so a small window of a large column pays for its own distinct
values.  Ranks are not cached: every order operator sorts the distinct
values it uses afresh.

NIL semantics (two rules, both Monet-faithful):

* *Comparisons* -- select predicates and the join family, including
  ``semijoin``/``kdiff`` -- follow "NIL equals nothing": a NIL probe
  or build value never matches, not even another NIL.  What is NIL is
  decided by the column's atom (:func:`nil_mask`): NaN for dbl,
  ``None`` for str, ``INT_NIL`` for int and ``OID_NIL`` for oid -- so
  an int NIL joins no int NIL, and an oid column's ``INT_NIL``-valued
  entry is an ordinary oid.  The radix-partitioned (grace) join
  applies the rule *before* partitioning: :func:`join_keys` masks NIL
  BUNs out ahead of the radix split, so no partition -- resident or
  spilled -- ever carries a NIL key and the partition-local probes
  need no NIL handling of their own.  The rule is unchanged in code
  space: NIL has no heap code and no span code (it codes as -1,
  like a value the build lacks), and -1 matches nothing, not even
  another -1.  Membership under this rule leaves the build side's
  NILs out and masks NIL probes (:func:`member_keys`,
  :func:`probe_member_set` with ``nil_member=False``).  A NIL
  *needle* is no exception: ``select(b, nil)`` matches nothing, for
  every atom, and so do ``find(b, nil)`` and ``exist(b, nil)`` (the
  first BUN whose head equals the needle: there is none, monolithic
  or fragmented); a range's open (``nil``) bound reaches no NIL
  either -- not the int/oid sentinels at the numeric extremes.
* *Identity* operators -- ``unique``/``kunique``/``tunique`` here,
  ``group``/``refine`` in :mod:`repro.monet.groups`, **and the set
  operators ``kunion``/``kintersect``** -- treat all NILs of a column
  as **one value** (SQL DISTINCT / GROUP BY / UNION style): one NIL
  survives duplicate elimination, every NIL lands in the same group,
  and a NIL head *is* a member of a head set that contains a NIL.
  :func:`dedup_keys` encodes this rule (NaN keys collapse to a single
  sentinel, every str NIL is the code -1); :func:`member_mask` applies it
  to set membership, so e.g. ``kunion`` does not duplicate NIL heads
  and ``kintersect`` keeps a NIL head when both sides have one.  The
  set operators previously inherited the comparison rule from the
  semijoin machinery, which silently duplicated NaN heads in unions --
  the identity rule makes them consistent with ``kunique`` (whose
  output is the natural "key set" the k-prefixed operators work on).
* *Order* puts NIL where the atom's raw comparison does: NaN last in
  both directions, the int and oid sentinels at their numeric extremes
  (an int NIL first ascending, an oid NIL last), a str NIL last ascending and first
  descending (it ranks above every string).  Ties -- equal values,
  NILs included -- break by BUN position, **earliest first**, for every
  atom and in both directions: ``sort``/``tsort`` are stable, and
  ``topn`` (``descending`` or not) keeps and orders tied BUNs
  earliest-first, monolithic and fragmented alike.
* *Appends/deltas introduce no third rule.*  A NIL appended into a
  delta tail (:meth:`BAT.append` / ``FragmentedBAT.append`` /
  ``BATBufferPool.append``, WAL replay included) is stored as the
  ordinary NIL representation of its atom (NaN for dbl, code -1 for
  str, the int sentinel for int/oid) and thereafter follows exactly
  the split above: comparison operators never match it, identity
  operators fold it with every other NIL of the column -- whether the
  NIL arrived by bulk load or by append is indistinguishable to every
  operator.  The only append-specific caveat is *property flags*: an
  appended NIL conservatively clears ``tsorted``/``tkey`` (NaN is
  incomparable, so sortedness cannot be extended across it), which
  can only disable optimizations, never change results.
* *Tombstones and patches follow the same two rules.*  Deleting a BUN
  whose tail is NIL (:meth:`BAT.delete_positions` /
  ``FragmentedBAT.delete``) is an ordinary positional delete -- NIL
  confers no protection and needs no special casing, because deletion
  selects by *position*, never by value.  A delete is a monotone
  gather of the surviving BUNs, so all four property flags
  (``hsorted``/``tsorted``/``hkey``/``tkey``) survive unchanged:
  removing elements can break neither sortedness nor key-ness.
  Updating a BUN *to* NIL (:meth:`BAT.update_positions` /
  ``FragmentedBAT.update``) conservatively clears ``tkey`` (the new
  NIL may collide with an existing one under the identity rule) and
  clears ``tsorted`` unless the locally checked neighbour pairs still
  compare ordered -- a NaN patch value always fails that check, so a
  NIL patch clears ``tsorted`` too.  Head flags are untouched: patches
  rewrite tails only.  As with appends, the cleared flags can only
  disable optimizations, never change results.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.monet.atoms import coerce_value
from repro.monet.bat import (
    BAT,
    AnyColumn,
    Column,
    StrColumn,
    StrHeap,
    VoidColumn,
    by_code,
    column_equal,
    concat_columns,
    nil_column,
    rank_codes,
)
from repro.monet.errors import KernelError

# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------


def _is_str(column: AnyColumn) -> bool:
    return isinstance(column, StrColumn)


def _positions(count: int) -> np.ndarray:
    return np.arange(count, dtype=np.int64)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Exactly numpy's stable argsort of *keys*: the one stable order
    of ``monet/``.

    Signed integer keys whose span fits ``hi - lo < 2**(63 - b)``, for
    ``b`` the bits of the largest position, are packed into one int64
    word per key, ``(key - lo) << b | position``, and sorted by
    numpy's unstable (SIMD) sort.  The words are unique, so the
    unstable sort is stable by construction, and the low ``b`` bits
    of a sorted word are its position.  The fit test runs on Python
    ints, so a NIL sentinel among ordinary keys cannot wrap a word; it
    falls back, like dbl keys, to the stable argsort."""
    n = len(keys)
    if keys.dtype.kind == "i" and n:
        lo, hi = int(keys.min()), int(keys.max())
        bits = (n - 1).bit_length()
        if hi - lo < 1 << (63 - bits):
            words = keys.astype(np.int64)
            words -= lo
            words <<= bits
            words |= np.arange(n, dtype=np.int64)
            words.sort()
            words &= (1 << bits) - 1
            return words
    return np.argsort(keys, kind="stable")


# ----------------------------------------------------------------------
# One key space per operator: what every operator reads
#
# A str column is read only through its codes into its heap: identity
# operators compare codes, order operators compare the rank of a code,
# comparisons evaluate their predicate once per distinct value.
# Numbers are read as themselves (or their monotone integer image).
# The selection table in the module docstring is the one place an arm
# is declared.
# ----------------------------------------------------------------------


#: A key space as the function from each of its columns to their keys.
KeyFunction = Callable[[AnyColumn], np.ndarray]


class CodeSpace:
    """One code space for str columns on several heaps: a *base* heap,
    read and never extended (its codes below the length it had when the
    space was made), plus the values it lacks, numbered after them on a
    private *extra* heap as columns are encoded with ``extend``.  NIL
    has no code (-1)."""

    __slots__ = ("base", "size", "extra")

    def __init__(self, base: StrHeap) -> None:
        self.base = base
        self.size = len(base)
        self.extra = StrHeap()

    def __len__(self) -> int:
        return self.size + len(self.extra)

    def codes(self, values: list, extend: bool) -> np.ndarray:
        """int64 codes of the distinct non-NIL *values*: -1 for a value
        the space lacks, unless *extend* numbers it in."""
        found = self.base.lookup(values)
        missing = (found < 0) | (found >= self.size)
        rest = list(itertools.compress(values, missing.tolist()))
        extra = (self.extra.encode if extend else self.extra.lookup)(rest)
        found[missing] = np.where(extra < 0, -1, extra + self.size)
        return found

    def encode(self, column: StrColumn, extend: bool = False) -> np.ndarray:
        """*column*'s codes in this space, NIL -1: its own codes when
        its heap is the base, else one lookup per distinct value its
        BUNs use (:func:`~repro.monet.bat.by_code`), never its whole
        heap."""
        if column.heap is self.base:
            return column.codes
        return by_code(
            column.codes, column.heap, lambda values: self.codes(values, extend), -1
        )


def str_code_space(columns: Sequence[StrColumn]) -> Tuple[CodeSpace, KeyFunction]:
    """The one code space of str *columns* (operands, or every fragment
    of one) and the function from each of them to its codes in it:
    based on the largest heap -- the only one when all columns share it
    (the fragments, windows and gathers of one stored column: nothing to
    translate) -- with every other heap's values in use numbered in
    after it, here and serially, so the function only reads the
    result."""
    space = CodeSpace(max((column.heap for column in columns), key=len))
    codes = {id(column): space.encode(column, extend=True) for column in columns}
    return space, lambda column: codes[id(column)]


def order_keys(*columns: AnyColumn) -> List[np.ndarray]:
    """Sort keys of *columns* (operands, or every fragment of one) in
    one order: numbers are their own keys; a str value's key is the
    rank of its code on one heap (their shared one, else the fresh heap
    of their concatenation), the distinct values in use sorted once per
    call and NIL ranked above every string.  Ranks are not cached."""
    if not _is_str(columns[0]):
        return [column.materialize() for column in columns]
    joined = concat_columns(columns)
    ranks = rank_codes(joined.codes, joined.heap)
    return np.split(ranks, np.cumsum([len(column) for column in columns])[:-1])


def _str_mask(column: StrColumn, evaluate: Callable[[list], Any]) -> np.ndarray:
    """Mask of a str column's BUNs whose value qualifies: *evaluate*
    maps the list of distinct values in use to one truth value each,
    gathered back by code; NIL never qualifies."""
    return by_code(column.codes, column.heap, evaluate, 0) > 0


def _float_dedup_keys(values: np.ndarray) -> np.ndarray:
    """Monotone IEEE-754 bit transform of float64 values to uint64:
    order is preserved, ``-0.0`` keys equal ``+0.0``, and every NaN
    (dbl NIL) collapses to one maximal key -- sortable *and*
    NIL-equals-NIL, which raw floats are not (NaN != NaN would defeat
    vectorized duplicate detection)."""
    finite = np.where(values == 0.0, 0.0, values)
    bits = finite.astype(np.float64, copy=False).view(np.uint64)
    keys = np.where(
        bits >> np.uint64(63) == 1, ~bits, bits | np.uint64(1 << 63)
    )
    return np.where(np.isnan(values), np.uint64(0xFFFFFFFFFFFFFFFF), keys)


def key_space(*columns: AnyColumn) -> Optional[KeyFunction]:
    """The one identity key space of *columns* (operands, or every
    fragment of them), as the function mapping each of those columns
    to its integer keys: equal keys iff the values are one set element
    under the identity rule (all NILs one key, ``-0.0 == +0.0``).

    str: heap codes in one code space (:func:`str_code_space`),
    NIL -1; any dbl column: the float bits of every value widened to
    dbl (numeric widening, like the join family); otherwise int64
    values.  Numeric keys also sort like their values; codes do not
    (order goes through :func:`order_keys`).  ``None`` when a str
    column meets a numeric one: a str equals no number."""
    kinds = {_is_str(column) for column in columns}
    if kinds == {True, False}:
        return None
    if True in kinds:
        return str_code_space(columns)[1]
    if any(
        not column.is_void and column.atom_type.dtype.kind == "f"
        for column in columns
    ):
        return lambda column: _float_dedup_keys(
            column.materialize().astype(np.float64, copy=False)
        )
    return lambda column: column.materialize().astype(np.int64, copy=False)


def dedup_keys(column: AnyColumn) -> np.ndarray:
    """Identity keys of one column's values (:func:`key_space`): equal
    keys iff the values are duplicates under the identity rule."""
    return key_space(column)(column)


def first_occurrences(
    *keys: np.ndarray, label: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The one first-occurrence primitive of the identity family:
    ``(firsts, ids)``, the positions of the first row of every distinct
    key combination, ascending, and -- with *label* -- every row's id,
    the rank of its combination's first row (dense, numbered in order
    of first appearance).

    One key is ordered by :func:`stable_order`, several by lexsort.
    Both are stable, so a block of equal keys starts at its first row,
    and rows given in position order need no position key: the merge
    of the fragmented identity rule (:class:`Identity`) reads its
    fragments' reports exactly so."""
    n = len(keys[0])
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty if label else None
    order = stable_order(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new_block = np.zeros(n, dtype=bool)
    new_block[0] = True
    for key in keys:
        sorted_key = key[order]
        new_block[1:] |= sorted_key[1:] != sorted_key[:-1]
    starts = order[new_block]
    if not label:
        starts.sort()
        return starts, None
    by_first = stable_order(starts)
    rank = np.empty(len(starts), dtype=np.int64)
    rank[by_first] = np.arange(len(starts), dtype=np.int64)
    ids = np.empty(n, dtype=np.int64)
    ids[order] = rank[np.cumsum(new_block) - 1]
    return starts[by_first], ids


def each(fn: Callable[[Any], Any], items) -> List[Any]:
    """``[fn(item) for item in items]``: the serial mapper of the
    records the fragment rules fan out (:class:`Identity`,
    :class:`repro.monet.aggregates.Aggregate`)."""
    return [fn(item) for item in items]


#: A key side of an :class:`Identity` record: the column of one operand.
HEAD, TAIL = (0, "head"), (0, "tail")


@dataclass(frozen=True)
class Identity:
    """One operator of the identity family, defined once: its key
    *sides* (columns of its operands, read through one identity key
    space each, :func:`key_space`) and its *finish* -- ``"keep"`` the
    first BUN of every distinct key (``unique``, ``kunique``,
    ``tunique``) or ``"label"`` every BUN with the dense id of its key,
    numbered by first appearance (``group``, ``refine``; the result is
    ``[first operand's head, oid]``).

    :meth:`over` runs it on the operands of BUN runs in BUN order:
    every run reports its distinct keys, their first positions and its
    local ids (:func:`first_occurrences`); the reports, concatenated in
    run order -- position order -- are merged by the same primitive;
    the finish keeps or relabels per run.  Calling the record is the
    monolithic operator, the one-run case, which needs no merge.  A
    fragmented operand runs it per fragment
    (:func:`repro.monet.fragments.reduce`)."""

    name: str
    sides: Tuple[Tuple[int, str], ...]
    finish: str

    def __call__(self, *operands: Any) -> BAT:
        return self.over([operands])[0]

    def over(self, parts: Sequence[Sequence[BAT]], mapper=each) -> List[BAT]:
        """The result BAT of every run, in order.  ``mapper(fn, items)``
        applies *fn* to every item in order."""
        if any(len(bat) != len(part[0]) for part in parts for bat in part[1:]):
            raise KernelError(f"{self.name} requires positionally aligned inputs")
        label, merge = self.finish == "label", len(parts) > 1
        # The receiver's key flags ("hkey", "tkey") of the sides: one
        # proves every BUN distinct; a keep finish on one side sets it.
        flags = [column[0] + "key" for at, column in self.sides if at == 0]
        if not (label or merge) and any(getattr(parts[0][0], f) for f in flags):
            return [parts[0][0]]
        columns = [[getattr(part[at], column) for part in parts] for at, column in self.sides]
        spaces = [key_space(*side) for side in columns]

        def report(index: int) -> Tuple[List[np.ndarray], np.ndarray, Any]:
            keys = [keys_of(side[index]) for keys_of, side in zip(spaces, columns)]
            firsts, ids = first_occurrences(*keys, label=label)
            return [key[firsts] for key in keys] if merge else [], firsts, ids

        reports = mapper(report, range(len(parts)))
        if merge:
            bounds = np.cumsum([0] + [len(firsts) for _, firsts, _ in reports])
            kept, merged_ids = first_occurrences(
                *map(np.concatenate, zip(*(keys for keys, _, _ in reports))), label=label
            )

        def finish(index: int) -> BAT:
            bat = parts[index][0]
            _, firsts, ids = reports[index]
            if merge:
                lo, hi = bounds[index], bounds[index + 1]
                if label:
                    ids = merged_ids[lo:hi][ids]
                else:
                    won = kept[np.searchsorted(kept, lo): np.searchsorted(kept, hi)]
                    firsts = firsts[won - lo]
            if label:
                return BAT(bat.head, Column("oid", ids), hsorted=bat.hsorted, hkey=bat.hkey)
            result = bat.take_positions(firsts)
            if len(self.sides) == 1:
                setattr(result, flags[0], True)
            return result

        return mapper(finish, range(len(parts)))


def nil_mask(column: AnyColumn) -> np.ndarray:
    """Boolean mask of *column*'s NIL entries, by its atom: no code
    (str), NaN (dbl), the atom's sentinel (``INT_NIL`` for int,
    ``OID_NIL`` for oid).  A void column holds no NIL."""
    if column.is_void:
        return np.zeros(len(column), dtype=bool)
    if _is_str(column):
        return column.codes < 0
    values = column.materialize()
    if values.dtype.kind == "f":
        return np.isnan(values)
    return values == column.atom_type.nil


def member_keys(
    column: AnyColumn, keys_of: KeyFunction, *, nil_member: bool = True
) -> np.ndarray:
    """Membership keys of a column's values in the key space *keys_of*
    (:func:`key_space`).  ``nil_member=False`` (the comparison rule,
    for a build side) leaves the NIL entries out."""
    keys = keys_of(column)
    return keys if nil_member else keys[~nil_mask(column)]


def build_member_set(keys: np.ndarray) -> np.ndarray:
    """One-time membership structure over build-side *keys*, probe-able
    via :func:`probe_member_set`.  Separated from the probe so
    fragmented execution builds it once (combining per-fragment key
    arrays) and shares it across probe fragments.  The distinct keys,
    ascending, deduplicated after a sort: numpy's hashing ``np.unique``
    is many times slower on large key arrays."""
    keys = np.sort(keys)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    return keys[distinct]


def probe_member_set(
    column: AnyColumn, members: np.ndarray, keys_of: KeyFunction, *, nil_member: bool
) -> np.ndarray:
    """Boolean mask: which of *column*'s values occur in *members*.

    ``nil_member=True`` is the identity rule (the set operators): a NIL
    probe is a member of a NIL-containing set, because all NILs are one
    value.  ``nil_member=False`` is the comparison rule (semijoin /
    kdiff): NIL is never a member, not even of a NIL-containing set,
    so NIL probes -- the int/oid sentinels included -- are masked out
    (and the build left its NILs out, :func:`member_keys`)."""
    mask = np.isin(keys_of(column), members)
    if not nil_member:
        mask &= ~nil_mask(column)
    return mask


def member_mask(
    values: AnyColumn, lookup: AnyColumn, *, nil_member: bool
) -> np.ndarray:
    """Membership mask of *values*' stored values in *lookup*'s, under
    the identity rule (``nil_member=True``; ``kunion``/``kintersect``)
    or the comparison rule (``nil_member=False``; semijoin/kdiff).
    The monolithic composition of :func:`key_space` /
    :func:`member_keys` / :func:`build_member_set` /
    :func:`probe_member_set`; fragmented execution uses the pieces."""
    keys_of = key_space(values, lookup)
    if keys_of is None:
        return np.zeros(len(values), dtype=bool)
    members = build_member_set(member_keys(lookup, keys_of, nil_member=nil_member))
    return probe_member_set(values, members, keys_of, nil_member=nil_member)


# ----------------------------------------------------------------------
# Sample-sort partitioning helpers
#
# Shared by the fragment-parallel merge phase of sort: pick pivots from
# key-sorted runs, cut every run at the pivots, and each inter-pivot
# range becomes one independently ordered output partition.
# ----------------------------------------------------------------------


def partition_keys(values: np.ndarray) -> np.ndarray:
    """Total-order integer keys for range-partitioning sorted runs: a
    monotone image of the kernel sort order (NaN last, ``-0.0`` equals
    ``+0.0``) with no NaN in the key domain, so pivot selection and
    ``searchsorted`` cuts are well-defined for every dtype.  For
    integer dtypes this is the identity (a view, not a copy)."""
    if values.dtype.kind == "f":
        return _float_dedup_keys(values)
    return values.astype(np.int64, copy=False)


def sample_pivots(
    runs: "list[np.ndarray]", partitions: int, *, oversample: int = 4
) -> np.ndarray:
    """Pivot keys splitting key-sorted *runs* into at most *partitions*
    ranges of near-equal total size: every run contributes regularly
    spaced samples (all of its entries when it is that short), the
    combined sample sorts, and the quantiles become pivots (classic
    sample-sort).  Returns <= partitions - 1 ascending distinct keys;
    degenerate inputs (all-equal keys) dedupe to fewer pivots --
    possibly none -- which simply yields fewer, larger partitions
    (correct, just less parallel)."""
    if partitions <= 1:
        return np.empty(0, dtype=np.int64)
    per_run = oversample * partitions
    samples = [
        keys if len(keys) <= per_run
        else keys[np.linspace(0, len(keys) - 1, per_run).astype(np.int64)]
        for keys in runs
        if len(keys)
    ]
    if not samples:
        return np.empty(0, dtype=np.int64)
    pool = np.sort(np.concatenate(samples))
    quantiles = np.linspace(0, len(pool), partitions + 1).astype(np.int64)[1:-1]
    return np.unique(pool[quantiles])


def run_cut_points(keys: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Partition boundaries of one key-sorted run at *pivots*
    (``side='left'``): cut ``i`` starts partition ``i + 1``.  Equal
    keys land at or after their pivot's cut in *every* run, so a key
    value never straddles a partition boundary -- the per-partition
    orders can then restore the global tie-break by BUN position."""
    return np.searchsorted(keys, pivots, side="left")


#: From this many build positions per matched probe on average,
#: :func:`_expand_matches` copies each probe's run as a slice of the
#: order instead of computing every position's index (a 2-core x86
#: host: slices take 0.85-0.9 of the vectorised time at 128 per probe
#: and a third at 1 024, but 1.2-1.6 times it at 64 once 64 or more
#: probes hit).  The k query terms against an inverted file are far
#: above it; a relational join's short runs are below.
_SLICE_RUN = 128


def _expand_matches(
    hit: np.ndarray, order: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The (probe_position, build_position) pairs of a grouped build
    side: the probe at ``hit[i]`` matches the ``counts[i] > 0`` build
    positions ``order[first[i] : first[i] + counts[i]]``.  Ordered by
    probe position, and per probe in *order*'s order -- the shared tail
    of the sorted (numeric) and the code-space (str) matcher."""
    if len(hit) == 0 or int(counts.max()) == 1:
        return hit, order[first]
    total = int(counts.sum())
    if total >= _SLICE_RUN * len(hit):
        runs = [order[f : f + c] for f, c in zip(first.tolist(), counts.tolist())]
        return np.repeat(hit, counts), np.concatenate(runs)
    offsets = np.cumsum(counts) - counts
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return np.repeat(hit, counts), order[np.repeat(first, counts) + intra]


def _code_index(codes: np.ndarray, ncodes: int):
    """Build-side index in a code space of *ncodes* codes: the coded
    build positions grouped by code (ascending position within a code:
    the sort is stable) plus each code's run start and length.  Both
    tables end in a zero-length sentinel run, so the code -1 -- NIL, or
    a value the code space lacks -- indexes it and matches nothing
    without a mask."""
    positions = np.nonzero(codes >= 0)[0]
    coded = codes[positions]
    order = positions[stable_order(coded)]
    counts = np.append(np.bincount(coded, minlength=ncodes), 0)
    return order, np.cumsum(counts) - counts, counts


def _code_runs(codes: np.ndarray):
    """Build-side index over the codes a column uses: the coded build
    positions grouped by code (ascending position within a code), the
    distinct codes ascending -- closed by a sentinel above every code,
    so a probe's insertion slot always reads a key -- and each code's
    run start and length.  The tables grow with the column's distinct
    codes, not with its heap."""
    positions = np.nonzero(codes >= 0)[0]
    coded = codes[positions]
    grouped = stable_order(coded)
    order = positions[grouped]
    coded = coded[grouped]
    starts = np.flatnonzero(np.diff(coded, prepend=-1))
    counts = np.diff(np.append(starts, len(coded)))
    keys = np.append(coded[starts], np.iinfo(np.int64).max)
    return order, keys, starts, counts


@dataclass(frozen=True)
class MatchIndex:
    """A join build side indexed once, probed by any number of probe
    columns (:func:`build_match_index` / :func:`probe_match_index`).

    *arm* names the row of the selection table that built it:
    ``"code"`` (str keys as heap codes in *code_space*),
    ``"span"`` (integral keys in the compact range ``lo .. hi``, coded
    ``key - lo``) or ``"sorted"`` (the build positions in stable key
    order, *keys* the build keys in that order).  The two code-space arms share the tables of
    :func:`_code_index`: *order* grouped by code, each code's run
    *starts* and *counts*, indexed by code.  A held index
    (:func:`held_match_index`) is a ``"code"`` index whose tables are
    indexed by slot in *keys*, the distinct codes its column uses
    (:func:`_code_runs`).  A build of several str columns on one heap
    (the fragments of one stored column) is a ``"code"`` index without
    tables: *parts* holds each column's held index with the BUN offset
    of its column."""

    arm: str
    order: Optional[np.ndarray]
    starts: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    keys: Optional[np.ndarray] = None
    code_space: Optional[CodeSpace] = None
    lo: int = 0
    hi: int = -1
    parts: Tuple[Tuple[int, "MatchIndex"], ...] = ()


def held_match_index(column: StrColumn) -> MatchIndex:
    """*column*'s held ``"code"`` index in its own heap: built the first
    time the column is a join build side and kept in its
    :attr:`~repro.monet.bat.StrColumn.match_index` slot, so every later
    join against the same column version probes it.  Its tables cover
    the codes the column uses (:func:`_code_runs`), so the fragments of
    one stored column, all on its one heap, hold O(postings) between
    them however far the heap has grown."""
    index = column.match_index
    if index is None:
        order, keys, starts, counts = _code_runs(column.codes)
        index = MatchIndex(
            "code", order, starts, counts, keys=keys, code_space=CodeSpace(column.heap)
        )
        column.match_index = index
    return index


def _key_bounds(column: AnyColumn) -> Optional[Tuple[int, int, int]]:
    """``(lo, hi, count)`` over the non-NIL keys of one numeric build
    column (``count == 0`` when it has none), or ``None`` when a key is
    not integral (NaN is NIL; an infinity is not integral)."""
    if column.is_void:
        return column.seqbase, column.seqbase + len(column) - 1, len(column)
    values = column.materialize()
    floats = values.dtype.kind == "f"
    if floats:
        values = values[~np.isnan(values)]
    if not len(values):
        return 0, -1, 0
    lo, hi = values.min(), values.max()
    nil = column.atom_type.nil
    if not floats and nil in (lo, hi):
        # Filter only when an extreme is the NIL sentinel (int: the
        # least int64, oid: the greatest).
        values = values[values != nil]
        if not len(values):
            return 0, -1, 0
        lo, hi = values.min(), values.max()
    if floats and not (
        np.isfinite(lo) and np.isfinite(hi) and np.array_equal(values, np.floor(values))
    ):
        return None
    return int(lo), int(hi), len(values)


def span_bounds(build: Sequence[AnyColumn]) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` of numeric build columns whose non-NIL keys are
    integral and span ``hi - lo < 2 * count`` -- the span arm's
    condition -- else ``None``.  An empty or all-NIL build qualifies
    with the empty range ``(0, -1)``.  The factor 2 keeps the two
    code tables (length ``hi - lo + 2`` each) no larger than the
    sorted arm's order plus its sorted key copy."""
    lo, hi, count = 0, -1, 0
    for column in build:
        bounds = _key_bounds(column)
        if bounds is None:
            return None
        if bounds[2]:
            lo = bounds[0] if not count else min(lo, bounds[0])
            hi = bounds[1] if not count else max(hi, bounds[1])
            count += bounds[2]
    return (lo, hi) if hi - lo < 2 * count else None


def _span_codes(column: AnyColumn, lo: int, hi: int) -> np.ndarray:
    """Codes ``value - lo`` of *column*'s values in the span
    ``lo .. hi``; -1 for every value outside it, non-integral or NIL.
    The range test compares values, not differences, so a sentinel
    such as ``INT_NIL - lo`` cannot wrap into range."""
    values = column.materialize()
    inside = (values >= lo) & (values <= hi)
    if values.dtype.kind == "f":
        inside &= values == np.floor(values)
    elif not column.is_void and lo <= column.atom_type.nil <= hi:
        inside &= values != column.atom_type.nil
    return np.where(inside, values - lo, -1).astype(np.int64, copy=False)


def sorted_match_index(keys: np.ndarray) -> MatchIndex:
    """The sorted arm over a NIL-free key array: the build positions in
    stable key order and the keys in that order.  Exposed for the
    grace join's radix partitions, whose keys :func:`join_keys` has
    already cleared of NILs."""
    order = stable_order(keys)
    return MatchIndex("sorted", order, keys=keys[order])


def probe_sorted(
    keys: np.ndarray, index: MatchIndex, nils: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(probe_position, build_position) matches of probe *keys* in a
    sorted-arm index, probes flagged in *nils* matching nothing."""
    first = np.searchsorted(index.keys, keys, side="left")
    counts = np.searchsorted(index.keys, keys, side="right") - first
    if nils is not None:
        counts[nils] = 0
    hit = np.nonzero(counts > 0)[0]
    return _expand_matches(hit, index.order, first[hit], counts[hit])


def _concat_keys(build: Sequence[AnyColumn], encode) -> np.ndarray:
    parts = [encode(column) for column in build]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def build_match_index(
    build: Sequence[AnyColumn], code_space: Optional[StrHeap] = None
) -> MatchIndex:
    """One index over a join build side -- the head columns *build*,
    in BUN order (one column, or a fragmented head's fragments) --
    probe-able via :func:`probe_match_index`.  Separated from the probe
    so fragmented execution builds it once and shares it across probe
    fragments.  The arm follows the selection table in the module
    docstring:

    * str keys on one heap, indexed in that heap: the build columns'
      held ``"code"`` indexes (:func:`held_match_index`), built once
      per column version -- one column's own index, or several
      columns' (a fragmented head) as *parts*;
    * other str keys: the ``"code"`` arm, in *code_space* when given (a
      probe side's larger heap, :func:`larger_code_space`: build values
      it lacks can match nothing there) and otherwise in the build's
      largest heap, extended across columns that do not share one;
    * integral keys with a compact span (:func:`span_bounds`): the
      ``"span"`` arm;
    * anything else: the ``"sorted"`` arm.

    NIL build keys are never indexed: they have no code, and the sorted
    arm leaves them out."""
    if _is_str(build[0]):
        heap = build[0].heap
        if (code_space is None or code_space is heap) and all(
            column.heap is heap for column in build
        ):
            if len(build) == 1:
                return held_match_index(build[0])
            offsets = np.cumsum([0] + [len(column) for column in build[:-1]])
            parts = tuple(
                (int(offset), held_match_index(column))
                for offset, column in zip(offsets, build)
            )
            return MatchIndex("code", None, code_space=CodeSpace(heap), parts=parts)
        if code_space is None:
            space, keys_of = str_code_space(build)
        else:
            space = CodeSpace(code_space)
            keys_of = space.encode
        codes = _concat_keys(build, keys_of)
        order, starts, counts = _code_index(codes, len(space))
        return MatchIndex("code", order, starts, counts, code_space=space)
    bounds = span_bounds(build)
    if bounds is not None:
        lo, hi = bounds
        codes = _concat_keys(build, lambda column: _span_codes(column, lo, hi))
        order, starts, counts = _code_index(codes, hi - lo + 1)
        return MatchIndex("span", order, starts, counts, lo=lo, hi=hi)
    values = _concat_keys(build, lambda column: column.materialize())
    nils = _concat_keys(build, nil_mask)
    positions = np.nonzero(~nils)[0]
    order = positions[stable_order(values[positions])]
    return MatchIndex("sorted", order, keys=values[order])


def probe_match_index(
    probe: AnyColumn, index: MatchIndex
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_position, build_position) matches of *probe*'s values
    in an indexed build side, ordered by probe position (stable), then
    by build position.

    NIL probes never match: ``None`` has no code, a span code exists
    only for an integral, non-NIL value inside the span, and the sorted
    arm masks NIL probes (a sorted build would otherwise "find" a NaN
    or sentinel probe among equal build keys)."""
    if len(probe) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if index.arm == "sorted":
        return probe_sorted(probe.materialize(), index, nil_mask(probe))
    if index.arm == "code":
        codes = index.code_space.encode(probe)
    else:
        codes = _span_codes(probe, index.lo, index.hi)
    if not index.parts:
        return _probe_codes(codes, index)
    # One probe encoding for every part.  Parts come in BUN order, so
    # a stable order on probe position keeps each probe's matches in
    # build order.
    matches = []
    for offset, part in index.parts:
        probe_positions, build_positions = _probe_codes(codes, part)
        matches.append((probe_positions, build_positions + offset))
    probe_positions = np.concatenate([pp for pp, _ in matches])
    build_positions = np.concatenate([bp for _, bp in matches])
    order = stable_order(probe_positions)
    return probe_positions[order], build_positions[order]


def _probe_codes(
    codes: np.ndarray, index: MatchIndex
) -> Tuple[np.ndarray, np.ndarray]:
    """The matches of probe *codes* (-1: no code) in a code-space
    index's tables: indexed by code, or -- a held index -- by the
    code's slot in its *keys*."""
    if index.keys is None:
        slots = codes
        hit = np.nonzero(index.counts[codes] > 0)[0]
    else:
        slots = np.searchsorted(index.keys, codes)
        hit = np.nonzero(index.keys[slots] == codes)[0]
    slots = slots[hit]
    return _expand_matches(hit, index.order, index.starts[slots], index.counts[slots])


def _match_columns(
    probe: AnyColumn, build: AnyColumn
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_position, build_position) matches of *probe*'s values
    in *build*'s, ordered by probe position (stable), then by build
    position.

    A str join runs in the code space of the side with the larger
    heap, and only the *distinct* values the other side
    uses are translated into it -- one dict lookup each, however long
    either side is (:func:`larger_code_space`)."""
    probe_object = _is_str(probe)
    if (
        len(probe) == 0
        or len(build) == 0
        # outerjoin checks no types, and a str equals no number
        or probe_object != _is_str(build)
    ):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    code_space = larger_code_space(probe, [build]) if probe_object else None
    return probe_match_index(probe, build_match_index([build], code_space))


def larger_code_space(probe: StrColumn, build: Sequence[StrColumn]) -> Optional[StrHeap]:
    """The code space a str join of *probe* against the *build* columns
    indexes in: *probe*'s heap when it is at least as large as every
    build heap, else ``None`` -- the build's own
    (:func:`build_match_index`).  The smaller side is the one
    translated, as in :func:`str_code_space`: joining 3 query terms
    against a 200 000-term vocabulary looks 3 values up, not 200 000."""
    if len(probe.heap) >= max(len(column.heap) for column in build):
        return probe.heap
    return None


def join_keys(
    column: AnyColumn, keys_of: KeyFunction
) -> Tuple[np.ndarray, np.ndarray]:
    """Comparison-rule join keys of *column*'s values in the key space
    *keys_of* (:func:`key_space`), plus the mask of non-NIL entries (by
    the column's atom, the int and oid sentinels included).

    NIL keys never join (see the NIL-semantics note in the module
    docstring), so the radix-partitioned join drops masked-out BUNs
    *before* partitioning.  Numeric keys are widened to the common key
    space, so an int column joined against a dbl column partitions and
    compares in one key domain.
    """
    return keys_of(column), ~nil_mask(column)


#: Fibonacci-golden-ratio multiplier scattering radix partition ids:
#: consecutive or stride-patterned key ranges (dense oids, foreign-key
#: blocks) spread evenly over any fanout instead of filling partitions
#: one at a time.
_RADIX_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def join_partition_ids(keys: np.ndarray, fanout: int) -> np.ndarray:
    """Radix partition id (``0 .. fanout-1``) of every integer key
    (:func:`join_keys`), mixed through a Fibonacci multiplier before
    the modulo.  A str key is its heap code, so there is no str
    hash (and a value join in a code space never partitions: the
    selection table's fragments column)."""
    if fanout <= 1:
        return np.zeros(len(keys), dtype=np.int64)
    unsigned = keys.view(np.uint64) if keys.dtype == np.dtype(np.int64) else keys
    mixed = unsigned.astype(np.uint64, copy=False) * _RADIX_MULTIPLIER
    return (mixed % np.uint64(fanout)).astype(np.int64)


def join_partition_positions(
    column: AnyColumn, keys_of: KeyFunction, fanout: int
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Radix split of one fragment: its join keys, and its local BUN
    positions grouped by join-key partition, NIL keys dropped up front
    (comparison rule)."""
    keys, valid = join_keys(column, keys_of)
    positions = np.nonzero(valid)[0].astype(np.int64)
    ids = join_partition_ids(keys, fanout)[positions]
    return keys, [positions[ids == partition] for partition in range(fanout)]


# ----------------------------------------------------------------------
# Selections
# ----------------------------------------------------------------------

#: Distinguishes "no high bound given" (equality select) from an
#: explicit ``high=None`` (open-ended range select).
_UNSET = object()


def select(
    bat: BAT,
    low: Any,
    high: Any = _UNSET,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> BAT:
    """BUNs of *bat* whose tail satisfies the predicate.

    ``select(b, v)`` is equality selection; ``select(b, lo, hi)`` is an
    inclusive range (bound inclusion controlled by the keyword flags;
    a ``None`` bound means unbounded on that side).
    """
    if high is _UNSET:
        mask = equal_mask(bat, low)
    else:
        mask = range_mask(bat, low, high, include_low, include_high)
    return bat.take_positions(np.nonzero(mask)[0])


def equal_mask(bat: BAT, value: Any) -> np.ndarray:
    """Boolean mask of BUNs whose tail equals *value* (the predicate of
    the equality :func:`select`).  NIL equals nothing, a NIL *value*
    included: a str NIL has no code, and a numeric one matches no BUN
    by construction."""
    if value is _UNSET:
        raise KernelError("select needs a value or range")
    if len(bat) == 0:
        return np.zeros(0, dtype=bool)
    return column_equal(bat.tail, value)


def range_mask(
    bat: BAT,
    low: Any,
    high: Any,
    include_low: bool = True,
    include_high: bool = True,
) -> np.ndarray:
    """Boolean mask of BUNs whose tail lies in the given range (the
    predicate of the range :func:`select`; a str tail evaluates it once
    per distinct value).  A ``None`` bound is open; NIL lies in no
    range (:func:`nil_mask`), so an open bound never reaches the
    int/oid/bit sentinels."""
    if len(bat) == 0:
        return np.zeros(0, dtype=bool)
    if _is_str(bat.tail):

        def inside(values: list) -> np.ndarray:
            values = np.array(values, dtype=object)
            mask = np.ones(len(values), dtype=bool)
            if low is not None:
                mask &= (values >= low) if include_low else (values > low)
            if high is not None:
                mask &= (values <= high) if include_high else (values < high)
            return mask

        return _str_mask(bat.tail, inside)
    tails = bat.tail_values()
    mask = ~nil_mask(bat.tail)
    if low is not None:
        low_c = coerce_value(low, bat.tail.atom_type)
        mask &= (tails >= low_c) if include_low else (tails > low_c)
    if high is not None:
        high_c = coerce_value(high, bat.tail.atom_type)
        mask &= (tails <= high_c) if include_high else (tails < high_c)
    return mask


def _semijoin_mask(left: BAT, right: BAT) -> np.ndarray:
    """Boolean mask of left BUNs whose head occurs among right's heads
    (shared predicate of :func:`semijoin` and :func:`kdiff`): by
    position against a provably dense right head, as in :func:`join`."""
    seqbase = right.hseqbase
    if seqbase is None or _is_str(left.head):
        return member_mask(left.head, right.head, nil_member=False)
    kept, _ = fetch_positions(left.head_values(), seqbase, len(right))
    mask = np.zeros(len(left), dtype=bool)
    mask[slice(None) if kept is None else kept] = True
    return mask


def uselect(
    bat: BAT,
    low: Any,
    high: Any = _UNSET,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> BAT:
    """Like :func:`select` but the result tail is void (head-set
    result): ``select`` then ``mark(0)``.

    Monet uses ``uselect`` when only the qualifying heads matter; the
    caller typically follows with ``.mirror()`` and a join.
    """
    return mark(
        select(bat, low, high, include_low=include_low, include_high=include_high)
    )


def likeselect(bat: BAT, pattern: str) -> BAT:
    """Substring selection on string tails (Monet's ``likeselect`` with a
    ``%pattern%`` shape); each distinct value is tested once."""
    if bat.ttype != "str":
        raise KernelError("likeselect requires a str tail")
    mask = _str_mask(
        bat.tail,
        lambda values: np.fromiter(
            map(operator.contains, values, itertools.repeat(pattern)),
            dtype=bool,
            count=len(values),
        ),
    )
    return bat.take_positions(np.nonzero(mask)[0])


# ----------------------------------------------------------------------
# Join family
# ----------------------------------------------------------------------


def check_join_types(tail_type: str, head_type: str) -> None:
    """Reject un-joinable column types (numeric widening is allowed);
    shared by the monolithic and fragmented join paths."""
    if tail_type != head_type and {tail_type, head_type} - {"int", "oid", "dbl"}:
        raise KernelError(
            f"join type mismatch: left tail {tail_type} vs right head {head_type}"
        )


def fetch_positions(
    probe: np.ndarray, seqbase: int, count: int
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """The positional match of *probe* values against the dense run
    ``seqbase .. seqbase+count-1``: ``(kept, targets)`` with *targets*
    the int64 build positions of the probes that hit and *kept* their
    probe positions -- ``None`` when every probe hit, i.e. the kept
    probes are the probe side itself, in order.

    This is the one place a value becomes a position, for void,
    provably dense and fragmented dense build heads and
    :meth:`BAT.find` on a void head alike: only an integral, non-NIL,
    in-range probe hits (a dbl probe of 1.5 or NaN equals no oid)."""
    targets = probe - seqbase
    valid = (targets >= 0) & (targets < count)
    if probe.dtype.kind == "f":
        valid &= targets == np.floor(targets)
    kept = None
    if not valid.all():
        kept = np.nonzero(valid)[0]
        targets = targets[kept]
    return kept, targets.astype(np.int64, copy=False)


def _positional_join(left: BAT, right: BAT, seqbase: int) -> BAT:
    """``left.tail = right.head`` for a right head that is the dense
    run from *seqbase*: a gather of ``right.tail``, and no gather at all
    where the operands prove the permutation is an identity or a
    contiguous run."""
    if left.tail.is_void:
        # Run against run: the overlap is a window of both operands.
        low = max(left.tail.seqbase, seqbase)
        high = max(low, min(left.tail.seqbase + len(left), seqbase + len(right)))
        start = low - left.tail.seqbase
        head = left.head.window(start, start + high - low)
        return BAT(
            head, right.tail.window(low - seqbase, high - seqbase), hkey=left.hkey
        )
    kept, targets = fetch_positions(left.tail.values, seqbase, len(right))
    head = left.head if kept is None else left.head.take(kept)
    return BAT(head, right.tail.take(targets), hkey=left.hkey)


def join(left: BAT, right: BAT) -> BAT:
    """Natural join on ``left.tail = right.head`` -> [left.head, right.tail].

    Equivalent to Monet's ``join``; preserves left BUN order (stable),
    which makes it double as ``leftjoin``.  The algorithm follows from
    the operands' properties (selection table in the module docstring).
    """
    check_join_types(left.ttype, right.htype)
    seqbase = right.hseqbase
    if seqbase is not None:
        return _positional_join(left, right, seqbase)
    probe_positions, build_positions = _match_columns(left.tail, right.head)
    # A key build head matches each probe at most once, so as many
    # matches as probes means every probe matched, in order.
    if right.hkey and len(probe_positions) == len(left):
        head = left.head
    else:
        head = left.head.take(probe_positions)
    tail = right.tail.take(build_positions)
    return BAT(head, tail, hkey=left.hkey and right.hkey)


def fetchjoin(left: BAT, right: BAT) -> BAT:
    """Positional join: right must have a void (dense) head."""
    if not right.hdense:
        raise KernelError("fetchjoin requires a void-headed right operand")
    return _positional_join(left, right, right.head.seqbase)


def pad_unmatched(
    count: int, probe_positions: np.ndarray, matched: AnyColumn
) -> Tuple[np.ndarray, AnyColumn]:
    """The outer join of *count* probe BUNs from their join matches
    (*probe_positions* ascending, *matched* the tails gathered for
    them): every unmatched probe joins a NIL, and all of them come out
    in probe order, as (probe positions, tail column).  The NIL fill is
    code -1 on a str *matched*'s heap, so the tail keeps its codes."""
    hit = np.zeros(count, dtype=bool)
    hit[probe_positions] = True
    unmatched = np.nonzero(~hit)[0]
    tail = concat_columns([matched, nil_column(matched, len(unmatched))])
    positions = np.concatenate((probe_positions, unmatched))
    order = stable_order(positions)
    return positions[order], tail.take(order)


def outer_head(head: AnyColumn, left_positions: np.ndarray) -> AnyColumn:
    """The outer join's result head from its left BUN positions: every
    left BUN comes out at least once, in order, so as many positions as
    left BUNs means each exactly once and the head is *head* itself (a
    void head stays void, as in :func:`join`)."""
    if len(left_positions) == len(head):
        return head
    return head.take(left_positions)


def outerjoin(left: BAT, right: BAT) -> BAT:
    """Left outer join: unmatched left BUNs survive with NIL tails.

    NIL probes (NaN/None left tails) never match and therefore survive
    with NIL tails, like any other unmatched left BUN.
    """
    seqbase = right.hseqbase
    if seqbase is not None:
        kept, build_positions = fetch_positions(
            left.tail_values(), seqbase, len(right)
        )
        probe_positions = _positions(len(left)) if kept is None else kept
    else:
        probe_positions, build_positions = _match_columns(left.tail, right.head)
    left_positions, tail = pad_unmatched(
        len(left), probe_positions, right.tail.take(build_positions)
    )
    head = outer_head(left.head, left_positions)
    return BAT(head, tail, hkey=left.hkey and right.hkey)


def semijoin(left: BAT, right: BAT) -> BAT:
    """BUNs of *left* whose **head** occurs among *right*'s heads
    (Monet ``semijoin``)."""
    return left.take_positions(np.nonzero(_semijoin_mask(left, right))[0])


def kdiff(left: BAT, right: BAT) -> BAT:
    """BUNs of *left* whose head does **not** occur in *right*'s heads
    (Monet ``kdiff``; the anti-semijoin)."""
    return left.take_positions(np.nonzero(~_semijoin_mask(left, right))[0])


def kintersect(left: BAT, right: BAT) -> BAT:
    """BUNs of *left* whose head occurs among *right*'s heads, under
    the **identity** NIL rule: a NIL head is kept when *right* also has
    a NIL head (all NILs are one set element; see the module
    docstring).  This is what distinguishes it from :func:`semijoin`,
    which follows the comparison rule (NIL matches nothing)."""
    mask = member_mask(left.head, right.head, nil_member=True)
    return left.take_positions(np.nonzero(mask)[0])


def check_kunion_types(left: BAT, right: BAT) -> None:
    """Reject un-unionable operands: ``kunion`` concatenates both
    sides' columns under the *left* atom types, so mismatched types
    would silently reinterpret right-side values (e.g. dbl heads
    truncated into an int column).  Shared by the monolithic and
    fragmented paths."""
    if left.htype != right.htype or left.ttype != right.ttype:
        raise KernelError(
            f"kunion type mismatch: [{left.htype},{left.ttype}] vs "
            f"[{right.htype},{right.ttype}]"
        )


def kunion(left: BAT, right: BAT) -> BAT:
    """*left* plus those BUNs of *right* whose head is not in *left*.

    Head membership follows the **identity** NIL rule: a NIL-headed
    right BUN is already "seen" when *left* has any NIL head, so unions
    never duplicate the NIL head (matching ``kunique``, whose output is
    the canonical head set these operators work on)."""
    check_kunion_types(left, right)
    mask = member_mask(right.head, left.head, nil_member=True)
    extra = right.take_positions(np.nonzero(~mask)[0])
    if len(extra) == 0:
        return left
    head = concat_columns([left.head, extra.head])
    tail = concat_columns([left.tail, extra.tail])
    return BAT(head, tail, hkey=left.hkey and right.hkey)


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------


def mark(bat: BAT, base: int = 0) -> BAT:
    """Replace the tail by a fresh dense oid sequence starting at *base*
    (Monet ``mark``) -- the standard way to mint intermediate oids."""
    return BAT(
        bat.head,
        VoidColumn(base, len(bat)),
        hsorted=bat.hsorted,
        hkey=bat.hkey,
    )


def number(bat: BAT, base: int = 0) -> BAT:
    """Replace the head by a fresh dense oid sequence (``mark`` flipped)."""
    return BAT(
        VoidColumn(base, len(bat)),
        bat.tail,
        tsorted=bat.tsorted,
        tkey=bat.tkey,
    )


def sort(bat: BAT) -> BAT:
    """Stable sort on head values (Monet ``sort``; a str head sorts by
    the rank of its codes, NIL last)."""
    if bat.hsorted:
        return bat
    order = stable_order(order_keys(bat.head)[0])
    result = bat.take_positions(order)
    return BAT(result.head, result.tail, hsorted=True, hkey=bat.hkey, tkey=bat.tkey)


def tsort(bat: BAT) -> BAT:
    """Stable sort on tail values (``reverse().sort().reverse()``)."""
    return sort(bat.reverse()).reverse()


#: Duplicate BUN elimination; keeps the first occurrence, preserves
#: first-seen order (Monet ``unique``).  NILs dedupe under the identity
#: rule (one NaN/None survives; see the module docstring).
unique = Identity("unique", (HEAD, TAIL), "keep")
#: Duplicate *head* elimination; first BUN per head wins.
kunique = Identity("kunique", (HEAD,), "keep")
#: Duplicate *tail* elimination; first BUN per tail wins.
tunique = Identity("tunique", (TAIL,), "keep")


def slice_bat(bat: BAT, start: int, stop: int) -> BAT:
    """Positional BUN range [start, stop) (Monet ``slice``)."""
    return bat.slice(start, stop)


def const_bat(head_like: BAT, atom_name: str, value: Any) -> BAT:
    """[head_like.head, constant] -- Monet's ``project`` (constant tail)."""
    from repro.monet.bat import column_from_values

    tail = column_from_values(atom_name, [value] * len(head_like))
    return BAT(head_like.head, tail, hsorted=head_like.hsorted, hkey=head_like.hkey)


def exist(bat: BAT, head_value: Any) -> bool:
    """Monet ``exist``: membership test on head values."""
    return bat.exists(head_value)


def _topn_sort_keys(tails: np.ndarray, descending: bool) -> np.ndarray:
    """Total-order uint64 sort keys for top-n selection over
    :func:`order_keys`: ascending key order is the requested tail order
    with NILs kept where the raw comparisons put them (NaN last in both
    directions, the int/oid sentinels at their numeric extremes, a str
    NIL -- the top rank -- last ascending and first descending).  A
    total order -- no NaN in the key domain -- is what makes the
    boundary-tie handling below exact."""
    keys = partition_keys(tails)
    if keys.dtype != np.uint64:
        # int64 order -> uint64 order by flipping the sign bit.
        keys = keys.view(np.uint64) ^ np.uint64(1 << 63)
    if descending:
        keys = ~keys
        if tails.dtype.kind == "f":
            # NaN (dbl NIL) sorts last under either direction.
            keys[np.isnan(tails)] = np.uint64(0xFFFFFFFFFFFFFFFF)
    return keys


def topn_positions(bat: BAT, n: int, *, descending: bool = True) -> np.ndarray:
    """BUN positions of the top-*n* BUNs by tail, in result order.
    Exposed separately so fragmented execution can run the per-fragment
    candidate selection and keep position bookkeeping.

    Ties on the tail break by BUN position (earlier first), for every
    atom and in both directions -- including **membership** at the
    selection boundary: among BUNs tied at the n-th value, the earliest
    positions win the remaining slots.  (A bare ``argpartition`` would
    keep an arbitrary subset of the tied BUNs, which monolithic and
    fragmented execution could disagree on; the randomized MIL fuzzer
    caught exactly that.)"""
    if n < 0:
        raise KernelError("topn needs a non-negative n")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    tails = order_keys(bat.tail)[0]
    count = len(tails)
    keys = _topn_sort_keys(tails, descending)
    if n >= count:
        order = np.lexsort((np.arange(count, dtype=np.int64), keys))
        return order[:n]
    candidates = np.argpartition(keys, n)[:n]
    boundary = keys[candidates].max()
    strict = np.nonzero(keys < boundary)[0]
    tied = np.nonzero(keys == boundary)[0][: n - len(strict)]
    chosen = np.concatenate((strict, tied))
    # Order the selected BUNs; equal keys break by BUN position.
    inner = np.lexsort((chosen, keys[chosen]))
    return chosen[inner]


def topn(bat: BAT, n: int, descending: bool = True) -> BAT:
    """First *n* BUNs after sorting by tail (descending by default).

    Not a classical Monet primitive but the standard idiom
    ``b.reverse.sort.reverse.slice(0, n)``, packaged because every IR
    query ends with it.  It is a partial sort (``argpartition``) over
    integer keys (:func:`_topn_sort_keys`; a str tail's are the ranks
    of its codes): O(count + n log n) instead of a full sort.
    """
    return bat.take_positions(topn_positions(bat, n, descending=descending))
