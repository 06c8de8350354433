"""The Binary Association Table (BAT), Monet's only collection type.

A BAT is a sequence of *BUNs* (binary units): (head, tail) value pairs.
Both head and tail are typed by an atom.  All bulk data in the Mirror
DBMS bottoms out in BATs; the Moa layer maps every logical structure to
a set of named BATs (see :mod:`repro.moa.mapping`).

Columns
-------

There are three column kinds, one per row of the column codec
(:mod:`repro.monet.codec`):

* :class:`VoidColumn` -- Monet's ``void`` type: a *virtual* dense oid
  sequence ``seqbase, seqbase+1, ...`` that occupies no memory.  Most
  BATs produced by the kernel have void heads, which is what makes
  positional joins (``fetchjoin``) constant-time per element.
* :class:`Column` -- a fixed-width atom (int, oid, dbl, bit): a numpy
  array of the atom's dtype, NIL as the atom's sentinel.
* :class:`StrColumn` -- a str column: int64 ``codes`` (NIL -1) into a
  :class:`StrHeap`, Monet's string heap.  It has no value array;
  :meth:`StrColumn.materialize` is the decode, which ``monet/`` calls
  only at its boundaries (result reconstruction through
  :func:`column_to_list`/``python_value``, the JSON wire mode).

The string heap
---------------

A heap holds the distinct values of one stored column in code order
plus their value -> code map.  Every kernel operator reads a str column
through its codes (the key-selection table in :mod:`repro.monet.kernel`):
identity compares codes, order compares the rank of a code among the
heap values in use, a predicate runs once per distinct value in use
(:func:`by_code`).  The sharing rules:

* **append-only** -- a value, once numbered, keeps its code; appends,
  patches and load number only the values a heap lacks
  (:meth:`StrHeap.encode`, O(appended) lookups in its map);
* **shared, never copied** -- every window, gather, concatenation,
  fragment and snapshot of one stored column holds the same heap
  object, and so do the columns :meth:`BAT.append`,
  :meth:`BAT.delete_positions`, :meth:`BAT.update_positions` and
  ``FragmentedBAT.append``/``delete``/``update`` build from it.  A
  column only holds codes below the heap length it saw when it was
  built, so a snapshot reads the same values however far the heap has
  grown since;
* **writers lock, readers do not** -- heap growth is serialized by the
  heap's own lock (a session-private BAT may share a stored column's
  heap, so the pool's mutex is not enough); a reader reads codes below
  its own length, whose values are written before their codes are
  published;
* **two heaps meet only where values from two columns meet** -- a join
  or a set operation translates the distinct values one side uses
  (:class:`repro.monet.kernel.CodeSpace`), and a concatenation of
  columns on different heaps numbers their values in use into a fresh
  heap (:func:`concat_columns`).

Properties
----------

BATs carry the property flags Monet uses for optimization:

``hsorted``/``tsorted``
    head/tail values are non-decreasing.
``hkey``/``tkey``
    head/tail values are unique.
``hdense``
    head is a dense (void-representable) sequence.

The kernel maintains these conservatively: a flag is only ``True`` when
guaranteed by construction.  The join family chooses its algorithm from
them (:attr:`BAT.hseqbase` is the O(1) density proof; the selection
table is in the :mod:`repro.monet.kernel` docstring).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.monet.atoms import AtomType, atom, coerce_value, is_nil
from repro.monet.errors import AtomError, BATError, InvalidMutationBatch, InvalidPositions

_STR = atom("str")


class StrHeap:
    """Monet's string heap: distinct str values in code order plus
    their value -> code map (see the module docstring for the sharing
    rules).  Values live in an object array with spare capacity whose
    last slot is never written, so indexing it by code -1 reads NIL."""

    __slots__ = ("index", "_values", "_lock")

    def __init__(self, values: Sequence[str] = ()):
        self.index: dict = {}
        self._values = np.empty(1, dtype=object)
        self._lock = threading.Lock()
        self._append(list(values))

    def __len__(self) -> int:
        return len(self.index)

    def __reduce__(self):
        # The lock does not pickle: a copy is rebuilt from the values.
        return StrHeap, (self.values_at(np.arange(len(self))).tolist(),)

    def values_at(self, codes: np.ndarray) -> np.ndarray:
        """The values of *codes* as an object array, NIL (-1) as None."""
        return self._values[codes]

    def lookup(self, values: Sequence[Any]) -> np.ndarray:
        """int64 codes of *values*: -1 for NIL (``None`` is never a
        key) and for every value the heap lacks."""
        return np.fromiter(
            map(self.index.get, values, itertools.repeat(-1)),
            dtype=np.int64,
            count=len(values),
        )

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        """int64 codes of *values* (str or ``None``), numbering the
        distinct values the heap lacks after its last code: the one way
        values from outside become codes."""
        index = self.index
        fresh = [v for v in dict.fromkeys(values) if v is not None and v not in index]
        if fresh:
            with self._lock:
                self._append([v for v in fresh if v not in index])
        return self.lookup(values)

    def _append(self, fresh: List[str]) -> None:
        """Number *fresh* (distinct, absent) after the last code: the
        values land before the map publishes their codes."""
        if not fresh:
            return
        start = len(self.index)
        stop = start + len(fresh)
        values = self._values
        if stop >= len(values):
            grown = np.empty(max(2 * len(values), stop + 1), dtype=object)
            grown[:start] = values[:start]
            values = grown
        values[start:stop] = fresh
        self._values = values
        self.index.update(zip(fresh, range(start, stop)))


def by_code(
    codes: np.ndarray, heap: StrHeap, evaluate: Callable[[list], Any], nil: int
) -> np.ndarray:
    """*evaluate* over the distinct values *codes* use -- one list of
    them, read from *heap*, one result each -- gathered back to every
    BUN by its code; NIL's BUNs (code -1) get *nil*.  So *evaluate* sees each distinct value once, the rest is
    numpy over the BUNs, and the heap's other values are never read."""
    table = np.zeros(int(codes.max(initial=-1)) + 2, dtype=np.int64)
    table[codes] = 1
    table[-1] = 0
    used = np.flatnonzero(table)
    table[used] = evaluate(heap.values_at(used).tolist())
    table[-1] = nil
    return table[codes]


def rank_codes(codes: np.ndarray, heap: StrHeap) -> np.ndarray:
    """Order keys of *codes*: the rank of each code's value among the
    distinct values *codes* use (sorted once per call), NIL ranked above
    every string."""

    def ranks(values: list) -> np.ndarray:
        return np.argsort(sorted(range(len(values)), key=values.__getitem__))

    return by_code(codes, heap, ranks, len(codes))


class Column:
    """A materialized fixed-width column: numpy array + atom type."""

    __slots__ = ("atom_type", "values")

    def __init__(self, atom_type: Union[AtomType, str], values: np.ndarray):
        if isinstance(atom_type, str):
            atom_type = atom(atom_type)
        if atom_type is _STR:
            raise BATError("a str column is codes plus a heap: use column_from_values")
        if not isinstance(values, np.ndarray):
            values = atom_type.make_array(list(values))
        if values.ndim != 1:
            raise BATError("column values must be one-dimensional")
        self.atom_type = atom_type
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_void(self) -> bool:
        return False

    def materialize(self) -> np.ndarray:
        """Return the underlying numpy array (already materialized)."""
        return self.values

    def take(self, positions: np.ndarray) -> "Column":
        """Positional gather."""
        return Column(self.atom_type, self.values[positions])

    def window(self, start: int, stop: int) -> "Column":
        """The contiguous run ``[start, stop)`` as a view sharing this
        column's array -- the column itself when the run covers it."""
        if start == 0 and stop == len(self.values):
            return self
        return Column(self.atom_type, self.values[start:stop])

    def python_value(self, position: int):
        """The Python-level value at *position* (NIL -> None)."""
        return self.atom_type.to_python(self.values[position])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column<{self.atom_type.name}>[{len(self)}]"


class StrColumn:
    """A str column: int64 *codes* (NIL -1) into a shared, append-only
    :class:`StrHeap` (see the module docstring).  The codes stay int64
    in memory, where they index tables; the codec narrows them.

    *match_index* is the column's held join index in its own heap
    (:func:`repro.monet.kernel.held_match_index`), built the first time
    the column is a join build side.  A column's codes never change,
    so the index is valid for the column's life and dies with it: a
    copy-on-write successor, a window or a gather starts without one."""

    __slots__ = ("codes", "heap", "match_index")

    atom_type = _STR
    is_void = False

    def __init__(self, codes: np.ndarray, heap: StrHeap):
        self.codes = codes
        self.heap = heap
        self.match_index = None

    def __len__(self) -> int:
        return len(self.codes)

    def materialize(self) -> np.ndarray:
        """The decode: an object array of the values, NIL as None."""
        return self.heap.values_at(self.codes)

    def take(self, positions: np.ndarray) -> "StrColumn":
        """Positional gather of the codes, on the same heap."""
        return StrColumn(self.codes[positions], self.heap)

    def window(self, start: int, stop: int) -> "StrColumn":
        """The run ``[start, stop)`` as a view of the codes, on the same
        heap -- the column itself when the run covers it."""
        if start == 0 and stop == len(self.codes):
            return self
        return StrColumn(self.codes[start:stop], self.heap)

    def python_value(self, position: int) -> Optional[str]:
        """The value at *position* (NIL -> None)."""
        return self.heap.values_at(self.codes[position])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StrColumn[{len(self)}/{len(self.heap)}]"


class VoidColumn:
    """A virtual dense oid column ``seqbase .. seqbase+count-1``.

    This is Monet's ``void`` head: it stores nothing, yet behaves like a
    sorted, key oid column.  :meth:`materialize` produces the explicit
    array when an operator needs real values.
    """

    __slots__ = ("seqbase", "count", "atom_type")

    def __init__(self, seqbase: int, count: int):
        if seqbase < 0 or count < 0:
            raise BATError("void column needs non-negative seqbase and count")
        self.seqbase = seqbase
        self.count = count
        self.atom_type = atom("oid")

    def __len__(self) -> int:
        return self.count

    @property
    def is_void(self) -> bool:
        return True

    def materialize(self) -> np.ndarray:
        return np.arange(self.seqbase, self.seqbase + self.count, dtype=np.int64)

    def take(self, positions: np.ndarray) -> Column:
        return Column(self.atom_type, np.asarray(positions, dtype=np.int64) + self.seqbase)

    def window(self, start: int, stop: int) -> "VoidColumn":
        """The contiguous run ``[start, stop)``: void again."""
        return VoidColumn(self.seqbase + start, stop - start)

    def python_value(self, position: int) -> int:
        if position < 0:
            position += self.count
        if not 0 <= position < self.count:
            raise BATError("void column index out of range")
        return self.seqbase + position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VoidColumn[{self.seqbase}..{self.seqbase + self.count})"


AnyColumn = Union[Column, StrColumn, VoidColumn]


def concat_columns(columns: Sequence[AnyColumn]) -> AnyColumn:
    """The BUNs of *columns* (at least one, one atom) in order: the one
    column concatenation of ``monet/``.  A single part is returned
    itself; consecutive void parts fuse back into one void column; str
    parts on one heap concatenate their codes on it, str parts on
    several heaps number their values in use into a fresh heap
    (:func:`rebase`); anything else concatenates its values."""
    first = columns[0]
    if len(columns) == 1:
        return first
    if isinstance(first, StrColumn):
        heap = first.heap
        if any(column.heap is not heap for column in columns):
            heap = StrHeap()
        return StrColumn(np.concatenate([rebase(column, heap) for column in columns]), heap)
    if all(column.is_void for column in columns):
        stop = first.seqbase
        for column in columns:
            if column.seqbase != stop:
                break
            stop += len(column)
        else:
            return VoidColumn(first.seqbase, stop - first.seqbase)
    return Column(
        first.atom_type, np.concatenate([column.materialize() for column in columns])
    )


def rebase(column: StrColumn, heap: StrHeap) -> np.ndarray:
    """*column*'s codes in *heap* -- its own codes when that is its
    heap, else one :meth:`StrHeap.encode` of the distinct values it uses
    (extending *heap*), gathered back by code."""
    if column.heap is heap:
        return column.codes
    return by_code(column.codes, column.heap, heap.encode, -1)


def nil_column(like: AnyColumn, count: int) -> AnyColumn:
    """*count* NILs of *like*'s atom -- on *like*'s heap when it is a
    str column (code -1), so a concatenation with *like* -- an outer
    join's fill -- keeps the codes."""
    if isinstance(like, StrColumn):
        return StrColumn(np.full(count, -1, dtype=np.int64), like.heap)
    return Column(like.atom_type, like.atom_type.make_array([None] * count))


def column_equal(column: AnyColumn, value: Any) -> np.ndarray:
    """Mask of *column*'s BUNs equal to *value* under the comparison
    rule: NIL equals nothing, a NIL *value* included (a str NIL has no
    code; a numeric one matches no BUN by construction)."""
    if isinstance(column, StrColumn):
        code = column.heap.index.get(value) if value is not None else None
        if code is None:
            return np.zeros(len(column), dtype=bool)
        return column.codes == code
    coerced = coerce_value(value, column.atom_type)
    if is_nil(coerced, column.atom_type):
        return np.zeros(len(column), dtype=bool)
    return column.materialize() == coerced


class BAT:
    """A Binary Association Table: aligned head and tail columns.

    BATs are *immutable* (by convention and by the write path's
    contract): kernel operators always build new BATs (or views), and
    the update layer's entry point :meth:`append` is copy-on-write --
    it returns a *new* BAT sharing nothing mutable with the receiver,
    so any snapshot holding the old object keeps reading the old BUNs.

    *windows* caches :func:`repro.monet.fragments.fold_tail`'s
    target-sized view fragments of this BAT, so every fold of an
    oversized fragment -- by every query and every later version that
    still shares the fragment -- hands out the same view objects (and
    with them their columns' held join indexes).
    """

    __slots__ = ("head", "tail", "hsorted", "tsorted", "hkey", "tkey", "name", "windows")

    def __init__(
        self,
        head: AnyColumn,
        tail: AnyColumn,
        *,
        hsorted: bool = False,
        tsorted: bool = False,
        hkey: bool = False,
        tkey: bool = False,
        name: Optional[str] = None,
    ):
        if len(head) != len(tail):
            raise BATError(
                f"head/tail length mismatch: {len(head)} vs {len(tail)}"
            )
        self.head = head
        self.tail = tail
        # Void columns are dense, therefore sorted and key by definition.
        self.hsorted = hsorted or head.is_void
        self.hkey = hkey or head.is_void
        self.tsorted = tsorted or tail.is_void
        self.tkey = tkey or tail.is_void
        self.name = name
        self.windows = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.head)

    @property
    def count(self) -> int:
        """BUN count (Monet's ``count``)."""
        return len(self.head)

    @property
    def htype(self) -> str:
        return self.head.atom_type.name

    @property
    def ttype(self) -> str:
        return self.tail.atom_type.name

    @property
    def hdense(self) -> bool:
        """True when the head is a virtual dense sequence."""
        return self.head.is_void

    @property
    def hseqbase(self) -> Optional[int]:
        """The first head value when the head is *provably* the dense
        run ``first, first+1, ...`` (:func:`dense_seqbase`: void, or
        materialized but flagged sorted + key with span == count-1),
        else ``None`` -- what lets a join go positional."""
        return dense_seqbase(self.head, self.hsorted, self.hkey)

    def head_values(self) -> np.ndarray:
        """Materialized head array."""
        return self.head.materialize()

    def tail_values(self) -> np.ndarray:
        """Materialized tail array."""
        return self.tail.materialize()

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate (head, tail) pairs as Python values (NIL -> None)."""
        return zip(column_to_list(self.head), column_to_list(self.tail))

    def to_pairs(self) -> List[Tuple[Any, Any]]:
        """All BUNs as a Python list (test/debug helper)."""
        return list(self.items())

    def to_dict(self) -> dict:
        """head -> tail mapping; requires a key head."""
        if not self.hkey:
            raise BATError("to_dict requires a key head column")
        return dict(self.items())

    def tail_list(self) -> List[Any]:
        """Tail values in BUN order as Python values (vectorized)."""
        return column_to_list(self.tail)

    def head_list(self) -> List[Any]:
        """Head values in BUN order as Python values (vectorized)."""
        return column_to_list(self.head)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "tmp"
        return f"BAT({label})[{self.htype},{self.ttype}]#{len(self)}"

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def reverse(self) -> "BAT":
        """Swap head and tail (Monet ``reverse``); O(1) view semantics."""
        return BAT(
            self.tail,
            self.head,
            hsorted=self.tsorted,
            tsorted=self.hsorted,
            hkey=self.tkey,
            tkey=self.hkey,
        )

    def mirror(self) -> "BAT":
        """[head, head] view (Monet ``mirror``)."""
        return BAT(
            self.head,
            self.head,
            hsorted=self.hsorted,
            tsorted=self.hsorted,
            hkey=self.hkey,
            tkey=self.hkey,
        )

    def slice(self, start: int, stop: int) -> "BAT":
        """BUN-positional slice [start, stop) (Monet ``slice``), clipped
        to the BAT: a window view sharing the receiver's arrays, with its
        four property flags."""
        start = min(max(0, start), len(self))
        stop = max(start, min(len(self), stop))
        return BAT(
            self.head.window(start, stop),
            self.tail.window(start, stop),
            hsorted=self.hsorted,
            tsorted=self.tsorted,
            hkey=self.hkey,
            tkey=self.tkey,
        )

    def take_positions(self, positions: np.ndarray) -> "BAT":
        """Gather BUNs at the given positions, preserving order-derived
        properties only when the gather is monotone."""
        positions = np.asarray(positions, dtype=np.int64)
        monotone = len(positions) <= 1 or bool(np.all(np.diff(positions) > 0))
        if self.head.is_void and monotone and len(positions) > 0:
            contiguous = bool(np.all(np.diff(positions) == 1)) if len(positions) > 1 else True
            if contiguous:
                head: AnyColumn = VoidColumn(
                    self.head.seqbase + int(positions[0]), len(positions)
                )
            else:
                head = self.head.take(positions)
        else:
            head = self.head.take(positions)
        tail = self.tail.take(positions)
        return BAT(
            head,
            tail,
            hsorted=self.hsorted and monotone,
            tsorted=self.tsorted and monotone,
            hkey=self.hkey,
            tkey=self.tkey,
        )

    # ------------------------------------------------------------------
    # Point access
    # ------------------------------------------------------------------
    def find(self, head_value) -> Any:
        """Tail value for the first BUN whose head equals *head_value*
        (Monet ``find``); raises :class:`BATError` when absent.  A NIL
        needle matches nothing, for every atom (the comparison rule of
        ``select(b, nil)``, :func:`column_equal`).  On a void head the
        needle becomes a position as in the positional join
        (:func:`repro.monet.kernel.fetch_positions`): only an integral,
        in-range number finds a BUN, so ``1.5`` or NaN finds none."""
        if self.head.is_void:
            from repro.monet.kernel import fetch_positions

            needle = np.asarray([head_value])
            if needle.dtype.kind == "u":
                needle = needle.astype(np.float64)
            if needle.dtype.kind in "if":
                _, targets = fetch_positions(needle, self.head.seqbase, len(self))
                if len(targets):
                    return self.tail.python_value(int(targets[0]))
        else:
            matches = np.flatnonzero(column_equal(self.head, head_value))
            if len(matches):
                return self.tail.python_value(int(matches[0]))
        raise BATError(f"head value {head_value!r} not found")

    def exists(self, head_value) -> bool:
        """True when some BUN has this head value (Monet ``exist``)."""
        try:
            self.find(head_value)
            return True
        except BATError:
            return False

    # ------------------------------------------------------------------
    # Copy-on-write append (the update layer's entry point)
    # ------------------------------------------------------------------
    def append(
        self,
        pairs: Optional[Sequence[Tuple[Any, Any]]] = None,
        *,
        tails: Optional[Sequence[Any]] = None,
    ) -> "BAT":
        """A new BAT with the given BUNs appended after this one's.

        Copy-on-write: the receiver is untouched, so snapshot readers
        holding it never see the new BUNs.  Two calling conventions:

        * ``append(pairs)`` -- explicit (head, tail) Python pairs;
        * ``append(tails=values)`` -- tail values only (Python values,
          or a column array: :func:`column_from_values`), the head must
          be void and is extended densely (the shape of every Moa
          attribute BAT).

        Property flags are maintained conservatively from the appended
        run and the boundary BUN alone (O(appended), never O(total)):
        sortedness survives when the appended values are sorted and the
        boundary is non-decreasing; keyness survives only when global
        uniqueness is implied by sortedness (both runs sorted, strictly
        increasing appended run, strictly increasing boundary).
        """
        if (pairs is None) == (tails is None):
            raise BATError("append takes pairs or tails=, not both/neither")
        if tails is not None:
            if not self.head.is_void:
                raise BATError(
                    "append(tails=...) needs a void head; pass explicit pairs"
                )
            new_tail = _run_like(self.tail, tails)
            if len(new_tail) == 0:
                return self
            head: AnyColumn = VoidColumn(
                self.head.seqbase, len(self) + len(new_tail)
            )
            tail, tsorted, tkey = self._extend_column(
                self.tail, new_tail, self.tsorted, self.tkey
            )
            return BAT(
                head,
                tail,
                hsorted=True,
                hkey=True,
                tsorted=tsorted,
                tkey=tkey,
                name=self.name,
            )
        pair_list = list(pairs)
        if not pair_list:
            return self
        new_head = _run_like(self.head, [h for h, _ in pair_list])
        new_tail = _run_like(self.tail, [t for _, t in pair_list])
        if self.head.is_void and _continues_dense(
            self.head.seqbase + len(self), new_head.values
        ):
            head = VoidColumn(self.head.seqbase, len(self) + len(new_head))
            hsorted, hkey = True, True
        else:
            head, hsorted, hkey = self._extend_column(
                self.head, new_head, self.hsorted, self.hkey
            )
        tail, tsorted, tkey = self._extend_column(
            self.tail, new_tail, self.tsorted, self.tkey
        )
        return BAT(
            head,
            tail,
            hsorted=hsorted,
            hkey=hkey,
            tsorted=tsorted,
            tkey=tkey,
            name=self.name,
        )

    def _extend_column(
        self, old: AnyColumn, new: AnyColumn, was_sorted: bool, was_key: bool
    ) -> Tuple[AnyColumn, bool, bool]:
        """Concatenate *new* (a run on *old*'s heap) after *old*;
        returns (column, sorted, key) flags derived from the appended
        run and the boundary only."""
        run_sorted = _ordered(new, strict=False)
        run_strict = run_sorted and _ordered(new, strict=True)
        # Every load appends to an empty BAT: the freshly built run is
        # the column, with no copy.
        if len(old):
            column = concat_columns([old, new])
            boundary = _boundary_order(old, new)
        else:
            column = new
            boundary = 2  # empty prefix: boundary is vacuously strict
        now_sorted = was_sorted and run_sorted and boundary >= 1
        # Uniqueness from sortedness: both runs sorted, the appended run
        # strictly increasing and the boundary strict imply every new
        # value exceeds every old one.
        now_key = was_key and now_sorted and run_strict and boundary == 2
        return column, now_sorted, now_key

    # ------------------------------------------------------------------
    # Copy-on-write delete / update (the tombstone + patch primitives)
    # ------------------------------------------------------------------
    def delete_positions(
        self,
        positions: Union[np.ndarray, Sequence[int]],
        *,
        renumber: Optional[Union[np.ndarray, Sequence[int]]] = None,
    ) -> "BAT":
        """A new BAT with the BUNs at *positions* removed.

        Copy-on-write like :meth:`append`: the receiver is untouched, so
        snapshot readers keep seeing the deleted BUNs.  Positions are
        0-based BUN positions, normalized to a sorted unique array;
        out-of-range positions raise :class:`InvalidPositions`.

        Survivors keep their order, so the gather is monotone and all
        four property flags carry over unchanged (O(deleted) flag
        maintenance, never a rescan).  A void head is *re-densified* --
        survivors renumber to ``seqbase .. seqbase+m-1`` -- which is what
        keeps Moa's positional-fetchjoin discipline alive across deletes.

        ``renumber`` names the parent oids deleted alongside (a Moa
        ``__nest__``/``owner`` tail points at its parent's dense oids,
        an extent's tail at its own positions): every surviving integer
        tail value ``t`` becomes ``t - |{d in renumber : d < t}|``, NIL
        stays NIL.  The rule is strictly monotone on survivors, so
        ``tsorted``/``tkey`` still carry over; for an extent
        (``renumber=positions``) it yields the dense run of the new
        length.  It applies even when *positions* is empty (parents
        without children still shift the survivors), and a survivor that
        names a deleted parent raises :class:`InvalidMutationBatch`.
        """
        positions = _normalize_positions(positions, len(self))
        head, tail = self.head, self.tail
        if len(positions):
            mask = np.ones(len(self), dtype=bool)
            mask[positions] = False
            keep = np.nonzero(mask)[0]
            if head.is_void:
                head = VoidColumn(head.seqbase, len(keep))
            else:
                head = head.take(keep)
            tail = tail.take(keep)
        if renumber is not None:
            tail = _renumbered(tail, renumber)
        if head is self.head and tail is self.tail:
            return self
        return BAT(
            head,
            tail,
            hsorted=self.hsorted,
            hkey=self.hkey,
            tsorted=self.tsorted,
            tkey=self.tkey,
            name=self.name,
        )

    def update_positions(
        self,
        positions: Union[np.ndarray, Sequence[int]],
        values: Union[Sequence[Any], np.ndarray],
    ) -> "BAT":
        """A new BAT with the tail values at *positions* replaced by
        *values* (position-aligned; duplicate positions: last wins):
        Python values, or a column array (:func:`column_from_values`).

        Copy-on-write: the receiver is untouched.  The head column is
        shared by reference, so ``hsorted``/``hkey`` survive untouched.
        Tail flags are maintained in O(changed): ``tsorted`` survives only
        when every adjacent pair touching a patched position is still
        non-decreasing (a patch to NIL fails the pair check, clearing the
        flag -- NIL is incomparable); ``tkey`` is conservatively cleared,
        since local inspection cannot re-prove global uniqueness.
        """
        positions = _normalize_positions(positions, len(self), unique=False)
        if not isinstance(values, np.ndarray):
            values = list(values)
        if len(values) != len(positions):
            raise InvalidMutationBatch(
                f"update needs one value per position: "
                f"{len(values)} values for {len(positions)} positions"
            )
        if len(positions) == 0:
            return self
        patch = _run_like(self.tail, values)
        if isinstance(patch, StrColumn):
            codes = self.tail.codes.copy()
            codes[positions] = patch.codes
            tail: AnyColumn = StrColumn(codes, patch.heap)
        else:
            values = self.tail.materialize().copy()
            values[positions] = patch.values
            tail = Column(patch.atom_type, values)
        tsorted = self.tsorted and _pairs_sorted(tail, positions)
        return BAT(
            self.head,
            tail,
            hsorted=self.hsorted,
            hkey=self.hkey,
            tsorted=tsorted,
            tkey=False,
            name=self.name,
        )


def _renumbered(column: AnyColumn, deleted) -> AnyColumn:
    """*column* (survivors' parent oids) renumbered past the *deleted*
    parents: ``t - |{d < t}|`` per non-NIL value -- *column* itself when
    no value moves.  The rule behind ``delete_positions(renumber=)``."""
    if column.atom_type.name not in ("oid", "int"):
        raise InvalidMutationBatch(
            f"renumber needs an oid/int tail, not {column.atom_type.name}"
        )
    deleted = np.unique(np.asarray(deleted, dtype=np.int64))
    if len(deleted) == 0:
        return column
    values = column.materialize()
    live = values != column.atom_type.nil
    shift = np.searchsorted(deleted, values)
    named = live & (shift < len(deleted))
    named[named] = deleted[shift[named]] == values[named]
    if named.any():
        raise InvalidMutationBatch(
            "renumber: a surviving BUN names deleted parent "
            f"{int(values[named][0])}"
        )
    shift[~live] = 0
    if not shift.any():
        return column
    return Column(column.atom_type, values - shift)


def dense_seqbase(column: AnyColumn, is_sorted: bool, is_key: bool) -> Optional[int]:
    """The first value of *column* when it is provably -- in O(1), from
    the property flags -- the dense integer run ``first, first+1, ...``:
    a void column, or an int/oid column flagged sorted and key whose
    span equals ``count - 1``.  ``None`` means "not proven", not "not
    dense"."""
    if column.is_void:
        return column.seqbase
    if not (is_sorted and is_key) or column.atom_type.name not in ("int", "oid"):
        return None
    values = column.values
    if len(values) == 0:
        return 0
    first = int(values[0])
    return first if int(values[-1]) - first == len(values) - 1 else None


def _normalize_positions(
    positions: Union[np.ndarray, Sequence[int]],
    count: int,
    *,
    unique: bool = True,
) -> np.ndarray:
    """Validate and normalize BUN positions: int64, one-dimensional, in
    range; sorted-unique unless *unique* is False (updates keep caller
    order so duplicate positions resolve last-wins)."""
    try:
        if isinstance(positions, np.ndarray):
            arr = positions.astype(np.int64, copy=False)
        else:
            arr = np.asarray(list(positions), dtype=np.int64)
    except (TypeError, ValueError):
        raise InvalidPositions("positions must be integers") from None
    if arr.ndim != 1:
        raise InvalidPositions("positions must be one-dimensional")
    if len(arr) == 0:
        return arr
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi >= count:
        raise InvalidPositions(
            f"position out of range for {count} BUNs: saw [{lo}, {hi}]"
        )
    return np.unique(arr) if unique else arr


def _pairs_sorted(column: AnyColumn, touched: np.ndarray) -> bool:
    """Adjacent-pair sortedness restricted to pairs touching *touched*
    positions -- the O(changed) core of update flag maintenance.  NIL in
    a checked pair fails the check (NIL is incomparable)."""
    n = len(column)
    if n <= 1:
        return True
    starts = np.unique(np.concatenate([touched - 1, touched]))
    starts = starts[(starts >= 0) & (starts < n - 1)]
    if len(starts) == 0:
        return True
    keys = _order_image(column.take(np.concatenate([starts, starts + 1])))
    return keys is not None and bool(np.all(keys[: len(starts)] <= keys[len(starts):]))


def column_from_values(
    atom_name: str,
    values: Union[Sequence[Any], np.ndarray],
    heap: Optional[StrHeap] = None,
) -> AnyColumn:
    """Build a materialized column of atom *atom_name*.

    *values* is a sequence of Python values, each coerced by
    :func:`~repro.monet.atoms.coerce_value` (``None`` is NIL), or an
    ndarray.  An ndarray of the atom's own dtype is taken as the
    in-column form with no per-value coercion (NIL is the atom's
    sentinel); only its domain is checked: a ``str`` object array may
    hold ``str`` and ``None`` alone, a ``bit`` array only -1 (NIL), 0
    and 1.  An ndarray of any other dtype is coerced per value, as its
    list would be.  A str column's values are encoded into *heap*
    (extending it), or into a fresh heap when none is given.

    A :class:`StrColumn` is a str run already in codes (a batch heap
    holding its values): it is rebased onto *heap*, one encode of the
    distinct values it uses (:func:`rebase`), or taken as it is when
    no heap is given."""
    atom_type = atom(atom_name)
    if isinstance(values, StrColumn):
        if atom_type is not _STR:
            raise BATError(f"a str column cannot be a {atom_name} run")
        return values if heap is None else StrColumn(rebase(values, heap), heap)
    if isinstance(values, np.ndarray) and values.dtype == atom_type.dtype:
        if values.ndim != 1:
            raise BATError("column values must be one-dimensional")
        _check_domain(values, atom_type)
        if atom_type is not _STR:
            return Column(atom_type, values.copy())
        values = values.tolist()
    else:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        values = [coerce_value(v, atom_type) for v in values]
        if atom_type is not _STR:
            return Column(atom_type, atom_type.make_array(values))
    heap = StrHeap() if heap is None else heap
    return StrColumn(heap.encode(values), heap)


def _run_like(column: AnyColumn, values: Union[Sequence[Any], np.ndarray]) -> AnyColumn:
    """*values* as a column of *column*'s atom, on its heap when it is a
    str column: the run an append or a patch adds to it."""
    heap = column.heap if isinstance(column, StrColumn) else None
    return column_from_values(column.atom_type.name, values, heap)


def _check_domain(values: np.ndarray, atom_type: AtomType) -> None:
    """Raise the :class:`AtomError` of the first value of an in-column
    array outside its atom's domain (see :func:`column_from_values`)."""
    if atom_type.name == "str":
        types = set(map(type, values))
        if all(t is type(None) or issubclass(t, str) for t in types):
            return
        for value in values:
            coerce_value(value, atom_type)
    elif atom_type.name == "bit":
        outside = values[(values < -1) | (values > 1)]
        if len(outside):
            raise AtomError(f"cannot take {int(outside[0])} as a bit (-1 is NIL)")


def bat_from_pairs(
    head_type: str,
    tail_type: str,
    pairs: Iterable[Tuple[Any, Any]],
    *,
    name: Optional[str] = None,
) -> BAT:
    """Construct a BAT from (head, tail) Python pairs.

    Detects a dense head automatically so that round-trips through
    :meth:`BAT.to_pairs` preserve void-ness.
    """
    pair_list = list(pairs)
    heads = [h for h, _ in pair_list]
    tails = [t for _, t in pair_list]
    tail_col = column_from_values(tail_type, tails)
    if head_type == "oid" and _is_dense(heads):
        seqbase = int(heads[0]) if heads else 0
        return BAT(VoidColumn(seqbase, len(heads)), tail_col, name=name)
    head_col = column_from_values(head_type, heads)
    hsorted = _ordered(head_col, strict=False)
    hkey = hsorted and _ordered(head_col, strict=True)
    return BAT(head_col, tail_col, hsorted=hsorted, hkey=hkey, name=name)


def dense_bat(tail_type: str, values: Sequence[Any], *, seqbase: int = 0) -> BAT:
    """[void, tail] BAT over *values* with a dense head starting at
    *seqbase* -- the workhorse constructor for loading columns."""
    tail_col = column_from_values(tail_type, values)
    return BAT(VoidColumn(seqbase, len(tail_col)), tail_col)


def empty_bat(head_type: str, tail_type: str) -> BAT:
    """A zero-BUN BAT of the given column types."""
    if head_type == "oid":
        head: AnyColumn = VoidColumn(0, 0)
    else:
        head = column_from_values(head_type, [])
    return BAT(head, column_from_values(tail_type, []), hsorted=True, tsorted=True,
               hkey=True, tkey=True)


def column_to_list(column: AnyColumn) -> List[Any]:
    """Bulk column -> Python list with NIL -> None, avoiding the
    per-element ``python_value`` dispatch: the one NIL rule of result
    reconstruction, in process and for decoded wire frames alike."""
    if column.is_void:
        return list(range(column.seqbase, column.seqbase + column.count))
    atom_type = column.atom_type
    values = column.materialize()
    name = atom_type.name
    if name == "str":
        return values.tolist()
    if name == "dbl":
        mask = np.isnan(values)
        plain = values.tolist()
        if not mask.any():
            return plain
        return [None if m else v for v, m in zip(plain, mask.tolist())]
    if name in ("int", "oid"):
        nil = atom_type.nil
        plain = values.tolist()
        if not (values == nil).any():
            return plain
        return [None if v == nil else v for v in plain]
    if name == "bit":
        return [None if v == -1 else bool(v) for v in values.tolist()]
    return [atom_type.to_python(v) for v in values]


def _continues_dense(expected_next: int, heads: np.ndarray) -> bool:
    """True when *heads* is exactly the dense run starting at
    *expected_next* (so a void head can stay void after an append)."""
    if len(heads) == 0:
        return True
    if heads.dtype == np.dtype(object):
        return False
    expected = np.arange(
        expected_next, expected_next + len(heads), dtype=np.int64
    )
    try:
        return bool(np.array_equal(heads.astype(np.int64), expected))
    except (TypeError, ValueError):
        return False


def _boundary_order(old: AnyColumn, new: AnyColumn) -> int:
    """Order of the boundary BUN pair (the last of *old*, the first of
    *new*): 2 strict increase, 1 equal, 0 anything else (decrease,
    NIL)."""
    last_old, first_new = old.python_value(-1), new.python_value(0)
    if last_old is None or first_new is None:
        return 0
    if last_old < first_new:
        return 2
    return 1 if last_old == first_new else 0


def _is_dense(values: Sequence[Any]) -> bool:
    if not values:
        return True
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError):
        return False
    return all(b - a == 1 for a, b in zip(ints, ints[1:]))


def _order_image(column: AnyColumn) -> Optional[np.ndarray]:
    """Keys ordering like *column*'s values -- the values, or a str
    column's ranks of codes -- or ``None`` when a str column holds a NIL
    (incomparable)."""
    if not isinstance(column, StrColumn):
        return column.materialize()
    if (column.codes < 0).any():
        return None
    return rank_codes(column.codes, column.heap)


def _ordered(column: AnyColumn, *, strict: bool) -> bool:
    """True when *column*'s values are non-decreasing (strictly
    increasing with *strict*); a str NIL fails the check."""
    if len(column) <= 1:
        return True
    keys = _order_image(column)
    if keys is None:
        return False
    return bool(np.all(keys[:-1] < keys[1:] if strict else keys[:-1] <= keys[1:]))
