"""The Binary Association Table (BAT), Monet's only collection type.

A BAT is a sequence of *BUNs* (binary units): (head, tail) value pairs.
Both head and tail are typed by an atom.  All bulk data in the Mirror
DBMS bottoms out in BATs; the Moa layer maps every logical structure to
a set of named BATs (see :mod:`repro.moa.mapping`).

Columns
-------

:class:`Column` wraps a numpy array plus its atom type.  The special
:class:`VoidColumn` represents Monet's ``void`` type: a *virtual*
dense oid sequence ``seqbase, seqbase+1, ...`` that occupies no memory.
Most BATs produced by the kernel have void heads, which is what makes
positional joins (``fetchjoin``) constant-time per element.

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

Besides the flags, a materialized :class:`Column` has one *search
accelerator* slot: its dictionary encoding (:meth:`Column.encoding`),
which is the only way a kernel operator reads a str column's values
(the key-selection table in :mod:`repro.monet.kernel`): the join
family, ``semijoin``/``kdiff``, ``kunion``/``kintersect``,
``unique``/``kunique``/``tunique``, ``group``/``refine`` and pump
alignment compare codes; ``sort``/``tsort``/``topn`` compare the rank
of a code; ``select``/``uselect``/``likeselect`` evaluate their
predicate once per distinct value and gather it by code.  Only the
encoding is cached: the rank-of-code table an order operator derives
from it is rebuilt on every call (whether to keep it is open, with the
rest of the encoding's lifecycle).  Its contract, in the shape of
Monet's hash accelerator:

* **lazy** -- built by the first operator that asks, never at load (a
  join that gathers a str payload from the fragments of a stored column
  builds theirs together, over one dictionary, whenever they are not
  on one already: :func:`encode_jointly`);
* **per Column** -- its codes describe exactly that column's values
  (its dictionary may hold more: a window shares the whole column's),
  so it is valid for as long as the object is reachable (columns are
  immutable);
* **inherited by gathers, windows and concatenations of parts sharing
  one dictionary** -- :meth:`Column.take` and :meth:`Column.window` of
  a warm column gather/slice the codes and share the dictionary
  object, and :func:`concat_columns` of warm parts over that one
  object concatenates their codes (a NIL fill from :func:`nil_column`
  is code -1 in it), so a selection of a persistent column -- or a
  fragmented gather from its windows -- joins without touching a
  string; a concatenation of any other mix (a cold part, or two
  dictionaries) starts cold;
* **dropped by copy-on-write** -- :meth:`BAT.append`,
  :meth:`BAT.delete_positions`, :meth:`BAT.update_positions` and every
  pool mutation above them build *new* columns, which start cold (a
  delete's survivors are a gather and so stay warm, correctly); nothing
  ever has to invalidate;
* **never persisted** -- the slot is not part of the stored form: a
  str column is stored and shipped as codes plus a string heap of its
  distinct values by the one column codec (:mod:`repro.monet.codec`,
  which encodes afresh and neither reads nor fills the slot), and
  decoding does not set the slot, so loaded columns start cold
  (whether a loaded column should arrive warm is still open, to be
  decided together with how an append extends a warm dictionary);
* **published unlocked, by a single attribute store** -- two threads
  racing to build it compute equal encodings and the last store wins;
  a reader sees either ``None`` or a complete encoding, never a
  partial one (a joint build over several fragments,
  :func:`encode_jointly`, checks and publishes under one lock, so
  racing queries leave the fragments on one dictionary).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.monet.atoms import AtomType, atom, coerce_value
from repro.monet.errors import AtomError, BATError, InvalidMutationBatch, InvalidPositions


def dictionary_codes(values: Sequence[Any], dictionary: dict) -> np.ndarray:
    """int64 codes of *values* in an existing *dictionary*'s code space:
    -1 for NIL (``None`` is never a key) and for every value the
    dictionary lacks.  The dictionary is not extended."""
    return np.fromiter(
        map(dictionary.get, values, itertools.repeat(-1)),
        dtype=np.int64,
        count=len(values),
    )


def dictionary_encode(values: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Dictionary encoding of a value array: ``(codes, dictionary)``
    with ``dictionary`` mapping each distinct non-NIL value to a dense
    int code in order of first appearance and ``codes`` the int64 code
    of every position, NIL (``None``) as -1 -- NIL has no code, which
    is how "NIL equals nothing" carries over to code space."""
    plain = values.tolist()
    distinct = dict.fromkeys(plain)
    distinct.pop(None, None)
    dictionary = dict(zip(distinct, range(len(distinct))))
    return dictionary_codes(plain, dictionary), dictionary


class Column:
    """A materialized column: numpy array + atom type (+ the lazily
    built dictionary-encoding accelerator, see the module docstring)."""

    __slots__ = ("atom_type", "values", "_encoding")

    def __init__(self, atom_type: Union[AtomType, str], values: np.ndarray):
        if isinstance(atom_type, str):
            atom_type = atom(atom_type)
        if not isinstance(values, np.ndarray):
            values = atom_type.make_array(list(values))
        if values.ndim != 1:
            raise BATError("column values must be one-dimensional")
        self.atom_type = atom_type
        self.values = values
        self._encoding: Optional[Tuple[np.ndarray, dict]] = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_void(self) -> bool:
        return False

    def materialize(self) -> np.ndarray:
        """Return the underlying numpy array (already materialized)."""
        return self.values

    def encoding(self) -> Tuple[np.ndarray, dict]:
        """This column's :func:`dictionary_encode` result, built on
        first use and kept on the column (the accelerator)."""
        encoding = self._encoding
        if encoding is None:
            encoding = self._encoding = dictionary_encode(self.values)
        return encoding

    def _gather(self, index: Union[np.ndarray, slice]) -> "Column":
        gathered = Column(self.atom_type, self.values[index])
        if self._encoding is not None:
            codes, dictionary = self._encoding
            gathered._encoding = (codes[index], dictionary)
        return gathered

    def take(self, positions: np.ndarray) -> "Column":
        """Positional gather."""
        return self._gather(positions)

    def window(self, start: int, stop: int) -> "Column":
        """The contiguous run ``[start, stop)`` as a view sharing this
        column's array -- the column itself when the run covers it."""
        if start == 0 and stop == len(self.values):
            return self
        return self._gather(slice(start, stop))

    def python_value(self, position: int):
        """The Python-level value at *position* (NIL -> None)."""
        return self.atom_type.to_python(self.values[position])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column<{self.atom_type.name}>[{len(self)}]"


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


AnyColumn = Union[Column, VoidColumn]


def concat_columns(columns: Sequence[AnyColumn]) -> AnyColumn:
    """The BUNs of *columns* (at least one, one atom) in order: the one
    column concatenation of ``monet/``.  A single part is returned
    itself; consecutive void parts fuse back into one void column;
    anything else concatenates its values.  The result keeps the
    encoding when every part is warm over the same dictionary object
    (windows and gathers of one warm column): the codes concatenate
    too.  Any other mix starts cold."""
    first = columns[0]
    if len(columns) == 1:
        return first
    if all(column.is_void for column in columns):
        stop = first.seqbase
        for column in columns:
            if column.seqbase != stop:
                break
            stop += len(column)
        else:
            return VoidColumn(first.seqbase, stop - first.seqbase)
    result = Column(
        first.atom_type, np.concatenate([column.materialize() for column in columns])
    )
    encodings = [None if column.is_void else column._encoding for column in columns]
    if all(encoding is not None for encoding in encodings) and (
        len({id(dictionary) for _, dictionary in encodings}) == 1
    ):
        result._encoding = (
            np.concatenate([codes for codes, _ in encodings]),
            encodings[0][1],
        )
    return result


def encode_jointly(columns: Sequence[Column]) -> None:
    """Warm *columns* -- the str fragments of one column, in BUN order
    -- over one dictionary, unless they already share one: one
    :func:`dictionary_encode` of their values, its codes split back
    per fragment, which is what windows of the warm whole column would
    inherit, so gathers across fragments concatenate warm.  Fragments
    on several dictionaries (a prefix warm from an earlier query beside
    a cold appended delta) are re-encoded together, one re-encode per
    mutation.  The check and the publish hold :data:`_JOINT_LOCK`, so
    racing first queries settle on one dictionary."""
    if _share_one_dictionary(columns):
        return
    with _JOINT_LOCK:
        if _share_one_dictionary(columns):
            return
        codes, dictionary = dictionary_encode(
            np.concatenate([column.values for column in columns])
        )
        bounds = np.cumsum([len(column) for column in columns])
        for column, part in zip(columns, np.split(codes, bounds[:-1])):
            column._encoding = (part, dictionary)


def _share_one_dictionary(columns: Sequence[Column]) -> bool:
    encodings = [column._encoding for column in columns]
    return all(encoding is not None for encoding in encodings) and (
        len({id(dictionary) for _, dictionary in encodings}) == 1
    )


#: Serializes :func:`encode_jointly`'s check-and-publish.
_JOINT_LOCK = threading.Lock()


def nil_column(like: AnyColumn, count: int) -> Column:
    """*count* NILs of *like*'s atom: in *like*'s code space when it is
    warm (NIL is code -1 there), so a concatenation with *like* -- an
    outer join's fill -- stays warm."""
    column = Column(like.atom_type, like.atom_type.make_array([None] * count))
    if not like.is_void and like._encoding is not None:
        column._encoding = (np.full(count, -1, dtype=np.int64), like._encoding[1])
    return column


class BAT:
    """A Binary Association Table: aligned head and tail columns.

    BATs are *immutable* (by convention and by the write path's
    contract): kernel operators always build new BATs (or views), and
    the update layer's entry point :meth:`append` is copy-on-write --
    it returns a *new* BAT sharing nothing mutable with the receiver,
    so any snapshot holding the old object keeps reading the old BUNs.
    """

    __slots__ = ("head", "tail", "hsorted", "tsorted", "hkey", "tkey", "name")

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
        for position in range(len(self)):
            yield (
                self.head.python_value(position),
                self.tail.python_value(position),
            )

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
        """BUN-positional slice [start, stop) (Monet ``slice``)."""
        start = max(0, start)
        stop = min(len(self), stop)
        if stop < start:
            stop = start
        positions = np.arange(start, stop, dtype=np.int64)
        return self.take_positions(positions)

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
        (Monet ``find``); raises :class:`BATError` when absent."""
        if self.head.is_void:
            position = int(head_value) - self.head.seqbase
            if 0 <= position < len(self):
                return self.tail.python_value(position)
            raise BATError(f"head value {head_value!r} not found")
        heads = self.head.materialize()
        if self.head.atom_type.name == "str":
            matches = np.nonzero(heads == head_value)[0]
        else:
            matches = np.nonzero(heads == coerce_value(head_value, self.head.atom_type))[0]
        if len(matches) == 0:
            raise BATError(f"head value {head_value!r} not found")
        return self.tail.python_value(int(matches[0]))

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
            new_tail = column_from_values(self.ttype, tails)
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
        new_head = column_from_values(self.htype, [h for h, _ in pair_list])
        new_tail = column_from_values(self.ttype, [t for _, t in pair_list])
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
        self, old: AnyColumn, new: Column, was_sorted: bool, was_key: bool
    ) -> Tuple[Column, bool, bool]:
        """Concatenate *new* after *old*; returns (column, sorted, key)
        flags derived from the appended run and the boundary only."""
        atom_name = new.atom_type.name
        old_values = old.materialize()
        # Every load appends to an empty BAT: the freshly built run is
        # the column, with no copy.
        values = np.concatenate([old_values, new.values]) if len(old_values) else new.values
        run_sorted = _is_sorted(new.values, atom_name)
        run_strict = run_sorted and _is_strictly_increasing(new.values, atom_name)
        if len(old_values):
            boundary = _boundary_order(
                old_values[-1], new.values[0], atom_name
            )
        else:
            boundary = 2  # empty prefix: boundary is vacuously strict
        now_sorted = was_sorted and run_sorted and boundary >= 1
        # Uniqueness from sortedness: both runs sorted, the appended run
        # strictly increasing and the boundary strict imply every new
        # value exceeds every old one.
        now_key = was_key and now_sorted and run_strict and boundary == 2
        return Column(new.atom_type, values), now_sorted, now_key

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
        values: Sequence[Any],
    ) -> "BAT":
        """A new BAT with the tail values at *positions* replaced by
        *values* (position-aligned; duplicate positions: last wins).

        Copy-on-write: the receiver is untouched.  The head column is
        shared by reference, so ``hsorted``/``hkey`` survive untouched.
        Tail flags are maintained in O(changed): ``tsorted`` survives only
        when every adjacent pair touching a patched position is still
        non-decreasing (a patch to NIL fails the pair check, clearing the
        flag -- NIL is incomparable); ``tkey`` is conservatively cleared,
        since local inspection cannot re-prove global uniqueness.
        """
        positions = _normalize_positions(positions, len(self), unique=False)
        value_list = list(values)
        if len(value_list) != len(positions):
            raise InvalidMutationBatch(
                f"update needs one value per position: "
                f"{len(value_list)} values for {len(positions)} positions"
            )
        if len(positions) == 0:
            return self
        patch = column_from_values(self.ttype, value_list)
        if self.tail.is_void:
            base_values = self.tail.materialize()
            tail_type = patch.atom_type
        else:
            base_values = self.tail.values
            tail_type = self.tail.atom_type
        new_values = base_values.copy()
        new_values[positions] = patch.values
        tsorted = self.tsorted and _pairs_sorted(
            new_values, positions, tail_type.name
        )
        return BAT(
            self.head,
            Column(tail_type, new_values),
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


def _pairs_sorted(
    values: np.ndarray, touched: np.ndarray, atom_name: str
) -> bool:
    """Adjacent-pair sortedness restricted to pairs touching *touched*
    positions -- the O(changed) core of update flag maintenance.  NIL in
    a checked pair fails the check (NIL is incomparable)."""
    n = len(values)
    if n <= 1:
        return True
    starts = np.unique(np.concatenate([touched - 1, touched]))
    starts = starts[(starts >= 0) & (starts < n - 1)]
    if len(starts) == 0:
        return True
    left = values[starts]
    right = values[starts + 1]
    if atom_name == "str":
        for a, b in zip(list(left), list(right)):
            if a is None or b is None or a > b:
                return False
        return True
    try:
        return bool(np.all(left <= right))
    except TypeError:
        return False


def column_from_values(
    atom_name: str, values: Union[Sequence[Any], np.ndarray]
) -> Column:
    """Build a materialized column of atom *atom_name*.

    *values* is a sequence of Python values, each coerced by
    :func:`~repro.monet.atoms.coerce_value` (``None`` is NIL), or an
    ndarray.  An ndarray of the atom's own dtype is taken as the
    in-column form, copied with no per-value coercion (NIL is the
    atom's sentinel); only its domain is checked: a ``str`` object
    array may hold ``str`` and ``None`` alone, a ``bit`` array only
    -1 (NIL), 0 and 1.  An ndarray of any other dtype is coerced per
    value, as its list would be."""
    atom_type = atom(atom_name)
    if isinstance(values, np.ndarray):
        if values.dtype != atom_type.dtype:
            values = values.tolist()
        elif values.ndim != 1:
            raise BATError("column values must be one-dimensional")
        else:
            _check_domain(values, atom_type)
            return Column(atom_type, values.copy())
    coerced = [coerce_value(v, atom_type) for v in values]
    return Column(atom_type, atom_type.make_array(coerced))


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
    hsorted = _is_sorted(head_col.values, head_type)
    hkey = hsorted and _is_strictly_increasing(head_col.values, head_type)
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
    values = column.values
    name = atom_type.name
    if name == "str":
        return list(values)
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


def _boundary_order(last_old: Any, first_new: Any, atom_name: str) -> int:
    """Order of the boundary BUN pair: 2 strict increase, 1 equal,
    0 anything else (decrease, NIL, incomparable)."""
    if atom_name == "str":
        if last_old is None or first_new is None:
            return 0
        if last_old < first_new:
            return 2
        return 1 if last_old == first_new else 0
    try:
        if bool(last_old < first_new):
            return 2
        return 1 if bool(last_old == first_new) else 0
    except TypeError:
        return 0


def _is_dense(values: Sequence[Any]) -> bool:
    if not values:
        return True
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError):
        return False
    return all(b - a == 1 for a, b in zip(ints, ints[1:]))


def _is_sorted(arr: np.ndarray, atom_name: str) -> bool:
    if len(arr) <= 1:
        return True
    if atom_name == "str":
        vals = list(arr)
        if any(v is None for v in vals):
            return False
        return all(a <= b for a, b in zip(vals, vals[1:]))
    return bool(np.all(arr[:-1] <= arr[1:]))


def _is_strictly_increasing(arr: np.ndarray, atom_name: str) -> bool:
    if len(arr) <= 1:
        return True
    if atom_name == "str":
        vals = list(arr)
        if any(v is None for v in vals):
            return False
        return all(a < b for a, b in zip(vals, vals[1:]))
    return bool(np.all(arr[:-1] < arr[1:]))
