"""String heap with dictionary encoding.

Monet stores variable-length atoms (strings) in a *heap* per BAT; equal
strings are stored once and tails hold offsets.  We reproduce the
behaviour with an explicit :class:`StringHeap` plus helpers to encode a
string column into an (offset-tail BAT, heap) pair and back.

The inverted index (:mod:`repro.ir.index`) uses this to intern the term
vocabulary: term strings live in one heap, and all posting BATs carry
compact integer term ids.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.errors import BATError


class StringHeap:
    """Append-only interning dictionary: string <-> dense offset."""

    def __init__(self, strings: Optional[Iterable[str]] = None):
        self._strings: List[str] = []
        self._offsets: Dict[str, int] = {}
        if strings:
            for text in strings:
                self.intern(text)

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, text: str) -> bool:
        return text in self._offsets

    def intern(self, text: str) -> int:
        """Offset of *text*, inserting it when new."""
        if not isinstance(text, str):
            raise BATError(f"string heap can only intern str, got {type(text).__name__}")
        offset = self._offsets.get(text)
        if offset is None:
            offset = len(self._strings)
            self._strings.append(text)
            self._offsets[text] = offset
        return offset

    def lookup(self, text: str) -> Optional[int]:
        """Offset of *text*, or None when absent (no insertion)."""
        return self._offsets.get(text)

    def fetch(self, offset: int) -> str:
        """String stored at *offset*."""
        if not 0 <= offset < len(self._strings):
            raise BATError(f"heap offset {offset} out of range")
        return self._strings[offset]

    def strings(self) -> List[str]:
        """All interned strings in offset order (a copy)."""
        return list(self._strings)

    def as_bat(self) -> BAT:
        """[void-offset, str] view of the heap -- joinable like any BAT."""
        column = Column("str", np.array(self._strings, dtype=object))
        return BAT(VoidColumn(0, len(self._strings)), column, tkey=True)


def encode_column(values: Iterable[str], heap: Optional[StringHeap] = None) -> Tuple[BAT, StringHeap]:
    """Encode a string sequence as a [void, oid-offset] BAT over *heap*.

    Returns the encoded BAT and the (possibly shared) heap.
    """
    heap = heap or StringHeap()
    offsets = np.fromiter(
        (heap.intern(v) for v in values), dtype=np.int64
    )
    return BAT(VoidColumn(0, len(offsets)), Column("oid", offsets)), heap


def decode_bat(encoded: BAT, heap: StringHeap) -> BAT:
    """Inverse of :func:`encode_column`: restore the string tail."""
    offsets = encoded.tail_values()
    strings = np.empty(len(offsets), dtype=object)
    for position, offset in enumerate(offsets):
        strings[position] = heap.fetch(int(offset))
    return BAT(encoded.head, Column("str", strings), hsorted=encoded.hsorted,
               hkey=encoded.hkey)
