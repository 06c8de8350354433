"""Atom (base type) system of the Monet substitute.

Monet is *extensible at the atom level*: the kernel ships with a fixed
set of built-in atoms and modules may register new ones.  The Mirror
DBMS inherits exactly these base types at the logical level ("the base
types, such as integer and string, are inherited from the underlying
physical database" -- Mirror paper, section 2).

Built-in atoms
--------------

``oid``
    Object identifier; unsigned integer drawn from a global sequence.
    Stored as int64.  Dense oid sequences are represented *virtually*
    (Monet's ``void`` type) by :class:`repro.monet.bat.VoidColumn`.
``int``
    64-bit signed integer.
``dbl``
    IEEE double.
``str``
    Variable-length string (numpy object column; its dictionary
    encoding, :func:`repro.monet.bat.dictionary_encode`, is the join
    accelerator and, as codes plus a string heap, the stored and wire
    form of :mod:`repro.monet.codec`).
``bit``
    Boolean.

NIL semantics
-------------

Every atom has a distinguished NIL value (Monet's ``nil``).  NIL is
represented by a sentinel per physical dtype: ``INT_NIL`` (int64 min),
``nan`` for ``dbl``, ``None`` for ``str``, and ``OID_NIL`` for oids.
:func:`is_nil` abstracts over these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.monet.errors import AtomError

#: Sentinel NIL for the ``int`` and ``oid`` atoms (Monet uses the most
#: negative integer as int nil and the largest oid as oid nil).
INT_NIL = np.iinfo(np.int64).min
OID_NIL = np.iinfo(np.int64).max

#: Generic NIL marker used at the Python-value level.
NIL = None


@dataclass(frozen=True)
class AtomType:
    """Description of one physical base type.

    Parameters
    ----------
    name:
        The MIL-level type name (``"int"``, ``"oid"``, ...).
    dtype:
        The numpy dtype used for tail columns of this atom.
    nil:
        The in-column sentinel representing NIL.
    parse:
        Parser from string literals (used by the MIL front-end).
    is_nil_fn:
        Predicate deciding whether an in-column value is NIL.
    """

    name: str
    dtype: np.dtype
    nil: Any
    parse: Callable[[str], Any]
    is_nil_fn: Callable[[Any], bool] = field(repr=False, default=lambda v: v is None)

    def make_array(self, values) -> np.ndarray:
        """Build a tail array of this atom type from a Python iterable,
        mapping ``None`` to the atom's NIL sentinel."""
        vals = [self.nil if v is None else v for v in values]
        if self.dtype == np.dtype(object):
            arr = np.empty(len(vals), dtype=object)
            arr[:] = vals
            return arr
        return np.asarray(vals, dtype=self.dtype)

    def to_python(self, value):
        """Convert an in-column value back to a Python value (NIL -> None)."""
        if self.is_nil_fn(value):
            return None
        if self.name == "bit":
            return bool(value)
        if self.dtype == np.dtype(np.int64):
            return int(value)
        if self.dtype == np.dtype(np.float64):
            return float(value)
        return value


def _parse_int(text: str) -> int:
    return int(text)


def _parse_dbl(text: str) -> float:
    return float(text)


def _parse_str(text: str) -> str:
    return text


def _parse_bit(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "t", "1"):
        return True
    if lowered in ("false", "f", "0"):
        return False
    raise AtomError(f"cannot parse bit literal: {text!r}")


def _int_is_nil(value) -> bool:
    try:
        return int(value) == INT_NIL
    except (TypeError, ValueError):
        return value is None


def _oid_is_nil(value) -> bool:
    try:
        return int(value) == OID_NIL
    except (TypeError, ValueError):
        return value is None


def _dbl_is_nil(value) -> bool:
    if value is None:
        return True
    try:
        return math.isnan(float(value))
    except (TypeError, ValueError):
        return False


def _str_is_nil(value) -> bool:
    return value is None


def _bit_is_nil(value) -> bool:
    return value is None or (isinstance(value, (int, np.integer)) and int(value) == -1)


_REGISTRY: Dict[str, AtomType] = {}


def register_atom(atom_type: AtomType) -> AtomType:
    """Register a new atom type (Monet's atom extensibility hook).

    Raises :class:`AtomError` if the name is already taken by a
    *different* definition; re-registering the identical definition is a
    no-op so that modules can be imported repeatedly.
    """
    existing = _REGISTRY.get(atom_type.name)
    if existing is not None and existing is not atom_type:
        raise AtomError(f"atom type {atom_type.name!r} already registered")
    _REGISTRY[atom_type.name] = atom_type
    return atom_type


def atom(name: str) -> AtomType:
    """Look up a registered atom type by MIL name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AtomError(
            f"unknown atom type {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def atom_names() -> list[str]:
    """Names of all registered atoms, sorted."""
    return sorted(_REGISTRY)


OID = register_atom(
    AtomType("oid", np.dtype(np.int64), OID_NIL, _parse_int, _oid_is_nil)
)
INT = register_atom(
    AtomType("int", np.dtype(np.int64), INT_NIL, _parse_int, _int_is_nil)
)
DBL = register_atom(
    AtomType("dbl", np.dtype(np.float64), float("nan"), _parse_dbl, _dbl_is_nil)
)
STR = register_atom(AtomType("str", np.dtype(object), None, _parse_str, _str_is_nil))
BIT = register_atom(AtomType("bit", np.dtype(np.int8), -1, _parse_bit, _bit_is_nil))

#: Mapping from Python scalar types to their natural atom.
_PYTHON_TO_ATOM = {
    bool: BIT,
    int: INT,
    float: DBL,
    str: STR,
}


def infer_atom(value: Any) -> AtomType:
    """Infer the atom type of a Python scalar (bool checked before int)."""
    if value is None:
        raise AtomError("cannot infer atom type of NIL")
    if isinstance(value, (bool, np.bool_)):
        return BIT
    if isinstance(value, (int, np.integer)):
        return INT
    if isinstance(value, (float, np.floating)):
        return DBL
    if isinstance(value, str):
        return STR
    raise AtomError(f"no atom type for Python value of type {type(value).__name__}")


def coerce_value(value: Any, atom_type: AtomType) -> Any:
    """Coerce a Python value into the in-column representation of an atom.

    ``None`` maps to the atom NIL sentinel.  Numeric widening (int ->
    dbl) is allowed; anything lossy raises :class:`AtomError`.
    """
    if value is None:
        return atom_type.nil
    name = atom_type.name
    if name in ("int", "oid"):
        if isinstance(value, (bool, np.bool_)):
            return int(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return int(value)
        raise AtomError(f"cannot coerce {value!r} to {name}")
    if name == "dbl":
        if isinstance(value, (bool, np.bool_)):
            return float(value)
        if isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
        raise AtomError(f"cannot coerce {value!r} to dbl")
    if name == "str":
        if isinstance(value, str):
            return value
        raise AtomError(f"cannot coerce {value!r} to str")
    if name == "bit":
        if isinstance(value, (bool, np.bool_, int, np.integer)):
            return int(bool(value))
        raise AtomError(f"cannot coerce {value!r} to bit")
    return value


def is_nil(value: Any, atom_type: Optional[AtomType] = None) -> bool:
    """True when *value* is the NIL of its atom (or of *atom_type*)."""
    if value is None:
        return True
    if atom_type is not None:
        return atom_type.is_nil_fn(value)
    if isinstance(value, (float, np.floating)):
        return math.isnan(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value) in (INT_NIL, OID_NIL)
    return False


class OidGenerator:
    """Global monotone oid sequence (Monet's ``newoid``/``oid`` seed).

    Each :class:`repro.monet.bbp.BATBufferPool` owns one generator so
    that separately constructed databases do not share oid spaces.
    """

    def __init__(self, start: int = 0):
        if start < 0:
            raise AtomError("oid sequence cannot start below zero")
        self._next = start

    @property
    def current(self) -> int:
        """The next oid that :meth:`allocate` would hand out."""
        return self._next

    def allocate(self, count: int = 1) -> int:
        """Reserve *count* consecutive oids, returning the first one."""
        if count < 0:
            raise AtomError("cannot allocate a negative number of oids")
        first = self._next
        self._next += count
        return first

    def bump_past(self, oid_value: int) -> None:
        """Ensure future allocations are strictly greater than *oid_value*
        (used when loading persisted BATs back into a pool)."""
        if oid_value >= self._next:
            self._next = oid_value + 1
