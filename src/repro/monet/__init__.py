"""Monet substitute: a binary-relational (BAT) main-memory kernel.

This package reimplements, in Python on top of numpy, the parts of the
Monet extensible database system that the Mirror DBMS relies on:

* :mod:`repro.monet.atoms` -- the physical *atom* (base type) system that
  the Moa logical layer inherits (``oid``, ``int``, ``dbl``, ``str``,
  ``bit``) including NIL semantics.
* :mod:`repro.monet.bat` -- the Binary Association Table, Monet's only
  collection type: a sequence of (head, tail) pairs with column
  properties (dense/void heads, sortedness, key-ness).
* :mod:`repro.monet.kernel` -- the set-at-a-time operator kernel
  (selections, the join family, mark/reverse/mirror reconstruction,
  set operations).
* :mod:`repro.monet.aggregates` / :mod:`repro.monet.groups` -- grouping
  and "pump" (grouped) aggregation.
* :mod:`repro.monet.multiplex` -- the ``[op]`` multiplexed scalar
  operators that lift atom operations to whole BATs.
* :mod:`repro.monet.bbp` -- the BAT buffer pool: a named catalog of
  persistent BATs.
* :mod:`repro.monet.mil` -- a MIL-like plan language (lexer, parser,
  interpreter); the Moa compiler emits MIL text which this interpreter
  executes against a BBP.

fragments
---------

:mod:`repro.monet.fragments` adds horizontal fragmentation on top of
the kernel: a :class:`~repro.monet.fragments.FragmentedBAT` holds one
logical BAT as an ordered list of horizontal fragments (contiguous
BUN ranges, sized by a
:class:`~repro.monet.fragments.FragmentationPolicy`; fragment order is
BUN order), and the hot
operators (``select``/``uselect``/``likeselect``, ``fetchjoin``,
``join``, ``semijoin``/``kdiff``, ``mark``, the scalar and grouped
aggregates) fan out over fragments on a shared thread pool -- numpy
releases the GIL on its bulk paths -- and recombine in BUN order with
conservatively maintained property flags.  The buffer pool registers
and persists fragmented BATs natively (``register_fragmented`` /
``lookup_fragments``), while plain ``lookup`` stays transparent by
coalescing lazily; the Moa mapping layer fragments large attributes
automatically past a configurable threshold
(``MirrorDBMS(fragment_threshold=...)``, scoped per load by
:func:`repro.moa.mapping.fragmentation`).

The public surface mirrors Monet's vocabulary so that the flattening
rules of [BWK98] translate almost verbatim.
"""

from repro.monet.atoms import NIL, AtomType, atom, coerce_value, is_nil
from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, empty_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fragment_bat,
)
from repro.monet.errors import (
    AtomError,
    BATError,
    BBPError,
    KernelError,
    MILError,
    MonetError,
)

__all__ = [
    "AtomType",
    "atom",
    "coerce_value",
    "is_nil",
    "NIL",
    "BAT",
    "Column",
    "VoidColumn",
    "bat_from_pairs",
    "empty_bat",
    "BATBufferPool",
    "FragmentationPolicy",
    "FragmentedBAT",
    "fragment_bat",
    "MonetError",
    "AtomError",
    "BATError",
    "KernelError",
    "BBPError",
    "MILError",
]
