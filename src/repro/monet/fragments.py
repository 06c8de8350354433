"""Horizontal BAT fragmentation and the fragment rules' drivers.

A :class:`FragmentedBAT` represents one logical BAT as an ordered list
of horizontal *fragments*, each a normal (usually void-headed)
:class:`repro.monet.bat.BAT`.  Fragmentation is the classic physical
lever for parallelism: the logical algebra is untouched, while the
operators fan out over fragments and the results recombine in BUN
order.

**One physical layout.**  A BAT splits into contiguous BUN ranges of
at most ``FragmentationPolicy.target_size`` BUNs, and *fragment order
is BUN order* is an invariant of every :class:`FragmentedBAT`, input
or derived: fragment ``k`` holds the global BUN positions
``offset_k + arange(len_k)`` (:meth:`FragmentedBAT.fragment_offsets`),
so recombination is plain concatenation and a fragment's range is
meaningful to anything that prunes or places fragments by position.

**One executor, one fan-out rule.**  Every operator fans out through
:func:`map_fragments` over one lazily created, shared thread pool,
which runs the tasks when the receiver holds at least
``tuning.current().parallel_min`` BUNs, the calling thread otherwise.
No operator takes a worker count.  numpy releases the GIL on its bulk
paths; a str predicate or translation (once per distinct value in use)
serializes on it.  A process pool over shared-memory column exports
(tried before the code space) measured a wash at 1M BUNs on a 2-core
host and twice as slow at 50k, so there is no second executor.

What the module holds, each the exact fragment-parallel counterpart of
a :mod:`repro.monet.kernel`, :mod:`~repro.monet.groups` or
:mod:`~repro.monet.aggregates` operator (the builtin table,
:mod:`repro.monet.mil.builtins`, names which):

* the handle and its copy-on-write mutators (:meth:`FragmentedBAT.append`,
  ``delete``, ``update``), :func:`fragment_bat`, and the re-fragmentation
  of drifted intermediates (:func:`fold_tail`, :func:`refragment`);
* the drivers of the rules that are data: *per fragment*
  (:func:`per_fragment`), *aligned* (:func:`align`,
  :func:`map_aligned`) and *reduce with a combiner* (:func:`reduce`,
  over an aggregate or an operator of the identity family, whose
  record -- :class:`repro.monet.kernel.Identity` -- merges the
  fragments' distinct keys with the kernel's one first-occurrence
  primitive);
* the bodies of the rules that have an algorithm: *build-probe* --
  :func:`join`, :func:`outerjoin`, :func:`fetchjoin` (one shared index
  in code space, radix partitions, spilled partitions, seqbase
  windows), :func:`semijoin`, :func:`kdiff` (a monolithic dense right
  runs the kernel operator per fragment, one check in the rule's
  dispatch); *membership* -- :func:`kintersect`, :func:`kunion` (one
  shared head build, :func:`_member_subset`); *order* -- :func:`sort`,
  :func:`tsort`, :func:`topn` (the sample-sort merge,
  :func:`_sample_sort_merge`).

``tests/monet/test_fragment_differential.py`` asserts BUN-for-BUN
identity against the monolithic kernel and naive references,
``tests/monet/test_builtin_rules.py`` runs every builtin row's rule
against its monolithic row, ``tests/monet/test_mil_fragments.py``
compares whole MIL programs and ``tests/monet/test_mil_fuzz.py``
fuzzes their composition.  A pipeline like ``select -> kunion -> sort
-> unique -> aggregate`` runs fragment-parallel end to end, with at
most one coalesce at result return.

**Tuning.**  Every physical knob read here (fragment size, serial
floor, merge/join fan-outs, spill threshold) is a field of the one
live :class:`repro.monet.tuning.Tuning` record, read at use as
``tuning.current().<field>``.

Property flags on recombined results are maintained *conservatively*:
a flag is only ``True`` when the concatenation provably preserves it
(e.g. consecutive void heads fuse back into one void head).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.monet import aggregates as _agg
from repro.monet import kernel as _kernel
from repro.monet import tuning as _tuning
from repro.monet.bat import (
    BAT,
    AnyColumn,
    Column,
    VoidColumn,
    _boundary_order,
    _normalize_positions,
    concat_columns,
)
from repro.monet.errors import BATError, InvalidMutationBatch, KernelError

#: Worker floor: even on a single-core host we keep two threads so the
#: fragment fan-out code path is always exercised.
DEFAULT_WORKERS = max(2, os.cpu_count() or 1)

#: Partition floor of the grace join: roughly one radix partition per
#: this many build-side BUNs, so small builds never shatter into
#: per-partition dispatch overhead.  A module constant (not a tuning
#: knob): tests monkeypatch it to force multi-partition execution on
#: tiny inputs.
JOIN_PARTITION_MIN_BUNS = 64 * 1024


def default_tuning() -> dict:
    # Forced vestige: the frozen benchmark's fingerprint
    # (benchmarks/mirrorbench/harness.py, under BENCHMARK.json
    # ``paths``) calls this.  Everything else reads
    # ``repro.monet.tuning.current()``.
    return asdict(_tuning.current())


@dataclass(frozen=True)
class FragmentationPolicy:
    """How a BAT is split: the fragment size.

    ``target_size=None`` (the default) resolves to the live
    ``tuning.current().fragment_size`` at construction time, so
    policies made inside a ``tuning.override`` see the forced value."""

    target_size: Optional[int] = None

    def __post_init__(self):
        if self.target_size is None:
            object.__setattr__(
                self, "target_size", _tuning.current().fragment_size
            )
        if self.target_size < 1:
            raise KernelError("fragment target_size must be at least 1")


# ----------------------------------------------------------------------
# The executor: one shared thread pool
# ----------------------------------------------------------------------

_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _shared_executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    if _EXECUTOR is None:
        with _EXECUTOR_LOCK:
            if _EXECUTOR is None:
                _EXECUTOR = ThreadPoolExecutor(
                    max_workers=DEFAULT_WORKERS, thread_name_prefix="fragment"
                )
    return _EXECUTOR


def map_fragments(
    fn: Callable[[Any], Any], items: Iterable[Any], buns: int
) -> List[Any]:
    """Apply *fn* to every item, in item order.

    The one fan-out rule: the shared thread pool runs the tasks when
    there is more than one and the operator's receiver holds *buns* >=
    ``tuning.current().parallel_min`` BUNs; below that floor dispatch
    costs more than it buys and the calling thread runs them.  *fn*
    must not call back into this function: a task waiting on the
    bounded pool it occupies would deadlock.
    """
    items = list(items)
    if len(items) <= 1 or buns < _tuning.current().parallel_min:
        return [fn(item) for item in items]
    return list(_shared_executor().map(fn, items))


def shutdown_backends() -> None:
    """Shut down the shared thread pool.  Registered at exit; safe to
    call eagerly -- the pool respawns lazily."""
    # The plural name is a forced vestige: the frozen benchmark
    # (benchmarks/mirrorbench/harness.py, server_child.py) imports it.
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        executor, _EXECUTOR = _EXECUTOR, None
    if executor is not None:
        executor.shutdown(wait=True)


atexit.register(shutdown_backends)


def _forget_pool_after_fork() -> None:  # pragma: no cover - fork timing
    """A forked child must not touch the pool it shares with its
    parent: drop the handle (without joining) so the child lazily
    builds its own executor."""
    global _EXECUTOR
    _EXECUTOR = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


# ----------------------------------------------------------------------
# The fragmented BAT
# ----------------------------------------------------------------------


class FragmentedBAT:
    """An ordered list of horizontal fragments of one logical BAT.

    Fragment order is BUN order: fragment ``k`` holds the global BUN
    positions ``fragment_offsets()[k] + arange(len(fragments[k]))``.
    Handles are immutable (mutators return new handles), which is what
    lets :meth:`to_bat` and :meth:`fragment_offsets` cache.
    """

    __slots__ = ("fragments", "policy", "name", "_coalesced", "_offsets")

    def __init__(
        self,
        fragments: Sequence[BAT],
        positions: None = None,
        *,
        policy: Optional[FragmentationPolicy] = None,
        name: Optional[str] = None,
    ):
        if positions is not None:
            raise KernelError(
                "FragmentedBAT takes no per-fragment positions: "
                "fragment order is BUN order"
            )
        policy = policy or FragmentationPolicy()
        fragments = list(fragments)
        if not fragments:
            raise KernelError("a FragmentedBAT needs at least one fragment")
        if len({f.htype for f in fragments}) > 1 or len({f.ttype for f in fragments}) > 1:
            raise KernelError("all fragments must share head/tail atom types")
        self.fragments = fragments
        self.policy = policy
        self.name = name
        self._coalesced: Optional[BAT] = None
        self._offsets: Optional[List[int]] = None

    @property
    def positions(self) -> None:
        # Vestige, always None.  It and the constructor's second
        # parameter survive only because the frozen benchmark
        # (benchmarks/mirrorbench/layers.py, under BENCHMARK.json
        # ``paths``) rebuilds a handle as
        # ``FragmentedBAT(x.fragments, x.positions, policy=...)``.
        return None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.fragment_offsets()[-1]

    @property
    def count(self) -> int:
        return len(self)

    @property
    def nfragments(self) -> int:
        return len(self.fragments)

    @property
    def htype(self) -> str:
        return self.fragments[0].htype

    @property
    def ttype(self) -> str:
        return self.fragments[0].ttype

    def fragment_sizes(self) -> List[int]:
        return [len(f) for f in self.fragments]

    def fragment_offsets(self) -> List[int]:
        """Global BUN position at which each fragment starts, plus the
        total count as the final entry (cached, like :meth:`to_bat`)."""
        if self._offsets is None:
            self._offsets = [0, *accumulate(len(f) for f in self.fragments)]
        return self._offsets

    def global_positions(self, index: int) -> np.ndarray:
        """Global BUN positions of fragment *index*'s rows."""
        offsets = self.fragment_offsets()
        return np.arange(offsets[index], offsets[index + 1], dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "tmp"
        return (
            f"FragmentedBAT({label})[{self.htype},{self.ttype}]"
            f"#{len(self)}/{self.nfragments}frags"
        )

    # ------------------------------------------------------------------
    # Recombination
    # ------------------------------------------------------------------
    def to_bat(self) -> BAT:
        """The monolithic BAT this fragmentation represents (cached)."""
        if self._coalesced is None:
            self._coalesced = self._build_monolithic()
        return self._coalesced

    def _build_monolithic(self) -> BAT:
        if len(self.fragments) == 1:
            single = self.fragments[0]
            if self.name is not None and single.name is None:
                single.name = self.name
            return single
        return _concat_fragments(self.fragments, name=self.name)

    # Convenience delegates used by catalog/reconstruction code that
    # does not care about fragment boundaries.  They all go through the
    # cached :meth:`to_bat`, so a FragmentedBAT coalesces at most once
    # no matter how many of these a result consumer calls.
    def head_values(self) -> np.ndarray:
        return self.to_bat().head_values()

    def tail_values(self) -> np.ndarray:
        return self.to_bat().tail_values()

    def tail_list(self) -> List[Any]:
        return self.to_bat().tail_list()

    def head_list(self) -> List[Any]:
        return self.to_bat().head_list()

    def to_pairs(self) -> List[Tuple[Any, Any]]:
        return self.to_bat().to_pairs()

    # ------------------------------------------------------------------
    # Copy-on-write append: the delta tail
    # ------------------------------------------------------------------
    def append(
        self,
        pairs: Optional[Sequence[Tuple[Any, Any]]] = None,
        *,
        tails: Optional[Sequence[Any]] = None,
    ) -> "FragmentedBAT":
        """A new FragmentedBAT with the given BUNs appended.

        The committed prefix fragments are *shared by reference* with
        the receiver (copy-on-write at fragment granularity): only the
        tail delta fragment is rebuilt, so appending a batch costs
        O(tail + batch), never O(total).  While the current tail is
        below the policy target size the batch is folded into it;
        a full tail starts a fresh delta fragment instead (the merge
        daemon later splits any oversized delta back to policy size,
        see :func:`fold_tail`).  ``tails`` is taken as
        :meth:`BAT.append` takes it, a column array included.  A fresh
        delta is an append to the empty end of the last fragment, so
        its str columns number their values into the same heap.
        """
        if (pairs is None) == (tails is None):
            raise KernelError("append takes pairs or tails=, not both/neither")
        last = self.fragments[-1]
        if tails is not None and not last.head.is_void:
            raise KernelError(
                "append(tails=...) needs a void head; pass explicit pairs"
            )
        batch = len(pairs) if pairs is not None else len(tails)  # type: ignore[arg-type]
        if batch == 0:
            return self
        kept = self.fragments[:-1]
        if len(last) >= self.policy.target_size:
            kept, last = self.fragments, last.slice(len(last), len(last))
        delta = last.append(tails=tails) if tails is not None else last.append(list(pairs))
        return FragmentedBAT([*kept, delta], policy=self.policy, name=self.name)

    # ------------------------------------------------------------------
    # Copy-on-write delete / update: tombstone and patch delta kinds
    # ------------------------------------------------------------------
    def delete(self, positions, *, renumber=None) -> "FragmentedBAT":
        """A new FragmentedBAT with the BUNs at the given *global*
        positions removed -- the tombstone delta kind.

        Copy-on-write at fragment granularity, the mirror image of
        :meth:`append`: a fragment with no tombstoned row shares its
        tail array by reference with the receiver; only touched
        fragments gather their survivors.  The result is never a
        coalesce -- every fragment-parallel operator sees the smaller
        fragments and masks the tombstones structurally, with no
        tombstone bitmap to consult on the read path.

        Logically dense oid heads are *re-densified* across the whole
        BAT so Moa's positional-fetchjoin discipline survives: each
        untouched fragment's void seqbase shifts by the tombstones
        before it (O(1) per fragment).  Heads that carry data
        (non-dense) are left untouched.  Fragments emptied by the
        delete are dropped, so operators never dispatch on
        tombstone-only fragments; :func:`fold_tail` later compacts runs
        of starved survivors back to policy size.

        ``renumber`` applies :meth:`BAT.delete_positions`' parent-oid
        rule to every fragment's survivors (a fragment none of whose
        values moves is still shared), so the result equals the
        monolithic delete BUN for BUN.
        """
        deleted = _normalize_positions(positions, len(self))
        if len(deleted) == 0 and renumber is None:
            return self
        offsets = self.fragment_offsets()
        dense_heads = all(f.head.is_void for f in self.fragments)
        out: List[BAT] = []
        for index, frag in enumerate(self.fragments):
            lo = int(np.searchsorted(deleted, offsets[index]))
            hi = int(np.searchsorted(deleted, offsets[index + 1]))
            local = deleted[lo:hi] - offsets[index]
            shift = lo  # tombstones before this fragment's window
            survivor = frag.delete_positions(local, renumber=renumber)
            if len(local) and len(survivor) == 0:
                continue
            if dense_heads and shift:
                survivor = BAT(
                    VoidColumn(survivor.head.seqbase - shift, len(survivor)),
                    survivor.tail,
                    hsorted=survivor.hsorted,
                    tsorted=survivor.tsorted,
                    hkey=survivor.hkey,
                    tkey=survivor.tkey,
                )
            out.append(survivor)
        if out == self.fragments:  # nothing deleted, no parent oid moved
            return self
        if not out:  # everything deleted: one empty fragment, head kind kept
            first = self.fragments[0]
            out = [first.delete_positions(np.arange(len(first)))]
        return FragmentedBAT(out, policy=self.policy, name=self.name)

    def update(self, positions, values) -> "FragmentedBAT":
        """A new FragmentedBAT with the tail values at the given
        *global* positions replaced -- the patch delta kind.

        Copy-on-write at fragment granularity: untouched fragments are
        shared by reference; each touched fragment patches its tail
        through :meth:`repro.monet.bat.BAT.update_positions`
        (O(changed) flag maintenance; ``tkey`` conservatively cleared,
        ``tsorted`` rechecked only on the patched pairs).  Heads and
        fragment boundaries never change, so the fragmentation -- and
        any same-fragmentation alignment with sibling BATs -- survives.
        Duplicate positions resolve last-wins.
        """
        final_pos, final_vals = _aligned_updates(positions, values, len(self))
        if len(final_pos) == 0:
            return self
        offsets = self.fragment_offsets()
        out: List[BAT] = []
        for index, frag in enumerate(self.fragments):
            lo = int(np.searchsorted(final_pos, offsets[index]))
            hi = int(np.searchsorted(final_pos, offsets[index + 1]))
            if lo == hi:
                out.append(frag)
                continue
            local = final_pos[lo:hi] - offsets[index]
            out.append(frag.update_positions(local, final_vals[lo:hi]))
        return FragmentedBAT(out, policy=self.policy, name=self.name)

    def items(self):
        return self.to_bat().items()

    def find(self, head_value) -> Any:
        """:meth:`BAT.find` fragment by fragment, in BUN order: the
        first fragment that finds the needle answers, and nothing
        coalesces."""
        for frag in self.fragments:
            try:
                return frag.find(head_value)
            except BATError:
                continue
        raise BATError(f"head value {head_value!r} not found")

    def exists(self, head_value) -> bool:
        return any(frag.exists(head_value) for frag in self.fragments)


def _aligned_updates(
    positions, values, count: int
) -> Tuple[np.ndarray, Union[List[Any], np.ndarray]]:
    """Normalize an update batch: positions validated against *count*,
    values (a list, or a column array) aligned, duplicates resolved
    last-wins, result sorted by position (the shape the per-fragment
    searchsorted mapping needs)."""
    arr = _normalize_positions(positions, count, unique=False)
    if not isinstance(values, np.ndarray):
        values = list(values)
    if len(values) != len(arr):
        raise InvalidMutationBatch(
            f"update needs one value per position: "
            f"{len(values)} values for {len(arr)} positions"
        )
    if len(arr) == 0:
        return arr, values[:0]
    order = _kernel.stable_order(arr)
    sorted_pos = arr[order]
    keep = np.empty(len(sorted_pos), dtype=bool)
    keep[:-1] = sorted_pos[1:] != sorted_pos[:-1]
    keep[-1] = True
    kept = order[keep]
    if isinstance(values, np.ndarray):
        return arr[kept], values[kept]
    return arr[kept], [values[i] for i in kept]


def _concat_fragments(frags: Sequence[BAT], name: Optional[str] = None) -> BAT:
    """One BAT holding the BUNs of *frags* in order, with conservative
    property flags: the whole-BAT coalesce and the bounded local merge
    of a starved run are the same concatenation
    (:func:`repro.monet.bat.concat_columns`: windows of one str column
    coalesce on its heap)."""
    head = concat_columns([f.head for f in frags])
    tail = concat_columns([f.tail for f in frags])
    return BAT(
        head,
        tail,
        name=name,
        hsorted=all(f.hsorted for f in frags)
        and _boundaries_nondecreasing(frags, head=True),
        tsorted=all(f.tsorted for f in frags)
        and _boundaries_nondecreasing(frags, head=False),
        # Keyness across fragments is only guaranteed by dense heads,
        # which the BAT constructor re-derives from voidness.
        hkey=len(frags) == 1 and frags[0].hkey,
        tkey=len(frags) == 1 and frags[0].tkey,
    )


def _boundaries_nondecreasing(frags: Sequence[BAT], *, head: bool) -> bool:
    """No NIL at either end of a fragment, and every boundary between
    fragments in order (:func:`repro.monet.bat._boundary_order`)."""
    columns = [frag.head if head else frag.tail for frag in frags if len(frag)]
    if any(None in (column.python_value(0), column.python_value(-1)) for column in columns):
        return False
    return all(_boundary_order(a, b) >= 1 for a, b in zip(columns, columns[1:]))


# ----------------------------------------------------------------------
# Fragmentation
# ----------------------------------------------------------------------


def fragment_bat(bat: BAT, policy: Optional[FragmentationPolicy] = None) -> FragmentedBAT:
    """Split *bat* into contiguous BUN ranges of at most
    ``policy.target_size`` BUNs (zero-copy views)."""
    policy = policy or FragmentationPolicy()
    n = len(bat)
    if n <= policy.target_size:
        return FragmentedBAT([bat], policy=policy, name=bat.name)
    fragments = [
        bat.slice(start, start + policy.target_size)
        for start in range(0, n, policy.target_size)
    ]
    return FragmentedBAT(fragments, policy=policy, name=bat.name)


# ----------------------------------------------------------------------
# The rule drivers: per fragment, aligned, reduce with a combiner
#
# A builtin row (mil/builtins.BUILTINS) whose operator needs no
# algorithm of its own across fragments names one of these rules, and
# the rule runs the row's kernel function: on every fragment, on every
# fragment's aligned operands, or as the partials of an aggregate.
# ----------------------------------------------------------------------


def per_fragment(
    fn: Callable[..., BAT],
    fb: FragmentedBAT,
    *args: Any,
    dense: Optional[str] = None,
    window: bool = False,
    inline: bool = False,
    **kwargs: Any,
) -> FragmentedBAT:
    """The *per fragment* rule: ``fn(fragment, *args, **kwargs)`` on
    every fragment of *fb*, in BUN order, under its policy.  Two
    declarations make a position global:

    * ``dense="head"`` or ``"tail"``: that result column is a dense run
      *fn* numbers from its base, and each fragment's run starts after
      the result BUNs of the fragments before it (``mark``, ``number``,
      ``uselect``);
    * ``window=True``: the first two operands after the receiver are a
      global BUN window ``[start, stop)``, shifted to each fragment and
      clipped there by *fn*; fragments outside it drop out (``slice``).

    ``inline=True`` declares *fn* an O(1) view (``reverse``, ``mark``),
    which no pool dispatch pays off: the calling thread runs it.
    """
    tasks = [(frag, args) for frag in fb.fragments]
    if window:
        start, stop, *rest = args
        tasks = [
            (frag, (start - offset, stop - offset, *rest))
            for frag, offset in zip(fb.fragments, fb.fragment_offsets())
            if max(start, offset) < min(stop, offset + len(frag))
        ] or [(fb.fragments[0], (0, 0, *rest))]
    buns = 0 if inline else len(fb)
    results = map_fragments(lambda task: fn(task[0], *task[1], **kwargs), tasks, buns)
    if dense is not None:
        renumber = _kernel.number if dense == "head" else _kernel.mark
        at = 0
        for index, bat in enumerate(results):
            if at:
                results[index] = renumber(bat, getattr(bat, dense).seqbase + at)
            at += len(bat)
    return FragmentedBAT(results, policy=fb.policy)


def same_fragmentation(a: FragmentedBAT, b: FragmentedBAT) -> bool:
    """True when *a* and *b* cover the same BUNs with identical
    fragment boundaries (the precondition for per-fragment positional
    alignment)."""
    return a.fragment_offsets() == b.fragment_offsets()


def coalesce(value: Any) -> Any:
    """FragmentedBAT -> monolithic BAT; anything else passes through."""
    return value.to_bat() if isinstance(value, FragmentedBAT) else value


def align(operands: Sequence[Any]) -> Optional[Tuple[FragmentedBAT, List[List[Any]]]]:
    """The *aligned* rule's precondition, for ``[op]`` multiplex, the
    aggregates and ``refine``: the first fragmented operand and, per
    fragment, *operands* with every BAT operand cut to that fragment.
    A fragmented operand must have :func:`same_fragmentation`, and a
    monolithic BAT of equal length is cut into windows (views).
    Anything else gives ``None``: the caller coalesces, so the
    monolithic operator's own alignment guards apply (a length or
    seqbase mismatch must keep raising)."""
    reference = next(x for x in operands if isinstance(x, FragmentedBAT))
    offsets = reference.fragment_offsets()
    columns = []
    for operand in operands:
        if isinstance(operand, FragmentedBAT):
            if not same_fragmentation(reference, operand):
                return None
            columns.append(operand.fragments)
        elif isinstance(operand, BAT):
            if len(operand) != len(reference):
                return None
            columns.append([operand.slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])])
        else:
            columns.append([operand] * reference.nfragments)
    return reference, [list(part) for part in zip(*columns)]


def map_aligned(fn: Callable[..., BAT], *operands: Any) -> Union[BAT, FragmentedBAT]:
    """The *aligned* rule: *fn* on every fragment's operands, aligned by
    :func:`align` (``[op]`` multiplex); misaligned operands coalesce."""
    aligned = align(operands)
    if aligned is None:
        return fn(*(coalesce(x) for x in operands))
    reference, parts = aligned
    results = map_fragments(lambda part: fn(*part), parts, len(reference))
    return FragmentedBAT(results, policy=reference.policy)


def reduce(
    record: Union[_agg.Aggregate, _kernel.Identity], *operands: Any
) -> Any:
    """The *reduce with a combiner* rule, for an aggregate
    (:class:`repro.monet.aggregates.Aggregate`) or an operator of the
    identity family (:class:`repro.monet.kernel.Identity`): the
    record's per-run pass on every fragment's operands, aligned by
    :func:`align` and fanned out, then its combine and finish -- one
    value, or an identity operator's result fragment per fragment.
    Misaligned operands, and a pump whose fragments' heads are not
    positionally equal, coalesce."""
    aligned = align(operands)
    if aligned is not None:
        reference, parts = aligned
        result = record.over(
            parts, lambda fn, items: map_fragments(fn, items, len(reference))
        )
        if isinstance(result, list):
            return FragmentedBAT(result, policy=reference.policy)
        if result is not _agg.UNALIGNED:
            return result
    return record(*(coalesce(x) for x in operands))


# Forced vestiges: the frozen benchmark (benchmarks/mirrorbench/layers.py
# and wl_frag_relational.py, under BENCHMARK.json ``paths``) calls these
# five fragmented twins by name.  Each is its builtin row's rule, bound.
select = partial(per_fragment, _kernel.select)
reverse = partial(per_fragment, BAT.reverse, inline=True)
sum_ = partial(reduce, _agg.sum_)
max_ = partial(reduce, _agg.max_)
kunique = partial(reduce, _kernel.kunique)


def _subset_op(
    fb: FragmentedBAT, mask_fn: Callable[[BAT], np.ndarray]
) -> FragmentedBAT:
    """Generic row-subset operator: evaluate a predicate mask per
    fragment in parallel and keep the qualifying BUNs."""
    return per_fragment(lambda frag: frag.take_positions(np.nonzero(mask_fn(frag))[0]), fb)


# ----------------------------------------------------------------------
# Fragment-parallel operators: join family
# ----------------------------------------------------------------------


def _gather_windows(
    columns: Sequence[AnyColumn], offsets: np.ndarray, positions: np.ndarray
) -> AnyColumn:
    """The BUNs at *positions* of the concatenation of *columns*
    (column ``k`` holding positions ``offsets[k] .. offsets[k+1]-1``),
    in position order, without concatenating the columns: one take
    when every position falls in one column (a probe fragment aligned
    with the right operand's), else one take per column touched,
    concatenated, and a scatter back to position order."""
    if len(positions) == 0:
        return columns[0].take(positions)
    first = int(np.searchsorted(offsets, positions.min(), side="right")) - 1
    if positions.max() < offsets[first + 1]:
        return columns[first].take(positions - offsets[first])
    owners = np.searchsorted(offsets, positions, side="right") - 1
    rows = _kernel.stable_order(owners)
    bounds = np.append(0, np.cumsum(np.bincount(owners, minlength=len(columns))))
    parts = [
        columns[owner].take(positions[rows[lo:hi]] - offsets[owner])
        for owner, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        if hi > lo
    ]
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[rows] = np.arange(len(rows), dtype=np.int64)
    return concat_columns(parts).take(inverse)


def _dense_window_starts(right: FragmentedBAT) -> Optional[List[int]]:
    """Per-fragment seqbase starts (plus the global end) of a
    fragmented right operand whose heads are provably dense
    (:attr:`BAT.hseqbase`, as in :func:`repro.monet.kernel.join`) and
    form one contiguous ascending sequence -- exactly the case where
    its coalesced head would be the dense run too -- or ``None`` when
    seqbase routing does not apply.  An empty fragment proves nothing
    and owns no position: it starts where the one before it ends."""
    nonempty = [frag for frag in right.fragments if len(frag)]
    start = nonempty[0].hseqbase if nonempty else None
    if start is None:
        return None
    starts: List[int] = []
    for frag in right.fragments:
        if len(frag) and frag.hseqbase != start:
            return None
        starts.append(start)
        start += len(frag)
    starts.append(start)
    return starts


def fetchjoin(
    fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]
) -> FragmentedBAT:
    """Fragment-parallel positional join.  A fragmented void right
    stays fragmented: seqbase arithmetic routes every probe to its
    owning right fragment, so neither side coalesces.  Any other right
    runs the kernel operator per fragment, which insists on a void
    head."""
    if isinstance(right, FragmentedBAT):
        starts = _dense_window_starts(right)
        if starts is not None and all(frag.hdense for frag in right.fragments):
            return _fetchjoin_fragmented(fb, right, starts)
    return per_fragment(_kernel.fetchjoin, fb, coalesce(right))


def _fetchjoin_fragmented(
    fb: FragmentedBAT, right: FragmentedBAT, starts: List[int]
) -> FragmentedBAT:
    """Positional join against a fragmented dense right operand: each
    probe fragment gathers its targets from the right fragments whose
    seqbase windows own them (:func:`_gather_windows`), codes and all;
    a void probe tail is a run, and takes windows instead."""
    # Window starts relative to the first seqbase, like the targets.
    offsets = np.asarray(starts, dtype=np.int64) - starts[0]
    bounds = offsets.tolist()
    total = bounds[-1]
    tails = [frag.tail for frag in right.fragments]

    def one(frag: BAT) -> BAT:
        if frag.tail.is_void:
            # Run against run, as in the monolithic positional join: the
            # overlap is a window of both operands, with no position
            # array and no copy.  The Sec. 3 plan fetches two whole
            # 30 k-row attribute columns (term, tf) this way per query.
            first = frag.tail.seqbase - starts[0]
            low = max(first, 0)
            high = max(low, min(first + len(frag), total))
            windows = [
                tail.window(max(low, lo) - lo, min(high, hi) - lo)
                for tail, lo, hi in zip(tails, bounds, bounds[1:])
                if max(low, lo) < min(high, hi)
            ]
            return BAT(
                frag.head.window(low - first, high - first),
                concat_columns(windows or [tails[0].window(0, 0)]),
                hkey=frag.hkey,
            )
        keep, targets = _kernel.fetch_positions(frag.tail_values(), starts[0], total)
        head = frag.head if keep is None else frag.head.take(keep)
        return BAT(head, _gather_windows(tails, offsets, targets), hkey=frag.hkey)

    return per_fragment(one, fb)


# ----------------------------------------------------------------------
# Value join: one shared index in code space, radix partitions otherwise
#
# The arm is chosen once, from the whole build side, by the kernel's
# selection table.  Where the keys have a code space -- str keys
# (heap codes) or integral keys of compact span (``key - lo``,
# kernel.span_bounds) -- one index is built over the build fragments in
# BUN order and every probe fragment probes it in parallel: no
# partitioning, no hashing, and a str probe fragment translates only its
# distinct values (the fragments of one stored column share its heap,
# and then translate nothing).  Only the sorted arm (sparse
# numeric keys) partitions both operands by a radix of the join key
# (kernel.join_partition_ids; NIL BUNs drop first, comparison rule):
# per-partition sorted indexes build in parallel, every probe fragment
# probes partition-locally, and a build side past ``join_spill`` spills
# its partitions through the BBP scratch directory as npz units,
# processed one partition at a time.  A key lives in exactly one
# partition, so a stable per-fragment sort on probe position
# reassembles the exact monolithic kernel.join order.
#
# Gathers carry codes.  Every arm gathers the build tails as columns
# (``take`` of the build fragments, joined by ``bat.concat_columns``),
# never as value arrays: gathers from the fragments of one stored str
# column come out on its heap, an outer join's NIL fill is code -1 on
# it (``kernel.pad_unmatched``), and the next keyed operator reads the
# codes.
#
# Why the split (2 M oid probes, min of 3, ms at 1/10/40 fragments of
# both sides, 2-core host): on a 1 M permutation build the radix join
# took 784/415/446 and one shared span index 218/188/177 -- radix
# partitions of compact keys are no longer compact, so each falls back
# to sorting.  On a 1 M *sparse* build (keys x 1000) the radix join
# beats one shared sorted index, 1494/744/767 vs 1702/913/914
# (cache-resident partitions), so the sorted arm keeps it; on a 256 k
# sparse build the shared sorted index was ahead (726/423/380 vs
# 946/474/487), a build-size rule this arm does not make yet.
# ----------------------------------------------------------------------


def _join_fanout(build_n: int) -> int:
    """Radix partition count for a *build_n*-BUN build side: enough
    partitions to parallelize and stay cache-resident, floored so small
    builds never shatter, capped at the live ``join_fanout``."""
    by_floor = -(-build_n // max(1, JOIN_PARTITION_MIN_BUNS))
    return max(1, min(_tuning.current().join_fanout, by_floor))


def _grace_matches(
    fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]
) -> List[Tuple[np.ndarray, AnyColumn]]:
    """The value-join core shared by :func:`join` and
    :func:`outerjoin`: per probe fragment, the matching
    (probe_positions, build tails gathered for them) ordered exactly
    like the monolithic ``kernel.join`` (ascending probe position; per
    probe BUN, matches in ascending build BUN order)."""
    build_frags = right.fragments if isinstance(right, FragmentedBAT) else [right]
    heads = [frag.head for frag in build_frags]
    probe_object = _kernel._is_str(fb.fragments[0].tail)
    if probe_object != _kernel._is_str(heads[0]):
        # outerjoin checks no types, and a str equals no number
        nothing = np.empty(0, dtype=np.int64)
        return [(nothing, build_frags[0].tail.take(nothing))] * fb.nfragments
    tails = [frag.tail for frag in build_frags]
    if probe_object or _kernel.span_bounds(heads) is not None:
        return _shared_index_matches(fb, heads, tails, probe_object)
    return _radix_matches(fb, heads, tails)


def _shared_index_matches(
    fb: FragmentedBAT,
    heads: List[AnyColumn],
    tails: List[AnyColumn],
    probe_object: bool,
) -> List[Tuple[np.ndarray, AnyColumn]]:
    """One code-space index over the whole build side, probed by every
    fragment.  A str index is built in the probe side's code space when
    all probe fragments share one heap (the fragments of one stored
    column), other than the build's and at least as large, so no probe
    translates anything (:func:`~repro.monet.kernel.larger_code_space`).
    When the build fragments share the heap indexed in, the index is
    their held indexes (:func:`~repro.monet.kernel.held_match_index`:
    built once per fragment version, not per query), and each probe
    fragment translates its distinct values once for all of them;
    otherwise it is built in the build's largest heap."""
    code_space = None
    if probe_object:
        probes = [frag.tail for frag in fb.fragments]
        if all(probe.heap is probes[0].heap for probe in probes):
            code_space = _kernel.larger_code_space(probes[0], heads)
    index = _kernel.build_match_index(heads, code_space)
    payload = concat_columns(tails)

    def probe_one(frag: BAT) -> Tuple[np.ndarray, AnyColumn]:
        probe_positions, build_positions = _kernel.probe_match_index(frag.tail, index)
        return probe_positions, payload.take(build_positions)

    return map_fragments(probe_one, fb.fragments, len(fb))


def _assemble_join_partition(
    key_chunks: List[np.ndarray], tail_chunks: List[AnyColumn]
) -> Optional[Tuple[_kernel.MatchIndex, AnyColumn]]:
    """One resident build partition, its per-fragment chunks
    concatenated in fragment (= BUN) order under a sorted-arm index.
    ``None`` for an empty partition."""
    if not key_chunks:
        return None
    keys = key_chunks[0] if len(key_chunks) == 1 else np.concatenate(key_chunks)
    index = _kernel.sorted_match_index(keys)
    return index, concat_columns(tail_chunks)


def _in_probe_order(
    position_chunks: List[np.ndarray], tail_chunks: List[AnyColumn]
) -> Tuple[np.ndarray, AnyColumn]:
    """Per-partition matches of one probe fragment back in probe order.
    One key lives in one partition, so the stable order on probe
    position cannot reorder same-probe matches: they all came from a
    single partition, already in build order."""
    probe_positions = np.concatenate(position_chunks)
    order = _kernel.stable_order(probe_positions)
    return probe_positions[order], concat_columns(tail_chunks).take(order)


def _radix_matches(
    fb: FragmentedBAT, heads: List[AnyColumn], tails: List[AnyColumn]
) -> List[Tuple[np.ndarray, AnyColumn]]:
    """The sorted arm, radix-partitioned: resident partitions, or
    spilled ones past ``join_spill``."""
    keyspace = _kernel.key_space(*(frag.tail for frag in fb.fragments), *heads)
    build_n = sum(len(head) for head in heads)
    fanout = _join_fanout(build_n)
    join_spill = _tuning.current().join_spill
    spill = build_n > join_spill
    if spill:
        # Partitions sized to the spill threshold, so the resident
        # build state stays near the cap (bounded fanout keeps the
        # unit count sane when the threshold is tiny).
        per_partition = max(1, join_spill)
        fanout = max(fanout, min(256, -(-build_n // per_partition)))
    nothing = np.empty(0, dtype=np.int64)
    no_match = (nothing, tails[0].take(nothing))

    def probe_parts(frag: BAT) -> Tuple[np.ndarray, List[np.ndarray]]:
        return _kernel.join_partition_positions(frag.tail, keyspace, fanout)

    if spill:
        return _radix_matches_spilled(
            fb, heads, tails, keyspace, fanout, probe_parts, no_match
        )
    # Per-fragment radix splits: keys, and NIL-free local positions
    # grouped by partition.
    build = map_fragments(
        lambda head: _kernel.join_partition_positions(head, keyspace, fanout),
        heads,
        len(fb),
    )

    def one_partition(partition: int):
        key_chunks, tail_chunks = [], []
        for (keys, parts), tail in zip(build, tails):
            sel = parts[partition]
            if len(sel):
                key_chunks.append(keys[sel])
                tail_chunks.append(tail.take(sel))
        return _assemble_join_partition(key_chunks, tail_chunks)

    partitions = map_fragments(one_partition, range(fanout), len(fb))

    def probe_one(frag: BAT) -> Tuple[np.ndarray, AnyColumn]:
        if len(frag) == 0 or build_n == 0:
            return no_match
        keys, parts = probe_parts(frag)
        position_chunks, tail_chunks = [], []
        for part, sel in zip(partitions, parts):
            if part is None or len(sel) == 0:
                continue
            index, part_tails = part
            pp, bp = _kernel.probe_sorted(keys[sel], index)
            if len(pp):
                position_chunks.append(sel[pp])
                tail_chunks.append(part_tails.take(bp))
        if not position_chunks:
            return no_match
        return _in_probe_order(position_chunks, tail_chunks)

    return map_fragments(probe_one, fb.fragments, len(fb))


def _radix_matches_spilled(
    fb: FragmentedBAT,
    heads: List[AnyColumn],
    tails: List[AnyColumn],
    keyspace: _kernel.KeyFunction,
    fanout: int,
    probe_parts,
    no_match: Tuple[np.ndarray, AnyColumn],
) -> List[Tuple[np.ndarray, AnyColumn]]:
    """Out-of-core radix join: build partitions stream to npz spill
    units fragment by fragment, then load back one partition at a time
    -- the resident build state is one partition, not the build side.
    A unit holds keys and local build positions only; tails are
    gathered from the (resident) build fragments on reload, so no
    object array is ever spilled."""
    from repro.monet import bbp as _bbp

    units: List[List] = [[] for _ in range(fanout)]  # (build tail, path)
    try:
        for head, tail in zip(heads, tails):
            keys, parts = _kernel.join_partition_positions(head, keyspace, fanout)
            for partition, sel in enumerate(parts):
                if len(sel) == 0:
                    continue
                path = _bbp.write_spill_unit(
                    _bbp.new_spill_tag(f"join-p{partition:03d}"),
                    keys=keys[sel],
                    positions=sel,
                )
                units[partition].append((tail, path))
            del keys, parts
        probe_data = map_fragments(probe_parts, fb.fragments, len(fb))
        accum: List[Tuple[List[np.ndarray], List[AnyColumn]]] = [
            ([], []) for _ in fb.fragments
        ]
        for partition in range(fanout):
            if not units[partition]:
                continue
            key_chunks, tail_chunks = [], []
            for tail, path in units[partition]:
                data = _bbp.read_spill_unit(path)
                key_chunks.append(data["keys"])
                tail_chunks.append(tail.take(data["positions"]))
            part = _assemble_join_partition(key_chunks, tail_chunks)
            del key_chunks, tail_chunks
            index, part_tails = part

            def probe_into(fragment_index: int):
                keys, parts = probe_data[fragment_index]
                sel = parts[partition]
                if len(sel) == 0:
                    return None
                pp, bp = _kernel.probe_sorted(keys[sel], index)
                if len(pp) == 0:
                    return None
                return sel[pp], part_tails.take(bp)

            probed = map_fragments(probe_into, range(fb.nfragments), len(fb))
            for fragment_index, result in enumerate(probed):
                if result is not None:
                    accum[fragment_index][0].append(result[0])
                    accum[fragment_index][1].append(result[1])
            del part, index, part_tails
    finally:
        for partition_units in units:
            for _, path in partition_units:
                _bbp.drop_spill_unit(path)
    return [
        _in_probe_order(*chunks) if chunks[0] else no_match for chunks in accum
    ]


def _right_hkey(right: Union[BAT, FragmentedBAT]) -> bool:
    """Conservative head-keyness of a join build side (a fragmented
    right only guarantees it with a single fragment)."""
    if isinstance(right, BAT):
        return right.hkey
    return right.nfragments == 1 and right.fragments[0].hkey


def join(fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.join`: keys with a
    code space (str, compact integral) probe one shared index; sparse
    numeric keys run the radix-partitioned (grace) join, spilling
    oversized build sides through the BBP scratch directory.  Neither
    operand ever coalesces -- a fragmented right contributes its
    fragments in BUN order."""
    _kernel.check_join_types(fb.ttype, right.htype)
    if isinstance(right, FragmentedBAT):
        starts = _dense_window_starts(right)
        if starts is not None:
            return _fetchjoin_fragmented(fb, right, starts)
    matches = _grace_matches(fb, right)
    right_hkey = _right_hkey(right)
    fragments = [
        BAT(frag.head.take(probe_positions), tail, hkey=frag.hkey and right_hkey)
        for frag, (probe_positions, tail) in zip(fb.fragments, matches)
    ]
    return FragmentedBAT(fragments, policy=fb.policy)


def outerjoin(fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.outerjoin`:
    unmatched left BUNs keep NIL tails per fragment, with the matches
    coming from the shared grace-join build, partitioned and indexed
    once for the whole probe side; a fragmented right never coalesces."""
    matches = _grace_matches(fb, right)
    right_hkey = _right_hkey(right)
    fragments = []
    for frag, (probe_positions, tail) in zip(fb.fragments, matches):
        positions, tail = _kernel.pad_unmatched(len(frag), probe_positions, tail)
        fragments.append(
            BAT(
                _kernel.outer_head(frag.head, positions),
                tail,
                hkey=frag.hkey and right_hkey,
            )
        )
    return FragmentedBAT(fragments, policy=fb.policy)


# ----------------------------------------------------------------------
# Fragment-parallel set operators and head-membership predicates
#
# semijoin / kdiff (comparison NIL rule: NIL is never a member) and
# kunion / kintersect (identity NIL rule: all NILs are one set element)
# share one shape: the membership side's head keys are built ONCE --
# per-fragment key extraction fans out, and a fragmented operand never
# coalesces -- then every probe fragment tests against the shared build
# in parallel (mirroring build_match_index/probe_match_index for value
# joins).
# ----------------------------------------------------------------------


def _head_columns(value: Union[BAT, FragmentedBAT]) -> List[AnyColumn]:
    if isinstance(value, FragmentedBAT):
        return [fragment.head for fragment in value.fragments]
    return [value.head]


def _member_subset(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    nil_member: bool,
    invert: bool,
) -> FragmentedBAT:
    """Row subset of *fb* by head membership in one shared build of
    *right*'s heads (:func:`kernel.build_member_set`; NILs left out
    under the comparison rule, ``nil_member=False``): the per-fragment
    key extraction fans out, and every probe fragment tests against the
    one build in parallel."""
    build = _head_columns(right)
    keys_of = _kernel.key_space(*build, *_head_columns(fb))
    if keys_of is None:  # a str equals no number
        return _subset_op(fb, lambda frag: np.full(len(frag), invert))
    members = _kernel.build_member_set(
        np.concatenate(
            map_fragments(
                lambda column: _kernel.member_keys(
                    column, keys_of, nil_member=nil_member
                ),
                build,
                len(fb),
            )
        )
    )

    def mask_fn(frag: BAT) -> np.ndarray:
        mask = _kernel.probe_member_set(
            frag.head, members, keys_of, nil_member=nil_member
        )
        return ~mask if invert else mask

    return _subset_op(fb, mask_fn)


def semijoin(fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.semijoin`
    (comparison NIL rule; a fragmented right operand contributes its
    head keys without coalescing).

    The keys -- numbers, or a str head's codes in one code space --
    route through the grace-join radix split: the right side's head
    keys partition per fragment, each partition dedupes in parallel,
    and probe fragments test partition-locally.  NIL build and probe
    keys drop with the :func:`kernel.join_keys` mask (comparison rule:
    NIL is never a member), so the per-partition member arrays carry
    comparison keys only."""
    columns = _head_columns(right)
    keyspace = _kernel.key_space(*columns, *_head_columns(fb))
    if keyspace is None:  # a str equals no number
        return _subset_op(fb, lambda frag: np.zeros(len(frag), dtype=bool))
    build_n = sum(len(column) for column in columns)
    fanout = _join_fanout(build_n)

    def keyed_parts(column: AnyColumn) -> Tuple[np.ndarray, List[np.ndarray]]:
        return _kernel.join_partition_positions(column, keyspace, fanout)

    keyed = map_fragments(keyed_parts, columns, len(fb))
    empty_keys = keyed[0][0][:0] if keyed else np.empty(0, np.int64)

    def one_partition(partition: int) -> np.ndarray:
        chunks = [
            keys[parts[partition]]
            for keys, parts in keyed
            if len(parts[partition])
        ]
        if not chunks:
            return empty_keys
        return _kernel.build_member_set(np.concatenate(chunks))

    members = map_fragments(one_partition, range(fanout), len(fb))

    def mask_fn(frag: BAT) -> np.ndarray:
        mask = np.zeros(len(frag), dtype=bool)
        if len(frag) == 0 or build_n == 0:
            return mask
        keys, parts = _kernel.join_partition_positions(frag.head, keyspace, fanout)
        for partition, sel in enumerate(parts):
            if len(sel) and len(members[partition]):
                hits = np.isin(keys[sel], members[partition])
                mask[sel[hits]] = True
        return mask

    return _subset_op(fb, mask_fn)


def kdiff(fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kdiff`
    (anti-semijoin, comparison NIL rule: NIL heads always survive, so
    the shared build is probed with NIL probes masked out)."""
    return _member_subset(fb, right, nil_member=False, invert=True)


def kintersect(
    fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kintersect`: keep
    the left BUNs whose head is in the shared right-head build, under
    the **identity** NIL rule (a NIL head is a member of a head set
    containing any NIL)."""
    return _member_subset(fb, right, nil_member=True, invert=False)


def kunion(fb: FragmentedBAT, right: Union[BAT, FragmentedBAT]) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kunion`: the left
    fragments pass through untouched, the right side filters
    fragment-parallel against a shared membership build of the *left*
    heads (identity NIL rule, so the NIL head never duplicates), and
    the surviving right BUNs append as additional fragments in right
    BUN order -- the result never coalesces mid-plan.  Mismatched atom
    types raise, like the monolithic kernel (a union under the left
    types would silently reinterpret right-side values)."""
    if isinstance(right, BAT):
        right = fragment_bat(right, fb.policy)
    _kernel.check_kunion_types(fb.fragments[0], right.fragments[0])
    unseen = _member_subset(right, fb, nil_member=True, invert=True)
    survivors = [frag for frag in unseen.fragments if len(frag)]
    if not survivors:
        return fb
    return FragmentedBAT(fb.fragments + survivors, policy=fb.policy)


# ----------------------------------------------------------------------
# Fragment-parallel order: sort / tsort / topn
#
# Two parallel passes around one small serial step: every fragment
# sorts (or picks its top-n candidates) in its own thread, and the
# sample-sort merge resolves cross-fragment order on already-sorted
# runs, emitting range-partitioned fragments so downstream operators
# keep running fragment-parallel.
# ----------------------------------------------------------------------


def _merge_partition_count(n: int, policy: FragmentationPolicy) -> int:
    """Output partitions for the sample-sort merge phase: at least
    enough to keep output fragments near the target size, and more when
    the data outgrows a cache-resident working set (~64k BUNs per
    partition keeps each partition's key+position arrays in L2) --
    capped at the live ``merge_fanout`` (so a forced value applies to
    in-flight handles immediately)."""
    by_target = -(-n // policy.target_size)
    by_cache = n // (64 * 1024)
    return max(1, min(_tuning.current().merge_fanout, max(by_target, by_cache)))


def _sample_sort_merge(
    fb: FragmentedBAT,
    runs: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    *,
    gather_heads: bool,
) -> FragmentedBAT:
    """Parallel merge of key-sorted per-fragment runs by sample-sort
    partitioning.

    Pivots sampled from the runs (:func:`kernel.sample_pivots` over the
    monotone partition keys) cut every run at the same key boundaries
    (:func:`kernel.run_cut_points`), so each inter-pivot range touches
    a disjoint slice of every run and builds its output fragment
    **independently**: the per-partition orders, the gathers and the
    output fragment construction all fan out on the thread pool.  A
    partition concatenates its run slices in run order -- increasing
    global-position blocks -- and orders the concatenation with
    :func:`kernel.stable_order`, the primitive that sorted the runs, so
    the left run wins ties by stability and the result is the
    monolithic stable sort exactly.  Degenerate pivot samples
    (all-equal keys) dedupe to fewer partitions, in the limit one --
    correct, just less parallel.  The merged head is the merged keys
    themselves, or gathered by global position with *gather_heads*
    (when the keys are ranks)."""
    head_atom = fb.fragments[0].head.atom_type
    target = fb.policy.target_size
    # A permutation of one fragment keeps its key flags.
    hkey = fb.nfragments == 1 and fb.fragments[0].hkey
    tkey = fb.nfragments == 1 and fb.fragments[0].tkey
    pivots = _kernel.sample_pivots(
        [pkeys for _, pkeys, _ in runs], _merge_partition_count(len(fb), fb.policy)
    )
    bounds = [
        np.concatenate(
            ([0], _kernel.run_cut_points(pkeys, pivots), [len(keys)])
        )
        for keys, pkeys, _ in runs
    ]
    # The shared gather sources the per-partition workers index by
    # global BUN position (codes and all, for str).
    tails = concat_columns([f.tail for f in fb.fragments])
    heads = concat_columns([f.head for f in fb.fragments]) if gather_heads else None

    def build(partition: int) -> List[BAT]:
        cuts = [(cut[partition], cut[partition + 1]) for cut in bounds]
        keys_p = np.concatenate(
            [keys[lo:hi] for (keys, _, _), (lo, hi) in zip(runs, cuts)]
        )
        gpos_p = np.concatenate(
            [gpos[lo:hi] for (_, _, gpos), (lo, hi) in zip(runs, cuts)]
        )
        order = _kernel.stable_order(keys_p)
        keys_p, gpos_p = keys_p[order], gpos_p[order]
        head = Column(head_atom, keys_p) if heads is None else heads.take(gpos_p)
        tail = tails.take(gpos_p)
        return [
            BAT(
                head.window(start, min(len(keys_p), start + target)),
                tail.window(start, min(len(keys_p), start + target)),
                hsorted=True,
                hkey=hkey,
                tkey=tkey,
            )
            for start in range(0, len(keys_p), target)
        ]

    parts = map_fragments(build, range(len(pivots) + 1), len(fb))
    fragments = [fragment for part in parts for fragment in part]
    return FragmentedBAT(fragments, policy=fb.policy)


def sort(fb: FragmentedBAT) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.sort`: every
    fragment sorts its head keys in its own thread with
    :func:`kernel.stable_order` (numpy's sorts release the GIL), then a
    **sample-sort merge** combines the runs: pivots sampled from the
    sorted runs range-partition the key space and each output
    partition orders its concatenated run slices with the same
    primitive, independently and also in parallel
    (:func:`_sample_sort_merge`) -- no coalesce, no serial merge phase,
    and the plan around it stays fragment-parallel.  Equal heads keep
    global BUN order, exactly like the monolithic stable sort.  The
    keys are :func:`kernel.order_keys`: numbers themselves, a str head
    the ranks of its codes in one code space across the fragments (their
    heap, when they share one), and the head is gathered by position,
    codes and all.
    Already-sorted inputs (flagged or detected, fragment boundaries
    included) return unchanged."""
    if len(fb) == 0:
        return fb
    if all(f.hsorted for f in fb.fragments) and _boundaries_nondecreasing(
        fb.fragments, head=True
    ):
        return fb
    heads = [frag.head for frag in fb.fragments]
    str_head = _kernel._is_str(heads[0])
    head_keys = _kernel.order_keys(*heads)

    def one(index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = head_keys[index]
        gpos = fb.global_positions(index)
        if not (fb.fragments[index].hsorted or _nondecreasing(keys)):
            order = _kernel.stable_order(keys)
            keys, gpos = keys[order], gpos[order]
        return keys, _kernel.partition_keys(keys), gpos

    runs = map_fragments(one, range(fb.nfragments), len(fb))
    # A str head's keys are ranks, not its values: the merged head is
    # gathered by global position, like the tail.
    return _sample_sort_merge(fb, runs, gather_heads=str_head)


def tsort(fb: FragmentedBAT) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.tsort`
    (``reverse . sort . reverse``; the reverses are O(1) views)."""
    return reverse(sort(reverse(fb)))


def topn(fb: FragmentedBAT, n: int, descending: bool = True) -> BAT:
    """Fragment-parallel :func:`repro.monet.kernel.topn`.

    Every global top-*n* BUN is a top-*n* BUN of its own fragment, so
    the candidate selection (the O(count) part) fans out per fragment
    and only ``nfragments * n`` candidates meet the final monolithic
    ``topn`` (which also restores the monolithic tie-break by global
    BUN position).  The result is a small monolithic BAT: top-n ends
    the fragment-parallel part of a plan by construction."""
    if n < 0:
        raise KernelError("topn needs a non-negative n")
    n = int(n)

    def one(frag: BAT) -> BAT:
        pos = _kernel.topn_positions(frag, min(n, len(frag)), descending=descending)
        # Candidates back in BUN order: the final topn's tie-break is
        # positional.
        return frag.take_positions(np.sort(pos))

    candidates = _concat_fragments(map_fragments(one, fb.fragments, len(fb)))
    return _kernel.topn(candidates, n, descending=descending)


def _nondecreasing(values: np.ndarray) -> bool:
    """Cheap actual-sortedness check (a NaN anywhere fails it, which
    just means the fragment sorts -- correctness over shortcut)."""
    if len(values) <= 1:
        return True
    return bool(np.all(values[1:] >= values[:-1]))


# ----------------------------------------------------------------------
# Re-fragmentation of drifted intermediates
# ----------------------------------------------------------------------


def fold_tail(
    fb: FragmentedBAT,
    policy: Optional[FragmentationPolicy] = None,
    *,
    compact: bool = False,
) -> FragmentedBAT:
    """Fold drifted delta fragments back to policy size without
    coalescing.

    Two purely local passes; healthy fragments are shared by reference
    with the input in both:

    * every fragment larger than twice the policy target (the residue
      of bulk appends) is sliced into target-sized view fragments
      (numpy views -- no data copy), made once per fragment and target
      (:attr:`BAT.windows <repro.monet.bat.BAT>`): a fragment shared by
      later versions keeps its views, and their held join indexes;
    * with ``compact=True``, runs of adjacent *starved* fragments (the
      residue of tombstone deletes shrinking fragments below half the
      target) are concatenated back up to at most target size -- a
      bounded local concat per run, never a coalesce of the whole BAT.
      Compaction is opt-in because plan intermediates routinely carry
      small fragments (every selection shrinks them) and must not pay
      a copy per operator; only the merge daemon's registered-BAT pass
      (``refragment(..., compact=True)``) asks for it.

    This is the cheap half of reorganization: the merge daemon runs it
    continuously so deltas of both kinds fold back to the policy size
    while readers keep their snapshots.  When neither pass changes a
    fragment the input handle itself is returned."""
    policy = policy or fb.policy
    target = policy.target_size
    sizes = fb.fragment_sizes()
    oversized = max(sizes) > 2 * target
    starved = compact and len(sizes) > 1 and min(sizes) * 2 < target
    if not oversized and not starved:
        return fb
    out: List[BAT] = []
    for fragment in fb.fragments:
        if len(fragment) <= 2 * target:
            out.append(fragment)
            continue
        if fragment.windows is None or fragment.windows[0] != target:
            views = [
                fragment.slice(start, start + target)
                for start in range(0, len(fragment), target)
            ]
            fragment.windows = (target, views)
        out.extend(fragment.windows[1])
    if starved:
        out = _compact_starved(out, target)
    if len(out) == len(fb.fragments) and all(
        new is old for new, old in zip(out, fb.fragments)
    ):
        # Nothing was sliced or merged (an unmergeable starved tail):
        # a new handle would make the merge daemon re-swap, bump the
        # epoch and invalidate views on every pass.
        return fb
    return FragmentedBAT(out, policy=policy, name=fb.name)


def _compact_starved(fragments: List[BAT], target: int) -> List[BAT]:
    """Greedily merge runs of adjacent fragments whose combined size
    stays within *target*; empty fragments are dropped outright.  Each
    merge is one bounded concatenation."""
    runs: List[List[BAT]] = []
    size = 0
    for fragment in fragments:
        if len(fragment) == 0:
            continue
        if not runs or size + len(fragment) > target:
            runs.append([])
            size = 0
        runs[-1].append(fragment)
        size += len(fragment)
    if not runs:
        return [fragments[0].take_positions(np.empty(0, dtype=np.int64))]
    return [run[0] if len(run) == 1 else _concat_fragments(run) for run in runs]


def refragment(
    fb: FragmentedBAT,
    policy: Optional[FragmentationPolicy] = None,
    *,
    compact: bool = False,
) -> FragmentedBAT:
    """Re-split *fb* when its fragmentation has drifted far from
    *policy* (defaults to the BAT's own policy).

    Selections shrink fragments and joins/appends grow them; most drift
    is harmless, so this only rebuilds when a fragment exceeds twice the
    target size (losing cache residency) or the fragment count exceeds
    four times what the current cardinality warrants (dispatch overhead
    dominating).  Oversized fragments -- and, with ``compact=True``,
    runs of starved ones -- are first folded by :func:`fold_tail`
    (slice views and bounded local concats, no coalesce); the append
    and tombstone deltas resolve there.  Only when the fragment *count*
    is still past its bound does this coalesce once and re-split.  The
    MIL builtin driver calls this on intermediates so whole pipelines
    keep a healthy fragmentation without per-operator tuning; the merge
    daemon calls it with ``compact=True`` on registered BATs, under a
    per-name CAS swap-in.  An input already in shape is returned
    itself."""
    policy = policy or fb.policy
    ideal = max(1, -(-len(fb) // policy.target_size))
    folded = fold_tail(fb, policy, compact=compact)
    if folded.nfragments <= max(4, 4 * ideal):
        return folded
    return fragment_bat(folded.to_bat(), policy)
