"""The MIL interpreter: executes parsed programs against a BBP.

The interpreter is deliberately simple -- MIL plans produced by the Moa
compiler are straight-line programs of assignments -- but it supports
everything a human would write interactively in the subset (chained
method calls, scalar arithmetic, ``print``).

Execution is *fragment-aware*: ``bat("name")`` resolves a fragmented
registration to its :class:`~repro.monet.fragments.FragmentedBAT`
handle (``pool.lookup_fragments``) instead of coalescing, and every
operator call (``[op]`` multiplex and the pump aggregates included)
goes through the one driver of :mod:`repro.monet.mil.builtins`, which
fans out through the row's fragment rule when an operand is
fragmented.  A whole pipeline (``select -> join -> group ->
aggregate``) therefore runs fragment-parallel end-to-end; coalescing
happens at most once, when the final result (or an operator with no
fragment-parallel counterpart) actually needs the monolithic BAT.

Execution results are collected in :class:`MILResult`:

* ``value`` -- the value of the final statement (a BAT or scalar;
  fragmented values are coalesced here, the single materialization
  point of a fragmented plan);
* ``env`` -- the variable environment after the run (fragmented
  intermediates stay fragmented);
* ``printed`` -- output captured from ``print(...)`` statements;
* ``stats`` -- per-operator invocation counts (used by the E5/E10
  benchmarks to report plan shapes).

Interpreter instances hold no per-run mutable state, so one instance
may evaluate programs from many threads at once (the query service runs
every session's plans through executors shared this way).  Per-query
control -- deadline and cancellation -- is passed per call: ``run`` and
``run_program`` accept a ``checkpoint`` callable invoked between
statements; raising :class:`~repro.monet.errors.MILCancelled` from it
aborts the plan at statement granularity (a single long-running
operator finishes its statement first).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.monet import fragments
from repro.monet.bat import BAT
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import MILRuntimeError
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.mil import ast
from repro.monet.mil.builtins import has_builtin, invoke_builtin
from repro.monet.mil.parser import parse_program
from repro.monet.multiplex import scalar_op


@dataclass
class MILResult:
    """Outcome of running a MIL program."""

    value: Any = None
    env: Dict[str, Any] = field(default_factory=dict)
    printed: List[str] = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)
    #: Catalog epoch the plan's snapshot was pinned at (None when the
    #: pool offers no snapshots).  The write-path differential harness
    #: keys serial replays on this.
    epoch: Optional[int] = None
    #: The pinned :class:`~repro.monet.bbp.PoolSnapshot` every catalog
    #: access of this run resolved against (private to the run).
    snapshot: Any = field(default=None, repr=False, compare=False)


class MILInterpreter:
    """Evaluates MIL ASTs against a :class:`BATBufferPool`.

    ``fragment_policy`` governs how fragmented intermediates are
    re-fragmented when an operator makes them drift from the target
    size; the Moa executor threads the database's policy through here
    so Moa-compiled plans run fragment-parallel automatically.
    """

    def __init__(
        self,
        pool: Optional[BATBufferPool] = None,
        *,
        fragment_policy: Optional[FragmentationPolicy] = None,
    ):
        self.pool = pool if pool is not None else BATBufferPool()
        self.fragment_policy = fragment_policy

    # ------------------------------------------------------------------
    def run(
        self,
        source: str,
        env: Optional[Dict[str, Any]] = None,
        *,
        checkpoint: Optional[Callable[[], None]] = None,
        reader: Any = None,
    ) -> MILResult:
        """Parse and execute *source*; *env* provides initial variable
        bindings.  This is the path for MIL text run once -- the ``mil``
        wire op, hand-written pipelines.  A plan run many times is parsed
        once and handed to :meth:`run_program`, which is how the Moa
        executor runs its cached plans (query parameters bound through
        *env*)."""
        program = parse_program(source)
        return self.run_program(program, env, checkpoint=checkpoint,
                                reader=reader)

    def run_program(
        self,
        program: ast.Program,
        env: Optional[Dict[str, Any]] = None,
        *,
        checkpoint: Optional[Callable[[], None]] = None,
        reader: Any = None,
    ) -> MILResult:
        """Execute a parsed program.  *checkpoint*, when given, is
        called before every statement; it may raise
        :class:`~repro.monet.errors.MILCancelled` to abort a plan whose
        deadline passed or whose session disconnected.

        Catalog access is pinned to one epoch-stamped snapshot for the
        whole plan (``pool.read_snapshot()``): every ``bat("name")`` of
        the run resolves against the same frozen catalog, so a pipeline
        never observes a concurrent append or drop mid-plan.  Writes the
        plan itself issues (``persists``/``unpersists``) write through
        to the live pool and stay visible to the rest of the plan.

        *reader*, when given, is an already-pinned snapshot (or any
        pool-like catalog view) to resolve ``bat("name")`` against
        instead of pinning a fresh one -- this is how an open
        :class:`~repro.core.mirror.Transaction` holds one epoch across
        several MIL runs."""
        result = MILResult(env=dict(env or {}))
        if reader is None:
            reader = self.pool
            if hasattr(reader, "read_snapshot"):
                reader = reader.read_snapshot()
        result.epoch = getattr(reader, "epoch", None)
        result.snapshot = reader
        for statement in program.statements:
            if checkpoint is not None:
                checkpoint()
            if isinstance(statement, ast.Assign):
                value = self._eval(statement.expr, result)
                result.env[statement.name] = value
                result.value = value
            elif isinstance(statement, ast.ExprStatement):
                result.value = self._eval(statement.expr, result)
            else:  # pragma: no cover - parser cannot produce this
                raise MILRuntimeError(f"bad statement {statement!r}")
        if isinstance(result.value, FragmentedBAT):
            # The one coalesce of a fragmented plan: result return.
            result.value = result.value.to_bat()
        return result

    # ------------------------------------------------------------------
    def _eval(self, node, result: MILResult):
        if isinstance(node, ast.Literal):
            return node.value
        if isinstance(node, ast.Var):
            if node.name in result.env:
                return result.env[node.name]
            raise MILRuntimeError(
                f"undefined variable {node.name!r} (line {node.line})"
            )
        if isinstance(node, ast.Call):
            return self._call(node.func, [self._eval(a, result) for a in node.args],
                              result, node.line)
        if isinstance(node, ast.MethodCall):
            receiver = self._eval(node.receiver, result)
            args = [self._eval(a, result) for a in node.args]
            return self._call(node.method, [receiver, *args], result, node.line)
        if isinstance(node, ast.Multiplex):
            args = [self._eval(a, result) for a in node.args]
            result.stats[f"[{node.op}]"] += 1
            return invoke_builtin("[op]", [node.op, *args], self.fragment_policy)
        if isinstance(node, ast.Pump):
            args = [self._eval(a, result) for a in node.args]
            name = f"{{{node.agg}}}"
            result.stats[name] += 1
            return invoke_builtin(name, args, self.fragment_policy)
        if isinstance(node, ast.Infix):
            left = self._eval(node.left, result)
            right = self._eval(node.right, result)
            if isinstance(left, (BAT, FragmentedBAT)) or isinstance(
                right, (BAT, FragmentedBAT)
            ):
                raise MILRuntimeError(
                    f"infix {node.op} on BATs: use the multiplexed form "
                    f"[{node.op}] (line {node.line})"
                )
            result.stats[node.op] += 1
            return scalar_op(node.op, left, right)
        raise MILRuntimeError(f"cannot evaluate {type(node).__name__}")

    def _call(self, name: str, args: list, result: MILResult, line: int):
        result.stats[name] += 1
        special = SPECIALS.get(name)
        if special is not None:
            pool = result.snapshot if result.snapshot is not None else self.pool
            return special(self, pool, args, result)
        if has_builtin(name):
            try:
                return invoke_builtin(name, args, self.fragment_policy)
            except TypeError as exc:
                raise MILRuntimeError(f"{name}: {exc} (line {line})") from exc
        raise MILRuntimeError(f"unknown MIL operation {name!r} (line {line})")


def _bat(interpreter, pool, args, result):
    if len(args) != 1 or not isinstance(args[0], str):
        raise MILRuntimeError('bat() takes one string name')
    if pool.is_fragmented(args[0]):
        # Fold an oversized registration to the plan's policy here, at
        # name resolution (slice views, identity when in shape):
        # folding it on the first intermediate instead would misalign
        # e.g. group(bat(a)) with its sibling bat(b) and make
        # refine/pump coalesce.
        policy = interpreter.fragment_policy
        return fragments.fold_tail(pool.lookup_fragments(args[0], policy), policy)
    return pool.lookup(args[0])


def _persists(interpreter, pool, args, result):
    if len(args) != 2 or not isinstance(args[0], str):
        raise MILRuntimeError("persists(name, bat)")
    if isinstance(args[1], FragmentedBAT):
        return pool.register_fragmented(args[0], args[1], replace=True)
    return pool.register(args[0], args[1], replace=True)


def _unpersists(interpreter, pool, args, result):
    if len(args) != 1 or not isinstance(args[0], str):
        raise MILRuntimeError("unpersists(name)")
    pool.drop(args[0])
    return None


def _newoid(interpreter, pool, args, result):
    return pool.new_oids(int(args[0]) if args else 1)


def _print(interpreter, pool, args, result):
    result.printed.append(_render(args[0]) if args else "")
    return args[0] if args else None


#: The functions that need the catalog or the run's output rather than
#: an operator: handled here, outside the builtin table.  The query
#: guard imports this to know which calls are not unknown operations.
SPECIALS: Dict[str, Callable[[MILInterpreter, Any, list, MILResult], Any]] = {
    "bat": _bat,
    "persists": _persists,
    "unpersists": _unpersists,
    "newoid": _newoid,
    "print": _print,
}


def _render(value) -> str:
    """Human-readable rendering used by ``print`` (BATs shown as BUN
    lists, matching Monet's console output loosely)."""
    if isinstance(value, FragmentedBAT):
        value = value.to_bat()
    if isinstance(value, BAT):
        pairs = ", ".join(f"[{h!r},{t!r}]" for h, t in value.items())
        return f"#{len(value)}{{{pairs}}}"
    return repr(value)


def run_program(
    source: str,
    pool: Optional[BATBufferPool] = None,
    env: Optional[Dict[str, Any]] = None,
    *,
    fragment_policy: Optional[FragmentationPolicy] = None,
    checkpoint: Optional[Callable[[], None]] = None,
    reader: Any = None,
) -> MILResult:
    """One-shot convenience: run MIL *source* against *pool*."""
    return MILInterpreter(pool, fragment_policy=fragment_policy).run(
        source, env, checkpoint=checkpoint, reader=reader
    )
