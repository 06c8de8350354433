"""End-to-end Moa query execution.

``MoaExecutor`` drives the full pipeline of the Mirror DBMS's logical
layer::

    text -> plan cache -> run the MIL AST -> reconstruct nested Python values
               | miss
               v
            parse -> typecheck -> optimize -> flatten to MIL -> parse MIL

A query is flattened to MIL once per plan, not once per call: the
parameter *values* never reach the plan (they bind through the MIL
environment), so :meth:`MoaExecutor.prepare` files the finished
:class:`~repro.moa.compiler.CompiledQuery` -- its MIL text and that
text parsed -- under (query text, parameter types, execution modes,
schema generation) in a bounded cache (:data:`PLAN_CACHE_SIZE` plans,
the oldest evicted first).  A hit does no Moa parse, typecheck,
optimize, compile or MIL parse; :meth:`MoaExecutor.run_compiled` runs
the parsed program through
:meth:`~repro.monet.mil.MILInterpreter.run_program`.  Only text queries
are cached: an ``ast.Expr`` query is compiled every time, because the
typechecker annotates the node it is given.  Every schema change goes
through :meth:`MoaExecutor.define`, which bumps the generation, so no
plan compiled against an older schema is served after it.

Reconstruction is the result rep's :meth:`~repro.moa.compiler.ResultRep.rebuild`
over the plan's leaf columns.  Run with ``materialize=False``, a
collection result stays a :class:`ResultColumns` (rep, cardinality,
leaf BATs): the query service ships that as column frames and the
client rebuilds with the same method.

Parameters are bound by Python value: a ``list[str]`` binds a
``SET<Atomic<str>>`` (the paper's ``query``), a
:class:`repro.ir.stats.CollectionStats` binds ``stats``.  Execution
modes select the benchmark configurations:

* ``optimize=True, eager_columns=False`` -- the real system;
* ``optimize=False, eager_columns=True`` -- the unoptimized plan
  (bench E5);
* :meth:`MoaExecutor.execute_interpreted` -- the tuple-at-a-time
  reference baseline (bench E4).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.ir.stats import CollectionStats
from repro.moa import ast
from repro.moa.compiler import (
    AtomCol,
    CompiledCollection,
    CompiledQuery,
    CompiledScalar,
    Compiler,
    ConstCol,
    ContrepLazy,
    LazyCol,
    LazyNestedSet,
    NestedSet,
    Rep,
    ResultRep,
    TupleCols,
    rep_leaves,
)
from repro.moa.errors import MoaRuntimeError, MoaTypeError
from repro.moa.interpreter import Interpreter
from repro.moa.mapping import (
    append_collection,
    delete_collection,
    fragmentation,
    update_collection,
)
from repro.moa.optimizer import optimize as optimize_ast
from repro.moa.parser import parse_query
from repro.moa.typecheck import typecheck
from repro.moa.types import AtomicType, MoaType, SetType, StatsType
from repro.monet.bat import BAT, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.mil import MILInterpreter, parse_program

#: Plans one executor keeps (:meth:`MoaExecutor.prepare`); filing one
#: more evicts the oldest.
PLAN_CACHE_SIZE = 128


@dataclass
class ResultColumns:
    """A collection result before reconstruction: its element rep, its
    cardinality and the BAT bound to each leaf variable of the rep."""

    rep: ResultRep
    count: int
    leaves: Dict[str, BAT]

    def rebuild(self) -> List[Any]:
        """The result's Python value, one element per position."""
        return self.rep.rebuild(lambda var: self.leaves[var].tail_list(), self.count)


@dataclass
class QueryResult:
    """Outcome of an executed Moa query.  ``value`` is the result's
    Python value -- or, run with ``materialize=False``, a collection
    result's :class:`ResultColumns`."""

    value: Any
    plan: str
    operator_counts: Dict[str, int] = field(default_factory=dict)
    compiled: Optional[CompiledQuery] = None
    #: Catalog epoch the plan's snapshot was pinned at (the
    #: transaction's epoch when run through one).
    epoch: Optional[int] = None


def infer_param_type(value: Any) -> MoaType:
    """Moa type of a Python parameter value."""
    if isinstance(value, CollectionStats):
        return StatsType()
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, str) for v in value):
            return SetType(AtomicType("str"))
        if all(isinstance(v, bool) for v in value):
            return SetType(AtomicType("bit"))
        if all(isinstance(v, int) for v in value):
            return SetType(AtomicType("int"))
        if all(isinstance(v, (int, float)) for v in value):
            return SetType(AtomicType("float"))
        raise MoaTypeError("parameter collections must be homogeneous atoms")
    raise MoaTypeError(
        f"cannot infer a Moa type for parameter of type {type(value).__name__}"
    )


class MoaExecutor:
    """Executes Moa queries against a BAT buffer pool.

    ``fragment_threshold`` is the executor's physical-layout knob: when
    set, every write through this executor (:meth:`append`,
    :meth:`delete`, :meth:`update`) promotes attribute BATs it grows to
    at least that many BUNs to horizontal fragments
    (:mod:`repro.monet.fragments`).  The MIL interpreter
    executes fragment-aware: plans over fragmented attributes run their
    hot operators fragment-parallel end-to-end (``fragment_policy`` is
    threaded through to govern intermediate re-fragmentation), and only
    the final result reconstruction materializes.  The policy holds the
    fragment size only; all plans share the one thread pool of
    :mod:`repro.monet.fragments`.

    One executor is safe to share across threads: compilation
    snapshots the schema dict, each run builds its own environment, and
    the MIL interpreter instance carries no per-run state.  A cached
    plan is shared read-only by every run that hits it; only
    :meth:`prepare` files one (under a lock, so concurrent misses of
    one key compile twice and keep one).  The only caveat is the write
    path -- :meth:`define` and the three write methods (and the
    MirrorDBMS facade above them) must be externally serialized, which
    :class:`repro.core.mirror.MirrorDBMS` does with its own lock.
    """

    def __init__(
        self,
        pool: BATBufferPool,
        schema: Dict[str, MoaType],
        *,
        fragment_threshold: Optional[int] = None,
        fragment_policy: Optional[FragmentationPolicy] = None,
    ):
        self.pool = pool
        self.schema = schema
        self.fragment_threshold = fragment_threshold
        self.fragment_policy = fragment_policy
        self.mil = MILInterpreter(pool, fragment_policy=fragment_policy)
        #: Bumped by every :meth:`define`; part of every plan's key.
        self.schema_generation = 0
        self._plans: Dict[Tuple[Any, ...], CompiledQuery] = {}
        self._plans_lock = threading.Lock()

    def define(self, types: Dict[str, MoaType]) -> None:
        """The one writer of the schema: add or retype the collections
        in *types* and bump :attr:`schema_generation`, retiring every
        cached plan.  The dict is updated before the bump, so a plan
        filed under the new generation was compiled against it.  Calls
        must be externally serialized."""
        self.schema.update(types)
        self.schema_generation += 1

    def append(self, name: str, ty: MoaType, values: List[Any]) -> int:
        """Append tuples to a created collection in O(batch) through the
        pool's copy-on-write delta path
        (:func:`repro.moa.mapping.append_collection`); returns the new
        cardinality."""
        return self._write(append_collection, name, ty, values)

    def delete(self, name: str, ty: MoaType, positions: List[int]) -> int:
        """Delete the tuples at extent *positions* through the pool's
        tombstone-delta path (:func:`repro.moa.mapping.delete_collection`);
        returns the new cardinality."""
        return self._write(delete_collection, name, ty, positions)

    def update(
        self, name: str, ty: MoaType, positions: List[int], values: List[Any]
    ) -> int:
        """Patch the tuples at extent *positions* through the pool's
        patch-delta path (:func:`repro.moa.mapping.update_collection`);
        returns the cardinality."""
        return self._write(update_collection, name, ty, positions, values)

    def _write(self, mutation: Callable[..., Any], *args: Any) -> Any:
        """Run one write-path mapping call on the pool under this
        executor's fragmentation threshold -- one layout rule for
        append, delete and update (an update appends children and
        postings, which may cross the threshold too).  Calls must be
        externally serialized."""
        with fragmentation(self.fragment_threshold, self.fragment_policy):
            return mutation(self.pool, *args)

    # ------------------------------------------------------------------
    def prepare(
        self,
        query: Union[str, ast.Expr],
        params: Optional[Dict[str, Any]] = None,
        *,
        optimize: bool = True,
        eager_columns: bool = False,
        cse: bool = True,
    ) -> CompiledQuery:
        """The plan of *query* for parameters of *params*' types: the
        cached one when this text was prepared for the same types and
        modes since the last :meth:`define`, otherwise a fresh
        parse/typecheck/optimize/compile whose MIL text is parsed once
        and (for a text query) filed in the cache."""
        param_types = {
            name: infer_param_type(v) for name, v in (params or {}).items()
        }
        key = None
        if isinstance(query, str):
            # The generation is read before the schema is snapshot: a
            # plan compiled across a concurrent `define` is filed under
            # the old generation and never served after it.
            key = (
                query,
                tuple((name, ty.render()) for name, ty in param_types.items()),
                optimize,
                eager_columns,
                cse,
                self.schema_generation,
            )
            compiled = self._plans.get(key)
            if compiled is not None:
                return compiled
        node = parse_query(query) if isinstance(query, str) else query
        # Snapshot the schema: the service layer shares one executor
        # across sessions, and a concurrent `define` mutating the dict
        # mid-typecheck must not corrupt this compilation.
        schema = dict(self.schema)
        typed = typecheck(node, schema, param_types)
        if optimize:
            typed = optimize_ast(typed)
            typed = typecheck(typed, schema, param_types)
        compiler = Compiler(
            schema, param_types, eager_columns=eager_columns, cse=cse
        )
        compiled = compiler.compile_query(typed)
        _finalize(compiler, compiled)
        compiled.program = compiler.program()
        compiled.program_ast = parse_program(compiled.program)
        if key is not None:
            with self._plans_lock:
                while len(self._plans) >= PLAN_CACHE_SIZE:
                    del self._plans[next(iter(self._plans))]
                self._plans[key] = compiled
        return compiled

    def execute(
        self,
        query: Union[str, ast.Expr],
        params: Optional[Dict[str, Any]] = None,
        *,
        optimize: bool = True,
        eager_columns: bool = False,
        cse: bool = True,
        checkpoint: Optional[Callable[[], None]] = None,
        reader: Any = None,
        materialize: bool = True,
    ) -> QueryResult:
        """Full pipeline: compile, run the MIL plan, reconstruct.

        *checkpoint* is the per-query cancellation/deadline hook passed
        through to the MIL interpreter loop (see
        :meth:`repro.monet.mil.MILInterpreter.run_program`); *reader*
        is an already-pinned catalog snapshot for transaction-scoped
        reads (one epoch across several statements).  With
        *materialize* false a collection result is left as its
        :class:`ResultColumns`."""
        params = params or {}
        compiled = self.prepare(
            query,
            params,
            optimize=optimize,
            eager_columns=eager_columns,
            cse=cse,
        )
        return self.run_compiled(
            compiled, params, checkpoint=checkpoint, reader=reader,
            materialize=materialize,
        )

    def run_compiled(
        self,
        compiled: CompiledQuery,
        params: Optional[Dict[str, Any]] = None,
        *,
        checkpoint: Optional[Callable[[], None]] = None,
        reader: Any = None,
        materialize: bool = True,
    ) -> QueryResult:
        """Run a plan from :meth:`prepare`: its parsed MIL program, so
        no run parses MIL text."""
        env = self._bind(params or {})
        result = self.mil.run_program(
            compiled.program_ast, env, checkpoint=checkpoint, reader=reader
        )
        value = _result_value(compiled.result, result.env)
        if materialize and isinstance(value, ResultColumns):
            value = value.rebuild()
        return QueryResult(
            value=value,
            plan=compiled.program,
            operator_counts=dict(result.stats),
            compiled=compiled,
            epoch=result.epoch,
        )

    def execute_interpreted(
        self,
        query: Union[str, ast.Expr],
        data: Dict[str, List[Any]],
        params: Optional[Dict[str, Any]] = None,
        *,
        optimize: bool = False,
    ) -> Any:
        """Reference tuple-at-a-time evaluation over Python *data*
        (the [BWK98] baseline; no BATs involved)."""
        params = params or {}
        param_types = {name: infer_param_type(v) for name, v in params.items()}
        node = parse_query(query) if isinstance(query, str) else query
        schema = dict(self.schema)
        typed = typecheck(node, schema, param_types)
        if optimize:
            typed = optimize_ast(typed)
            typed = typecheck(typed, schema, param_types)
        return Interpreter(data, params).run(typed)

    # ------------------------------------------------------------------
    def _bind(self, params: Dict[str, Any]) -> Dict[str, Any]:
        env: Dict[str, Any] = {}
        for name, value in params.items():
            if isinstance(value, CollectionStats):
                env.update(value.mil_bindings(name))
            elif isinstance(value, (list, tuple)):
                atom = infer_param_type(value).element.atom  # type: ignore[union-attr]
                env[name] = dense_bat(atom, list(value))
            else:
                raise MoaTypeError(
                    f"cannot bind parameter {name!r} of type "
                    f"{type(value).__name__}"
                )
        return env


# ----------------------------------------------------------------------
# Result finalization and reconstruction
# ----------------------------------------------------------------------


def _finalize(compiler: Compiler, compiled: CompiledQuery) -> None:
    """Force every lazy/const rep in the result so the executor only
    meets materialized variables."""
    result = compiled.result
    if isinstance(result, CompiledScalar):
        return
    result.elem = _finalize_rep(compiler, result.elem, result.spine, result)


def _finalize_rep(
    compiler: Compiler, rep: Rep, head_source: str, cc: CompiledCollection
) -> Rep:
    if isinstance(rep, AtomCol):
        return rep
    if isinstance(rep, LazyCol):
        var = compiler.emit(f'{rep.gather}.join(bat("{rep.bat_name}"))', "c")
        return AtomCol(var, rep.atom)
    if isinstance(rep, ConstCol):
        from repro.moa.compiler import _literal_mil

        var = compiler.emit(
            f'const({head_source}, "{rep.atom}", {_literal_mil(rep.value, rep.atom)})',
            "c",
        )
        return AtomCol(var, rep.atom)
    if isinstance(rep, TupleCols):
        return TupleCols(
            {
                name: _finalize_rep(compiler, r, head_source, cc)
                for name, r in rep.fields.items()
            }
        )
    if isinstance(rep, LazyNestedSet):
        forced = compiler.force_nested(rep, cc)
        return _finalize_rep(compiler, forced, head_source, cc)
    if isinstance(rep, NestedSet):
        elem = _finalize_rep(compiler, rep.elem, rep.parent, cc)
        return NestedSet(parent=rep.parent, elem=elem)
    if isinstance(rep, ContrepLazy):
        return compiler.force_contrep(rep, cc)
    # Extension reps may provide their own materialization hook; the
    # result must again be finalizable (AtomCols/TupleCols or another
    # ResultRep).
    finalize_hook = getattr(rep, "finalize_rep", None)
    if finalize_hook is not None:
        return _finalize_rep(compiler, finalize_hook(compiler), head_source, cc)
    if isinstance(rep, ResultRep):
        return rep
    raise MoaRuntimeError(f"cannot finalize rep {type(rep).__name__}")


def _result_value(
    result: Union[CompiledCollection, CompiledScalar], env: Dict[str, Any]
) -> Any:
    """A scalar result's value, or a collection result's columns (a
    fragmented leaf coalesced once, here)."""
    if isinstance(result, CompiledScalar):
        return env[result.var]
    leaves = {}
    for var in rep_leaves(result.elem):
        bat = env[var]
        leaves[var] = bat.to_bat() if isinstance(bat, FragmentedBAT) else bat
    return ResultColumns(result.elem, len(env[result.spine]), leaves)
