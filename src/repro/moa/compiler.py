"""The flattening compiler: Moa logical algebra -> MIL over BATs.

This is the reproduction of [BWK98] ("Flattening an object algebra to
provide performance"): every Moa expression is translated to a
straight-line MIL program in which each step is a whole-column BAT
operation -- the set-at-a-time execution the Mirror paper builds on.

Compile-time value representations
----------------------------------

A compiled collection is position-aligned: positions are dense
``0..n-1`` and every column representation is (or can be forced into) a
BAT ``[void position, value]``.  The *spine* maps positions back to the
base-collection oids (identity right after a collection scan, a gather
map after selections/joins); it doubles as the gather vector for lazily
loaded columns, which is how dead-column elimination falls out of the
design: a column that is never forced is never loaded.

===============  ======================================================
``AtomCol``      materialized column [void pos, value]
``ConstCol``     compile-time constant (broadcast on demand)
``LazyCol``      unloaded base column + the gather var to load through
``TupleCols``    named field reps
``NestedSet``    pairs table: parent [void pair, parent-pos] + element
``ContrepLazy``  unforced CONTREP attribute (base BAT prefix + gather)
``ContrepCols``  forced CONTREP postings restricted to current spine
===============  ======================================================

The materialized reps a result is rebuilt from (``AtomCol``,
``TupleCols``, ``NestedSet``, ``ContrepCols`` and any extension rep)
are :class:`ResultRep` subclasses: each names its leaf columns and
rebuilds Python values from their decoded values, in process and in a
service client alike.

Extension functions (``getBL``) register compile hooks via
:func:`repro.moa.functions.register_compile_hook`; the hook receives
the compiler and emits MIL like any kernel operation -- the "new
probabilistic operators at the physical level" of section 3.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.moa import ast
from repro.moa.errors import MoaCompileError, MoaRuntimeError
from repro.moa.functions import function_spec
from repro.moa.mapping import EXTENT_SUFFIX, NEST_SUFFIX, VALUE_SUFFIX
from repro.moa.types import AtomicType, ListType, MoaType, SetType, TupleType, is_collection
from repro.monet.mil import ast as mil_ast
from repro.monet.multiplex import scalar_op

# ----------------------------------------------------------------------
# Compile-time representations
# ----------------------------------------------------------------------


#: class name -> materialized rep class (every :class:`ResultRep`).
_RESULT_REPS: Dict[str, type] = {}

#: Leaf column lookup handed to :meth:`ResultRep.rebuild`: a leaf
#: variable -> its tail values in position order (NIL as ``None``).
ColumnLookup = Callable[[str], List[Any]]


class ResultRep:
    """A materialized rep a result value is rebuilt from.

    ``LEAVES`` names the dataclass fields holding the MIL variables of
    its leaf columns (each bound to a BAT [void pos, value]); any other
    field is plain data (an atom name), a nested rep, or a dict of
    reps.  :meth:`rebuild` turns the leaf columns' values into one
    Python value per position and never sees a BAT, so the same code
    rebuilds a result in process (from the plan's environment) and in
    a service client (from decoded wire columns, the rep shipped as
    :func:`rep_shape`).  Subclasses register under their class name;
    an extension structure's rep subclasses this too
    (``examples/extending_moa.py``)."""

    LEAVES: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _RESULT_REPS[cls.__name__] = cls

    def rebuild(self, column: ColumnLookup, count: int) -> List[Any]:
        raise NotImplementedError


def rep_leaves(rep: ResultRep) -> List[str]:
    """The leaf variables of *rep* and its nested reps, depth first,
    each once."""
    leaves: Dict[str, None] = {}

    def walk(node: ResultRep) -> None:
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if f.name in node.LEAVES:
                leaves[value] = None
                continue
            for child in value.values() if isinstance(value, dict) else (value,):
                if isinstance(child, ResultRep):
                    walk(child)

    walk(rep)
    return list(leaves)


def rep_shape(value: Any) -> Any:
    """A rep as JSON: ``[class name, {field: shape}]``, a dict of reps
    as a dict of shapes; leaf variables and atom names stay strings."""
    if isinstance(value, ResultRep):
        return [
            type(value).__name__,
            {f.name: rep_shape(getattr(value, f.name)) for f in dataclasses.fields(value)},
        ]
    if isinstance(value, dict):
        return {k: rep_shape(v) for k, v in value.items()}
    return value


def rep_from_shape(shape: Any) -> Any:
    """Inverse of :func:`rep_shape`.  An unregistered class name is a
    ``KeyError``, a malformed shape a ``TypeError``/``ValueError``."""
    if isinstance(shape, dict):
        return {k: rep_from_shape(v) for k, v in shape.items()}
    if not isinstance(shape, list):
        return shape
    kind, fields = shape
    rep_class = _RESULT_REPS.get(kind)
    if rep_class is None:
        raise KeyError(f"no result rep {kind!r}; import the module defining it")
    return rep_class(**{k: rep_from_shape(v) for k, v in fields.items()})


def _checked(values: List[Any], var: str, count: int) -> List[Any]:
    if len(values) != count:
        raise MoaRuntimeError(
            f"column {var} has {len(values)} values, expected {count}"
        )
    return values


@dataclass
class AtomCol(ResultRep):
    var: str
    atom: str

    LEAVES = ("var",)

    def rebuild(self, column: ColumnLookup, count: int) -> List[Any]:
        return _checked(column(self.var), self.var, count)


@dataclass
class ConstCol:
    value: Any
    atom: str


@dataclass
class LazyCol:
    bat_name: str
    atom: str
    gather: str  # var: BAT [void pos, base-oid]


@dataclass
class TupleCols(ResultRep):
    fields: Dict[str, "Rep"]

    def rebuild(self, column: ColumnLookup, count: int) -> List[Any]:
        columns = {
            name: rep.rebuild(column, count) for name, rep in self.fields.items()
        }
        return [{name: columns[name][i] for name in columns} for i in range(count)]


@dataclass
class NestedSet(ResultRep):
    parent: str  # var: BAT [void pair-pos, parent-pos]
    elem: "Rep"  # aligned to pair positions

    LEAVES = ("parent",)

    def rebuild(self, column: ColumnLookup, count: int) -> List[Any]:
        parents = column(self.parent)
        inner = self.elem.rebuild(column, len(parents))
        out: List[List[Any]] = [[] for _ in range(count)]
        for parent, value in zip(parents, inner):
            out[parent].append(value)
        return out


@dataclass
class LazyNestedSet:
    prefix: str  # base BAT prefix (collection.attr)
    elem_ty: MoaType
    gather: str
    ordered: bool = False


@dataclass
class ContrepLazy:
    prefix: str
    gather: str


@dataclass
class ContrepCols(ResultRep):
    owner: str  # [void p, parent-pos]
    term: str  # [void p, str]
    tf: str  # [void p, int]
    doclen: str  # [void pos, int] aligned to current positions

    LEAVES = ("owner", "term", "tf", "doclen")

    def rebuild(self, column: ColumnLookup, count: int) -> List[Any]:
        from repro.moa.structures.contrep import contrep_values

        doclens = _checked(column(self.doclen), self.doclen, count)
        return contrep_values(
            column(self.owner), column(self.term), column(self.tf), doclens
        )


Rep = Union[
    AtomCol, ConstCol, LazyCol, TupleCols, NestedSet, LazyNestedSet,
    ContrepLazy, ContrepCols,
]


@dataclass
class CompiledCollection:
    spine: str  # var: BAT [void pos, base-oid]; the gather vector
    elem: Rep
    ty: MoaType


@dataclass
class CompiledScalar:
    var: str
    atom: str


@dataclass
class CompiledQuery:
    """A finished plan: MIL text plus the shape needed to pull results.
    ``program_ast`` is that text parsed, set once by
    :meth:`repro.moa.executor.MoaExecutor.prepare`; runs execute it."""

    program: str
    result: Union[CompiledCollection, CompiledScalar]
    params: Dict[str, MoaType]
    statements: int = 0
    program_ast: Optional[mil_ast.Program] = None


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------


class Compiler:
    """Compiles one typed query AST into a MIL program.

    Parameters
    ----------
    schema:
        collection name -> MoaType (for BAT naming).
    params:
        parameter name -> MoaType (runtime-bound; see executor).
    eager_columns:
        load *every* attribute column at collection scans (disables
        dead-column elimination; the "unoptimized" mode of bench E5).
    cse:
        emit-level common-subexpression elimination: identical
        right-hand sides reuse the existing variable.
    """

    def __init__(
        self,
        schema: Dict[str, MoaType],
        params: Optional[Dict[str, MoaType]] = None,
        *,
        eager_columns: bool = False,
        cse: bool = True,
    ):
        self.schema = schema
        self.params = params or {}
        self.eager_columns = eager_columns
        self.cse = cse
        self.lines: List[str] = []
        self._counter = 0
        self._rhs_cache: Dict[str, str] = {}
        self._context: List[CompiledCollection] = []

    # -- emission helpers ------------------------------------------------
    def fresh(self, prefix: str = "t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def emit_raw(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, rhs: str, prefix: str = "t") -> str:
        """Assign *rhs* to a fresh variable; with CSE enabled, identical
        right-hand sides share one variable."""
        if self.cse and rhs in self._rhs_cache:
            return self._rhs_cache[rhs]
        var = self.fresh(prefix)
        self.lines.append(f"{var} := {rhs};")
        if self.cse:
            self._rhs_cache[rhs] = var
        return var

    def program(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    # -- entry point -------------------------------------------------------
    def compile_query(self, node: ast.Expr) -> CompiledQuery:
        result = self.compile_top(node)
        return CompiledQuery(
            program=self.program(),
            result=result,
            params=dict(self.params),
            statements=len(self.lines),
        )

    def compile_top(self, node: ast.Expr) -> Union[CompiledCollection, CompiledScalar]:
        if is_collection(node.ty) if node.ty else False:
            return self.compile_collection(node)
        # Scalar top level: aggregates over a whole collection.
        rep = self._compile_scalar_top(node)
        return rep

    # -- collections -------------------------------------------------------
    def compile_collection(self, node: ast.Expr) -> CompiledCollection:
        if isinstance(node, ast.CollectionRef):
            return self._scan(node)
        if isinstance(node, ast.VarRef):
            return self._param_collection(node)
        if isinstance(node, ast.Map):
            return self._map(node)
        if isinstance(node, ast.Select):
            return self._select(node)
        if isinstance(node, ast.Join):
            return self._join(node)
        if isinstance(node, ast.Semijoin):
            return self._semijoin(node)
        if isinstance(node, ast.Unnest):
            return self._unnest(node)
        if isinstance(node, ast.Nest):
            return self._nest(node)
        raise MoaCompileError(
            f"cannot compile {type(node).__name__} as a collection"
        )

    def _scan(self, node: ast.CollectionRef) -> CompiledCollection:
        name = node.name
        spine = self.emit(f'bat("{name}.{EXTENT_SUFFIX}")', "spine")
        elem_ty = node.ty.element  # type: ignore[union-attr]
        elem = self._rep_for_type(name, elem_ty, spine)
        cc = CompiledCollection(spine=spine, elem=elem, ty=node.ty)
        if self.eager_columns:
            cc = CompiledCollection(
                spine=spine, elem=self._force_deep(cc.elem, spine), ty=node.ty
            )
        return cc

    def _rep_for_type(self, prefix: str, ty: MoaType, gather: str) -> Rep:
        if isinstance(ty, AtomicType):
            return LazyCol(f"{prefix}.{VALUE_SUFFIX}", ty.atom, gather)
        if isinstance(ty, TupleType):
            return TupleCols(
                {
                    fname: self._attr_rep(f"{prefix}.{fname}", fty, gather)
                    for fname, fty in ty.fields
                }
            )
        raise MoaCompileError(f"unsupported element type {ty.render()}")

    def _attr_rep(self, prefix: str, ty: MoaType, gather: str) -> Rep:
        if isinstance(ty, AtomicType):
            return LazyCol(prefix, ty.atom, gather)
        if isinstance(ty, (SetType, ListType)):
            return LazyNestedSet(
                prefix, ty.element, gather, ordered=isinstance(ty, ListType)
            )
        # Extension structures provide their own attribute reps through
        # the compile-rep registry.
        hook = _ATTR_REP_HOOKS.get(type(ty).__name__)
        if hook is not None:
            return hook(self, prefix, ty, gather)
        raise MoaCompileError(f"no physical rep for attribute type {ty.render()}")

    def _param_collection(self, node: ast.VarRef) -> CompiledCollection:
        ty = node.ty
        if not is_collection(ty) or not isinstance(ty.element, AtomicType):  # type: ignore[union-attr]
            raise MoaCompileError(
                f"parameter {node.name!r} of type {ty.render()} cannot be "
                "used as a collection"
            )
        spine = self.emit(f"{node.name}.mark(oid(0))", "spine")
        return CompiledCollection(
            spine=spine,
            elem=AtomCol(node.name, ty.element.atom),  # type: ignore[union-attr]
            ty=ty,
        )

    # -- map -----------------------------------------------------------------
    def _map(self, node: ast.Map) -> CompiledCollection:
        cc = self.compile_collection(node.over)
        self._context.append(cc)
        try:
            rep = self.compile_elem(node.body, cc)
        finally:
            self._context.pop()
        return CompiledCollection(spine=cc.spine, elem=rep, ty=node.ty)

    # -- select ----------------------------------------------------------------
    def _select(self, node: ast.Select) -> CompiledCollection:
        cc = self.compile_collection(node.over)
        self._context.append(cc)
        try:
            pred = self.force_atom(self.compile_elem(node.pred, cc), cc)
        finally:
            self._context.pop()
        keep = self._keep_from_predicate(pred.var)
        return self._filter_collection(cc, keep, node.ty)

    def _keep_from_predicate(self, pred_var: str) -> str:
        sel = self.emit(f"{pred_var}.uselect(true)", "sel")
        return self.emit(f"{sel}.mirror.mark(oid(0)).reverse", "keep")

    def _filter_collection(
        self, cc: CompiledCollection, keep: str, ty: MoaType
    ) -> CompiledCollection:
        spine = self.emit(f"{keep}.join({cc.spine})", "spine")
        memo: Dict[str, str] = {cc.spine: spine}
        elem = self._refilter(cc.elem, keep, memo)
        return CompiledCollection(spine=spine, elem=elem, ty=ty)

    def _refilter(self, rep: Rep, keep: str, memo: Dict[str, str]) -> Rep:
        if isinstance(rep, AtomCol):
            return AtomCol(self.emit(f"{keep}.join({rep.var})"), rep.atom)
        if isinstance(rep, ConstCol):
            return rep
        if isinstance(rep, LazyCol):
            return LazyCol(rep.bat_name, rep.atom, self._regather(rep.gather, keep, memo))
        if isinstance(rep, LazyNestedSet):
            return LazyNestedSet(
                rep.prefix,
                rep.elem_ty,
                self._regather(rep.gather, keep, memo),
                ordered=rep.ordered,
            )
        if isinstance(rep, ContrepLazy):
            return ContrepLazy(rep.prefix, self._regather(rep.gather, keep, memo))
        if isinstance(rep, TupleCols):
            return TupleCols(
                {name: self._refilter(r, keep, memo) for name, r in rep.fields.items()}
            )
        if isinstance(rep, NestedSet):
            keep_inv = self.emit(f"{keep}.reverse", "kinv")
            pairs2 = self.emit(f"{rep.parent}.join({keep_inv})", "pairs")
            parent = self.emit(f"{pairs2}.number(oid(0))", "par")
            gather = self.emit(f"{pairs2}.mirror.mark(oid(0)).reverse", "pg")
            elem = self._regather_elem(rep.elem, gather)
            return NestedSet(parent=parent, elem=elem)
        if isinstance(rep, ContrepCols):
            keep_inv = self.emit(f"{keep}.reverse", "kinv")
            own2 = self.emit(f"{rep.owner}.join({keep_inv})", "own")
            owner = self.emit(f"{own2}.number(oid(0))", "own")
            gather = self.emit(f"{own2}.mirror.mark(oid(0)).reverse", "pg")
            term = self.emit(f"{gather}.join({rep.term})", "term")
            tf = self.emit(f"{gather}.join({rep.tf})", "tf")
            doclen = self.emit(f"{keep}.join({rep.doclen})", "dl")
            return ContrepCols(owner=owner, term=term, tf=tf, doclen=doclen)
        # Extension reps: any dataclass carrying a `gather` var rebinds
        # generically -- third-party structures (see
        # examples/extending_moa.py) get select/join support for free.
        if hasattr(rep, "gather"):
            import dataclasses

            return dataclasses.replace(
                rep, gather=self._regather(rep.gather, keep, memo)
            )
        raise MoaCompileError(f"cannot filter rep {type(rep).__name__}")

    def _regather(self, gather: str, keep: str, memo: Dict[str, str]) -> str:
        if gather not in memo:
            memo[gather] = self.emit(f"{keep}.join({gather})", "g")
        return memo[gather]

    def _regather_elem(self, rep: Rep, gather: str) -> Rep:
        """Gather a materialized nested element rep through [new, old]."""
        if isinstance(rep, AtomCol):
            return AtomCol(self.emit(f"{gather}.join({rep.var})"), rep.atom)
        if isinstance(rep, ConstCol):
            return rep
        if isinstance(rep, TupleCols):
            return TupleCols(
                {n: self._regather_elem(r, gather) for n, r in rep.fields.items()}
            )
        raise MoaCompileError(
            f"nested rep {type(rep).__name__} too deep to refilter"
        )

    # -- join / semijoin ----------------------------------------------------
    def _join(self, node: ast.Join) -> CompiledCollection:
        left = self.compile_collection(node.left)
        right = self.compile_collection(node.right)
        eq, residual = _split_equality(node.pred)
        lkey = self.force_atom(self._compile_join_side(eq[0], left, right), left)
        rkey = self.force_atom(self._compile_join_side(eq[1], left, right), right)
        matches = self.emit(f"{lkey.var}.join({rkey.var}.reverse)", "m")
        lidx = self.emit(f"{matches}.reverse.number(oid(0))", "li")
        ridx = self.emit(f"{matches}.number(oid(0))", "ri")
        spine = self.emit(f"{lidx}.join({left.spine})", "spine")
        memo_left: Dict[str, str] = {left.spine: spine}
        memo_right: Dict[str, str] = {}
        left_elem = self._refilter(left.elem, lidx, memo_left)
        right_elem = self._refilter(right.elem, ridx, memo_right)
        merged = TupleCols(
            {**_fields_of(left_elem), **_fields_of(right_elem)}
        )
        cc = CompiledCollection(spine=spine, elem=merged, ty=node.ty)
        if residual is not None:
            # The merged tuple carries both sides' fields, so the
            # residual conjuncts can drop their side markers.
            residual = _rewrite_this(residual)
            self._context.append(cc)
            try:
                pred = self.force_atom(self.compile_elem(residual, cc), cc)
            finally:
                self._context.pop()
            keep = self._keep_from_predicate(pred.var)
            cc = self._filter_collection(cc, keep, node.ty)
        return cc

    def _semijoin(self, node: ast.Semijoin) -> CompiledCollection:
        left = self.compile_collection(node.left)
        right = self.compile_collection(node.right)
        eq, residual = _split_equality(node.pred)
        if residual is not None:
            raise MoaCompileError(
                "semijoin supports a single equality predicate"
            )
        lkey = self.force_atom(self._compile_join_side(eq[0], left, right), left)
        rkey = self.force_atom(self._compile_join_side(eq[1], left, right), right)
        matches = self.emit(f"{lkey.var}.join({rkey.var}.reverse)", "m")
        uniq = self.emit(f"{matches}.mirror.kunique", "u")
        keep = self.emit(f"{uniq}.mark(oid(0)).reverse", "keep")
        return self._filter_collection(left, keep, node.ty)

    def _compile_join_side(
        self, expr: ast.Expr, left: CompiledCollection, right: CompiledCollection
    ) -> Rep:
        index = _this_index(expr)
        cc = left if index == 1 else right
        rewritten = _rewrite_this(expr)
        self._context.append(cc)
        try:
            return self.compile_elem(rewritten, cc)
        finally:
            self._context.pop()

    # -- unnest / nest ----------------------------------------------------------
    def _unnest(self, node: ast.Unnest) -> CompiledCollection:
        cc = self.compile_collection(node.over)
        elem = cc.elem
        if not isinstance(elem, TupleCols):
            raise MoaCompileError("unnest needs tuple elements")
        nested = self.force_nested(elem.fields[node.attr], cc)
        parent = nested.parent
        spine = self.emit(f"{parent}.join({cc.spine})", "spine")
        fields: Dict[str, Rep] = {}
        for name, rep in elem.fields.items():
            if name == node.attr:
                continue
            fields[name] = self._gather_through(rep, parent)
        child = nested.elem
        if isinstance(child, TupleCols):
            fields.update(child.fields)
        else:
            fields[node.attr] = child
        return CompiledCollection(spine=spine, elem=TupleCols(fields), ty=node.ty)

    def _gather_through(self, rep: Rep, parent: str) -> Rep:
        """Carry a parent-aligned rep down to pair positions via
        ``parent`` = [void pair, parent-pos]."""
        if isinstance(rep, AtomCol):
            return AtomCol(self.emit(f"{parent}.join({rep.var})"), rep.atom)
        if isinstance(rep, ConstCol):
            return rep
        if isinstance(rep, LazyCol):
            return LazyCol(
                rep.bat_name, rep.atom, self.emit(f"{parent}.join({rep.gather})", "g")
            )
        if isinstance(rep, LazyNestedSet):
            return LazyNestedSet(
                rep.prefix,
                rep.elem_ty,
                self.emit(f"{parent}.join({rep.gather})", "g"),
                ordered=rep.ordered,
            )
        if isinstance(rep, ContrepLazy):
            return ContrepLazy(
                rep.prefix, self.emit(f"{parent}.join({rep.gather})", "g")
            )
        if isinstance(rep, TupleCols):
            return TupleCols(
                {n: self._gather_through(r, parent) for n, r in rep.fields.items()}
            )
        if hasattr(rep, "gather"):
            import dataclasses

            return dataclasses.replace(
                rep, gather=self.emit(f"{parent}.join({rep.gather})", "g")
            )
        raise MoaCompileError(
            f"cannot carry {type(rep).__name__} through unnest"
        )

    def _nest(self, node: ast.Nest) -> CompiledCollection:
        cc = self.compile_collection(node.over)
        elem = cc.elem
        if not isinstance(elem, TupleCols):
            raise MoaCompileError("nest needs tuple elements")
        key = self.force_atom(elem.fields[node.key], cc)
        grouping = self.emit(f"group({key.var})", "grp")
        reps = self.emit(f"group_representatives({grouping}, {key.var})", "rep")
        spine = self.emit(f"{reps}.mark(oid(0))", "spine")
        rest = TupleCols(
            {
                name: self._force_deep(rep, cc.spine)
                for name, rep in elem.fields.items()
                if name != node.key
            }
        )
        group_rep = NestedSet(parent=grouping, elem=rest)
        fields: Dict[str, Rep] = {node.key: AtomCol(reps, key.atom), "group": group_rep}
        return CompiledCollection(spine=spine, elem=TupleCols(fields), ty=node.ty)

    # -- element-level compilation ----------------------------------------------
    def compile_elem(self, node: ast.Expr, cc: CompiledCollection) -> Rep:
        if isinstance(node, ast.This):
            if node.index != 0:
                raise MoaCompileError("THIS1/THIS2 outside a join predicate")
            return cc.elem
        if isinstance(node, ast.AttrAccess):
            base = self.compile_elem(node.base, cc)
            if not isinstance(base, TupleCols):
                raise MoaCompileError(
                    f".{node.attr} applied to non-tuple rep"
                )
            return base.fields[node.attr]
        if isinstance(node, ast.Literal):
            return ConstCol(node.value, node.atom)
        if isinstance(node, ast.BinOp):
            return self._binop(node, cc)
        if isinstance(node, ast.FuncCall):
            return self._funccall(node, cc)
        if isinstance(node, ast.TupleCons):
            return TupleCols(
                {name: self.compile_elem(e, cc) for name, e in node.fields}
            )
        if isinstance(node, ast.Map):
            return self._nested_map(node, cc)
        if isinstance(node, ast.VarRef):
            raise MoaCompileError(
                f"parameter {node.name!r} used as a scalar inside a map body"
            )
        raise MoaCompileError(
            f"cannot compile {type(node).__name__} in element context"
        )

    def _nested_map(self, node: ast.Map, cc: CompiledCollection) -> Rep:
        """``map[f](THIS.items)`` inside a map body: apply *f* to the
        nested elements (pair positions become the inner context)."""
        over = self.compile_elem(node.over, cc)
        nested = self.force_nested(over, cc)
        inner_spine = self.emit(f"{nested.parent}.mark(oid(0))", "isp")
        inner_cc = CompiledCollection(
            spine=inner_spine, elem=nested.elem, ty=node.over.ty
        )
        self._context.append(inner_cc)
        try:
            body = self.compile_elem(node.body, inner_cc)
        finally:
            self._context.pop()
        return NestedSet(parent=nested.parent, elem=body)

    _BINOP_MIL = {
        "+": "+", "-": "-", "*": "*", "/": "/",
        "=": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
        "and": "and", "or": "or",
    }

    def _binop(self, node: ast.BinOp, cc: CompiledCollection) -> Rep:
        left = self.compile_elem(node.left, cc)
        right = self.compile_elem(node.right, cc)
        if isinstance(left, ConstCol) and isinstance(right, ConstCol):
            value = scalar_op(node.op, left.value, right.value)
            return ConstCol(value, node.ty.atom if node.ty else left.atom)  # type: ignore[union-attr]
        lop = self._operand(left, cc)
        rop = self._operand(right, cc)
        op = self._BINOP_MIL[node.op]
        var = self.emit(f"[{op}]({lop}, {rop})")
        atom = node.ty.atom if isinstance(node.ty, AtomicType) else "dbl"
        return AtomCol(var, atom)

    def _operand(self, rep: Rep, cc: CompiledCollection) -> str:
        if isinstance(rep, ConstCol):
            return _literal_mil(rep.value, rep.atom)
        return self.force_atom(rep, cc).var

    def _funccall(self, node: ast.FuncCall, cc: CompiledCollection) -> Rep:
        spec = function_spec(node.name)
        if spec.compile is not None:
            return spec.compile(self, cc, node)
        if node.name in ("sum", "count", "avg", "min", "max"):
            return self._aggregate(node, cc)
        if node.name in ("log", "exp", "sqrt", "abs", "neg", "not"):
            arg = self.compile_elem(node.args[0], cc)
            if isinstance(arg, ConstCol):
                from repro.moa.functions import function_spec as fs

                value = fs(node.name).interpret([arg.value], None)
                return ConstCol(value, node.ty.atom if node.ty else "dbl")  # type: ignore[union-attr]
            col = self.force_atom(arg, cc)
            var = self.emit(f"[{node.name}]({col.var})")
            atom = node.ty.atom if isinstance(node.ty, AtomicType) else "dbl"
            return AtomCol(var, atom)
        raise MoaCompileError(f"no compile rule for function {node.name!r}")

    _PUMP = {"sum": "sum", "count": "count", "avg": "avg", "min": "min", "max": "max"}

    def _aggregate(self, node: ast.FuncCall, cc: CompiledCollection) -> Rep:
        arg = self.compile_elem(node.args[0], cc)
        nested = self.force_nested(arg, cc)
        cnt = self.emit(f"count({cc.spine})", "n")
        if node.name == "count":
            values = nested.parent
        else:
            inner = nested.elem
            if isinstance(inner, TupleCols):
                raise MoaCompileError(
                    f"{node.name} over tuples needs an attribute selection"
                )
            values = self.force_atom(inner, cc).var
        pump = self._PUMP[node.name]
        var = self.emit(f"{{{pump}}}({values}, {nested.parent}, {cnt})", "agg")
        atom = node.ty.atom if isinstance(node.ty, AtomicType) else "dbl"
        return AtomCol(var, atom)

    # -- forcing -----------------------------------------------------------------
    def force_atom(self, rep: Rep, cc: CompiledCollection) -> AtomCol:
        """Materialize *rep* as a position-aligned [void pos, value] BAT."""
        if isinstance(rep, AtomCol):
            return rep
        if isinstance(rep, LazyCol):
            var = self.emit(f'{rep.gather}.join(bat("{rep.bat_name}"))', "c")
            return AtomCol(var, rep.atom)
        if isinstance(rep, ConstCol):
            var = self.emit(
                f'const({cc.spine}, "{rep.atom}", {_literal_mil(rep.value, rep.atom)})',
                "c",
            )
            return AtomCol(var, rep.atom)
        raise MoaCompileError(
            f"cannot force {type(rep).__name__} to an atomic column"
        )

    def force_nested(self, rep: Rep, cc: CompiledCollection) -> NestedSet:
        """Materialize a nested-set rep as pairs + aligned element."""
        if isinstance(rep, NestedSet):
            return rep
        if isinstance(rep, LazyNestedSet):
            nest0 = self.emit(f'bat("{rep.prefix}.{NEST_SUFFIX}")', "nest")
            inv = self.emit(f"{rep.gather}.reverse", "inv")
            pairs0 = self.emit(f"{nest0}.join({inv})", "pr")
            parent = self.emit(f"{pairs0}.number(oid(0))", "par")
            gather = self.emit(f"{pairs0}.mirror.mark(oid(0)).reverse", "pg")
            elem_ty = rep.elem_ty
            if isinstance(elem_ty, AtomicType):
                value = self.emit(
                    f'{gather}.join(bat("{rep.prefix}.{VALUE_SUFFIX}"))', "val"
                )
                elem: Rep = AtomCol(value, elem_ty.atom)
            elif isinstance(elem_ty, TupleType):
                elem = TupleCols(
                    {
                        fname: self._force_nested_field(
                            f"{rep.prefix}.{fname}", fty, gather
                        )
                        for fname, fty in elem_ty.fields
                    }
                )
            else:
                raise MoaCompileError(
                    f"nested element type {elem_ty.render()} unsupported"
                )
            return NestedSet(parent=parent, elem=elem)
        raise MoaCompileError(
            f"cannot force {type(rep).__name__} to a nested set"
        )

    def _force_nested_field(self, bat_name: str, ty: MoaType, gather: str) -> Rep:
        if isinstance(ty, AtomicType):
            return AtomCol(
                self.emit(f'{gather}.join(bat("{bat_name}"))', "c"), ty.atom
            )
        raise MoaCompileError(
            f"doubly nested attribute {bat_name} of type {ty.render()} is "
            "not supported by the compiler (flatten with unnest first)"
        )

    def force_contrep(self, rep: Rep, cc: CompiledCollection) -> ContrepCols:
        """Materialize a CONTREP attribute restricted to current positions."""
        if isinstance(rep, ContrepCols):
            return rep
        if not isinstance(rep, ContrepLazy):
            raise MoaCompileError("getBL applied to a non-CONTREP attribute")
        inv = self.emit(f"{rep.gather}.reverse", "inv")
        own0 = self.emit(f'bat("{rep.prefix}.owner")', "ow")
        own1 = self.emit(f"{own0}.join({inv})", "ow")
        owner = self.emit(f"{own1}.number(oid(0))", "own")
        gather = self.emit(f"{own1}.mirror.mark(oid(0)).reverse", "pg")
        term = self.emit(f'{gather}.join(bat("{rep.prefix}.term"))', "term")
        tf = self.emit(f'{gather}.join(bat("{rep.prefix}.tf"))', "tf")
        doclen = self.emit(f'{rep.gather}.join(bat("{rep.prefix}.doclen"))', "dl")
        return ContrepCols(owner=owner, term=term, tf=tf, doclen=doclen)

    def _force_deep(self, rep: Rep, spine: str) -> Rep:
        """Eagerly materialize every lazy column (unoptimized mode)."""
        if isinstance(rep, LazyCol):
            var = self.emit(f'{rep.gather}.join(bat("{rep.bat_name}"))', "c")
            return AtomCol(var, rep.atom)
        if isinstance(rep, TupleCols):
            return TupleCols(
                {n: self._force_deep(r, spine) for n, r in rep.fields.items()}
            )
        if isinstance(rep, LazyNestedSet):
            dummy = CompiledCollection(spine=spine, elem=rep, ty=None)  # type: ignore[arg-type]
            return self.force_nested(rep, dummy)
        if isinstance(rep, ContrepLazy):
            dummy = CompiledCollection(spine=spine, elem=rep, ty=None)  # type: ignore[arg-type]
            return self.force_contrep(rep, dummy)
        return rep

    # -- top-level scalars ---------------------------------------------------
    def _compile_scalar_top(self, node: ast.Expr) -> CompiledScalar:
        if isinstance(node, ast.FuncCall) and node.name in (
            "sum", "count", "avg", "min", "max",
        ):
            cc = self.compile_collection(node.args[0])
            if node.name == "count":
                var = self.emit(f"count({cc.spine})", "res")
                return CompiledScalar(var, "int")
            col = self.force_atom(cc.elem, cc)
            var = self.emit(f"{node.name}({col.var})", "res")
            atom = node.ty.atom if isinstance(node.ty, AtomicType) else "dbl"
            return CompiledScalar(var, atom)
        raise MoaCompileError(
            "top-level expression of type "
            f"{node.ty.render() if node.ty else '?'} is not compilable; "
            "expected a collection or an aggregate over one"
        )


# ----------------------------------------------------------------------
# Extension attribute reps (CONTREP registers itself here)
# ----------------------------------------------------------------------

_ATTR_REP_HOOKS: Dict[str, Any] = {}


def register_attr_rep(type_cls_name: str, hook) -> None:
    """Register an attribute-representation hook for an extension
    structure type (keyed by class name to avoid import cycles)."""
    _ATTR_REP_HOOKS[type_cls_name] = hook


# ----------------------------------------------------------------------
# Small AST utilities
# ----------------------------------------------------------------------


def _split_equality(pred: ast.Expr) -> Tuple[Tuple[ast.Expr, ast.Expr], Optional[ast.Expr]]:
    """Split a join predicate into (left-key, right-key) of its first
    THIS1=THIS2 equality plus the residual conjunction (or None)."""
    conjuncts = _flatten_and(pred)
    for position, conjunct in enumerate(conjuncts):
        if isinstance(conjunct, ast.BinOp) and conjunct.op == "=":
            li = _this_index(conjunct.left)
            ri = _this_index(conjunct.right)
            if {li, ri} == {1, 2}:
                if li == 1:
                    keys = (conjunct.left, conjunct.right)
                else:
                    keys = (conjunct.right, conjunct.left)
                rest = conjuncts[:position] + conjuncts[position + 1:]
                residual = _conjoin(rest)
                return keys, residual
    raise MoaCompileError(
        "join predicate needs at least one THIS1.<a> = THIS2.<b> equality"
    )


def _flatten_and(pred: ast.Expr) -> List[ast.Expr]:
    if isinstance(pred, ast.BinOp) and pred.op == "and":
        return _flatten_and(pred.left) + _flatten_and(pred.right)
    return [pred]


def _conjoin(conjuncts: List[ast.Expr]) -> Optional[ast.Expr]:
    if not conjuncts:
        return None
    out = conjuncts[0]
    for nxt in conjuncts[1:]:
        merged = ast.BinOp(op="and", left=out, right=nxt)
        merged.ty = out.ty
        out = merged
    return out


def _this_index(expr: ast.Expr) -> int:
    """Which join side (1/2) an expression references; 0 if neither."""
    found = {n.index for n in ast.walk(expr) if isinstance(n, ast.This)}
    found.discard(0)
    if len(found) > 1:
        raise MoaCompileError("join key references both THIS1 and THIS2")
    return found.pop() if found else 0


def _rewrite_this(expr: ast.Expr) -> ast.Expr:
    """Replace THIS1/THIS2 by plain THIS (after picking the side)."""
    import copy

    clone = copy.deepcopy(expr)
    for node in ast.walk(clone):
        if isinstance(node, ast.This):
            node.index = 0
    return clone


def _fields_of(rep: Rep) -> Dict[str, Rep]:
    if isinstance(rep, TupleCols):
        return dict(rep.fields)
    raise MoaCompileError("join sides must have tuple elements")


def _literal_mil(value: Any, atom: str) -> str:
    if atom == "str":
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if atom == "bit":
        return "true" if value else "false"
    if atom == "dbl":
        text = repr(float(value))
        return text if ("." in text or "e" in text or "inf" in text) else text + ".0"
    return repr(int(value))


def compile_query(
    node: ast.Expr,
    schema: Dict[str, MoaType],
    params: Optional[Dict[str, MoaType]] = None,
    *,
    eager_columns: bool = False,
    cse: bool = True,
) -> CompiledQuery:
    """Compile a typed AST into a MIL plan."""
    compiler = Compiler(
        schema, params, eager_columns=eager_columns, cse=cse
    )
    return compiler.compile_query(node)
