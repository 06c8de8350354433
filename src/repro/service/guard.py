"""Pre-execution query guard: reject malformed and runaway plans.

Every query admitted by the service is vetted *before* it touches the
interpreter:

* **malformed** -- the text does not parse (MIL or Moa), or a MIL plan
  applies an operator the interpreter does not know.  Catching this
  up front means a garbage query costs a parse, never an executor
  slot.
* **guard** -- the plan parses but exceeds a static budget: more
  operator applications than ``max_ops``, source longer than
  ``max_source_bytes``, or an estimated input volume above
  ``max_input_buns`` (the sum of the cardinalities of every persistent
  BAT the plan references, counted per reference -- a cheap,
  catalog-only stand-in for a cost model; fragmented registrations
  report their length without coalescing).

The guard never *executes* anything: it parses, walks the AST, and
consults catalog cardinalities.  Names it cannot resolve (e.g. a temp
the same program persists two statements earlier) contribute zero to
the estimate and are left for the runtime to judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.moa.errors import MoaError
from repro.moa.parser import parse_query
from repro.monet.errors import BBPError, MILError
from repro.monet.mil import ast as mil_ast
from repro.monet.mil.builtins import has_builtin
from repro.monet.mil.interpreter import SPECIALS
from repro.monet.mil.parser import parse_program
from repro.monet.multiplex import has_multiplex_op


class GuardRejection(Exception):
    """A query the guard refuses; ``code`` is ``malformed`` or
    ``guard``."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class GuardLimits:
    """Static plan budgets (`None` disables a check)."""

    max_ops: Optional[int] = 128
    max_source_bytes: Optional[int] = 256 * 1024
    max_input_buns: Optional[int] = 200_000_000


class QueryGuard:
    """Vets MIL and Moa query text against :class:`GuardLimits`."""

    def __init__(self, limits: Optional[GuardLimits] = None):
        self.limits = limits or GuardLimits()

    # ------------------------------------------------------------------
    def _check_source_size(self, source: str) -> None:
        limit = self.limits.max_source_bytes
        if limit is not None and len(source.encode("utf-8")) > limit:
            raise GuardRejection(
                "guard", f"query text exceeds {limit} bytes"
            )

    def check_mil(self, source: str, namespace=None) -> None:
        """Raise :class:`GuardRejection` unless the MIL *source* is
        parseable, uses only known operators, and fits the budgets.
        *namespace* (a pool or session namespace) supplies catalog
        cardinalities for the input-BUN estimate."""
        self._check_source_size(source)
        try:
            program = parse_program(source)
        except MILError as exc:
            raise GuardRejection("malformed", str(exc)) from exc
        ops = 0
        input_buns = 0
        nodes = list(program.statements)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (mil_ast.Assign, mil_ast.ExprStatement)):
                nodes.append(node.expr)
            elif isinstance(node, mil_ast.Call):
                ops += 1
                _require_known(has_builtin(node.func) or node.func in SPECIALS, node.func)
                if (
                    node.func == "bat"
                    and len(node.args) == 1
                    and isinstance(node.args[0], mil_ast.Literal)
                    and isinstance(node.args[0].value, str)
                ):
                    input_buns += _cardinality(namespace, node.args[0].value)
                nodes.extend(node.args)
            elif isinstance(node, mil_ast.MethodCall):
                ops += 1
                _require_known(
                    has_builtin(node.method) or node.method in SPECIALS, node.method
                )
                nodes.append(node.receiver)
                nodes.extend(node.args)
            elif isinstance(node, mil_ast.Multiplex):
                ops += 1
                _require_known(has_multiplex_op(node.op), f"[{node.op}]")
                nodes.extend(node.args)
            elif isinstance(node, mil_ast.Pump):
                ops += 1
                # Pump aggregates are builtin rows under their MIL spelling.
                _require_known(has_builtin(f"{{{node.agg}}}"), f"{{{node.agg}}}")
                nodes.extend(node.args)
            elif isinstance(node, mil_ast.Infix):
                ops += 1
                nodes.append(node.left)
                nodes.append(node.right)
            # Literals and Vars cost nothing.
        self._check_budgets(ops, input_buns)

    def check_moa(self, source: str, namespace=None, schema=None) -> None:
        """Raise :class:`GuardRejection` unless the Moa *source* parses
        and fits the budgets.  The op count is the AST node count; the
        input estimate sums the extents of every referenced collection
        found in *schema*."""
        self._check_source_size(source)
        try:
            node = parse_query(source)
        except MoaError as exc:
            raise GuardRejection("malformed", str(exc)) from exc
        ops = 0
        input_buns = 0
        stack = [node]
        while stack:
            current = stack.pop()
            ops += 1
            name = getattr(current, "name", None)
            if (
                schema is not None
                and isinstance(name, str)
                and name in schema
            ):
                input_buns += _cardinality(namespace, f"{name}.__extent__")
            for value in vars(current).values():
                if isinstance(value, (list, tuple)):
                    stack.extend(
                        v for v in value if hasattr(v, "__dataclass_fields__")
                    )
                elif hasattr(value, "__dataclass_fields__"):
                    stack.append(value)
        self._check_budgets(ops, input_buns)

    # ------------------------------------------------------------------
    def _check_budgets(self, ops: int, input_buns: int) -> None:
        if self.limits.max_ops is not None and ops > self.limits.max_ops:
            raise GuardRejection(
                "guard",
                f"plan applies {ops} operators; the budget is "
                f"{self.limits.max_ops}",
            )
        if (
            self.limits.max_input_buns is not None
            and input_buns > self.limits.max_input_buns
        ):
            raise GuardRejection(
                "guard",
                f"plan reads an estimated {input_buns} BUNs; the budget "
                f"is {self.limits.max_input_buns}",
            )


def _require_known(known: bool, name: str) -> None:
    if not known:
        raise GuardRejection("malformed", f"unknown MIL operation {name!r}")


def _cardinality(namespace, name: str) -> int:
    """Catalog cardinality of *name* without coalescing; unknown names
    count zero (the runtime will reject them if they stay unknown)."""
    if namespace is None:
        return 0
    try:
        if namespace.is_fragmented(name):
            return len(namespace.lookup_fragments(name))
        if namespace.exists(name):
            return len(namespace.lookup(name))
    except BBPError:  # pragma: no cover - races with concurrent drops
        return 0
    return 0
