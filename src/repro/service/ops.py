"""The service's wire operations as data: one :class:`Op` row per op.

The server validates a request against its row (:func:`parse_request`)
and runs the row's guard hook and handler; both clients build their
requests from the same row.  Adding an op means adding a row.

A field datatype (:data:`DATATYPES`) is rows of ``(condition, error)``:
a value is accepted when every condition holds, and the first that
fails names the ``protocol`` error (a condition may raise
``TypeError``/``ValueError`` itself to name the failure more exactly).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.service.protocol import encode_result


def _is_literal(value: Any) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def _finite_ms(value: Any) -> bool:
    # float() first, so a non-number fails with float()'s own message
    # (and an integer too large for a float with OverflowError).
    ms = float(value)
    return not isinstance(value, (bool, str)) and 0 <= ms < math.inf


def _param_values(params: Dict[str, Any]) -> bool:
    for name, value in params.items():
        if not (isinstance(value, list) or (isinstance(value, dict) and "$session" in value)):
            raise TypeError(
                f"parameter {name!r} must be a list or a "
                '{"$session": name} reference'
            )
    return True


#: datatype -> ((condition, error), ...); ``{field}`` in an error names
#: the header field.
DATATYPES: Dict[str, Tuple[Tuple[Callable[[Any], bool], str], ...]] = {
    "text": ((lambda v: isinstance(v, str) and v != "",
              "request needs a non-empty string {field!r}"),),
    "flag": ((lambda v: isinstance(v, bool),
              "request field {field!r} must be true or false"),),
    "ms": ((_finite_ms,
            "request field {field!r} must be a finite number of milliseconds >= 0"),),
    "rows": ((lambda v: isinstance(v, list), "insert needs a values list"),),
    "where": (
        (lambda v: _is_literal(v) or isinstance(v, dict),
         "where must be an object of field equalities or a literal"),
        (lambda v: not isinstance(v, dict) or all(map(_is_literal, v.values())),
         "where object must map string fields to literals"),
    ),
    "assignments": (
        (lambda v: _is_literal(v) or isinstance(v, dict),
         "update needs a 'set' object or literal"),
        (lambda v: v != {}, "update 'set' object needs string field names"),
    ),
    "params": (
        (lambda v: isinstance(v, dict), "params must be an object"),
        (_param_values, ""),
    ),
}


class Field(NamedTuple):
    name: str
    datatype: str
    required: bool


def _fields(spec: str) -> Tuple[Field, ...]:
    """``"q:text binary:flag?"`` -> fields in header order; ``?`` marks
    an optional field."""
    return tuple(
        Field(name, datatype.rstrip("?"), not datatype.endswith("?"))
        for name, datatype in (item.split(":") for item in spec.split())
    )


def _guard_mil(service, session, request) -> None:
    service.guard.check_mil(request["q"], session.namespace)


def _guard_moa(service, session, request) -> None:
    """Vet the Moa text, then bind its ``{"$session": name}``
    parameters -- an unbound name is refused before any slot is taken."""
    service.guard.check_moa(request["q"], service.db.pool, service.db.schema)
    params = dict(request.get("params", {}))
    for name, value in params.items():
        if isinstance(value, dict):
            bound = value["$session"]
            if bound not in session.bindings:
                raise KeyError(
                    f"no session binding named {bound!r}; bind it "
                    "with the stats op first"
                )
            params[name] = session.bindings[bound]
    request["params"] = params


def _query_result(outcome, request):
    result, frames = encode_result(outcome.value, request.get("binary", True))
    if outcome.epoch is not None:
        # The catalog epoch the plan's snapshot was pinned at; the
        # write-path differential harness keys serial replays on it.
        result["epoch"] = outcome.epoch
    return result, frames


def _mil(service, session, request, checkpoint):
    outcome = session.mil.run(
        request["q"], checkpoint=checkpoint, reader=session.mil_reader()
    )
    return _query_result(outcome, request)


def _moa(service, session, request, checkpoint):
    txn = session.open_transaction()
    outcome = service.db.query(
        request["q"],
        request["params"],
        checkpoint=checkpoint,
        reader=txn.snapshot if txn is not None else None,
    )
    return _query_result(outcome, request)


def _mutate(service, session, request, checkpoint):
    """insert/update/delete: staged in the session's open transaction,
    else auto-committed."""
    op, name = request["op"], request["collection"]
    args = [request[key] for key in ("values", "set") if key in request]
    kwargs = {} if op == "insert" else {"where": request.get("where")}
    txn = session.open_transaction()
    if txn is not None:
        staged = getattr(txn, op)(name, *args, **kwargs)
        count, epoch = staged.count, staged.epoch
    else:
        count = getattr(service.db, op)(name, *args, **kwargs)
        epoch = service.db.pool.epoch
        if op == "insert":
            return {"kind": "count", "count": count, "epoch": epoch}, []
    return {
        "kind": "mutation",
        "op": op,
        "collection": name,
        "count": count,
        "epoch": epoch,
        "staged": txn is not None,
    }, []


def _stats(service, session, request, checkpoint):
    bind = request["bind"]
    session.bindings[bind] = service.db.stats(request["collection"], request["attribute"])
    return {"kind": "bound", "name": bind}, []


def _commit(service, session, request, checkpoint):
    result = session.end_transaction("commit")
    applied = [
        {"collection": r.collection, "op": r.kind, "count": r.count, "epoch": r.epoch}
        for r in result.applied
    ]
    return {
        "kind": "committed",
        "count": result.count,
        "epoch": result.epoch,
        "applied": applied,
    }, []


def _abort(service, session, request, checkpoint):
    result = session.end_transaction("abort")
    return {"kind": "aborted", "count": result.count, "epoch": result.epoch}, []


class Op(NamedTuple):
    """One wire op.  ``fields`` are in header order.  An ``admitted`` op
    passes the session's rate limit, its ``guard`` hook (on the event
    loop) and the admission controller, and its ``handler`` runs on an
    executor thread; the others' handlers answer inline.  A handler
    returns ``(result, frames)``; ``result`` names the key of the result
    the clients return (``None``: the whole result)."""

    name: str
    version: int
    fields: Tuple[Field, ...]
    admitted: bool
    guard: Optional[Callable[..., None]]
    handler: Callable[..., Tuple[Dict[str, Any], list]]
    result: Optional[str]


OPS: Dict[str, Op] = {row[0]: Op(row[0], row[1], _fields(row[2]), *row[3:]) for row in (
    ("ping", 1, "", False, None,
     lambda svc, session, req, cp: ({"kind": "pong", "session": session.session_id}, []),
     None),
    ("status", 1, "", False, None,
     lambda svc, session, req, cp: ({"kind": "status", "status": svc.status()}, []),
     "status"),
    ("close", 1, "", False, None, lambda svc, session, req, cp: ({"kind": "bye"}, []), None),
    ("mil", 1, "q:text binary:flag? deadline_ms:ms?", True, _guard_mil, _mil, None),
    ("moa", 1, "q:text binary:flag? params:params? deadline_ms:ms?", True, _guard_moa,
     _moa, None),
    ("define", 1, "ddl:text", True, None,
     lambda svc, session, req, cp: (
         {"kind": "defined", "names": svc.db.define(req["ddl"])}, []),
     "names"),
    ("insert", 1, "collection:text values:rows", True, None, _mutate, "count"),
    ("count", 1, "collection:text", True, None,
     lambda svc, session, req, cp: (
         {"kind": "count", "count": svc.db.count(req["collection"])}, []),
     "count"),
    ("stats", 1, "collection:text attribute:text bind:text", True, None, _stats, "name"),
    ("collections", 1, "", True, None,
     lambda svc, session, req, cp: (
         {"kind": "collections", "names": svc.db.collections()}, []),
     "names"),
    ("begin", 2, "", True, None,
     lambda svc, session, req, cp: ({"kind": "begun", "epoch": session.begin().epoch}, []),
     "epoch"),
    ("commit", 2, "", True, None, _commit, None),
    ("abort", 2, "", True, None, _abort, None),
    ("update", 2, "collection:text set:assignments where:where?", True, None, _mutate, None),
    ("delete", 2, "collection:text where:where?", True, None, _mutate, None),
)}

#: Header keys every op accepts besides its own fields.
ENVELOPE = ("op", "id", "frames")


def parse_request(header: Dict[str, Any]) -> Tuple[Op, Dict[str, Any]]:
    """The row of *header*'s op and its validated fields (plus ``op``);
    an optional field that is absent or ``null`` is left out.  Raises
    ``ValueError``/``TypeError`` (``OverflowError`` for an integer
    deadline too large for a float) for an unknown op or a missing,
    ill-typed or undeclared field."""
    op = header.get("op")
    row = OPS.get(op) if isinstance(op, str) else None
    if row is None:
        raise ValueError(f"unknown op {op!r}")
    declared = {field.name for field in row.fields}
    for key in header:
        if key not in declared and key not in ENVELOPE:
            raise TypeError(f"{op} takes no field {key!r}")
    request: Dict[str, Any] = {"op": op}
    for name, datatype, required in row.fields:
        conditions = DATATYPES[datatype]
        if name not in header and required:
            raise TypeError(conditions[0][1].format(field=name))
        value = header.get(name)
        if value is None and not required:
            continue
        for condition, error in conditions:
            if not condition(value):
                raise TypeError(error.format(field=name))
        request[name] = value
    return row, request
