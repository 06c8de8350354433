"""The traced run: spans recorded from outside, around each layer's
public calls.

Nothing under ``src/`` is edited or patched.  A traced request is
replayed as the explicit sequence of public calls the program makes for
it -- ``pack_message`` -> ``read_message`` -> ``QueryGuard.check_moa``
-> ``parse_query`` -> ``typecheck`` -> ``optimize`` ->
``Compiler.compile_query`` -> ``parse_program`` -> one
``run_program(Program([stmt]))`` per MIL statement -> ``encode_result``
-> ``decode_result`` -- with a span around each.  The black-box calls
(``executor.prepare``, ``executor.run_compiled``) are timed in the same
request so the dissection can be checked against the whole.

Span names are layer (module) names; per-layer metric ``x.y_ms`` is the
median over requests of the summed self time of the spans named
``x.y`` (durations for the three container spans ``moa.prepare``,
``executor.run_compiled`` and ``mil.run``).
"""

from __future__ import annotations

import io
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import SpanRecorder, median_or_zero, per_request_ms

from repro.ir.stats import CollectionStats
from repro.moa.compiler import Compiler
from repro.moa.executor import infer_param_type
from repro.moa.optimizer import optimize
from repro.moa.parser import parse_query
from repro.moa.typecheck import typecheck
from repro.monet import aggregates, fragments, kernel
from repro.monet.bat import BAT, dense_bat
from repro.monet.mil import MILInterpreter, parse_program
from repro.monet.mil.ast import Program
from repro.monet.multiplex import multiplex
from repro.service.guard import QueryGuard
from repro.service.protocol import (
    decode_result,
    encode_result,
    ok_response,
    pack_message,
    read_message,
)

#: MIL statement classes, first match wins (a statement that joins and
#: reverses is a join: the join dominates it).
_STATEMENT_CLASSES: List[Tuple[str, Callable[[str], bool]]] = [
    ("join", lambda op: op in ("join", "fetchjoin", "outerjoin", "semijoin")),
    ("multiplex", lambda op: op.startswith("[")),
    ("pump", lambda op: op.startswith("{")),
    ("select", lambda op: op in ("select", "uselect", "likeselect")),
    ("sort", lambda op: op in ("sort", "tsort")),
    ("unique", lambda op: op in ("unique", "kunique", "tunique")),
    ("positional", lambda op: op in ("reverse", "mirror", "mark", "number")),
]
STATEMENT_CLASSES = [name for name, _ in _STATEMENT_CLASSES] + ["other"]


def statement_class(op_counts) -> str:
    """Class of one MIL statement from its ``MILResult.stats`` keys."""
    for name, matches in _STATEMENT_CLASSES:
        if any(matches(op) for op in op_counts):
            return name
    return "other"


def bind_env(params: Dict[str, Any]) -> Dict[str, Any]:
    """The MIL environment the executor binds for *params*, built from
    the same public pieces (stats bindings, dense parameter BATs)."""
    env: Dict[str, Any] = {}
    for name, value in params.items():
        if isinstance(value, CollectionStats):
            env.update(value.mil_bindings(name))
        else:
            atom = infer_param_type(value).element.atom
            env[name] = dense_bat(atom, list(value))
    return env


def replay_statements(
    rec: SpanRecorder,
    mil: MILInterpreter,
    program: Program,
    env: Dict[str, Any],
    snapshot: Any,
) -> Tuple[Any, int]:
    """Run *program* one statement at a time against one pinned
    *snapshot*, a span per statement named by its class.  Returns the
    final value and the plan's operator-call count."""
    calls = 0
    value = None
    for statement in program.statements:
        start = time.perf_counter()
        outcome = mil.run_program(Program([statement]), env, reader=snapshot)
        end = time.perf_counter()
        rec.add(f"mil.op.{statement_class(outcome.stats)}", start, end)
        calls += sum(outcome.stats.values())
        env = outcome.env
        value = outcome.value
    return value, calls


def dissect_mil(
    rec: SpanRecorder, mil: MILInterpreter, source: str, env: Dict[str, Any]
) -> Tuple[Any, Dict[str, int]]:
    """Replay one MIL program: snapshot pin, parse, per-statement run."""
    with rec.span("bbp.read_snapshot"):
        snapshot = mil.pool.read_snapshot()
    with rec.span("mil.parse"):
        program = parse_program(source)
    with rec.span("mil.run"):
        value, calls = replay_statements(rec, mil, program, env, snapshot)
    return value, {"statements": len(program.statements), "op_calls": calls}


def dissect_moa(
    rec: SpanRecorder, db, source: str, params: Dict[str, Any], request: int
) -> Tuple[Any, Dict[str, int]]:
    """One Moa request taken apart: the real ``prepare`` and
    ``run_compiled``, then the same work as separate public calls."""
    executor = db.executor
    with rec.span("dissect", request):
        with rec.span("moa.prepare"):
            compiled = executor.prepare(source, params)
        with rec.span("moa.pieces"):
            param_types = {n: infer_param_type(v) for n, v in params.items()}
            schema = dict(db.schema)
            with rec.span("moa.parse"):
                node = parse_query(source)
            with rec.span("moa.typecheck"):
                typed = typecheck(node, schema, param_types)
            with rec.span("moa.optimize"):
                typed = optimize(typed)
            with rec.span("moa.typecheck"):
                typed = typecheck(typed, schema, param_types)
            with rec.span("moa.compile"):
                Compiler(schema, param_types).compile_query(typed)
        with rec.span("executor.run_compiled"):
            result = executor.run_compiled(compiled, params)
        with rec.span("mil.replay"):
            _, counts = dissect_mil(
                rec, executor.mil, compiled.program, bind_env(params)
            )
    return result.value, counts


def dissect_wire(
    rec: SpanRecorder,
    guard: QueryGuard,
    db,
    source: str,
    wire_params: Dict[str, Any],
    value: Any,
    request: int,
) -> int:
    """The wire-side calls of one ``moa`` request around an already
    computed *value*; returns the response size in bytes."""
    header = {"op": "moa", "q": source, "binary": True, "params": wire_params}
    with rec.span("wire", request):
        with rec.span("protocol.request_pack"):
            raw = pack_message(header)
        with rec.span("protocol.request_read"):
            read_message(io.BytesIO(raw).read)
        with rec.span("guard.check"):
            guard.check_moa(source, db.pool, db.schema)
        with rec.span("protocol.encode"):
            result, frames = encode_result(value, True)
            response = ok_response(result, frames)
        with rec.span("protocol.decode"):
            reply, frames = read_message(io.BytesIO(response).read)
            decode_result(reply["result"], frames)
    return len(response)


# ----------------------------------------------------------------------
# Direct-call probes on the workload's own BATs
# ----------------------------------------------------------------------


Cases = Dict[str, Callable[[], Any]]


def contrep_probe_bats(pool, collection: str, attribute: str):
    """(keys, dim, values) for the probes from a CONTREP attribute:
    postings->document oids, the reversed extent they join into, and
    the aligned term frequencies."""
    keys = pool.lookup(f"{collection}.{attribute}.owner")
    dim = pool.lookup(f"{collection}.__extent__").reverse()
    values = pool.lookup(f"{collection}.{attribute}.tf")
    return keys, dim, values


def run_cases(rec: SpanRecorder, cases: Cases, repeats: int = 5) -> None:
    """Time each case *repeats* times (after one warm call that fills
    view caches and lazy pools), one span per call."""
    for name, case in cases.items():
        case()
        for _ in range(repeats):
            with rec.span(name):
                case()


def kernel_cases(
    keys: BAT, dim: BAT, values: BAT, *, bounds: Tuple[Any, Any], groups: int
) -> Cases:
    """``monet.kernel`` (+ multiplex, aggregates) on monolithic BATs:
    *keys* [void,oid] joins into *dim* [oid,*]; *values* [void,int] is
    aligned with *keys*, whose tails number *groups* groups."""
    reversed_keys = keys.reverse()
    return {
        "kernel.select": lambda: kernel.select(values, *bounds),
        "kernel.join": lambda: kernel.join(keys, dim),
        "kernel.tsort": lambda: kernel.tsort(values),
        "kernel.kunique": lambda: kernel.kunique(reversed_keys),
        "kernel.multiplex": lambda: multiplex("*", 1.5, values),
        "kernel.pump_sum": lambda: aggregates.grouped_sum(values, keys, groups),
    }


def fragment_cases(
    keys: BAT, dim: BAT, values: BAT, *, bounds: Tuple[Any, Any],
    policy: Optional[fragments.FragmentationPolicy] = None,
) -> Tuple[Cases, int]:
    """``monet.fragments`` on the same BATs, fragmented under *policy*;
    also returns the fragment count of the select output."""
    fkeys = fragments.fragment_bat(keys, policy)
    fdim = fragments.fragment_bat(dim, policy)
    fvalues = fragments.fragment_bat(values, policy)
    reversed_keys = fragments.reverse(fkeys)
    selected = fragments.select(fvalues, *bounds)

    def coalesce():
        # to_bat caches on the handle: coalesce a fresh one each time.
        return fragments.FragmentedBAT(
            selected.fragments, selected.positions, policy=selected.policy
        ).to_bat()

    cases: Cases = {
        "fragments.fragment_bat": lambda: fragments.fragment_bat(keys, policy),
        "fragments.select": lambda: fragments.select(fvalues, *bounds),
        "fragments.join": lambda: fragments.join(fkeys, fdim),
        "fragments.tsort": lambda: fragments.tsort(fvalues),
        "fragments.kunique": lambda: fragments.kunique(reversed_keys),
        "fragments.sum": lambda: fragments.sum_(fvalues),
        "fragments.to_bat": coalesce,
    }
    return cases, selected.nfragments


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------

#: Spans reported as durations (containers); everything else is self time.
_CONTAINERS = ("moa.prepare", "executor.run_compiled", "mil.run")


def span_metrics(rec: SpanRecorder, declared) -> Dict[str, float]:
    """``{x.y_ms: median over requests}`` for every span name ``x.y``
    whose metric is *declared*, plus ``executor.reconstruct_ms``
    (run_compiled minus the replayed MIL run of the same request) and
    ``trace.spans``."""
    selfs = per_request_ms(rec.spans, self_time=True)
    durations = per_request_ms(rec.spans)
    out: Dict[str, float] = {}
    for name in selfs:
        if f"{name}_ms" in declared:
            source = durations if name in _CONTAINERS else selfs
            out[f"{name}_ms"] = median_or_zero(list(source[name].values()))
    whole = durations.get("executor.run_compiled", {})
    replayed = durations.get("mil.replay", {})
    out["executor.reconstruct_ms"] = median_or_zero(
        [max(0.0, whole[r] - replayed[r]) for r in whole if r in replayed]
    )
    out["trace.spans"] = float(len(rec.spans))
    return out
