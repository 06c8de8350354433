"""Prepared plans: a Moa query is compiled, and its MIL parsed, once.

:meth:`repro.moa.executor.MoaExecutor.prepare` files the finished plan
under (query text, parameter types, execution modes, schema
generation); a later call with the same key returns it without a Moa
parse, typecheck, optimize or compile, and ``run_compiled`` executes its
parsed MIL program, so no run parses MIL text.  Pinned here:

* hits, misses (parameter types, mode flags), invalidation by
  ``define`` (a new collection, an empty collection retyped, a define
  landing mid-compile), ``ast.Expr`` queries never cached, the bound;
* eight threads sharing one executor agree with the interpreter oracle;
* 50 cached Sec. 3 queries call neither parser;
* the compiler's MIL text is byte-identical to the golden plans, its
  parse is the plan's ``program_ast``, and ``unparse`` is a fixed point.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

import repro.moa.executor as executor_module
from repro.core.mirror import MirrorDBMS
from repro.ir.stats import CollectionStats
from repro.moa.compiler import Compiler
from repro.moa.executor import PLAN_CACHE_SIZE
from repro.moa.parser import parse_query
from repro.monet.mil import parse_program
from repro.monet.mil.ast import unparse
from repro.workloads import (
    SECTION3_QUERY,
    SECTION5_QUERY,
    TRADITIONAL_DDL,
    build_internal_db,
    synth_annotations,
)
from tests.moa.test_compiler_vs_interpreter import QUERIES, SCHEMA_DDL

GOLDEN = Path(__file__).parent / "golden"
ROWS_DDL = "define Rows as SET<TUPLE<Atomic<int>: n, Atomic<str>: tag>>;"
ROWS_QUERY = "select[THIS.n > 1](Rows);"


@pytest.fixture
def compiles(monkeypatch) -> list:
    """Every ``Compiler.compile_query`` call (one per cache miss)."""
    calls: list = []
    compile_query = Compiler.compile_query

    def spy(compiler, node):
        calls.append(node)
        return compile_query(compiler, node)

    monkeypatch.setattr(Compiler, "compile_query", spy)
    return calls


def _rows_db() -> MirrorDBMS:
    db = MirrorDBMS()
    db.define(ROWS_DDL)
    db.insert("Rows", [{"n": n, "tag": t} for n, t in [(1, "a"), (2, "b"), (3, "a")]])
    return db


def _library(docs: int = 40) -> tuple:
    db = MirrorDBMS()
    db.define(TRADITIONAL_DDL)
    db.replace("TraditionalImgLib", synth_annotations(docs, seed=3))
    stats = db.stats("TraditionalImgLib", "annotation")
    return db, stats, stats.vocabulary()


# ----------------------------------------------------------------------
# Hits and misses
# ----------------------------------------------------------------------


def test_same_text_and_types_is_a_hit(compiles):
    db = _rows_db()
    first = db.executor.prepare(ROWS_QUERY)
    assert len(compiles) == 1
    assert db.executor.prepare(ROWS_QUERY) is first
    assert db.query(ROWS_QUERY).compiled is first
    assert len(compiles) == 1
    assert db.query(ROWS_QUERY).value == [{"n": 2, "tag": "b"}, {"n": 3, "tag": "a"}]


def test_parameter_values_share_one_plan(compiles):
    db, stats, vocabulary = _library()
    plans = {
        id(db.executor.prepare(SECTION3_QUERY, {"query": terms, "stats": stats}))
        for terms in (vocabulary[:2], vocabulary[5:9], [], ["nosuchterm"])
    }
    assert len(plans) == 1 and len(compiles) == 1


@pytest.mark.parametrize(
    "modes",
    [{"optimize": False}, {"eager_columns": True}, {"cse": False}],
    ids=["optimize", "eager_columns", "cse"],
)
def test_another_mode_flag_is_a_miss(compiles, modes):
    db = _rows_db()
    plain = db.executor.prepare(ROWS_QUERY)
    other = db.executor.prepare(ROWS_QUERY, **modes)
    assert other is not plain and len(compiles) == 2
    assert db.executor.prepare(ROWS_QUERY, **modes) is other
    assert db.query(ROWS_QUERY, **modes).value == db.query(ROWS_QUERY).value


def test_other_parameter_types_are_a_miss(compiles):
    db = _rows_db()
    query = "map[THIS * 2](wanted);"
    ints = db.executor.prepare(query, {"wanted": [4, 5]})
    assert db.executor.prepare(query, {"wanted": [1]}) is ints
    floats = db.executor.prepare(query, {"wanted": [4.0, 0.5]})
    assert floats is not ints and len(compiles) == 2
    assert floats.params["wanted"].render() != ints.params["wanted"].render()
    assert db.query(query, {"wanted": [0.25]}).value == [0.5]
    renamed = db.executor.prepare("map[THIS * 2](other);", {"other": [4]})
    assert renamed is not ints and len(compiles) == 3


def test_an_ast_query_is_never_cached(compiles):
    db = _rows_db()
    for _ in range(3):
        db.executor.prepare(parse_query(ROWS_QUERY))
    assert len(compiles) == 3
    assert db.executor._plans == {}
    assert db.query(parse_query(ROWS_QUERY)).value == db.query(ROWS_QUERY).value


def test_the_cache_stays_within_its_bound(compiles, monkeypatch):
    monkeypatch.setattr(executor_module, "PLAN_CACHE_SIZE", 4)
    db = _rows_db()
    queries = [f"select[THIS.n > {k}](Rows);" for k in range(10)]
    for query in queries:
        db.executor.prepare(query)
        assert len(db.executor._plans) <= 4
    assert len(compiles) == 10
    db.executor.prepare(queries[-1])  # the newest is kept
    assert len(compiles) == 10
    db.executor.prepare(queries[0])  # the oldest was evicted
    assert len(compiles) == 11 and len(db.executor._plans) == 4


# ----------------------------------------------------------------------
# Invalidation: every schema write bumps the generation
# ----------------------------------------------------------------------


def test_defining_a_collection_invalidates(compiles):
    db = _rows_db()
    before = db.executor.prepare(ROWS_QUERY)
    generation = db.executor.schema_generation
    db.define("define Other as SET<TUPLE<Atomic<int>: k>>;")
    assert db.executor.schema_generation == generation + 1
    after = db.executor.prepare(ROWS_QUERY)
    assert after is not before and len(compiles) == 2
    assert after.program == before.program


def test_redefining_an_empty_collection_compiles_against_the_new_type(compiles):
    db = MirrorDBMS()
    db.define("define Pending as SET<TUPLE<Atomic<int>: v>>;")
    query = "map[THIS.v](Pending);"
    as_int = db.executor.prepare(query)
    assert as_int.result.elem.atom == "int"
    db.define("define Pending as SET<TUPLE<Atomic<str>: v>>;")
    as_str = db.executor.prepare(query)
    assert as_str is not as_int and as_str.result.elem.atom == "str"
    db.insert("Pending", [{"v": "x"}, {"v": "y"}])
    assert db.query(query).value == ["x", "y"]


def test_a_define_during_compilation_retires_that_plan(compiles, monkeypatch):
    """A plan is keyed by the generation read before the schema was
    snapshot, not by the one current when it is filed: a plan compiled
    while a ``define`` lands is filed under the old generation, and the
    next prepare compiles afresh."""
    db = _rows_db()
    compile_query = Compiler.compile_query

    def racing(compiler, node):
        db.define("define Late as SET<TUPLE<Atomic<int>: k>>;")
        return compile_query(compiler, node)

    monkeypatch.setattr(Compiler, "compile_query", racing)
    raced = db.executor.prepare(ROWS_QUERY)
    monkeypatch.setattr(Compiler, "compile_query", compile_query)
    assert "Late" in db.schema and len(compiles) == 1
    fresh = db.executor.prepare(ROWS_QUERY)
    assert fresh is not raced and len(compiles) == 2
    assert db.executor.prepare(ROWS_QUERY) is fresh


def test_load_defines_through_the_executor(tmp_path):
    db = _rows_db()
    db.save(tmp_path)
    loaded = MirrorDBMS.load(tmp_path)
    assert loaded.executor.schema_generation == 1
    assert loaded.query(ROWS_QUERY).value == db.query(ROWS_QUERY).value


# ----------------------------------------------------------------------
# Shared plans under threads, and no parse on a hit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bound", [PLAN_CACHE_SIZE, 2], ids=["shared", "evicting"])
def test_threads_sharing_one_executor_match_the_oracle(bound, monkeypatch):
    """Eight threads (more than cores, switching every 10 us) rank
    distinct terms through one executor.  Under the small bound every
    thread also spells the query with its own trailing spaces -- the
    same plan under eight keys -- so misses, filings and evictions race
    with hits."""
    monkeypatch.setattr(executor_module, "PLAN_CACHE_SIZE", bound)
    db, stats, vocabulary = _library(60)
    texts = [SECTION3_QUERY + " " * t if bound == 2 else SECTION3_QUERY for t in range(8)]
    workloads = [
        [[vocabulary[(t * 3 + q) % len(vocabulary)], vocabulary[(t + 5 * q) % len(vocabulary)]]
         for q in range(6)]
        for t in range(8)
    ]
    expected = [
        [db.query_interpreted(SECTION3_QUERY, {"query": terms, "stats": stats})
         for terms in queries]
        for queries in workloads
    ]
    results: list = [None] * 8
    barrier = threading.Barrier(8, timeout=30)

    def reader(index: int) -> None:
        barrier.wait()
        results[index] = [
            db.query(texts[index] if q % 2 else SECTION3_QUERY,
                     {"query": terms, "stats": stats}).value
            for q, terms in enumerate(workloads[index])
        ]

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert len(got) == len(want)
        for values, oracle in zip(got, want):
            assert values == pytest.approx(oracle, abs=1e-12)
    assert len(db.executor._plans) == (1 if bound > 2 else 2)


def _count_calls(monkeypatch, function, modules) -> list:
    calls: list = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, function.__name__, spy)
    return calls


def test_cached_section3_queries_parse_nothing(monkeypatch):
    import repro.moa.parser
    import repro.monet.mil
    import repro.monet.mil.interpreter
    import repro.monet.mil.parser

    db, stats, vocabulary = _library()
    queries = [
        {"query": [vocabulary[k % len(vocabulary)], vocabulary[(3 * k + 1) % len(vocabulary)]],
         "stats": stats}
        for k in range(50)
    ]
    oracles = {k: db.query_interpreted(SECTION3_QUERY, queries[k]) for k in range(0, 50, 10)}
    first = db.query(SECTION3_QUERY, queries[0])
    moa_parses = _count_calls(
        monkeypatch, repro.moa.parser.parse_query, [repro.moa.parser, executor_module]
    )
    mil_parses = _count_calls(
        monkeypatch,
        repro.monet.mil.parser.parse_program,
        [
            repro.monet.mil.parser,
            repro.monet.mil,
            repro.monet.mil.interpreter,
            executor_module,
        ],
    )
    for k, params in enumerate(queries):
        result = db.query(SECTION3_QUERY, params)
        assert result.compiled is first.compiled
        if k in oracles:
            assert result.value == pytest.approx(oracles[k], abs=1e-12)
    assert moa_parses == []
    assert mil_parses == []


# ----------------------------------------------------------------------
# The plan text: golden, parsed once, unparse a fixed point
# ----------------------------------------------------------------------


def _sec3_plan():
    db = MirrorDBMS()
    db.define(TRADITIONAL_DDL)
    return db.executor.prepare(
        SECTION3_QUERY, {"query": ["sunset"], "stats": CollectionStats(0, 0.0)}
    )


def _sec5_plan():
    db, stats, _ = build_internal_db(10, seed=2)
    return db.executor.prepare(SECTION5_QUERY, {"query": ["a"], "stats": stats})


def _check_parsed_once(compiled) -> None:
    assert compiled.program_ast == parse_program(compiled.program)
    rendered = unparse(compiled.program_ast)
    assert unparse(parse_program(rendered)) == rendered


@pytest.mark.parametrize(
    "plan,golden",
    [(_sec3_plan, "section3_plan.mil"), (_sec5_plan, "section5_plan.mil")],
    ids=["sec3", "sec5"],
)
def test_ranking_plans_match_their_golden(plan, golden):
    compiled = plan()
    assert compiled.program == (GOLDEN / golden).read_text()
    assert compiled.statements == 19
    assert len(compiled.program_ast.statements) == 19
    _check_parsed_once(compiled)


def test_compiler_queries_match_their_golden():
    goldens = json.loads((GOLDEN / "compiler_queries.json").read_text())
    assert list(goldens) == QUERIES
    db = MirrorDBMS()
    db.define(SCHEMA_DDL)
    for query, program in goldens.items():
        compiled = db.executor.prepare(query)
        assert compiled.program == program, query
        _check_parsed_once(compiled)
