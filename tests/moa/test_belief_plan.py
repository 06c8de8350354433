"""The compiled getBL belief plan does per-term work once per query term.

The idf of the InQuery belief is a function of the query term alone, so
the plan looks it up for the k query rows (``query.outerjoin(
<stats>_idf)``) and spreads it over the matched postings by position.
Two consequences are pinned here:

* a query term the bound stats never saw has idf 0 -- the oracle's
  answer (:meth:`repro.ir.stats.CollectionStats.idf`) -- instead of
  dropping postings from one operand of the belief arithmetic, and
* the plan's shape: the stats lookup's left operand is the query, no
  per-posting BAT meets a stats binding, and no str column is gathered
  after the term match.
"""

from __future__ import annotations

import re

import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet.bat import BAT
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.mil import builtins
from repro.workloads import (
    SECTION3_QUERY,
    SECTION5_QUERY,
    TRADITIONAL_DDL,
    build_internal_db,
    synth_annotations,
)

COLLECTION = "TraditionalImgLib"
UNSEEN = "zebraword"
NEW_DOCS = [
    {"source": "http://new/1", "annotation": f"{UNSEEN} sunset sea"},
    {"source": "http://new/2", "annotation": f"{UNSEEN} {UNSEEN} forest"},
]


@pytest.fixture(params=["monolithic", "fragmented"])
def stale_stats_db(request):
    """A 50-doc library whose stats were bound before two documents
    containing the unseen term arrived."""
    if request.param == "fragmented":
        db = MirrorDBMS(
            fragment_threshold=64, fragment_policy=FragmentationPolicy(target_size=128)
        )
    else:
        db = MirrorDBMS()
    db.define(TRADITIONAL_DDL)
    db.replace(COLLECTION, synth_annotations(50, seed=1))
    stats = db.stats(COLLECTION, "annotation")
    assert stats.df(UNSEEN) == 0
    db.insert(COLLECTION, NEW_DOCS)
    if request.param == "fragmented":
        assert db.pool.lookup_fragments(f"{COLLECTION}.annotation.term").nfragments > 1
    return db, stats


def test_unseen_term_scores_the_default_belief(stale_stats_db):
    db, stats = stale_stats_db
    params = {"query": [UNSEEN], "stats": stats}
    compiled = db.query(SECTION3_QUERY, params).value
    assert compiled == pytest.approx(db.query_interpreted(SECTION3_QUERY, params), abs=1e-12)
    assert compiled[-2:] == [0.4, 0.4]  # alpha: the unseen term has idf 0
    assert compiled[:-2] == [0.0] * 50


@pytest.mark.parametrize(
    "query",
    [
        ["sunset", UNSEEN, "sea"],
        [UNSEEN, "sunset", UNSEEN, "sunset"],
        [UNSEEN, "nosuchterm"],
        [],
    ],
    ids=["seen-and-unseen", "duplicated", "only-unseen", "empty"],
)
def test_unseen_terms_match_the_oracle(stale_stats_db, query):
    """Seen and unseen terms mixed, duplicated (each occurrence counts
    once), only unseen ones, and the empty query: compiled == oracle."""
    db, stats = stale_stats_db
    params = {"query": query, "stats": stats}
    compiled = db.query(SECTION3_QUERY, params).value
    assert len(compiled) == 52
    assert compiled == pytest.approx(db.query_interpreted(SECTION3_QUERY, params), abs=1e-12)


# ----------------------------------------------------------------------
# Plan shape
# ----------------------------------------------------------------------


def _text_case():
    db = MirrorDBMS()
    db.define(TRADITIONAL_DDL)
    db.replace(COLLECTION, synth_annotations(60, seed=2))
    stats = db.stats(COLLECTION, "annotation")
    return db, SECTION3_QUERY, stats, stats.vocabulary()[:3] + ["sunset"]


def _image_case():
    db, stats, _ = build_internal_db(40, seed=2)
    return db, SECTION5_QUERY, stats, stats.vocabulary()[:4]


_STATEMENT = re.compile(r"^(\w+) := (.*);$")
_JOIN = re.compile(r"(\w+)\.(?:join|outerjoin)\((\w+)\)")


def _statements(program: str):
    return [_STATEMENT.match(line).groups() for line in program.strip().splitlines()]


def _atoms(value) -> set:
    if isinstance(value, (BAT, FragmentedBAT)):
        return {value.htype, value.ttype}
    return set()


@pytest.mark.parametrize("case", [_text_case, _image_case], ids=["sec3", "sec5"])
def test_belief_plan_does_per_term_work_per_query_term(case, monkeypatch):
    db, query_text, stats, terms = case()
    params = {"query": terms, "stats": stats}
    program = db.executor.prepare(query_text, params).program
    statements = _statements(program)

    # The stats are read through one lookup, whose left operand is the
    # query parameter (k rows), never a per-posting BAT.
    stats_joins = [
        (left, right)
        for _, expr in statements
        for left, right in _JOIN.findall(expr)
        if right.startswith("stats_")
    ]
    assert stats_joins == [("query", "stats_idf")]

    # No str column is gathered after the term match (the query probing
    # the term column): every BAT the plan binds from the match on is
    # str-free.
    match = next(
        index for index, (_, expr) in enumerate(statements) if expr.startswith("query.join(")
    )
    env = db.executor.mil.run(program, db.executor._bind(params)).env
    for name, expr in statements[match:]:
        assert "str" not in _atoms(env[name]), f"{name} := {expr} carries a str column"

    # The stats lookup sees exactly the k query rows.
    seen = []
    row = builtins._BY_NAME["outerjoin"]

    def spy(implementation):
        def spied(left, right, *rest):
            if right is stats.idf_bat():
                seen.append(len(left))
            return implementation(left, right, *rest)

        return spied

    monkeypatch.setitem(
        builtins._BY_NAME,
        "outerjoin",
        row._replace(mono=spy(row.mono), rule=row.rule._replace(body=spy(row.rule.body))),
    )
    compiled = db.query(query_text, params).value
    assert seen == [len(terms)]
    assert compiled == pytest.approx(db.query_interpreted(query_text, params), abs=1e-12)
