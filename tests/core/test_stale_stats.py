"""Statistics are a function of the snapshot the plan reads (ROADMAP L).

``db.stats`` returns a frozen ``CollectionStats`` of the epoch it was
called at, and callers bind it once.  From the first commit on, a
ranking with that value scores the new documents with the old N, df
and avgdl -- the ranking of no snapshot.  The two ``xfail`` tests below
state the wanted behaviour and fail today; they are strict, so the
change that resolves getBL's statistics against the plan's pinned
snapshot (ROADMAP W) turns them into passes that must then be unmarked.
"""

from __future__ import annotations

import pytest

from repro.ir.stats import CollectionStats
from repro.moa.mapping import reconstruct_collection
from repro.workloads import SECTION3_QUERY, build_text_db

COLLECTION = "TraditionalImgLib"
#: Two documents holding a term the 50-document collection never saw.
UNSEEN = ["zebraword sunset", "zebraword zebraword sea"]
#: Their Sec. 3 scores for ``["zebraword"]`` under statistics of the
#: 52 documents (N 52, df 2): not alpha = 0.4, the unseen-term answer.
FRESH_SCORES = [0.662, 0.721]


def _with_unseen_documents():
    db, stats, _ = build_text_db(50, seed=0)
    db.insert(
        COLLECTION,
        [{"source": f"new{i}", "annotation": text} for i, text in enumerate(UNSEEN)],
    )
    return db, stats


def _ranking(db, stats, query):
    return db.query(SECTION3_QUERY, {"query": query, "stats": stats}).value


def test_fresh_statistics_score_the_new_documents():
    db, _ = _with_unseen_documents()
    fresh = db.stats(COLLECTION, "annotation")
    assert _ranking(db, fresh, ["zebraword"])[-2:] == pytest.approx(
        FRESH_SCORES, abs=5e-4
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="L: stats bound before a commit score its documents with the old "
    "epoch's df (alpha 0.4 for an unseen term); fixed by W",
)
def test_stats_bound_before_a_commit_score_its_documents():
    db, stats = _with_unseen_documents()
    assert _ranking(db, stats, ["zebraword"])[-2:] == pytest.approx(
        FRESH_SCORES, abs=5e-4
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="L: a ranking inside a transaction uses the bound stats' epoch, "
    "not the pinned snapshot's; fixed by W",
)
def test_ranking_in_a_transaction_uses_its_snapshots_statistics():
    db, stats, _ = build_text_db(50, seed=0)
    db.insert(
        COLLECTION,
        [
            {"source": "new0", "annotation": "sunset sunset over the sea"},
            {"source": "new1", "annotation": "a red sunset"},
        ],
    )
    query = ["sunset", "sea"]
    txn = db.begin()
    got = txn.query(SECTION3_QUERY, {"query": query, "stats": stats}).value
    documents = reconstruct_collection(
        txn.snapshot, COLLECTION, db.collection_type(COLLECTION)
    )
    fresh = CollectionStats.from_documents(
        row["annotation"].terms for row in documents
    )
    expected = db.executor.execute_interpreted(
        SECTION3_QUERY, {COLLECTION: documents}, {"query": query, "stats": fresh}
    )
    txn.abort()
    assert got == pytest.approx(expected, rel=1e-12)
