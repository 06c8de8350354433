"""The inverted file is an index: getBL probes the term column's held
index with the k query terms and reads only the matched postings.

* the term-first plan is the oracle's answer (``query_interpreted``)
  over a wide Zipf vocabulary -- unseen, duplicated, only-unseen and
  empty queries, getBL under a ``select`` so the spine is a subset --
  monolithic, fragmented and in the ragged layout, before and after
  appends, deletes and updates, and for a reader pinned before an
  append;
* a stored column's held index is built once per column version: no
  ``_code_runs`` build on later queries, and after a commit only the
  changed fragment's; its tables cover the codes its fragment uses,
  not the shared heap;
* the index lives and dies with its column version: traced memory
  stays flat over 50 commits;
* no statement of the Sec. 3/Sec. 5 plan binds a BAT longer than the
  matches or the documents.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet import kernel
from repro.monet.bat import BAT
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT, fold_tail
from repro.workloads import SECTION5_QUERY, build_internal_db
from tests.conftest import fragment_layout

DDL = "define Docs as SET<TUPLE<Atomic<int>: keep, CONTREP<Text>: body>>;"
RANKED = "map[sum(THIS)](map[getBL(THIS.body, query, stats)](Docs));"
SELECTED = (
    "map[sum(THIS)](map[getBL(THIS.body, query, stats)](select[THIS.keep = 1](Docs)));"
)
VOCABULARY = 3000
UNSEEN = "unseenword"
POLICY = FragmentationPolicy(target_size=48)
LAYOUTS = ("monolithic", "fragmented", "ragged")


def _rows(count: int, seed: int, start: int = 0):
    """Documents as token lists over a Zipf vocabulary of
    :data:`VOCABULARY` words, half of them kept by the select."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, VOCABULARY + 1)
    weights /= weights.sum()
    return [
        {
            "keep": int((start + i) % 2),
            "body": [f"t{w}" for w in rng.choice(VOCABULARY, rng.integers(1, 9), p=weights)],
        }
        for i in range(count)
    ]


def _db(layout: str, count: int = 240, seed: int = 1) -> MirrorDBMS:
    if layout == "fragmented":
        db = MirrorDBMS(fragment_threshold=16, fragment_policy=POLICY)
    else:
        db = MirrorDBMS()
    db.define(DDL)
    db.insert("Docs", _rows(count, seed))
    if layout == "ragged":
        for name in db.bat_names("Docs"):
            ragged = fragment_layout(db.pool.lookup(name), "ragged", POLICY)
            db.pool.register_fragmented(name, ragged, replace=True)
    if layout != "monolithic":
        assert db.pool.lookup_fragments("Docs.body.term").nfragments > 2
    return db


def _queries(stats):
    vocabulary = stats.vocabulary()
    common, rare = vocabulary[:2], vocabulary[-2:]
    return {
        "seen": common + rare,
        "unseen-mixed": [rare[0], UNSEEN, common[1]],
        "duplicated": [common[0], UNSEEN, common[0], rare[1], UNSEEN],
        "only-unseen": [UNSEEN, "nosuchword"],
        "empty": [],
    }


#: The real plan (the unforced attribute probed term-first) and the
#: eager one (the forced, spine-restricted postings probed term-first).
MODES = ({}, {"optimize": False, "eager_columns": True})


def _check_oracle(db: MirrorDBMS, stats) -> None:
    for name, query in _queries(stats).items():
        params = {"query": query, "stats": stats}
        for text in (RANKED, SELECTED):
            reference = db.query_interpreted(text, params)
            for modes in MODES:
                compiled = db.query(text, params, **modes).value
                assert len(compiled) == len(reference), (name, text, modes)
                assert compiled == pytest.approx(reference, abs=1e-12), (name, text, modes)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_term_first_plan_matches_the_oracle(layout):
    db = _db(layout)
    _check_oracle(db, db.stats("Docs", "body"))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_term_first_plan_after_appends_deletes_and_updates(layout):
    db = _db(layout)
    stats = db.stats("Docs", "body")
    _check_oracle(db, stats)  # every held index built
    db.insert("Docs", _rows(30, seed=2, start=240) + [{"keep": 1, "body": [UNSEEN, "t0"]}])
    _check_oracle(db, stats)  # stale stats: the new words have idf 0
    db.delete("Docs", where=lambda row: row["body"].get("t1", 0) > 0)
    db.update("Docs", {"body": ["t2", UNSEEN, "t2"]}, where={"keep": 0})
    _check_oracle(db, stats)
    _check_oracle(db, db.stats("Docs", "body"))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_reader_pinned_before_an_append_sees_its_own_postings(layout):
    db = _db(layout)
    stats = db.stats("Docs", "body")
    query = _queries(stats)["seen"]
    params = {"query": query, "stats": stats}
    before = db.query(RANKED, params).value
    txn = db.begin()
    db.insert("Docs", [{"keep": 1, "body": query * 2} for _ in range(5)])
    after = db.query(RANKED, params).value  # indexes the new term column
    assert after[: len(before)] == before and len(after) == len(before) + 5
    assert min(after[len(before):]) > 0.4
    assert txn.query(RANKED, params).value == before
    txn.abort()


@pytest.fixture
def index_builds(monkeypatch) -> list:
    """The codes array of every held index built."""
    builds: list = []
    real = kernel._code_runs

    def spy(codes):
        builds.append(codes)
        return real(codes)

    monkeypatch.setattr(kernel, "_code_runs", spy)
    return builds


def _built(builds, columns) -> list:
    """The *columns* (str columns) some recorded build indexed."""
    return [column for column in columns if any(codes is column.codes for codes in builds)]


def _term_columns(db) -> list:
    """The term column's fragments as a plan resolves them by name
    (an oversized registered fragment folded to the plan's policy)."""
    policy = db.executor.mil.fragment_policy
    term = fold_tail(db.pool.lookup_fragments("Docs.body.term"), policy)
    return [frag.tail for frag in term.fragments]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_held_indexes_are_built_once_per_column_version(layout, index_builds):
    """Later queries build no index on a held column; a commit makes
    only the changed fragment's index -- in the ragged layout too,
    where the fold's views of an oversized fragment the new version
    still shares are the same objects."""
    db = _db(layout)
    stats = db.stats("Docs", "body")
    queries = list(_queries(stats).values())
    db.query(RANKED, {"query": queries[0], "stats": stats})
    terms = _term_columns(db)
    held = terms + [stats.idf_bat().head]
    assert _built(index_builds, held) == held
    indexes = [column.match_index for column in terms]
    index_builds.clear()
    for query in queries:
        db.query(RANKED, {"query": query, "stats": stats})
        db.query(SELECTED, {"query": query, "stats": stats})
    assert _built(index_builds, held) == []

    db.insert("Docs", _rows(2, seed=3, start=240))
    after = _term_columns(db)
    kept = [column for column in after if any(column is old for old in terms)]
    fresh = [column for column in after if not any(column is old for old in kept)]
    assert [column.match_index for column in kept] == [
        index for column, index in zip(terms, indexes) if any(column is k for k in kept)
    ]
    assert fresh == [after[-1]]  # the changed fragment
    index_builds.clear()
    db.query(RANKED, {"query": queries[0], "stats": stats})
    assert _built(index_builds, after + held) == fresh


def test_dense_fragmented_right_builds_no_index_per_query(monkeypatch):
    """In the ragged layout the plan joins a fragmented right operand
    whose materialized oid heads are proven dense (sorted + key) and
    which has an empty fragment: the fragmented join routes it by
    seqbase windows, as ``kernel.join`` does a monolithic one, so a
    repeated query builds no code index."""
    db = _db("ragged")
    stats = db.stats("Docs", "body")
    params = {"query": list(_queries(stats).values())[0], "stats": stats}
    db.query(RANKED, params)
    builds = []
    real = kernel._code_index

    def spy(codes, ncodes):
        builds.append(len(codes))
        return real(codes, ncodes)

    monkeypatch.setattr(kernel, "_code_index", spy)
    for _ in range(3):
        db.query(RANKED, params)
    assert builds == []


def _table_entries(index) -> int:
    return len(index.order) + len(index.keys) + len(index.starts) + len(index.counts)


def test_held_index_tables_follow_the_fragment_not_the_heap():
    """Every term fragment shares the column's one heap, which keeps
    every word ever stored; a fragment's held index grows with its own
    postings, so the fragments' indexes add up to O(postings)."""
    db = _db("fragmented", count=600)
    stats = db.stats("Docs", "body")
    db.query(RANKED, {"query": _queries(stats)["seen"], "stats": stats})
    terms = _term_columns(db)
    heap = len(terms[0].heap)
    for column in terms:
        index = column.match_index
        used = np.unique(column.codes[column.codes >= 0])
        assert index.keys[:-1].tolist() == used.tolist()
        assert _table_entries(index) <= 4 * len(column) + 1 < heap
    assert sum(_table_entries(column.match_index) for column in terms) <= 5 * sum(
        len(column) for column in terms
    )


def test_superseded_indexes_are_freed():
    """Fifty commits, each followed by a query that indexes the new
    last term fragment: traced memory grows by the commits' own data,
    not by an index per superseded column version, without the cycle
    collector's help."""
    db = MirrorDBMS(fragment_threshold=2048, fragment_policy=FragmentationPolicy(4096))
    db.define(DDL)
    db.insert("Docs", _rows(5000, seed=4))
    stats = db.stats("Docs", "body")
    params = {"query": _queries(stats)["seen"], "stats": stats}
    term = db.pool.lookup_fragments("Docs.body.term")
    assert term.nfragments > 2
    db.query(RANKED, params)
    last = _term_columns(db)[-1].match_index
    extra = iter(_rows(60, seed=5, start=5000))
    for _ in range(5):  # warm every cache on the commit path
        db.insert("Docs", [next(extra)])
        db.query(RANKED, params)
    gc.collect()
    # Reference counting alone must free a superseded version: with the
    # cycle collector off, an index kept alive by a reference cycle
    # (or a cache) stays counted.
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            db.insert("Docs", [next(extra)])
            db.query(RANKED, params)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    # One held index of the last fragment: its order plus keys, starts
    # and counts over the codes it uses.  Fifty kept versions would add
    # fifty of them to the commits' own data (about twelve here).
    index_bytes = 8 * _table_entries(last)
    assert grown < 25 * index_bytes, (grown, index_bytes)


# ----------------------------------------------------------------------
# Plan shape
# ----------------------------------------------------------------------


def _bound_sizes(db, text, params):
    """(statement, BUN count) of every BAT the compiled plan binds."""
    compiled = db.executor.prepare(text, params)
    env = db.executor.mil.run(compiled.program, db.executor._bind(params)).env
    sizes = []
    for line in compiled.program.strip().splitlines():
        name = line.split(" := ")[0]
        value = env[name]
        if isinstance(value, (BAT, FragmentedBAT)):
            sizes.append((line, len(value)))
    return sizes


def _check_shape(db, text, prefix, params, documents) -> None:
    postings = len(db.pool.lookup(f"{prefix}.term"))
    sizes = _bound_sizes(db, text, params)
    matches = next(size for line, size in sizes if " := query.join(" in line)
    assert 0 < matches < 0.05 * postings
    bound = max(matches, documents)
    for line, size in sizes:
        assert size <= bound, f"{line} binds {size} BUNs (matches {matches}, docs {documents})"


def test_sec3_plan_reads_only_matched_postings():
    db = MirrorDBMS()
    db.define(DDL)
    db.insert("Docs", _rows(2000, seed=6))
    stats = db.stats("Docs", "body")
    query = stats.vocabulary()[-3:] + [UNSEEN]
    params = {"query": query, "stats": stats}
    for text, documents in ((RANKED, 2000), (SELECTED, 1000)):
        _check_shape(db, text, "Docs.body", params, 2000)
        assert db.query(text, params).value == pytest.approx(
            db.query_interpreted(text, params), abs=1e-12
        )
        assert len(db.query(text, params).value) == documents


def test_sec5_plan_reads_only_matched_postings():
    db, stats, _ = build_internal_db(400, seed=2)
    query = stats.vocabulary()[:1]
    params = {"query": query, "stats": stats}
    _check_shape(db, SECTION5_QUERY, "ImageLibraryInternal.image", params, 400)
    assert db.query(SECTION5_QUERY, params).value == pytest.approx(
        db.query_interpreted(SECTION5_QUERY, params), abs=1e-12
    )
