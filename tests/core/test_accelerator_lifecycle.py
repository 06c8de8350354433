"""Lifecycle of a str column's codes and heap
(:class:`repro.monet.bat.StrColumn`) under the whole system: sharing a
heap may save work, it may never change an answer.

* copy-on-write mutations build new columns on the old column's heap,
  which only grows, so a snapshot still reading the old column reads
  exactly its own codes and values;
* a str column is stored as codes plus a string heap and loads as codes
  on one heap, with no value encoded on the way;
* a column derived from another -- a gather, a window, a fragment --
  shares its heap.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet.bat import BAT, Column, StrHeap, VoidColumn, column_from_values
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from repro.monet.mil import run_program
from repro.workloads import (
    SECTION3_QUERY,
    TRADITIONAL_DDL,
    build_text_db,
    synth_annotations,
)
from tests.conftest import assert_codes_decode

COLLECTION = "TraditionalImgLib"
TERM = f"{COLLECTION}.annotation.term"


@pytest.fixture
def encoded(monkeypatch) -> list:
    """The length of every batch of values numbered into a heap."""
    seen: list = []
    real_encode = StrHeap.encode

    def spy(heap, values):
        seen.append(len(values))
        return real_encode(heap, values)

    monkeypatch.setattr(StrHeap, "encode", spy)
    return seen


def _ranking_matches_reference(db: MirrorDBMS, query) -> list:
    """The compiled ranking, checked against the tuple-at-a-time
    interpreter over the same (current) state."""
    params = {"query": query, "stats": db.stats(COLLECTION, "annotation")}
    compiled = db.query(SECTION3_QUERY, params).value
    reference = db.query_interpreted(SECTION3_QUERY, params)
    assert compiled == pytest.approx(reference, abs=1e-9)
    return compiled


def test_contrep_insert_after_warm_query_and_pinned_snapshot():
    db, stats, _ = build_text_db(40, seed=3)
    query = stats.vocabulary()[:3]
    params = {"query": query, "stats": stats}
    before = _ranking_matches_reference(db, query)
    old_term = db.pool.lookup(TERM).tail
    old_codes, old_length = old_term.codes.copy(), len(old_term.heap)

    txn = db.begin()  # pins the pre-mutation epoch
    db.insert(
        COLLECTION,
        [{"source": "http://new/1", "annotation": " ".join(query) + " zebra"}],
    )
    new_term = db.pool.lookup(TERM).tail
    assert new_term is not old_term and new_term.heap is old_term.heap
    assert len(old_term.heap) == old_length + 1  # "zebra" only
    assert old_term.codes.tolist() == old_codes.tolist()
    assert new_term.codes[: len(old_codes)].tolist() == old_codes.tolist()
    after = _ranking_matches_reference(db, query)
    assert len(after) == len(before) + 1 and after[-1] > 0.4
    # A word the old column never held joins too.
    assert _ranking_matches_reference(db, ["zebra"])[-1] > 0.4
    # The pinned snapshot still answers from the old column.
    assert txn.query(SECTION3_QUERY, params).value == before
    assert_codes_decode(old_term)
    txn.abort()


def _str_join_pool() -> BATBufferPool:
    pool = BATBufferPool()
    words = np.array(["ape", "bat", None, "cat", "bat", "ape"], dtype=object)
    pool.register("words", BAT(VoidColumn(0, len(words)), column_from_values("str", words)))
    pool.register(
        "dict",
        BAT(
            column_from_values("str", np.array(["bat", "ape", "dog"], dtype=object)),
            Column("int", np.array([10, 20, 30], dtype=np.int64)),
        ),
    )
    return pool


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (
            lambda pool: pool.append("words", tails=["dog", "emu"]),
            [(0, 20), (1, 10), (4, 10), (5, 20), (6, 30)],
        ),
        (
            lambda pool: pool.update("words", [0, 3], ["dog", None]),
            [(0, 30), (1, 10), (4, 10), (5, 20)],
        ),
        (
            lambda pool: pool.delete("words", [0, 1]),
            [(2, 10), (3, 20)],
        ),
    ],
    ids=["append", "update", "delete"],
)
def test_pool_mutation_of_a_warm_str_bat(mutate, expected):
    """After a str join, each copy-on-write mutation of the probe BAT
    builds a new column on the same heap and shows in the next join,
    while a snapshot pinned before it keeps joining the old BUNs."""
    pool = _str_join_pool()
    # [word position, dict value]; the NIL word at 2 and "cat" miss.
    before = [(0, 20), (1, 10), (4, 10), (5, 20)]
    assert _joined(pool) == before
    old = pool.lookup("words").tail
    pinned = pool.read_snapshot()
    mutate(pool)
    new = pool.lookup("words").tail
    assert new is not old and new.heap is old.heap
    assert_codes_decode(new)
    assert _joined(pool) == expected
    assert _joined(pool, reader=pinned) == before


def _joined(pool, **kwargs):
    script = 'bat("words").join(bat("dict"));'
    return run_program(script, pool, **kwargs).value.to_pairs()


def test_accelerator_is_never_persisted(tmp_path, encoded):
    """A str column is stored as codes plus a string heap under the
    catalog entry a numeric BAT gets, and loads as codes on one heap
    with no value encoded: the first query on the loaded db gives the
    reference answer."""
    db, stats, _ = build_text_db(40, seed=4)
    query = stats.vocabulary()[:3]
    expected = _ranking_matches_reference(db, query)
    db.save(tmp_path)

    catalog = json.loads((tmp_path / "catalog.json").read_text())
    term_entry = catalog["bats"][TERM]
    assert set(term_entry) == set(catalog["bats"][f"{COLLECTION}.annotation.tf"])
    assert set(term_entry) == {
        "file", "htype", "ttype", "hsorted", "tsorted", "hkey", "tkey",
        "hvoid", "tvoid", "hseqbase", "count",
    }
    with np.load(tmp_path / term_entry["file"]) as archive:
        assert set(archive.files) == {"tail", "tail_heap", "tail_offsets"}

    encoded.clear()
    loaded = MirrorDBMS.load(tmp_path)
    assert encoded == []  # load numbers no value
    for name in loaded.bat_names(COLLECTION):
        bat = loaded.pool.lookup(name)
        for column in (bat.head, bat.tail):
            assert_codes_decode(column, name)
    first = loaded.query(SECTION3_QUERY, {"query": query, "stats": stats}).value
    assert first == pytest.approx(expected, abs=1e-9)


def test_derived_columns_share_the_parent_dictionary():
    rng = np.random.default_rng(5)
    values = np.array(
        [None if rng.random() < 0.1 else f"w{rng.integers(0, 9)}" for _ in range(200)],
        dtype=object,
    )
    parent = column_from_values("str", values)
    heap = parent.heap
    positions = rng.permutation(200)[:70]
    fragments = fragment_bat(
        BAT(VoidColumn(0, 200), parent), FragmentationPolicy(target_size=64)
    ).fragments
    derived = [
        (parent.take(positions), values[positions]),
        (parent.window(20, 150), values[20:150]),
        (parent.take(positions).window(5, 40), values[positions][5:40]),
    ] + [
        (fragment.tail, values[start : start + 64])
        for fragment, start in zip(fragments, range(0, 200, 64))
    ]
    for column, expected_values in derived:
        assert column.materialize().tolist() == expected_values.tolist()
        assert column.heap is heap  # shared, not copied
        assert_codes_decode(column)
    assert parent.window(0, 200) is parent
    # The heap numbers values by first appearance, NIL as -1.
    first_seen = list(dict.fromkeys(v for v in values.tolist() if v is not None))
    assert [heap.index[v] for v in first_seen] == list(range(len(heap)))


def _recoded(column):
    """*column* on a fresh heap: what a concatenation that drops the
    codes would return."""
    if column.is_void or column.atom_type.name != "str":
        return column
    return column_from_values("str", column.materialize())


@pytest.mark.parametrize("concat", ["coded", "codes-dropped"])
def test_warm_fragmented_plan_encodes_nothing_longer_than_the_query(
    concat, monkeypatch, encoded
):
    """After a first query and a commit, the Sec. 3 plan over
    multi-fragment registrations encodes no str column longer than the
    query BAT: the commit numbers only its appended values, the
    term-first plan probes the stored term column's fragments in their
    heap, and the eager plan's gathered term payload reaches every keyed
    operator as the stored column's codes, through fetchjoin, join and
    the concatenation of gathers from several fragments.  The
    ``codes-dropped`` run is the sensitivity check: with
    ``concat_columns`` re-encoding its result onto a fresh heap, the
    eager plan encodes a gathered payload, and the spy sees it."""
    from repro.monet import bat as bat_module
    from repro.monet import fragments, kernel

    db = MirrorDBMS(
        fragment_threshold=64, fragment_policy=FragmentationPolicy(target_size=128)
    )
    db.define(TRADITIONAL_DDL)
    db.replace(COLLECTION, synth_annotations(120, seed=6))
    stats = db.stats(COLLECTION, "annotation")
    assert db.pool.lookup_fragments(TERM).nfragments > 2
    vocabulary = stats.vocabulary()
    queries = [vocabulary[i: i + 3] for i in (0, 3, 6)]
    params = [{"query": query, "stats": stats} for query in queries]
    db.query(SECTION3_QUERY, params[0])
    encoded.clear()
    db.insert(COLLECTION, [{"source": "http://new/1", "annotation": "zebra quagga sunset"}])
    assert encoded and max(encoded) <= 3  # the commit's own values only
    if concat == "codes-dropped":
        real = bat_module.concat_columns
        for module in (fragments, kernel):
            monkeypatch.setattr(module, "concat_columns", lambda parts: _recoded(real(parts)))
    encoded.clear()
    answers = [
        db.query(SECTION3_QUERY, p, **modes).value
        for p in params
        for modes in ({}, {"optimize": False, "eager_columns": True})
    ]
    seen = list(encoded)
    monkeypatch.undo()
    for answer, p in zip(answers, [p for p in params for _ in range(2)]):
        assert answer == pytest.approx(db.query_interpreted(SECTION3_QUERY, p), abs=1e-9)
    assert seen  # the query BAT itself is encoded
    if concat == "coded":
        assert max(seen) <= len(queries[0])
    else:
        assert max(seen) > len(queries[0])
