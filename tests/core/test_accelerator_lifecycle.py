"""Lifecycle of the column accelerator (a str column's cached dictionary
encoding, :meth:`repro.monet.bat.Column.encoding`) under the whole
system: it may speed a query up, it may never change an answer.

* copy-on-write mutations build new columns, so the accelerator of the
  old column can neither leak into the new state nor be torn away from
  a snapshot that still reads the old one;
* it is never persisted: a str column is stored as codes plus a string
  heap, yet loaded columns start cold;
* a column derived from a warm one shares the parent's dictionary.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet.bat import BAT, Column, VoidColumn, dictionary_encode
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from repro.monet.mil import run_program
from repro.workloads import (
    SECTION3_QUERY,
    TRADITIONAL_DDL,
    build_text_db,
    synth_annotations,
)

COLLECTION = "TraditionalImgLib"
TERM = f"{COLLECTION}.annotation.term"


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
    assert old_term._encoding is not None  # the query left it warm

    txn = db.begin()  # pins the pre-mutation epoch
    db.insert(
        COLLECTION,
        [{"source": "http://new/1", "annotation": " ".join(query) + " zebra"}],
    )
    new_term = db.pool.lookup(TERM).tail
    assert new_term is not old_term
    after = _ranking_matches_reference(db, query)
    assert len(after) == len(before) + 1 and after[-1] > 0.4
    # A word no old dictionary has joins too.
    assert _ranking_matches_reference(db, ["zebra"])[-1] > 0.4
    # The pinned snapshot still answers from the old (warm) column.
    assert txn.query(SECTION3_QUERY, params).value == before
    txn.abort()


def _str_join_pool() -> BATBufferPool:
    pool = BATBufferPool()
    words = np.array(["ape", "bat", None, "cat", "bat", "ape"], dtype=object)
    pool.register("words", BAT(VoidColumn(0, len(words)), Column("str", words)))
    pool.register(
        "dict",
        BAT(
            Column("str", np.array(["bat", "ape", "dog"], dtype=object)),
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
    """After a warm str join, each copy-on-write mutation of the probe
    BAT must show in the next join, while a snapshot pinned before it
    keeps joining the old BUNs."""
    pool = _str_join_pool()
    # [word position, dict value]; the NIL word at 2 and "cat" miss.
    before = [(0, 20), (1, 10), (4, 10), (5, 20)]
    assert _joined(pool) == before
    assert pool.lookup("words").tail._encoding is not None
    pinned = pool.read_snapshot()
    mutate(pool)
    assert _joined(pool) == expected
    assert _joined(pool, reader=pinned) == before


def _joined(pool, **kwargs):
    script = 'bat("words").join(bat("dict"));'
    return run_program(script, pool, **kwargs).value.to_pairs()


def test_accelerator_is_never_persisted(tmp_path):
    """A str column is stored as codes plus a string heap, but the
    catalog entry is the one a numeric BAT gets and loading does not
    restore the accelerator slot: loaded columns start cold and the
    first query on them gives the reference answer."""
    db, stats, _ = build_text_db(40, seed=4)
    query = stats.vocabulary()[:3]
    expected = _ranking_matches_reference(db, query)
    assert db.pool.lookup(TERM).tail._encoding is not None
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

    loaded = MirrorDBMS.load(tmp_path)
    for name in loaded.bat_names(COLLECTION):
        bat = loaded.pool.lookup(name)
        for column in (bat.head, bat.tail):
            assert column.is_void or column._encoding is None, name
    # First query on the cold columns (stats from the saved db, so
    # nothing has warmed them).
    first = loaded.query(SECTION3_QUERY, {"query": query, "stats": stats}).value
    assert first == pytest.approx(expected, abs=1e-9)


def test_derived_columns_share_the_parent_dictionary():
    rng = np.random.default_rng(5)
    values = np.array(
        [None if rng.random() < 0.1 else f"w{rng.integers(0, 9)}" for _ in range(200)],
        dtype=object,
    )
    parent = Column("str", values)
    codes, dictionary = parent.encoding()
    assert parent.encoding()[1] is dictionary  # built once
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
        assert column.values.tolist() == expected_values.tolist()
        derived_codes, derived_dictionary = column._encoding
        assert derived_dictionary is dictionary  # shared, not copied
        # The inherited codes decode to the derived values.
        words = list(dictionary)
        assert [
            None if code < 0 else words[code] for code in derived_codes.tolist()
        ] == expected_values.tolist()
    assert parent.window(0, 200) is parent
    # A fresh encoding of the same values numbers by first appearance.
    fresh_codes, fresh_dictionary = dictionary_encode(values)
    assert fresh_dictionary == dictionary and (fresh_codes == codes).all()


def _cold(column):
    """*column* with no encoding: what a concatenation that drops the
    codes would return."""
    return column if column.is_void else Column(column.atom_type, column.values)


@pytest.mark.parametrize("concat", ["coded", "codes-dropped"])
def test_warm_fragmented_plan_encodes_nothing_longer_than_the_query(concat, monkeypatch):
    """After a warm-up query, the Sec. 3 plan over multi-fragment
    registrations encodes no str column longer than the query BAT: the
    term payload reaches every keyed operator as the stored column's
    codes, through fetchjoin, join and the concatenation of gathers
    from several fragments.  The ``codes-dropped`` run is the
    sensitivity check: with ``concat_columns`` returning cold columns,
    the plan must re-encode a gathered payload, and the spy sees it."""
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
    if concat == "codes-dropped":
        real = bat_module.concat_columns
        for module in (fragments, kernel):
            monkeypatch.setattr(module, "concat_columns", lambda parts: _cold(real(parts)))
    params = [{"query": query, "stats": stats} for query in queries]
    # Warm-up: the stored columns (and the stats' idf BAT) warm.
    db.query(SECTION3_QUERY, params[0])
    encoded = []
    real_encode = bat_module.dictionary_encode
    monkeypatch.setattr(
        bat_module,
        "dictionary_encode",
        lambda values: encoded.append(len(values)) or real_encode(values),
    )
    answers = [db.query(SECTION3_QUERY, p).value for p in params]
    monkeypatch.undo()
    for answer, p in zip(answers, params):
        assert answer == pytest.approx(db.query_interpreted(SECTION3_QUERY, p), abs=1e-9)
    assert encoded  # the query BAT itself is encoded
    if concat == "coded":
        assert max(encoded) <= len(queries[0])
    else:
        assert max(encoded) > len(queries[0])
