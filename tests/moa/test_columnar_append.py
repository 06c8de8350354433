"""The set-at-a-time write path: load == appends == WAL replay.

The mappers hand the pool columns (CONTREP postings, SET/LIST parent
oids and indexes, the extent as arrays) while a row-level Python list
is still coerced value by value.  Whatever the batching, the BUNs must
not depend on it: one ``replace`` of all rows (the load), the same rows
inserted in uneven batches (the appends) and a copy of those batches
recovered from ``wal.jsonl`` alone (the replay) hold BUN-identical
BATs, for every mapper -- atomic int/dbl/str/bit/oid with NILs,
SET/LIST, CONTREP over ``Text`` and over token lists -- monolithic and
fragmented.

The CONTREP write path builds postings from token codes
(``contrep._postings``); a mixed batch -- strings, token lists,
mappings, representations, NILs -- must give exactly the postings of a
plain-Python, value-at-a-time model of the mapper, and a value of no
CONTREP shape must leave every CONTREP BAT as it was.

Three pins beside the differential:

* the posting BATs and ``contents`` of the seed-1 text and image
  workloads equal a golden recorded from the value-at-a-time write
  path (``golden/columnar_append.json``, SHA-256 of each BAT's BUNs);
* the WAL bytes of an array-built ``pool.append`` (a str run in codes
  included) or ``pool.update`` equal those of the list-built one of
  the same Python values (NIL as ``None``): the record format does not
  depend on how a batch was handed over;
* a pool pins the allocator policy that keeps operator temporaries on
  the heap, so a query's page faults no longer depend on which blocks
  the load happened to free (``bbp.pin_allocator``).
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.ir.tokenize import analyze
from repro.moa.errors import MoaTypeError
from repro.moa.mapping import mapper_for
from repro.moa.structures.contrep import ContentRepresentation, ContrepType
from repro.monet.atoms import INT_NIL, OID_NIL
from repro.monet.bat import StrColumn, StrHeap, empty_bat
from repro.monet.bbp import BATBufferPool, pin_allocator
from repro.monet.fragments import FragmentationPolicy
from repro.workloads import (
    INTERNAL_DDL,
    TRADITIONAL_DDL,
    synth_annotations,
    visual_word_rows,
)

GOLDEN = Path(__file__).parent / "golden" / "columnar_append.json"

_TEXTS = [
    "Red SUNSET over the sea, the sea!",
    "",
    None,
    "gabor_21 and 42 waves; running runners ran",
    "a the of",
    "storm wave sand sea",
]

#: One element type per mapper (and per atom), with its payload as a
#: function of the row number: NILs and empty collections every few
#: rows.
SHAPES = {
    "int": ("Atomic<int>", lambda i: None if i % 5 == 4 else i * 7 - 300),
    "dbl": ("Atomic<dbl>", lambda i: None if i % 6 == 5 else i / 3 - 10),
    "str": ("Atomic<str>", lambda i: None if i % 4 == 2 else f"s{i % 9}"),
    "bit": ("Atomic<bit>", lambda i: (None, True, False)[i % 3]),
    "oid": ("Atomic<oid>", lambda i: None if i % 7 == 6 else 3 * i),
    "set": ("SET<Atomic<int>>", lambda i: [i, None, i + 1, i][: i % 5]),
    "list": ("LIST<Atomic<str>>", lambda i: [f"w{i % 3}", None, "w0"][: i % 4]),
    "contrep-text": ("CONTREP<Text>", lambda i: _TEXTS[i % len(_TEXTS)]),
    "contrep-tokens": (
        "CONTREP<Image>",
        lambda i: (
            [f"rgb_{i % 5}", f"hsv_{i % 3}", f"rgb_{i % 5}"][: i % 4]
            if i % 2
            else f"gabor_{i % 4} laws_{i % 6}"
        ),
    ),
}

ROWS = 150
#: Uneven insert batches (an empty one included) covering ``ROWS``.
BATCHES = (1, 0, 7, 30, 2, 64, 46)
THRESHOLDS = (None, 64)


def _rows(shape, ids):
    _, value = SHAPES[shape]
    return [{"k": f"k{i}", "s": value(i)} for i in ids]


def _db(shape, threshold) -> MirrorDBMS:
    element, _ = SHAPES[shape]
    policy = FragmentationPolicy(target_size=16) if threshold else None
    db = MirrorDBMS(fragment_threshold=threshold, fragment_policy=policy)
    db.define(f"define C as SET<TUPLE<Atomic<str>: k, {element}: s>>;")
    return db


def _insert_batches(db, shape) -> None:
    start = 0
    for size in BATCHES:
        db.insert("C", _rows(shape, range(start, start + size)))
        start += size
    assert start == ROWS


def _buns(db, collection):
    """Every BAT of *collection* as (head list, tail list), NIL as
    ``None`` (coalesced when fragmented)."""
    return {
        name: (db.pool.lookup(name).head_list(), db.pool.lookup(name).tail_list())
        for name in db.bat_names(collection)
    }


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_load_equals_appends_equals_replay(tmp_path, shape, threshold):
    loaded = _db(shape, threshold)
    loaded.replace("C", _rows(shape, range(ROWS)))

    appended = _db(shape, threshold)
    _insert_batches(appended, shape)

    logged = _db(shape, threshold)
    logged.save(tmp_path / "store")
    _insert_batches(logged, shape)
    replayed = MirrorDBMS.load(tmp_path / "store")

    expected = _buns(loaded, "C")
    assert _buns(appended, "C") == expected
    assert _buns(replayed, "C") == expected
    assert appended.contents("C") == loaded.contents("C")
    assert replayed.contents("C") == loaded.contents("C")
    if threshold is not None:
        fragmented = [
            name for name in appended.bat_names("C")
            if appended.pool.is_fragmented(name)
        ]
        assert fragmented, "no BAT crossed the fragmentation threshold"


@pytest.mark.parametrize("shape", ["contrep-text", "contrep-tokens"])
def test_contrep_rows_round_trip_to_their_representations(shape):
    db = _db(shape, None)
    _insert_batches(db, shape)
    media = SHAPES[shape][0][len("CONTREP<"):-1]
    assert [row["s"] for row in db.contents("C")] == [
        ContentRepresentation.from_value(row["s"], media)
        for row in _rows(shape, range(ROWS))
    ]


def test_postings_keep_each_documents_terms_sorted():
    db = _db("contrep-text", None)
    _insert_batches(db, "contrep-text")
    owner = db.pool.lookup("C.s.owner").tail_list()
    term = db.pool.lookup("C.s.term").tail_list()
    assert owner == sorted(owner)
    for doc in set(owner):
        terms = [t for o, t in zip(owner, term) if o == doc]
        assert terms == sorted(terms) and len(set(terms)) == len(terms)


# ----------------------------------------------------------------------
# A mixed batch against a value-at-a-time model of the mapper
# ----------------------------------------------------------------------

#: One value of every CONTREP shape: text, empty text, NIL, a token
#: list (counted as given), a tuple, a mapping with a 0 and a negative
#: tf, a representation whose length is not its tf sum, and an empty
#: mapping.
MIXED = [
    "Red SUNSET over the sea, the sea!",
    "",
    None,
    ["rgb_3", "sea", "rgb_3", "Sea"],
    ("waves", "gabor_2"),
    {"sea": 2, "sky": 0, "storm": -1, "zebra": 1},
    ContentRepresentation({"sunset": 3, "sea": 1}, length=11),
    {},
    "gabor_21 and 42 waves; running runners ran",
]


def _model_rows(owner, value, media):
    """The postings (owner, term, tf) and the length of one value, the
    way the value-at-a-time mapper built them: a term -> tf dict per
    value, its terms in sorted order."""
    if value is None:
        terms, length = {}, 0
    elif isinstance(value, ContentRepresentation):
        terms = {t: f for t, f in value.terms.items() if f > 0}
        length = value.length
    elif isinstance(value, dict):
        terms = {t: int(f) for t, f in value.items() if int(f) > 0}
        length = sum(terms.values())
    else:
        if isinstance(value, str):
            tokens = analyze(value) if media == "Text" else value.split()
        else:
            tokens = list(value)
        terms, length = dict(Counter(tokens)), len(tokens)
    return [(owner, t, terms[t]) for t in sorted(terms)], length


def _model(batches, media):
    """owner/term/tf/doclen after appending each of *batches*, then
    updating: a batch is ``("append", values)`` or ``("update",
    positions, values)``."""
    postings, doclen = [], []
    for op, *args in batches:
        if op == "append":
            (values,) = args
            for value in values:
                rows, length = _model_rows(len(doclen), value, media)
                postings += rows
                doclen.append(length)
        else:
            positions, values = args
            postings = [p for p in postings if p[0] not in positions]
            for position, value in zip(positions, values):
                rows, length = _model_rows(position, value, media)
                postings += rows
                doclen[position] = length
    owner, term, tf = (list(column) for column in zip(*postings)) if postings else ([], [], [])
    return {"owner": owner, "term": term, "tf": tf, "doclen": doclen}


def _contrep_lists(db, prefix):
    return {
        suffix: db.pool.lookup(f"{prefix}.{suffix}").tail_list()
        for suffix in ("owner", "term", "tf", "doclen")
    }


@pytest.mark.parametrize("fragmented", [False, True])
@pytest.mark.parametrize("media", ["Text", "Image"])
def test_mixed_batch_postings_equal_the_value_at_a_time_model(media, fragmented):
    db = MirrorDBMS(
        fragment_threshold=8 if fragmented else None,
        fragment_policy=FragmentationPolicy(target_size=4) if fragmented else None,
    )
    db.define(f"define C as SET<TUPLE<Atomic<str>: k, CONTREP<{media}>: s>>;")
    batches = [
        ("append", MIXED),
        ("append", list(reversed(MIXED))),
        ("update", [1, 5, 9], [MIXED[8], MIXED[2], MIXED[6]]),
    ]
    key = 0
    for op, *args in batches:
        if op == "append":
            db.insert("C", [{"k": f"k{key + i}", "s": v} for i, v in enumerate(args[0])])
            key += len(args[0])
        else:
            for position, value in zip(*args):
                db.update("C", {"s": value}, where={"k": f"k{position}"})
    assert _contrep_lists(db, "C.s") == _model(batches, media)
    assert db.pool.is_fragmented("C.s.term") == fragmented


@pytest.mark.parametrize(
    "bad",
    [3.5, object(), ["sea", 7], ("sea", None), {"sea": 1, 2: 1}],
    ids=["float", "object", "int-token", "nil-token", "int-key"],
)
@pytest.mark.parametrize("op", ["append", "update"])
def test_value_of_no_contrep_shape_leaves_every_contrep_bat_untouched(op, bad):
    db = MirrorDBMS()
    db.define("define C as SET<TUPLE<Atomic<str>: k, CONTREP<Text>: s>>;")
    db.insert("C", [{"k": f"k{i}", "s": v} for i, v in enumerate(MIXED)])
    ty = ContrepType("Text")
    names = [name for name, _ in mapper_for(ty).bat_names("C.s", ty)]
    before = {name: db.pool.lookup(name) for name in names}
    batch = [MIXED[0], bad, MIXED[3]]
    with pytest.raises(MoaTypeError):
        if op == "append":
            mapper_for(ty).append(db.pool, "C.s", ty, batch, len(MIXED))
        else:
            mapper_for(ty).update(db.pool, "C.s", ty, [0, 4, 6], batch)
    assert {name: db.pool.lookup(name) for name in names} == before


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="A(2): a tuple's fields append one after another, each with its own "
    "WAL record, so a later field's MoaTypeError leaves the earlier fields "
    "appended; fixed by one record per commit",
)
def test_value_of_no_contrep_shape_leaves_every_tuple_field_untouched():
    db = MirrorDBMS()
    db.define("define C as SET<TUPLE<Atomic<str>: k, CONTREP<Text>: s>>;")
    db.insert("C", [{"k": "x", "s": "red"}])
    before = db.contents("C")
    with pytest.raises(MoaTypeError):
        db.insert("C", [{"k": "y", "s": "blue"}, {"k": "z", "s": 3.5}])
    assert len(db.pool.lookup("C.k")) == 1
    assert db.contents("C") == before


# ----------------------------------------------------------------------
# Golden: the seed-1 workloads' postings and contents
# ----------------------------------------------------------------------


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _plain(value):
    if isinstance(value, ContentRepresentation):
        return [sorted(value.terms.items()), value.length]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def golden_digests() -> dict:
    """SHA-256 of every BAT's BUNs and of ``contents`` of the seed-1
    ``synth_annotations(2000)`` and ``visual_word_rows(300)`` loads
    (how ``golden/columnar_append.json`` was recorded)."""
    out = {}
    for ddl, collection, rows in (
        (TRADITIONAL_DDL, "TraditionalImgLib", synth_annotations(2000, seed=1)),
        (INTERNAL_DDL, "ImageLibraryInternal", visual_word_rows(300, seed=1)),
    ):
        db = MirrorDBMS()
        db.define(ddl)
        db.replace(collection, rows)
        for name, buns in _buns(db, collection).items():
            out[name] = _digest(buns)
        out[f"{collection} contents"] = _digest(
            [_plain(row) for row in db.contents(collection)]
        )
    return out


def test_workload_postings_match_golden():
    assert golden_digests() == json.loads(GOLDEN.read_text())


# ----------------------------------------------------------------------
# WAL bytes: an array-built append logs what the list-built one logs
# ----------------------------------------------------------------------

#: BAT name -> (atom, Python values with NIL as None, the same values
#: as a column: an array of the atom's dtype, or a str run in codes on
#: its own heap, as the CONTREP mapper hands over its term column)
WAL_CASES = {
    "int": ("int", [5, None, -3], np.array([5, INT_NIL, -3], dtype=np.int64)),
    "oid": ("oid", [0, 7, None], np.array([0, 7, OID_NIL], dtype=np.int64)),
    "dbl": ("dbl", [0.5, None, -2.25], np.array([0.5, np.nan, -2.25])),
    "str": ("str", ["a", None, "b c"], np.array(["a", None, "b c"], dtype=object)),
    "bit": ("bit", [True, False, None], np.array([1, 0, -1], dtype=np.int8)),
    "str-coded": (
        "str",
        ["sea", None, "b c", "sea"],
        StrColumn(np.array([1, -1, 0, 1], dtype=np.int64), StrHeap(["b c", "sea"])),
    ),
}


def _wal_pool(directory: Path) -> BATBufferPool:
    pool = BATBufferPool()
    for name, (atom, values, _) in WAL_CASES.items():
        pool.register(name, empty_bat("oid", atom))
    pool.save(directory)
    return pool


def _wal_bytes(directory: Path, form: int) -> bytes:
    pool = _wal_pool(directory)
    for name, case in WAL_CASES.items():
        pool.append(name, tails=case[form])
    return (directory / "wal.jsonl").read_bytes()


def test_array_append_logs_the_list_append_bytes(tmp_path):
    listed = _wal_bytes(tmp_path / "list", 1)
    arrayed = _wal_bytes(tmp_path / "array", 2)
    assert listed == arrayed
    assert listed.count(b"\n") == len(WAL_CASES)
    recovered = BATBufferPool.load(tmp_path / "array")
    for name, (_, values, _) in WAL_CASES.items():
        assert recovered.lookup(name).tail_list() == values, name


#: The cases an update takes in column form: arrays (a str patch stays a
#: list or an object array, never a run in codes).
ARRAY_UPDATES = [name for name, case in WAL_CASES.items() if isinstance(case[2], np.ndarray)]


def _update_wal_bytes(directory: Path, form: int) -> bytes:
    pool = _wal_pool(directory)
    for name, case in WAL_CASES.items():
        pool.append(name, tails=case[1])
    start = len((directory / "wal.jsonl").read_bytes())
    for name in ARRAY_UPDATES:
        values = WAL_CASES[name][form]
        pool.update(name, list(range(len(values)))[::-1], values)
    return (directory / "wal.jsonl").read_bytes()[start:]


def test_array_update_logs_the_list_update_bytes(tmp_path):
    listed = _update_wal_bytes(tmp_path / "list", 1)
    arrayed = _update_wal_bytes(tmp_path / "array", 2)
    assert listed == arrayed
    assert listed.count(b"\n") == len(ARRAY_UPDATES)
    recovered = BATBufferPool.load(tmp_path / "array")
    for name in ARRAY_UPDATES:
        assert recovered.lookup(name).tail_list() == WAL_CASES[name][1][::-1], name


# ----------------------------------------------------------------------
# Allocator policy: operator temporaries are recycled, not re-faulted
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="mallopt policy is glibc's",
)
def test_pool_pins_allocator_so_freed_blocks_come_back_without_faults():
    BATBufferPool()
    assert pin_allocator()
    size = 4 << 20  # above glibc's default 128 KiB mmap threshold
    np.ones(size, dtype=np.uint8)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        np.ones(size, dtype=np.uint8)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # Mapped afresh, each block would fault in its 1024 pages.
    assert faults < (size >> 12)
