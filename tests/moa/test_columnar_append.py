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

Three pins beside the differential:

* the posting BATs and ``contents`` of the seed-1 text and image
  workloads equal a golden recorded from the value-at-a-time write
  path (``golden/columnar_append.json``, SHA-256 of each BAT's BUNs);
* the WAL bytes of an array-built ``pool.append`` equal those of the
  list-built append of the same Python values (NIL as ``None``): the
  record format does not depend on how a batch was handed over;
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
from pathlib import Path

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.moa.structures.contrep import ContentRepresentation
from repro.monet.atoms import INT_NIL, OID_NIL
from repro.monet.bat import empty_bat
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

#: atom -> (Python values with NIL as None, the same as a column array)
WAL_CASES = {
    "int": ([5, None, -3], np.array([5, INT_NIL, -3], dtype=np.int64)),
    "oid": ([0, 7, None], np.array([0, 7, OID_NIL], dtype=np.int64)),
    "dbl": ([0.5, None, -2.25], np.array([0.5, np.nan, -2.25])),
    "str": (["a", None, "b c"], np.array(["a", None, "b c"], dtype=object)),
    "bit": ([True, False, None], np.array([1, 0, -1], dtype=np.int8)),
}


def _wal_bytes(directory: Path, batch_of) -> bytes:
    pool = BATBufferPool()
    for atom in WAL_CASES:
        pool.register(atom, empty_bat("oid", atom))
    pool.save(directory)
    for atom, values in WAL_CASES.items():
        pool.append(atom, tails=batch_of(values))
    return (directory / "wal.jsonl").read_bytes()


def test_array_append_logs_the_list_append_bytes(tmp_path):
    listed = _wal_bytes(tmp_path / "list", lambda values: values[0])
    arrayed = _wal_bytes(tmp_path / "array", lambda values: values[1])
    assert listed == arrayed
    assert listed.count(b"\n") == len(WAL_CASES)
    recovered = BATBufferPool.load(tmp_path / "array")
    for atom, (values, _) in WAL_CASES.items():
        assert recovered.lookup(atom).tail_list() == values, atom


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
