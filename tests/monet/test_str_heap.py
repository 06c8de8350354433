"""A str column is codes plus one shared, append-only heap
(:class:`repro.monet.bat.StrColumn`): the same values built at once,
loaded from disk, extended by appends and gathered from a larger column
are BUN-identical under every keyed operator; a reader pinned before an
append keeps its own count and codes; and load, statistics and a query
after a commit number no stored value into a heap."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet import codec, fragments, groups, kernel
from repro.monet.bat import BAT, StrHeap, VoidColumn, column_from_values, column_to_list
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT, fragment_bat
from repro.monet.mil.builtins import fan_out
from repro.workloads import SECTION3_QUERY, TRADITIONAL_DDL, synth_annotations
from tests.conftest import assert_codes_decode

#: Value shapes the heap keeps apart from NIL and from each other.
CASES = {
    "nil_heavy": [None, "a", None, None, "b", None, "a", None, None, "c"],
    "nul_led": ["\x00NIL", None, "\x00", "", "\x00NIL", "plain"],
    "lone_surrogate": ["\ud800x", "x\udfff", None, "\ud800x", "\udfff"],
    "non_bmp": ["\U0001f600", "caf\xe9", None, "\U0001f600", "\U00010000"],
    "all_nil": [None] * 6,
    "one_distinct": ["same"] * 7,
}
#: Heap states of a fragmented column: ``shared`` windows of one column,
#: ``disjoint`` a heap per fragment, ``appended`` deltas appended onto
#: the first fragment's heap.
STATES = ("shared", "disjoint", "appended")
POLICY = FragmentationPolicy(target_size=3)
COLLECTION = "TraditionalImgLib"


def _fragmented(values: list, state: str) -> FragmentedBAT:
    n = len(values)
    if state == "shared":
        return fragment_bat(BAT(VoidColumn(0, n), column_from_values("str", values)), POLICY)
    if state == "disjoint":
        return FragmentedBAT(
            [
                BAT(VoidColumn(lo, len(values[lo: lo + 3])), column_from_values("str", values[lo: lo + 3]))
                for lo in range(0, max(n, 1), 3)
            ],
            policy=POLICY,
        )
    fb = FragmentedBAT([BAT(VoidColumn(0, 0), column_from_values("str", []))], policy=POLICY)
    for lo in range(0, n, 2):
        fb = fb.append(tails=values[lo: lo + 2])
    return fb


def _forms(values: list, state: str, tmp_path) -> dict:
    """The same [void, str] BUNs built, loaded (monolithic and
    fragmented), extended by appends, gathered and shipped."""
    n = len(values)
    built = BAT(VoidColumn(0, n), column_from_values("str", values))
    half = n // 2
    extended = BAT(VoidColumn(0, half), column_from_values("str", values[:half]))
    extended = extended.append(tails=values[half:])
    parent = column_from_values("str", ["only in the parent", *values[::-1], None])
    gathered = BAT(VoidColumn(0, n), parent.take(np.arange(n, 0, -1)))
    fb = _fragmented(values, state)
    pool = BATBufferPool()
    pool.register("mono", built)
    pool.register_fragmented("frag", fb)
    pool.save(tmp_path / state)
    loaded = BATBufferPool.load(tmp_path / state)
    heaps = {id(f.tail.heap) for f in loaded.lookup_fragments("frag").fragments}
    assert len(heaps) == 1  # one heap per stored column after load
    spec, parts = codec.encode(built.tail)
    return {
        "built": built,
        "extended": extended,
        "gathered": gathered,
        "fragmented": fb.to_bat(),
        "loaded": loaded.lookup("mono"),
        "loaded_fragmented": loaded.lookup("frag"),
        "shipped": BAT(VoidColumn(0, n), codec.decode(spec, parts, "tail")),
    }


def _keyed(bat: BAT) -> dict:
    """What every keyed operator reads off the str column."""
    reverse = bat.reverse()
    return {
        "values": bat.tail_list(),
        "tsort": kernel.tsort(bat).to_pairs(),
        "topn": kernel.topn(bat, 4, descending=False).to_pairs(),
        "tunique": kernel.tunique(bat).to_pairs(),
        "group": groups.group(bat).tail_list(),
        "range": kernel.select(bat, "a", "c").to_pairs(),
        "equal": [kernel.select(bat, v).head_list() for v in dict.fromkeys(bat.tail_list())],
        "join": kernel.join(bat, reverse).to_pairs(),
        "kunion": kernel.kunion(reverse, reverse).to_pairs(),
    }


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("case", list(CASES))
def test_built_loaded_extended_gathered_are_bun_identical(case, state, tmp_path):
    values = CASES[case]
    forms = _forms(values, state, tmp_path)
    reference = _keyed(forms["built"])
    assert reference["values"] == values
    for name, bat in forms.items():
        assert_codes_decode(bat.tail, f"{case} {name}")
        assert _keyed(bat) == reference, f"{case} [{state}] {name}"
    # Fragment-parallel operators over the fragmented form too.
    fb = _fragmented(values, state)
    assert fragments.tsort(fb).to_bat().to_pairs() == reference["tsort"]
    assert fan_out("tunique", fb).to_bat().to_pairs() == reference["tunique"]


def test_a_gather_ships_only_the_values_it_uses():
    """A 3-row gather of a large column ships at most 3 strings."""
    column = column_from_values("str", [f"w{i}" for i in range(5000)])
    spec, parts = codec.encode(column.take(np.array([4000, 7, 4000])))
    assert len(parts[2]) - 1 == 2
    assert column_to_list(codec.decode(spec, parts, "tail")) == ["w4000", "w7", "w4000"]


@pytest.mark.parametrize("layout", ["monolithic", "fragmented"])
def test_reader_pinned_before_an_append_sees_its_own_codes(layout):
    """Readers pin snapshots while a writer appends batches of new
    values (growing the shared heap past its capacity more than once):
    each reader keeps exactly its own count and codes, decoding to the
    model's prefix, under a 10 us switch interval."""
    pool = BATBufferPool()
    first = BAT(VoidColumn(0, 2), column_from_values("str", ["seed", None]))
    if layout == "fragmented":
        pool.register_fragmented("words", fragment_bat(first, FragmentationPolicy(target_size=16)))
    else:
        pool.register("words", first)
    model = ["seed", None]
    batches = [[f"v{b}.{i % 7}", None, f"w{i % 3}"] for b in range(60) for i in range(2)]
    failures: list = []
    done = threading.Event()

    def write():
        try:
            for batch in batches:
                model.extend(batch)  # first: a reader's rows are a prefix of it
                pool.append("words", tails=batch)
        finally:
            done.set()

    def read():
        try:
            while not done.is_set():
                snapshot = pool.read_snapshot()
                bat = snapshot.lookup("words")
                count, codes = len(bat), bat.tail.codes.copy()
                heap_length = len(bat.tail.heap)
                for _ in range(3):
                    again = snapshot.lookup("words")
                    assert len(again) == count
                    assert again.tail.codes.tolist() == codes.tolist()
                    assert codes.max(initial=-1) < heap_length
                    assert again.tail_list() == model[:count]
        except AssertionError as exc:  # pragma: no cover - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:1]
    assert pool.lookup("words").tail_list() == model
    assert_codes_decode(pool.lookup("words").tail)


@pytest.fixture
def encoded(monkeypatch) -> list:
    """The length of every batch of values numbered into a heap."""
    seen: list = []
    real_encode = StrHeap.encode
    monkeypatch.setattr(
        StrHeap, "encode", lambda heap, values: seen.append(len(values)) or real_encode(heap, values)
    )
    return seen


@pytest.mark.parametrize("fragment_threshold", [None, 256], ids=["monolithic", "fragmented"])
def test_load_stats_and_a_query_after_a_commit_encode_no_stored_value(
    fragment_threshold, tmp_path, encoded
):
    """Load builds str columns from their stored codes and heaps (a
    fragmented column's later fragments translate their distinct values
    into the first one's heap, never a row), the statistics bincount
    codes, a commit numbers only its own values and the next query
    encodes only its query terms."""
    db = MirrorDBMS(
        fragment_threshold=fragment_threshold,
        fragment_policy=FragmentationPolicy(target_size=256),
    )
    db.define(TRADITIONAL_DDL)
    db.insert(COLLECTION, synth_annotations(400, seed=2))
    stats = db.stats(COLLECTION, "annotation")
    db.save(tmp_path)
    encoded.clear()
    loaded = MirrorDBMS.load(tmp_path)
    term = f"{COLLECTION}.annotation.term"
    assert loaded.pool.is_fragmented(term) == bool(fragment_threshold)
    translated = [
        len(set(fragment.tail.materialize().tolist()) - {None})
        for name in loaded.pool.names()
        if loaded.pool.is_fragmented(name)
        for fragment in loaded.pool.lookup_fragments(name).fragments[1:]
        if fragment.ttype == "str"
    ]
    assert sorted(encoded) == sorted(translated)
    encoded.clear()
    loaded_stats = loaded.stats(COLLECTION, "annotation")
    assert encoded == []
    assert loaded_stats == stats
    loaded.insert(COLLECTION, [{"source": "http://new/1", "annotation": "zebra red sunset"}])
    assert encoded and max(encoded) <= 3
    encoded.clear()
    query = stats.vocabulary()[:3]
    loaded.query(SECTION3_QUERY, {"query": query, "stats": loaded_stats})
    assert encoded and max(encoded) <= len(query)
    for pool in (db.pool, loaded.pool):
        pool.close()
        pool.close()  # idempotent
