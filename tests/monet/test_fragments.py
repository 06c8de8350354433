"""Unit and integration tests for the fragmented BAT subsystem."""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.moa import mapping
from repro.monet import fragments as fr
from repro.monet import aggregates, kernel, tuning
from repro.monet.bat import BAT, Column, VoidColumn, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError, KernelError
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fragment_bat,
)
from tests.conftest import STRATEGIES, fragment_layout


def _ints(n, *, distinct=50, seed=0):
    rng = np.random.default_rng(seed)
    return BAT(VoidColumn(0, n), Column("int", rng.integers(0, distinct, n)))


# ----------------------------------------------------------------------
# Policy and splitting
# ----------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(KernelError):
        FragmentationPolicy(target_size=0)


def test_policy_has_no_layout_option():
    assert [f.name for f in dataclasses.fields(FragmentationPolicy)] == [
        "target_size",
    ]
    with pytest.raises(TypeError):
        FragmentationPolicy(strategy="roundrobin")
    with pytest.raises(TypeError):
        FragmentationPolicy(backend="thread")
    with pytest.raises(TypeError):
        FragmentationPolicy(workers=2)


def _fragment_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fragment")]


def test_thread_pool_shuts_down_clean_and_respawns_lazily(tuning_override):
    """The one executor's lifecycle: ``shutdown_backends`` joins every
    pool thread and is idempotent, and the next multi-fragment operator
    rebuilds the pool on demand with BUN-identical output."""
    tuning_override(parallel_min=0)
    bat = _ints(400)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=50))
    assert fb.nfragments == 8
    expected = kernel.select(bat, 7)

    before = fr.select(fb, 7)
    assert _fragment_threads()
    fr.shutdown_backends()
    assert fr._EXECUTOR is None and not _fragment_threads()
    fr.shutdown_backends()
    assert fr._EXECUTOR is None and not _fragment_threads()

    after = fr.select(fb, 7)
    assert fr._EXECUTOR is not None and _fragment_threads()
    for result in (before, after):
        assert result.to_bat().to_pairs() == expected.to_pairs()


def test_range_split_shapes_and_voidness():
    bat = _ints(250)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=100))
    assert fb.fragment_sizes() == [100, 100, 50]
    # Range fragments of a void head stay void with shifted seqbases.
    assert [f.head.seqbase for f in fb.fragments] == [0, 100, 200]
    assert all(f.hdense for f in fb.fragments)
    # Range fragments share the parent's tail buffer (views, no copy).
    assert fb.fragments[0].tail.values.base is bat.tail.values


def test_small_bat_stays_single_fragment():
    bat = _ints(10)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=100))
    assert fb.nfragments == 1
    assert fb.to_bat() is bat


def test_empty_bat_fragments():
    bat = _ints(0)
    for strategy in STRATEGIES:
        fb = fragment_layout(bat, strategy, FragmentationPolicy(target_size=4))
        assert len(fb) == 0
        assert fb.to_bat().to_pairs() == []


def test_fragmented_bat_validation():
    with pytest.raises(KernelError):
        FragmentedBAT([])
    a = dense_bat("int", [1, 2])
    b = dense_bat("str", ["x"])
    with pytest.raises(KernelError):
        FragmentedBAT([a, b])


def test_fragmented_bat_takes_no_positions():
    """Fragment order is BUN order: the vestigial second parameter (kept
    for the frozen benchmark's ``FragmentedBAT(frags, fb.positions)``)
    accepts only ``None``, which is also all ``positions`` ever reads."""
    a = dense_bat("int", [1, 2])
    with pytest.raises(KernelError):
        FragmentedBAT([a], [np.arange(2)])
    fb = FragmentedBAT([a], None)
    assert fb.positions is None
    with pytest.raises(AttributeError):
        fb.positions = [np.arange(2)]


def test_fragment_offsets_are_the_cached_prefix_sums():
    bat = _ints(23)
    fb = fragment_layout(bat, "ragged", FragmentationPolicy(target_size=4))
    assert fb.fragment_sizes() == [1, 0, 9, 4, 4, 4, 1]
    offsets = fb.fragment_offsets()
    assert offsets == [0, 1, 1, 10, 14, 18, 22, 23]
    assert fb.fragment_offsets() is offsets  # computed once per handle
    assert len(fb) == 23
    assert fb.global_positions(2).tolist() == list(range(1, 10))
    assert fb.global_positions(1).tolist() == []
    assert fb.to_bat().to_pairs() == bat.to_pairs()
    assert fb.to_bat().hdense


def test_misaligned_grouped_aggregate_coalesces():
    """The aligned rule cuts a monolithic operand of equal length into
    the other's windows, and coalesces operands fragmented unlike each
    other: either way the pump equals the monolithic one."""
    values, grouping = _ints(40), _ints(40, seed=1)
    expected = aggregates.grouped_sum(values, grouping).to_pairs()
    fv = fragment_bat(values, FragmentationPolicy(target_size=10))
    fg = fragment_bat(grouping, FragmentationPolicy(target_size=13))
    for operands in ((fv, fg), (fv, grouping), (values, fg)):
        assert fr.reduce(aggregates.grouped_sum, *operands).to_pairs() == expected


def test_explicit_worker_counts_agree():
    bat = _ints(1000, seed=3)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=100))
    with tuning.override(parallel_min=len(bat) + 1):
        serial = fr.select(fb, 7).to_bat().to_pairs()
    with tuning.override(parallel_min=0):
        parallel = fr.select(fb, 7).to_bat().to_pairs()
    assert serial == parallel


def test_parallel_min_is_the_one_fan_out_switch(monkeypatch):
    """The serial floor decides where a multi-fragment operator's tasks
    run, both ways: on ``fragment*`` pool threads at ``parallel_min=0``,
    on the calling thread under a floor above the input -- with
    BUN-identical results."""
    bat = _ints(400)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=50))
    ran_on = []
    equal_mask = kernel.equal_mask

    def recording(frag, value):
        ran_on.append(threading.current_thread().name)
        return equal_mask(frag, value)

    monkeypatch.setattr(kernel, "equal_mask", recording)
    with tuning.override(parallel_min=0):
        parallel = fr.select(fb, 7).to_bat().to_pairs()
    assert len(ran_on) == 8 and all(n.startswith("fragment") for n in ran_on)
    del ran_on[:]
    with tuning.override(parallel_min=len(bat) + 1):
        serial = fr.select(fb, 7).to_bat().to_pairs()
    assert ran_on == [threading.current_thread().name] * 8
    assert parallel == serial == kernel.select(bat, 7).to_pairs()


# ----------------------------------------------------------------------
# Buffer pool integration
# ----------------------------------------------------------------------


def test_bbp_register_and_transparent_lookup(pool: BATBufferPool):
    bat = _ints(300, seed=1)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=64))
    pool.register_fragmented("lib.values", fb)
    assert pool.is_fragmented("lib.values")
    assert "lib.values" in pool
    assert pool.names("lib.") == ["lib.values"]
    looked_up = pool.lookup("lib.values")
    assert looked_up.to_pairs() == bat.to_pairs()
    assert looked_up.name == "lib.values"
    assert pool.lookup_fragments("lib.values") is fb
    # Lookup caches the coalesced BAT.
    assert pool.lookup("lib.values") is looked_up


def test_bbp_lookup_fragments_splits_monolithic_on_the_fly(pool):
    pool.register("mono", _ints(200, seed=2))
    fb = pool.lookup_fragments("mono", FragmentationPolicy(target_size=50))
    assert fb.nfragments == 4
    assert fb.to_bat().to_pairs() == pool.lookup("mono").to_pairs()


def test_bbp_name_collision_and_replace(pool):
    pool.register("x", _ints(5))
    with pytest.raises(BBPError):
        pool.register_fragmented("x", fragment_bat(_ints(5)))
    pool.register_fragmented("x", fragment_bat(_ints(8)), replace=True)
    assert pool.is_fragmented("x")
    # Re-registering monolithic clears the fragmented entry.
    pool.register("x", _ints(3), replace=True)
    assert not pool.is_fragmented("x")
    assert len(pool.lookup("x")) == 3
    pool.drop("x")
    assert "x" not in pool


def test_bbp_fragmented_bumps_oid_sequence(pool):
    bat = BAT(VoidColumn(40, 10), Column("int", np.arange(10, dtype=np.int64)))
    pool.register_fragmented("f", fragment_bat(bat, FragmentationPolicy(target_size=4)))
    assert pool.oid_generator.current >= 50


@pytest.mark.parametrize("fragmented", [False, True])
def test_bbp_bumps_past_finite_oids_only(fragmented):
    """Registration keeps the oid sequence past the largest *finite*
    oid: an all-NIL column bumps nothing, NIL beside finite oids bumps
    past the finite maximum, a void head past its last oid."""
    nil = np.iinfo(np.int64).max
    cases = {
        "all_nil": (BAT(Column("oid", np.full(3, nil)), Column("oid", np.full(3, nil))), 0),
        "nil_and_finite": (
            BAT(Column("oid", np.array([nil, 7, 2])), Column("oid", np.array([3, nil, 11]))),
            12,
        ),
        "void": (BAT(VoidColumn(20, 5), Column("int", np.full(5, nil))), 25),
        "void_and_oid": (BAT(VoidColumn(1, 2), Column("oid", np.array([nil, 40]))), 41),
    }
    for name, (bat, expected) in cases.items():
        pool = BATBufferPool()
        if fragmented:
            pool.register_fragmented(name, fragment_bat(bat, FragmentationPolicy(target_size=2)))
        else:
            pool.register(name, bat)
        assert pool.oid_generator.current == expected, name


# ----------------------------------------------------------------------
# Mapping-layer threshold
# ----------------------------------------------------------------------


def test_mapping_threshold_fragments_large_attributes(pool):
    docs = [{"value": i} for i in range(64)]
    from repro.moa.types import AtomicType, SetType, TupleType

    ty = SetType(TupleType((("value", AtomicType("int")),)))
    with mapping.fragmentation(16, FragmentationPolicy(target_size=16)):
        mapping.create_collection(pool, "Lib", ty)
        mapping.append_collection(pool, "Lib", ty, docs)
    assert pool.is_fragmented("Lib.value")
    assert pool.lookup_fragments("Lib.value").nfragments == 4
    # The extent spine stays monolithic.
    assert not pool.is_fragmented("Lib.__extent__")
    # Reconstruction is oblivious to the physical split.
    assert mapping.reconstruct_collection(pool, "Lib", ty) == docs
    # Threshold restored after the context.
    assert mapping.get_fragment_threshold() is None


def test_mirror_dbms_fragment_threshold_end_to_end():
    db = MirrorDBMS(
        fragment_threshold=8,
        fragment_policy=FragmentationPolicy(target_size=8),
    )
    db.define(
        "define Lib as SET<TUPLE<Atomic<str>: name, "
        "CONTREP<Text>: annotation>>;"
    )
    rows = [
        {"name": f"img{i}", "annotation": f"red sunset number {i} over the sea"}
        for i in range(20)
    ]
    db.insert("Lib", rows)
    assert db.pool.is_fragmented("Lib.name")
    assert db.pool.is_fragmented("Lib.annotation.term")
    assert db.pool.lookup_fragments("Lib.name").nfragments >= 2
    assert db.pool.lookup_fragments("Lib.annotation.term").nfragments >= 2
    stats = db.stats("Lib", "annotation")
    result = db.query(
        "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));",
        {"query": ["sunset", "sea"], "stats": stats},
    )
    assert len(result.value) == 20
    assert all(score > 0 for score in result.value)
    # And the same database without fragmentation ranks identically.
    db2 = MirrorDBMS()
    db2.define(db.ddl())
    db2.insert("Lib", rows)
    stats2 = db2.stats("Lib", "annotation")
    baseline = db2.query(
        "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));",
        {"query": ["sunset", "sea"], "stats": stats2},
    )
    assert result.value == pytest.approx(baseline.value)
