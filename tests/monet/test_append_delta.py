"""The write path: copy-on-write appends, delta fragments, snapshot
reads, and the merge daemon.

Covers the append machinery layer by layer: ``BAT.append`` (immutable
originals, conservative property-flag maintenance), ``FragmentedBAT
.append`` (prefix-sharing delta tails on both split strategies),
``fold_tail``/``refragment`` (folding oversized tails back to policy
size without coalescing), ``BATBufferPool.append`` (epoch bumps, oid
accounting, snapshot isolation), and ``merge_deltas`` plus the
background daemon.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, column_from_values, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import UnknownMutationTarget
from repro.monet.fragments import (
    FragmentationPolicy,
    fold_tail,
    fragment_bat,
    refragment,
)
from tests.conftest import STRATEGIES, fragment_layout


# ----------------------------------------------------------------------
# BAT.append
# ----------------------------------------------------------------------


def test_bat_append_is_copy_on_write():
    original = dense_bat("int", [1, 2, 3])
    appended = original.append(tails=[4, 5])
    assert appended is not original
    assert original.tail_list() == [1, 2, 3]
    assert appended.tail_list() == [1, 2, 3, 4, 5]
    assert appended.head.is_void and appended.head.seqbase == 0


def test_bat_append_empty_batch_returns_self():
    original = dense_bat("int", [1, 2, 3])
    assert original.append(tails=[]) is original
    assert original.append([]) is original


def test_bat_append_preserves_sorted_key_flags_when_they_hold():
    original = BAT(
        VoidColumn(0, 3),
        Column("oid", np.arange(3, dtype=np.int64)),
        tkey=True,
        tsorted=True,
    )
    appended = original.append(tails=[3, 4])
    assert appended.tsorted and appended.tkey


def test_bat_append_clears_flags_on_violation():
    base = BAT(
        VoidColumn(0, 3),
        Column("int", np.array([1, 2, 3], dtype=np.int64)),
        tkey=True,
        tsorted=True,
    )
    unsorted = base.append(tails=[0])
    assert not unsorted.tsorted and not unsorted.tkey
    duplicate = base.append(tails=[3])
    assert duplicate.tsorted and not duplicate.tkey


def test_bat_append_nil_clears_tail_flags():
    base = BAT(
        VoidColumn(0, 2),
        column_from_values("str", np.array(["a", "b"], dtype=object)),
        tkey=True,
        tsorted=True,
    )
    appended = base.append(tails=["c", None])
    assert appended.tail_list() == ["a", "b", "c", None]
    assert not appended.tsorted and not appended.tkey


def test_bat_append_pairs_keeps_dense_void_head():
    base = dense_bat("int", [10, 11])
    dense = base.append([(2, 12), (3, 13)])
    assert dense.head.is_void
    sparse = base.append([(7, 12)])
    assert not sparse.head.is_void
    assert sparse.head_values().tolist() == [0, 1, 7]


def test_bat_append_materialized_head_pairs():
    base = bat_from_pairs("str", "int", [("a", 1), ("b", 2)])
    appended = base.append([("c", 3)])
    assert list(appended.items()) == [("a", 1), ("b", 2), ("c", 3)]
    assert list(base.items()) == [("a", 1), ("b", 2)]


# ----------------------------------------------------------------------
# FragmentedBAT.append
# ----------------------------------------------------------------------


def _fragmented(values, strategy, target=4):
    policy = FragmentationPolicy(target_size=target)
    return fragment_layout(dense_bat("int", values), strategy, policy), policy


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_append_shares_prefix_fragments(strategy):
    fb, _ = _fragmented(list(range(16)), strategy)
    grown = fb.append(tails=[100, 101])
    # All but the written-to tail fragment are the same objects.
    assert grown.fragments[:-1] == fb.fragments[: len(grown.fragments) - 1]
    assert sorted(grown.to_bat().tail_list()) == sorted(
        list(range(16)) + [100, 101]
    )
    assert sorted(fb.to_bat().tail_list()) == sorted(range(16))


def test_fragmented_append_grows_tail_then_opens_delta():
    policy = FragmentationPolicy(target_size=4)
    fb = fragment_bat(dense_bat("int", list(range(6))), policy)
    sizes = fb.fragment_sizes()
    grown = fb.append(tails=[90])
    if sizes[-1] < 4:
        assert len(grown.fragments) == len(fb.fragments)
    # Keep appending past the target: a new delta fragment must open
    # rather than the tail growing without bound.
    for value in range(91, 91 + 8):
        grown = grown.append(tails=[value])
    assert len(grown.fragments) > len(fb.fragments)
    assert grown.to_bat().tail_list() == list(range(6)) + list(range(90, 99))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_append_pairs(strategy):
    fb, _ = _fragmented(list(range(8)), strategy)
    grown = fb.append([(8, 50), (9, 51)])
    pairs = sorted(grown.to_bat().items())
    assert pairs[-2:] == [(8, 50), (9, 51)]


# ----------------------------------------------------------------------
# fold_tail / refragment
# ----------------------------------------------------------------------


def test_fold_tail_splits_oversized_fragments_without_coalescing():
    policy = FragmentationPolicy(target_size=4)
    fb = fragment_bat(dense_bat("int", list(range(8))), policy)
    # One bulk batch lands in a single delta far beyond the target.
    fb = fb.append(tails=list(range(100, 120)))
    assert max(fb.fragment_sizes()) > 2 * policy.target_size
    folded = fold_tail(fb, policy)
    assert max(folded.fragment_sizes()) <= 2 * policy.target_size
    assert folded.to_bat().tail_list() == fb.to_bat().tail_list()
    # Healthy prefix fragments are shared by reference, not copied.
    assert folded.fragments[0] is fb.fragments[0]


def test_fold_tail_noop_when_within_bound():
    policy = FragmentationPolicy(target_size=8)
    fb = fragment_bat(dense_bat("int", list(range(16))), policy)
    assert fold_tail(fb, policy) is fb


def test_refragment_restores_policy_size_after_append_storm():
    policy = FragmentationPolicy(target_size=4)
    fb = fragment_bat(dense_bat("int", list(range(4))), policy)
    for start in range(0, 50, 10):
        fb = fb.append(tails=list(range(start, start + 10)))
    merged = refragment(fb, policy)
    assert max(merged.fragment_sizes()) <= 2 * policy.target_size
    ideal = max(1, len(merged) // policy.target_size)
    assert len(merged.fragments) <= max(4, 4 * ideal)
    assert merged.to_bat().tail_list() == fb.to_bat().tail_list()


# ----------------------------------------------------------------------
# BATBufferPool.append
# ----------------------------------------------------------------------


def test_pool_append_bumps_epoch_and_is_visible_to_new_readers():
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [1, 2]))
    before = pool.epoch
    pool.append("x", tails=[3])
    assert pool.epoch > before
    assert pool.lookup("x").tail_list() == [1, 2, 3]


def test_pool_append_unknown_name_raises():
    pool = BATBufferPool()
    with pytest.raises(UnknownMutationTarget):
        pool.append("nope", tails=[1])


def test_pool_snapshot_isolates_appends_and_drops():
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [1, 2]))
    pool.register("y", dense_bat("int", [9]))
    snap = pool.read_snapshot()
    pool.append("x", tails=[3])
    pool.drop("y")
    # The snapshot still sees the pinned catalog...
    assert snap.lookup("x").tail_list() == [1, 2]
    assert snap.lookup("y").tail_list() == [9]
    assert snap.epoch < pool.epoch
    # ...while a fresh snapshot sees the new state.
    fresh = pool.read_snapshot()
    assert fresh.lookup("x").tail_list() == [1, 2, 3]
    assert not fresh.exists("y")


def test_pool_snapshot_write_through():
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [1]))
    snap = pool.read_snapshot()
    snap.register("t", dense_bat("int", [5]), replace=True)
    assert snap.lookup("t").tail_list() == [5]
    assert pool.lookup("t").tail_list() == [5]
    snap.drop("t")
    assert not snap.exists("t")
    assert not pool.exists("t")


def test_pool_append_fragmented_registration():
    pool = BATBufferPool()
    policy = FragmentationPolicy(target_size=4)
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(8))), policy)
    )
    pool.append("x", tails=[100])
    assert pool.lookup("x").tail_list() == list(range(8)) + [100]
    assert pool.is_fragmented("x")


def test_pool_append_advances_oid_generator():
    pool = BATBufferPool()
    pool.register("x", dense_bat("oid", [1, 2]))
    pool.append("x", tails=[500])
    assert pool.new_oids(1) > 500


@pytest.mark.parametrize("fragmented", [False, True], ids=["mono", "frag"])
def test_pool_append_bumps_past_finite_appended_oids_only(fragmented):
    """The bump reads the appended run of the built columns: NILs (the
    greatest int64) never advance the sequence -- an all-NIL batch
    bumps only past the grown void head -- and a finite oid in the run
    does."""
    pool = BATBufferPool()
    bat = dense_bat("oid", [3, None, 4, None])
    if fragmented:
        pool.register_fragmented(
            "x", fragment_bat(bat, FragmentationPolicy(target_size=2))
        )
    else:
        pool.register("x", bat)
    assert pool.oid_generator.current == 5
    pool.append("x", tails=[None, None, None])
    assert pool.oid_generator.current == 7  # the head's 0..6
    pool.append("x", tails=[None, 40, None, 12, None])
    assert pool.oid_generator.current == 41
    assert pool.lookup("x").tail_list()[-5:] == [None, 40, None, 12, None]


def test_pool_append_pairs_bumps_past_oid_heads_and_tails():
    pool = BATBufferPool()
    pool.register("x", bat_from_pairs("oid", "oid", [(0, 1)]))
    pool.append("x", [(90, None), (7, 60), (None, None)])
    assert pool.oid_generator.current == 91
    pool.append("x", [(None, 200)])
    assert pool.oid_generator.current == 201


# ----------------------------------------------------------------------
# merge_deltas and the daemon
# ----------------------------------------------------------------------


def _storm(pool, name, n):
    # One bulk batch: lands in a single delta fragment far beyond the
    # policy target, which is exactly what the merge pass folds back.
    pool.append(name, tails=[1000 + value for value in range(n)])


def test_merge_deltas_folds_oversized_tails():
    pool = BATBufferPool()
    policy = FragmentationPolicy(target_size=4)
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(4))), policy)
    )
    _storm(pool, "x", 40)
    before = pool.lookup("x").tail_list()
    merged = pool.merge_deltas(policy)
    assert merged >= 1
    after = pool.lookup_fragments("x")
    assert max(after.fragment_sizes()) <= 2 * policy.target_size
    assert pool.lookup("x").tail_list() == before


def test_merge_daemon_runs_in_background():
    pool = BATBufferPool()
    policy = FragmentationPolicy(target_size=4)
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(4))), policy)
    )
    pool.start_merge_daemon(interval=0.01)
    try:
        _storm(pool, "x", 40)
        deadline = 100
        while deadline > 0:
            sizes = pool.lookup_fragments("x").fragment_sizes()
            if max(sizes) <= 2 * 4:
                break
            deadline -= 1
            import time

            time.sleep(0.02)
        assert max(pool.lookup_fragments("x").fragment_sizes()) <= 8
    finally:
        pool.stop_merge_daemon()
    assert pool.lookup("x").tail_list() == list(range(4)) + [
        1000 + v for v in range(40)
    ]


def test_merge_daemon_does_not_clobber_concurrent_appends():
    """Compare-and-swap on swap-in: appends racing the merge are never
    lost."""
    import threading

    pool = BATBufferPool()
    policy = FragmentationPolicy(target_size=8)
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(8))), policy)
    )
    stop = threading.Event()

    def merger():
        while not stop.is_set():
            pool.merge_deltas(policy)

    thread = threading.Thread(target=merger)
    thread.start()
    try:
        # Mixed batch sizes: bulk batches create oversized deltas for
        # the merger to fold while later appends race the swap-in.
        for start in range(0, 300, 30):
            pool.append("x", tails=list(range(start, start + 30)))
    finally:
        stop.set()
        thread.join()
    pool.merge_deltas(policy)
    tails = pool.lookup("x").tail_list()
    assert tails == list(range(8)) + list(range(300))
