"""Tombstone and patch deltas: the delete/update write path.

Covers the mutation machinery layer by layer, mirroring
``test_append_delta.py`` for the two new delta kinds:
``BAT.delete_positions``/``update_positions`` (copy-on-write survivors,
O(changed) flag maintenance, the parent-oid renumber rule),
``FragmentedBAT.delete``/``update`` (fragment-granular tombstones and
patches, prefix sharing, dense-head re-densification on even and
ragged fragmentations), ``fold_tail(compact=True)`` and
``refragment(compact=True)`` (starved-run compaction, the merge
daemon's pass), ``BATBufferPool.delete``/
``update`` (epoch bumps, snapshot isolation), the group-commit WAL
(one fsync per batch of concurrent mutators), and the acceptance
tripwire: a spill-free 1M-BUN pipeline over a BAT carrying live
tombstone *and* patch deltas never coalesces mid-plan and matches the
monolithic reference BUN for BUN.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.monet import bbp as bbp_module
from repro.monet import fragments as fr
from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import (
    InvalidMutationBatch,
    InvalidPositions,
    UnknownMutationTarget,
)
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fold_tail,
    fragment_bat,
    same_fragmentation,
)
from repro.monet.mil import MILInterpreter, run_program
from tests.conftest import STRATEGIES, fragment_layout


# ----------------------------------------------------------------------
# BAT.delete_positions / BAT.update_positions
# ----------------------------------------------------------------------


def test_bat_delete_positions_is_copy_on_write():
    original = dense_bat("int", [10, 20, 30, 40])
    survivor = original.delete_positions([1, 3])
    assert survivor is not original
    assert original.tail_list() == [10, 20, 30, 40]
    assert survivor.tail_list() == [10, 30]
    # Void heads re-densify to the new length.
    assert survivor.head.is_void and len(survivor) == 2


def test_bat_delete_empty_batch_returns_self():
    original = dense_bat("int", [1, 2])
    assert original.delete_positions([]) is original


def test_bat_delete_preserves_all_four_flags():
    # Deletion is a monotone gather: every flag that held before holds
    # after, unlike append's conservative clearing.
    base = BAT(
        Column("oid", np.array([0, 1, 2, 3], dtype=np.int64)),
        Column("int", np.array([5, 6, 7, 8], dtype=np.int64)),
        hsorted=True,
        hkey=True,
        tsorted=True,
        tkey=True,
    )
    survivor = base.delete_positions([2])
    assert survivor.hsorted and survivor.hkey
    assert survivor.tsorted and survivor.tkey
    assert survivor.tail_list() == [5, 6, 8]


def test_bat_delete_out_of_range_positions_raise():
    base = dense_bat("int", [1, 2, 3])
    with pytest.raises(InvalidPositions):
        base.delete_positions([3])
    with pytest.raises(InvalidPositions):
        base.delete_positions([-1])


def test_bat_delete_renumbers_provably_dense_tail():
    # The Moa extent shape: oid tail 0..n-1, sorted + key.  Renumbered
    # by its own positions the tail is the dense run of the *new* length.
    extent = BAT(
        VoidColumn(0, 5),
        Column("oid", np.arange(5, dtype=np.int64)),
        tsorted=True,
        tkey=True,
    )
    survivor = extent.delete_positions([1, 4], renumber=[1, 4])
    assert survivor.tail_list() == [0, 1, 2]
    assert survivor.tsorted and survivor.tkey


def test_bat_delete_renumbers_parent_oids():
    # The __nest__/owner shape: unsorted parent oids with repeats and a
    # NIL.  Each survivor t becomes t - |{deleted parents < t}|, even
    # when no BUN of this BAT is deleted (childless parents).
    nest = dense_bat("oid", [4, 0, 4, 2, None, 6])
    assert nest.delete_positions([], renumber=[1, 3]).tail_list() == [
        2, 0, 2, 1, None, 4,
    ]
    survivor = nest.delete_positions([3], renumber=[2, 5])
    assert survivor.tail_list() == [3, 0, 3, None, 4]
    assert nest.delete_positions([], renumber=[7]) is nest  # nothing moves


def test_bat_delete_renumber_keeps_flags_on_sparse_tail():
    # The rule is strictly monotone on survivors: a sorted key tail
    # that is not dense stays sorted and key.
    sparse = BAT(
        VoidColumn(0, 3),
        Column("oid", np.array([0, 5, 9], dtype=np.int64)),
        tsorted=True,
        tkey=True,
    )
    survivor = sparse.delete_positions([1], renumber=[5, 7])
    assert survivor.tail_list() == [0, 7]
    assert survivor.tsorted and survivor.tkey


def test_bat_delete_renumber_rejects_dangling_parent():
    # The safety check: a surviving child naming a deleted parent.
    nest = dense_bat("oid", [0, 1, 1, 2])
    with pytest.raises(InvalidMutationBatch, match="deleted parent 1"):
        nest.delete_positions([1], renumber=[1])
    with pytest.raises(InvalidMutationBatch, match="oid/int"):
        dense_bat("str", ["a"]).delete_positions([], renumber=[0])


def test_bat_update_positions_is_copy_on_write():
    original = dense_bat("int", [1, 2, 3])
    patched = original.update_positions([1], [20])
    assert original.tail_list() == [1, 2, 3]
    assert patched.tail_list() == [1, 20, 3]
    assert patched.head is original.head  # heads never change


def test_bat_update_duplicate_positions_last_wins():
    base = dense_bat("int", [1, 2, 3])
    patched = base.update_positions([0, 0], [10, 11])
    assert patched.tail_list() == [11, 2, 3]


def test_bat_update_rechecks_sortedness_locally():
    base = BAT(
        VoidColumn(0, 4),
        Column("int", np.array([1, 2, 3, 4], dtype=np.int64)),
        tsorted=True,
        tkey=True,
    )
    # An in-order patch keeps tsorted; tkey is conservatively cleared
    # (proving keyness would cost a full scan, not O(changed)).
    in_order = base.update_positions([1], [2])
    assert in_order.tsorted and not in_order.tkey
    out_of_order = base.update_positions([1], [9])
    assert not out_of_order.tsorted


def test_bat_update_to_nil_clears_tail_flags():
    # The kernel NIL rule: NIL compares false against everything, so a
    # NaN patch fails the local neighbour check and clears tsorted.
    base = BAT(
        VoidColumn(0, 3),
        Column("dbl", np.array([1.0, 2.0, 3.0])),
        tsorted=True,
        tkey=True,
    )
    patched = base.update_positions([1], [None])
    assert patched.tail_list() == [1.0, None, 3.0]
    assert not patched.tsorted and not patched.tkey


def test_bat_update_misaligned_values_raise():
    base = dense_bat("int", [1, 2, 3])
    with pytest.raises(InvalidMutationBatch):
        base.update_positions([0, 1], [5])


# ----------------------------------------------------------------------
# FragmentedBAT.delete / FragmentedBAT.update
# ----------------------------------------------------------------------


def _fragmented(values, strategy, target=4):
    policy = FragmentationPolicy(target_size=target)
    return fragment_layout(dense_bat("int", values), strategy, policy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_delete_positional_semantics(strategy):
    fb = _fragmented(list(range(16)), strategy)
    survivor = fb.delete([0, 7, 15])
    assert survivor.to_bat().tail_list() == [
        v for v in range(16) if v not in (0, 7, 15)
    ]
    # The receiver is untouched (copy-on-write).
    assert fb.to_bat().tail_list() == list(range(16))


def test_fragmented_delete_range_shares_untouched_prefix():
    fb = _fragmented(list(range(16)), "range")
    # Tombstones only in the third fragment: everything before it is
    # the same object; fragments after it share tails by reference
    # (only their void seqbase shifts).
    survivor = fb.delete([8, 9])
    assert survivor.fragments[0] is fb.fragments[0]
    assert survivor.fragments[1] is fb.fragments[1]
    assert survivor.fragments[3].tail is fb.fragments[3].tail


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_delete_redensifies_dense_heads(strategy):
    fb = _fragmented(list(range(12)), strategy)
    survivor = fb.delete([2, 5, 11])
    coalesced = survivor.to_bat()
    # Moa's positional-fetchjoin discipline: heads are again 0..n-1.
    assert coalesced.head_values().tolist() == list(range(9))


def test_fragmented_delete_drops_emptied_fragments():
    fb = _fragmented(list(range(8)), "range", target=2)
    before = fb.nfragments
    survivor = fb.delete([2, 3])  # the whole second fragment
    assert survivor.nfragments == before - 1
    assert survivor.to_bat().tail_list() == [0, 1, 4, 5, 6, 7]


def test_fragmented_delete_everything_keeps_one_empty_fragment():
    fb = _fragmented(list(range(6)), "range")
    survivor = fb.delete(range(6))
    assert survivor.nfragments == 1 and len(survivor) == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_update_touches_only_hit_fragments(strategy):
    fb = _fragmented(list(range(16)), strategy)
    patched = fb.update([3], [300])
    touched = sum(
        1
        for before, after in zip(fb.fragments, patched.fragments)
        if before is not after
    )
    assert touched == 1
    assert len(patched) == len(fb)
    tails = patched.to_bat().tail_list()
    assert tails[3] == 300
    assert [t for i, t in enumerate(tails) if i != 3] == [
        v for v in range(16) if v != 3
    ]


def test_fragmented_update_preserves_fragmentation_and_heads():
    fb = _fragmented(list(range(16)), "ragged")
    patched = fb.update([0, 15], [100, 115])
    assert same_fragmentation(fb, patched)  # alignment survives
    for before, after in zip(fb.fragments, patched.fragments):
        assert after.head is before.head
    assert patched.to_bat().head_values().tolist() == list(range(16))


# ----------------------------------------------------------------------
# fold_tail(compact=True) / the merge daemon's pass
# ----------------------------------------------------------------------


def test_fold_tail_compaction_is_opt_in():
    fb = _fragmented(list(range(32)), "range", target=8)
    starved = fb.delete([p for p in range(32) if p % 8 not in (0, 1)])
    assert min(starved.fragment_sizes()) * 2 < 8
    # Default fold (the per-operator intermediate path) leaves starved
    # runs alone -- selections routinely shrink fragments and must not
    # pay a copy per operator.
    assert fold_tail(starved, fb.policy) is starved
    compacted = fold_tail(starved, fb.policy, compact=True)
    assert compacted.nfragments < starved.nfragments
    assert compacted.to_bat().tail_list() == starved.to_bat().tail_list()
    assert max(compacted.fragment_sizes()) <= 8


def test_refragment_compact_is_the_merge_pass():
    fb = _fragmented(list(range(32)), "range", target=8)
    # In shape already: the very handle comes back, which is how the
    # merge daemon knows there is nothing to swap in.
    assert fr.refragment(fb, fb.policy, compact=True) is fb
    starved = fb.delete([p for p in range(32) if p % 8 not in (0, 1)])
    # Plan intermediates (compact=False) keep their starved fragments.
    assert fr.refragment(starved, fb.policy) is starved
    merged = fr.refragment(starved, fb.policy, compact=True)
    assert merged.fragment_sizes() == [8]
    assert merged.to_bat().to_pairs() == starved.to_bat().to_pairs()


def test_pool_merge_deltas_rebalances_skewed_registration():
    # A ragged registration is one merge pass away from policy shape:
    # the oversized fragment folds to target-sized views and the empty
    # one drops, without disturbing BUN order.
    pool = BATBufferPool()
    policy = FragmentationPolicy(target_size=8)
    pool.register_fragmented(
        "x", fragment_layout(dense_bat("int", list(range(40))), "ragged", policy)
    )
    before = pool.lookup_fragments("x").fragment_sizes()
    assert max(before) > 2 * policy.target_size and 0 in before
    assert pool.merge_deltas(policy) == 1
    after = pool.lookup_fragments("x").fragment_sizes()
    assert max(after) <= policy.target_size and 0 not in after
    assert pool.lookup("x").tail_list() == list(range(40))


def test_pool_merge_deltas_compacts_tombstoned_fragments():
    pool = BATBufferPool()
    policy = FragmentationPolicy(target_size=8)
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(64))), policy)
    )
    pool.delete("x", [p for p in range(64) if p % 8 not in (0, 1)])
    starved = pool.lookup_fragments("x").nfragments
    assert pool.merge_deltas(policy) >= 1
    assert pool.lookup_fragments("x").nfragments < starved
    assert pool.lookup("x").tail_list() == [
        v for v in range(64) if v % 8 in (0, 1)
    ]


def test_merge_deltas_is_idempotent_on_an_unmergeable_starved_tail():
    """Sizes [2048, 4] at target 2048: the tail is starved but cannot
    merge into its full neighbour.  The fold must hand the very handle
    back, or the merge daemon re-swaps the registration (epoch bump,
    view invalidation) on every pass forever."""
    policy = FragmentationPolicy(target_size=2048)
    pool = BATBufferPool()
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(2052))), policy)
    )
    fb = pool.lookup_fragments("x")
    assert fb.fragment_sizes() == [2048, 4]
    assert fold_tail(fb, policy, compact=True) is fb
    assert fr.refragment(fb, policy, compact=True) is fb
    epoch = pool.epoch
    assert pool.merge_deltas() == 0
    assert pool.merge_deltas() == 0
    assert pool.epoch == epoch
    assert pool.lookup_fragments("x") is fb


# ----------------------------------------------------------------------
# BATBufferPool.delete / update: epochs, snapshots, errors
# ----------------------------------------------------------------------


def test_pool_delete_update_bump_epoch_and_isolate_snapshots():
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [1, 2, 3]))
    snap = pool.read_snapshot()
    before = pool.epoch
    pool.delete("x", [0])
    pool.update("x", [0], [20])
    assert pool.epoch == before + 2
    assert pool.lookup("x").tail_list() == [20, 3]
    # The pinned snapshot still reads the pre-mutation rows.
    assert snap.lookup("x").tail_list() == [1, 2, 3]


def test_pool_delete_update_unknown_name_raise():
    pool = BATBufferPool()
    with pytest.raises(UnknownMutationTarget):
        pool.delete("ghost", [0])
    with pytest.raises(UnknownMutationTarget):
        pool.update("ghost", [0], [1])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pool_delete_renumber_fragmented_matches_monolithic(strategy):
    parents = [0, 3, 1, 3, 5, 6, 6, 2, 7, 9, 8, 3]
    policy = FragmentationPolicy(target_size=4)
    pool = BATBufferPool()
    pool.register("mono", dense_bat("oid", parents))
    pool.register_fragmented(
        "frag", fragment_layout(dense_bat("oid", parents), strategy, policy)
    )
    doomed = [i for i, p in enumerate(parents) if p in (3, 6)]
    for name in ("mono", "frag"):
        pool.delete(name, doomed, renumber=[3, 4, 6])
    expected = [0, 1, 3, 2, 4, 6, 5]
    assert pool.lookup("mono").tail_list() == expected
    fragmented = pool.lookup_fragments("frag")
    assert fragmented.to_bat().tail_list() == expected
    assert fragmented.to_bat().head_values().tolist() == list(range(7))
    # Fragments of untouched children whose parents did not move are
    # shared: renumbering copies only what changes.
    untouched = pool.delete("frag", [], renumber=[99])
    assert untouched is fragmented


def test_pool_update_oid_tail_advances_generator():
    pool = BATBufferPool()
    pool.register("x", dense_bat("oid", [1, 2]))
    pool.update("x", [0], [900])
    assert pool.new_oids(1) > 900


def test_failed_delete_leaves_pool_unchanged():
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [1, 2]))
    epoch = pool.epoch
    with pytest.raises(InvalidPositions):
        pool.delete("x", [5])
    assert pool.epoch == epoch
    assert pool.lookup("x").tail_list() == [1, 2]


# ----------------------------------------------------------------------
# Acceptance tripwire: live deltas never coalesce in a 1M-BUN plan
# ----------------------------------------------------------------------

PIPELINE = """
s := bat("fact").select(oid(50), oid(800));
j := s.join(bat("dim"));
c := count(s);
sum(j);
"""


def test_live_delta_pipeline_never_coalesces_1m(monkeypatch, fan_out_on_tiny_inputs):
    """The PR acceptance property: a spill-free 1M-BUN pipeline
    (select -> join -> aggregate) over a fragmented BAT carrying *live*
    tombstone and patch deltas -- deleted and updated through the pool,
    never rebalanced -- runs without a single coalesce (class-level
    ``FragmentedBAT.to_bat`` and ``fragments.coalesce`` are both
    tripwired) and matches the monolithic reference BUN for BUN."""
    n = 1_000_000
    rng = np.random.default_rng(77)
    tails = rng.integers(0, 1000, n)
    base = BAT(VoidColumn(0, n), Column("oid", tails))
    dim = bat_from_pairs(
        "oid", "dbl", [(i, float(i) * 0.5) for i in rng.permutation(1000)]
    )
    policy = FragmentationPolicy(target_size=128 * 1024)
    deleted = np.unique(rng.choice(n, 5_000, replace=False))
    patched = np.unique(rng.choice(n - len(deleted), 5_000, replace=False))
    patch_values = rng.integers(0, 1000, len(patched)).tolist()

    frag_pool = BATBufferPool()
    frag_pool.register_fragmented("fact", fragment_bat(base, policy))
    frag_pool.register_fragmented("dim", fragment_bat(dim, policy))
    frag_pool.delete("fact", deleted)
    frag_pool.update("fact", patched, patch_values)
    live = frag_pool.lookup_fragments("fact")
    # The deltas really are live: the fragmentation drifted from the
    # clean split and no rebalance has run.
    assert live.fragment_sizes() != fragment_bat(base, policy).fragment_sizes()

    def forbidden_coalesce(value):
        raise AssertionError("fragments.coalesce called mid-plan")

    def forbidden_to_bat(self):
        raise AssertionError("FragmentedBAT.to_bat called mid-plan")

    monkeypatch.setattr(fr, "coalesce", forbidden_coalesce)
    monkeypatch.setattr(FragmentedBAT, "to_bat", forbidden_to_bat)
    interpreter = MILInterpreter(frag_pool, fragment_policy=policy)
    result = interpreter.run(PIPELINE)
    monkeypatch.undo()
    assert isinstance(result.env["s"], FragmentedBAT)
    assert isinstance(result.env["j"], FragmentedBAT)
    # Spill-free: the partitioned join build left no spill unit behind.
    if bbp_module._SPILL_ROOT is not None:
        assert list(bbp_module._SPILL_ROOT.iterdir()) == []

    mono = base.delete_positions(deleted)
    mono = mono.update_positions(patched, patch_values)
    mono_pool = BATBufferPool()
    mono_pool.register("fact", mono)
    mono_pool.register("dim", dim)
    expected = run_program(PIPELINE, mono_pool)
    assert result.env["c"] == expected.env["c"]
    assert result.value == pytest.approx(expected.value)
    got_s = result.env["s"].to_bat()
    want_s = expected.env["s"]
    assert np.array_equal(got_s.head_values(), want_s.head_values())
    assert np.array_equal(got_s.tail_values(), want_s.tail_values())


# ----------------------------------------------------------------------
# Group-commit WAL: one fsync per batch of concurrent mutators
# ----------------------------------------------------------------------


def test_wal_counters_track_serial_mutations(tmp_path, tuning_override):
    tuning_override(wal_group_ms=0.0)
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [1, 2, 3]))
    pool.save(tmp_path)
    pool.append("x", tails=[4])
    pool.delete("x", [0])
    pool.update("x", [0], [20])
    # A lone mutator is its own leader: one record, one fsync, each.
    assert pool.wal_records == 3
    assert pool.wal_fsyncs == 3


def test_group_commit_fewer_fsyncs_than_records_at_8_writers(
    tmp_path, tuning_override
):
    """The PR acceptance property for the WAL: 8 concurrent writers
    issuing 160 mutations between them group-commit into measurably
    fewer fsyncs than records -- and every record still replays."""
    tuning_override(wal_group_ms=10.0)
    pool = BATBufferPool()
    writers, per_writer = 8, 20
    for i in range(writers):
        pool.register(f"w{i}", dense_bat("int", list(range(4))))
    pool.save(tmp_path)
    barrier = threading.Barrier(writers)
    errors = []

    def mutate(i: int):
        try:
            barrier.wait(timeout=30)
            name = f"w{i}"
            for step in range(per_writer):
                if step % 3 == 0:
                    pool.append(name, tails=[100 + step])
                elif step % 3 == 1:
                    pool.delete(name, [0])
                else:
                    pool.update(name, [0], [77])
        except Exception as exc:  # pragma: no cover
            errors.append((i, exc))

    threads = [
        threading.Thread(target=mutate, args=(i,)) for i in range(writers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    assert pool.wal_records == writers * per_writer
    assert pool.wal_fsyncs < pool.wal_records / 2

    restored = BATBufferPool.load(tmp_path)
    for i in range(writers):
        assert (
            restored.lookup(f"w{i}").tail_list()
            == pool.lookup(f"w{i}").tail_list()
        ), f"w{i}"
