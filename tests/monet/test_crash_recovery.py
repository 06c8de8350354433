"""Crash-recovery: fault-injected saves, WAL replay, and sweeps.

The contract under test (see ``BATBufferPool.save``/``load``): a crash
at *any* point during save or append never loses a committed append and
never surfaces a partial one.  Saves commit atomically through the
catalog replacement; appends commit through fsynced ``wal.jsonl``
records replayed on load (a torn trailing record is discarded).  Also
covered: the ``@``-namespace exclusion from persistence, the
unreferenced-file sweep, and the stale spill-directory sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet import bbp as bbp_module
from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import MonetError
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from tests.conftest import CRASH_SHAPES


def _seed_pool() -> BATBufferPool:
    pool = BATBufferPool()
    pool.register("a", dense_bat("int", [1, 2, 3]))
    pool.register("b", dense_bat("str", ["x", None, "y"]))
    policy = FragmentationPolicy(target_size=2)
    pool.register_fragmented(
        "f", fragment_bat(dense_bat("int", [10, 20, 30, 40, 50]), policy)
    )
    return pool


# ----------------------------------------------------------------------
# Fault-injected saves
# ----------------------------------------------------------------------


def test_crash_writing_data_file_preserves_previous_save(tmp_path, monkeypatch):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[9])  # committed: WAL record is on disk
    pool.register("c", dense_bat("int", [7]))

    calls = {"n": 0}
    real_savez = np.savez

    def failing_savez(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise OSError("injected: disk full")
        return real_savez(*args, **kwargs)

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="injected"):
        pool.save(tmp_path)
    monkeypatch.undo()

    restored = BATBufferPool.load(tmp_path)
    # The committed append survives (base catalog + WAL replay) ...
    assert restored.lookup("a").tail_list() == [1, 2, 3, 9]
    assert restored.lookup("b").tail_list() == ["x", None, "y"]
    assert restored.lookup("f").tail_list() == [10, 20, 30, 40, 50]
    # ... and nothing from the aborted save is visible.
    assert not restored.exists("c")


def test_crash_replacing_catalog_preserves_previous_save(tmp_path, monkeypatch):
    pool = _seed_pool()
    pool.save(tmp_path)
    before = json.loads((tmp_path / "catalog.json").read_text())
    pool.append("a", tails=[42])
    pool.register("later", dense_bat("int", [5]))

    def failing_replace(path, text):
        raise OSError("injected: power loss at commit")

    monkeypatch.setattr(bbp_module, "replace_text", failing_replace)
    with pytest.raises(OSError, match="injected"):
        pool.save(tmp_path)
    monkeypatch.undo()

    after = json.loads((tmp_path / "catalog.json").read_text())
    assert after == before  # the commit point never moved
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 42]
    assert not restored.exists("later")


def test_successful_save_supersedes_wal_and_sweeps_old_generation(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[9])
    assert (tmp_path / "wal.jsonl").exists()
    pool.save(tmp_path)
    # The WAL is folded into the new generation and truncated.
    assert not (tmp_path / "wal.jsonl").exists()
    catalog = json.loads((tmp_path / "catalog.json").read_text())
    referenced = set()
    for entry in catalog["bats"].values():
        if entry.get("fragmented"):
            referenced.update(sub["file"] for sub in entry["fragments"])
        else:
            referenced.add(entry["file"])
    on_disk = {p.name for p in tmp_path.glob("bat_*.npz")}
    assert on_disk == referenced  # no stale previous-generation files
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 9]


# ----------------------------------------------------------------------
# WAL replay
# ----------------------------------------------------------------------


def test_wal_replays_committed_appends_on_load(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[4, 5])
    pool.append("b", tails=[None, "z"])
    pool.append("f", [(5, 60)])
    # No save: simulate a crash here.  Load must replay all three.
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4, 5]
    assert restored.lookup("b").tail_list() == ["x", None, "y", None, "z"]
    assert restored.lookup("f").tail_list() == [10, 20, 30, 40, 50, 60]
    assert restored.is_fragmented("f")


def test_torn_trailing_wal_record_is_discarded(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[4])
    pool.append("a", tails=[5])
    wal = tmp_path / "wal.jsonl"
    text = wal.read_text()
    assert text.count("\n") == 2
    wal.write_text(text[:-4])  # crash mid-write of the second record
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4]


def test_garbage_wal_line_stops_replay_at_that_point(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[4])
    wal = tmp_path / "wal.jsonl"
    with open(wal, "a", encoding="utf-8") as fh:
        fh.write("{not json at all}\n")
        fh.write(json.dumps({"name": "a", "tails": [99]}) + "\n")
    restored = BATBufferPool.load(tmp_path)
    # Everything before the corruption applies; nothing after does.
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4]


def test_wal_record_for_unknown_name_is_skipped(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    (tmp_path / "wal.jsonl").write_text(
        json.dumps({"name": "ghost", "tails": [1]})
        + "\n"
        + json.dumps({"name": "a", "tails": [4]})
        + "\n"
    )
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4]
    assert not restored.exists("ghost")


def test_appends_after_load_continue_the_wal(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[4])
    restored = BATBufferPool.load(tmp_path)
    restored.append("a", tails=[5])
    # Crash again before any save: both generations of appends replay.
    again = BATBufferPool.load(tmp_path)
    assert again.lookup("a").tail_list() == [1, 2, 3, 4, 5]


def test_pairs_append_round_trips_through_wal(tmp_path):
    pool = BATBufferPool()
    pool.register("kv", bat_from_pairs("str", "int", [("a", 1)]))
    pool.save(tmp_path)
    pool.append("kv", [("b", 2), (None, 3)])
    restored = BATBufferPool.load(tmp_path)
    assert list(restored.lookup("kv").items()) == [
        ("a", 1),
        ("b", 2),
        (None, 3),
    ]


def test_crash_between_catalog_commit_and_wal_truncate(tmp_path, monkeypatch):
    """The double-replay window: a save whose catalog commit lands but
    whose WAL truncation does not must not replay the (already folded
    in) appends on the next load."""
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[4, 5])

    def failing_truncate(self):
        raise OSError("injected: crash after commit, before truncation")

    monkeypatch.setattr(
        BATBufferPool, "_wal_truncate_locked", failing_truncate
    )
    with pytest.raises(OSError, match="injected"):
        pool.save(tmp_path)
    monkeypatch.undo()

    assert (tmp_path / "wal.jsonl").exists()  # the stale WAL survived
    restored = BATBufferPool.load(tmp_path)
    # Exactly once: the catalog already folded the appends in, and the
    # stale WAL records are fenced off by their older generation stamp.
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4, 5]


def test_failed_append_leaves_no_wal_record(tmp_path):
    """An append that raises must not commit a WAL record -- otherwise
    replay re-raises on every subsequent load and the store becomes
    permanently unloadable."""
    pool = BATBufferPool()
    pool.register("kv", bat_from_pairs("str", "int", [("a", 1)]))
    pool.save(tmp_path)
    with pytest.raises(MonetError):
        pool.append("kv", tails=[2])  # tails= needs a void head
    with pytest.raises(MonetError):
        pool.append("kv", [("b", "not an int")])
    pool.append("kv", [("b", 2)])  # the pool stays writable
    restored = BATBufferPool.load(tmp_path)
    assert list(restored.lookup("kv").items()) == [("a", 1), ("b", 2)]


def test_unreplayable_wal_record_is_skipped_with_warning(tmp_path):
    """Defense in depth for WALs written by older/buggy writers: a
    record that no longer applies is skipped, not fatal."""
    pool = BATBufferPool()
    pool.register("kv", bat_from_pairs("str", "int", [("a", 1)]))
    pool.save(tmp_path)
    (tmp_path / "wal.jsonl").write_text(
        json.dumps({"name": "kv", "tails": [9]})  # tails= on non-void head
        + "\n"
        + json.dumps({"name": "kv", "pairs": [["b", 2]]})
        + "\n"
    )
    with pytest.warns(RuntimeWarning, match="unreplayable WAL record"):
        restored = BATBufferPool.load(tmp_path)
    assert list(restored.lookup("kv").items()) == [("a", 1), ("b", 2)]


def test_generator_batches_append_consistently(tmp_path):
    """A generator batch must be materialized once: the WAL, the
    in-memory append and the oid bump all see the same sequence."""
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=(v for v in [4, 5]))
    pool.append("f", ((h, t) for h, t in [(5, 60), (6, 70)]))
    assert pool.lookup("a").tail_list() == [1, 2, 3, 4, 5]
    assert pool.lookup("f").tail_list() == [10, 20, 30, 40, 50, 60, 70]
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4, 5]
    assert restored.lookup("f").tail_list() == [10, 20, 30, 40, 50, 60, 70]


# ----------------------------------------------------------------------
# Tombstone and patch records: delete/update through the WAL
# ----------------------------------------------------------------------


def test_wal_replays_committed_deletes_and_updates_on_load(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.delete("a", [1])
    pool.update("a", [0], [100])
    pool.delete("f", [0, 4])  # fragmented: tombstone delta kind
    pool.update("f", [1], [990])
    # No save: simulate a crash.  Load must replay all four records.
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [100, 3]
    assert restored.lookup("f").tail_list() == [20, 990, 40]
    assert restored.is_fragmented("f")


def test_wal_replays_renumbering_delete(tmp_path):
    # The Moa extent shape: a dense oid tail must stay 0..n-1 through
    # crash recovery, so the renumber list rides in the WAL record.
    pool = BATBufferPool()
    pool.register(
        "T.__extent__",
        BAT(
            Column("oid", np.array([10, 11, 12], dtype=np.int64)),
            Column("oid", np.arange(3, dtype=np.int64)),
            hsorted=True,
            hkey=True,
            tsorted=True,
            tkey=True,
        ),
    )
    pool.save(tmp_path)
    pool.delete("T.__extent__", [1], renumber=[1])
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("T.__extent__").tail_list() == [0, 1]
    assert list(restored.lookup("T.__extent__").head_list()) == [10, 12]


def test_wal_replays_parent_renumbering_delete(tmp_path):
    # A Moa __nest__/owner tail follows its parents' deletion: the
    # deleted parent oids ride in the record, on both registrations.
    pool = BATBufferPool()
    pool.register("mono", dense_bat("oid", [0, 2, 2, 3, 5]))
    pool.register_fragmented(
        "frag",
        fragment_bat(
            dense_bat("oid", [0, 2, 2, 3, 5]), FragmentationPolicy(target_size=2)
        ),
    )
    pool.save(tmp_path)
    for name in ("mono", "frag"):
        pool.delete(name, [3], renumber=[1, 3, 4])
    restored = BATBufferPool.load(tmp_path)
    for name in ("mono", "frag"):
        assert pool.lookup(name).tail_list() == [0, 1, 1, 2], name
        assert restored.lookup(name).tail_list() == [0, 1, 1, 2], name
    assert restored.is_fragmented("frag")


def test_parent_written_renumber_record_replays(tmp_path):
    """On-disk compatibility: a delete record written before renumber
    took a list carries ``"renumber": true``, meaning "renumber by this
    record's own positions" -- it must replay to the same extent."""
    pool = BATBufferPool()
    pool.register(
        "T.__extent__",
        BAT(
            VoidColumn(0, 3),
            Column("oid", np.arange(3, dtype=np.int64)),
            tsorted=True,
            tkey=True,
        ),
    )
    pool.save(tmp_path)
    generation = json.loads((tmp_path / "catalog.json").read_text())["generation"]
    (tmp_path / "wal.jsonl").write_text(
        '{"name": "T.__extent__", "generation": %d, "delete": [1], '
        '"renumber": true}\n' % generation
    )
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("T.__extent__").tail_list() == [0, 1]
    assert restored.lookup("T.__extent__").tsorted


# ----------------------------------------------------------------------
# Crash-copy durability gate: every mapper x every mutation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("threshold", [None, 4], ids=["monolithic", "fragmented"])
@pytest.mark.parametrize(
    "kind", ["insert", "delete", "update", "first-insert", "replace"]
)
@pytest.mark.parametrize("shape", sorted(CRASH_SHAPES))
def test_crash_copy_recovers_every_mutation(tmp_path, shape, kind, threshold):
    """Save, mutate, copy the directory as it stands (no final save)
    and load the copy: every acknowledged mutation of every structure
    kind must be there -- the WAL carries all of them, the creation of
    a collection first inserted into after the save and both halves of
    a replace included."""
    element, value = CRASH_SHAPES[shape]
    policy = FragmentationPolicy(target_size=4) if threshold else None
    db = MirrorDBMS(fragment_threshold=threshold, fragment_policy=policy)
    ddl = "define {} as SET<TUPLE<Atomic<str>: k, %s: s>>;" % element

    def rows(ids):
        return [{"k": f"k{i}", "s": value(i)} for i in ids]

    db.define(ddl.format("C"))
    db.insert("C", rows(range(8)))
    db.save(tmp_path / "store")
    if kind == "insert":
        db.insert("C", rows((8, 9)))
    elif kind == "delete":
        assert db.delete("C", where={"k": "k2"}) == 1
        assert db.delete("C", where={"k": "k5"}) == 1
    elif kind == "update":
        assert db.update("C", {"s": value(6)}, where={"k": "k1"}) == 1
        assert db.update("C", {"s": value(3)}, where={"k": "k4"}) == 1
    elif kind == "first-insert":
        db.define(ddl.format("C2"))
        db.insert("C2", rows(range(3, 9)))
    else:
        db.insert("C", rows([8]))
        assert db.replace("C", rows((5, 2, 9))) == 3
        db.insert("C", rows([10]))
    shutil.copytree(tmp_path / "store", tmp_path / "crash")
    recovered = MirrorDBMS.load(tmp_path / "crash")
    assert recovered.collections() == db.collections()
    for name in db.collections():
        assert recovered.count(name) == db.count(name), name
        assert recovered.contents(name) == db.contents(name), name


def test_create_is_one_logged_record_and_replays(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    epoch = pool.epoch
    pool.create({"x": "oid", "y": "str"})
    assert pool.epoch == epoch + 1  # both names publish together
    assert len(pool.lookup("y")) == 0
    pool.append("x", tails=[7, None])
    pool.append("y", tails=["p", "q"])
    records = [
        json.loads(line) for line in (tmp_path / "wal.jsonl").read_text().splitlines()
    ]
    assert records[0] == {
        "generation": records[1]["generation"],
        "create": {"x": "oid", "y": "str"},
    }
    assert len(records) == 3
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("x").tail_list() == [7, None]
    assert restored.lookup("y").tail_list() == ["p", "q"]
    assert restored.lookup("a").tail_list() == [1, 2, 3]


def test_create_refuses_registered_names():
    pool = _seed_pool()
    with pytest.raises(MonetError, match="cannot create registered"):
        pool.create({"fresh": "int", "a": "int"})
    assert not pool.exists("fresh")


def test_concurrent_creates_of_one_name_admit_exactly_one():
    """Check and publish happen under every name's mutator mutex: of
    many threads creating the same BAT (each beside a private one),
    exactly one wins and no loser registers anything."""
    pool = BATBufferPool()
    outcomes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=_try_create, args=(pool, i, outcomes))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    winners = [i for i, ok in outcomes if ok]
    assert len(outcomes) == 16 and len(winners) == 1
    assert pool.names() == sorted(["shared", f"own{winners[0]}"])


def _try_create(pool, i, outcomes):
    try:
        pool.create({f"own{i}": "int", "shared": "oid"})
        outcomes.append((i, True))
    except MonetError:
        outcomes.append((i, False))


def test_create_record_registers_only_names_absent_from_catalog(tmp_path):
    """Replay registers the empty BATs a create record names that the
    loaded catalog lacks; a name the catalog holds keeps its BUNs."""
    pool = _seed_pool()
    pool.save(tmp_path)
    generation = json.loads((tmp_path / "catalog.json").read_text())["generation"]
    (tmp_path / "wal.jsonl").write_text(
        json.dumps({"generation": generation, "create": {"a": "int", "z": "dbl"}})
        + "\n"
        + json.dumps({"name": "z", "generation": generation, "tails": [1.5]})
        + "\n"
    )
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3]
    assert restored.lookup("z").tail_list() == [1.5]


def test_create_record_of_older_generation_is_fenced(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    (tmp_path / "wal.jsonl").write_text(
        json.dumps({"generation": 0, "create": {"z": "int"}}) + "\n"
    )
    assert not BATBufferPool.load(tmp_path).exists("z")


def test_unreplayable_create_record_is_skipped_with_warning(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    (tmp_path / "wal.jsonl").write_text(
        json.dumps({"create": {"z": "no-such-atom"}})
        + "\n"
        + json.dumps({"name": "a", "tails": [4]})
        + "\n"
    )
    with pytest.warns(RuntimeWarning, match="unreplayable"):
        restored = BATBufferPool.load(tmp_path)
    assert not restored.exists("z")
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4]


def test_create_racing_a_save_is_relogged(tmp_path, monkeypatch):
    """A save that lands between the create record's fsync and its
    publish truncates the record while its catalog misses the BATs:
    the create re-logs under the new generation, so recovery still
    finds them."""
    pool = _seed_pool()
    pool.save(tmp_path)
    real_log = BATBufferPool._wal_log

    def log_then_save(self, record):
        real_log(self, record)
        monkeypatch.setattr(BATBufferPool, "_wal_log", real_log)
        self.save(tmp_path)

    monkeypatch.setattr(BATBufferPool, "_wal_log", log_then_save)
    pool.create({"z": "int"})
    pool.append("z", tails=[5])
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("z").tail_list() == [5]


def test_torn_trailing_tombstone_record_is_discarded(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.delete("a", [0])
    pool.update("a", [0], [77])
    wal = tmp_path / "wal.jsonl"
    text = wal.read_text()
    assert text.count("\n") == 2
    wal.write_text(text[:-4])  # crash mid-write of the update record
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [2, 3]


def test_crash_between_group_commit_fsync_and_publish(tmp_path, monkeypatch):
    """The window the WAL exists for: the intent record is fsynced but
    the process dies before the in-memory publish.  The mutation must
    surface exactly once on the next load -- and never in the crashed
    pool's live catalog."""
    pool = _seed_pool()
    pool.save(tmp_path)

    def crashing_publish(self, name, current, new, record, bump):
        raise OSError("injected: crash after fsync, before publish")

    monkeypatch.setattr(BATBufferPool, "_publish_mutation", crashing_publish)
    with pytest.raises(OSError, match="injected"):
        pool.delete("a", [0])
    monkeypatch.undo()

    # The crashed pool never published...
    assert pool.lookup("a").tail_list() == [1, 2, 3]
    # ...but the record is durable, so recovery applies it.
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [2, 3]


def test_generation_fence_mixed_append_delete_batch(tmp_path, monkeypatch):
    """Exactly-once replay for the new record kinds: a save that folds
    a mixed append/delete/update batch into its catalog but crashes
    before truncating the WAL must not re-apply any of them (a
    re-applied delete would remove a *different* row)."""
    pool = _seed_pool()
    pool.save(tmp_path)
    pool.append("a", tails=[4, 5])
    pool.delete("a", [0])
    pool.update("a", [0], [20])
    pool.delete("f", [4])
    assert pool.lookup("a").tail_list() == [20, 3, 4, 5]

    def failing_truncate(self):
        raise OSError("injected: crash after commit, before truncation")

    monkeypatch.setattr(BATBufferPool, "_wal_truncate_locked", failing_truncate)
    with pytest.raises(OSError, match="injected"):
        pool.save(tmp_path)
    monkeypatch.undo()

    assert (tmp_path / "wal.jsonl").exists()  # the stale WAL survived
    restored = BATBufferPool.load(tmp_path)
    # The stale records are fenced off by their older generation stamp.
    assert restored.lookup("a").tail_list() == [20, 3, 4, 5]
    assert restored.lookup("f").tail_list() == [10, 20, 30, 40]


def test_failed_delete_and_update_leave_no_wal_record(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    with pytest.raises(MonetError):
        pool.delete("a", [99])  # out of range
    with pytest.raises(MonetError):
        pool.update("a", [0, 1], [7])  # misaligned values
    pool.append("a", tails=[4])  # the pool stays writable
    restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [1, 2, 3, 4]


def test_unreplayable_delete_record_is_skipped_with_warning(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    (tmp_path / "wal.jsonl").write_text(
        json.dumps({"name": "a", "delete": [99]})  # out of range
        + "\n"
        + json.dumps({"name": "a", "update": [0], "values": [50]})
        + "\n"
    )
    with pytest.warns(RuntimeWarning, match="unreplayable WAL record"):
        restored = BATBufferPool.load(tmp_path)
    assert restored.lookup("a").tail_list() == [50, 2, 3]


# ----------------------------------------------------------------------
# Session-temp (@) namespace exclusion
# ----------------------------------------------------------------------


def test_session_temps_are_not_persisted(tmp_path):
    pool = _seed_pool()
    pool.register("@s1:scratch", dense_bat("int", [8, 9]))
    pool.save(tmp_path)
    catalog = json.loads((tmp_path / "catalog.json").read_text())
    assert not any(name.startswith("@") for name in catalog["bats"])
    restored = BATBufferPool.load(tmp_path)
    assert not restored.exists("@s1:scratch")
    assert restored.lookup("a").tail_list() == [1, 2, 3]


def test_legacy_catalog_with_session_temp_entry_is_skipped(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    catalog_path = tmp_path / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    # A catalog written before the exclusion: the entry may reference a
    # file that no longer exists; load must not touch it.
    catalog["bats"]["@s9:leaked"] = {"file": "bat_gone.npz"}
    catalog_path.write_text(json.dumps(catalog))
    restored = BATBufferPool.load(tmp_path)
    assert not restored.exists("@s9:leaked")
    assert restored.lookup("a").tail_list() == [1, 2, 3]


# ----------------------------------------------------------------------
# Unreferenced-file and spill sweeps
# ----------------------------------------------------------------------


def test_load_sweeps_orphan_files(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    generation = json.loads((tmp_path / "catalog.json").read_text())["generation"]
    orphan = tmp_path / f"bat_g{generation:04d}_99999.npz"
    orphan.write_bytes(b"leftover from an aborted save")
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()  # reaped: its pid now fails the liveness probe
    dead_tmp = tmp_path / f"catalog.json.tmp-{proc.pid}"
    dead_tmp.write_text("half a catalog from a crashed process")
    BATBufferPool.load(tmp_path)
    assert not orphan.exists()
    assert not dead_tmp.exists()


def test_load_keeps_concurrent_savers_files(tmp_path):
    """A load must not reclaim what a concurrent writer is mid-way
    through producing: npz files of a newer generation (its catalog
    commit has not landed yet) and temp files of live pids."""
    pool = _seed_pool()
    pool.save(tmp_path)
    generation = json.loads((tmp_path / "catalog.json").read_text())["generation"]
    fresh = tmp_path / f"bat_g{generation + 1:04d}_00000.npz"
    fresh.write_bytes(b"next generation, commit in flight")
    live_tmp = tmp_path / f"bat_g{generation + 1:04d}_00001.npz.tmp-{os.getpid()}"
    live_tmp.write_text("a live writer's in-flight temp file")
    try:
        BATBufferPool.load(tmp_path)
        assert fresh.exists()
        assert live_tmp.exists()
    finally:
        fresh.unlink(missing_ok=True)
        live_tmp.unlink(missing_ok=True)


def test_save_reclaims_own_tmp_leftovers(tmp_path):
    pool = _seed_pool()
    pool.save(tmp_path)
    # An aborted earlier save by this process left a temp file behind;
    # save holds the writer's lock, so it may reclaim its own pid's.
    leftover = tmp_path / f"bat_g0001_00000.npz.tmp-{os.getpid()}"
    leftover.write_text("aborted write of this process")
    pool.save(tmp_path)
    assert not leftover.exists()


def test_stale_spill_dirs_swept_liveness_checked():
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()  # reaped: its pid now fails the liveness probe
    base = Path(tempfile.gettempdir())
    stale = base / f"{bbp_module._SPILL_PREFIX}{proc.pid}-test"
    live = base / f"{bbp_module._SPILL_PREFIX}{os.getpid()}-test"
    nonpid = base / f"{bbp_module._SPILL_PREFIX}notapid-test"
    try:
        for directory in (stale, live, nonpid):
            directory.mkdir(exist_ok=True)
            (directory / "unit.bin").write_bytes(b"x")
        removed = bbp_module.sweep_stale_spill_dirs()
        assert removed >= 1
        assert not stale.exists()  # dead owner: reclaimed
        assert live.exists()  # our own: kept
        assert nonpid.exists()  # unparseable: left alone
    finally:
        for directory in (stale, live, nonpid):
            shutil.rmtree(directory, ignore_errors=True)


def test_pool_startup_triggers_spill_sweep(monkeypatch):
    proc = subprocess.Popen(["sleep", "0"])
    proc.wait()
    base = Path(tempfile.gettempdir())
    stale = base / f"{bbp_module._SPILL_PREFIX}{proc.pid}-startup"
    stale.mkdir(exist_ok=True)
    monkeypatch.setattr(bbp_module, "_SPILL_SWEPT", False)
    try:
        BATBufferPool()
        assert not stale.exists()
    finally:
        shutil.rmtree(stale, ignore_errors=True)
