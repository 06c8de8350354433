"""Save/load round-trips of the BAT buffer pool.

Covers the property-flag and NIL corners the coarse npz layout must
preserve exactly: ``hsorted``/``tkey``/``hdense`` flags, object (str)
columns with NILs, fragmented BATs (even and ragged fragmentations),
and catalogs written by builds that still had a round-robin layout.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from tests.conftest import STRATEGIES, fragment_layout


def _roundtrip(pool: BATBufferPool, tmp_path) -> BATBufferPool:
    pool.save(tmp_path / "db")
    return BATBufferPool.load(tmp_path / "db")


def test_property_flags_roundtrip(pool, tmp_path):
    sorted_keys = BAT(
        Column("int", np.array([1, 3, 5, 9], dtype=np.int64)),
        Column("str", np.array(["a", "b", "c", "d"], dtype=object)),
        hsorted=True,
        hkey=True,
        tkey=True,
        tsorted=True,
    )
    pool.register("flags", sorted_keys)
    dense = dense_bat("dbl", [0.5, 1.5], seqbase=7)
    pool.register("dense", dense)
    loaded = _roundtrip(pool, tmp_path)

    flags = loaded.lookup("flags")
    assert (flags.hsorted, flags.hkey, flags.tkey, flags.tsorted) == (
        True,
        True,
        True,
        True,
    )
    assert not flags.hdense
    restored = loaded.lookup("dense")
    assert restored.hdense and restored.head.seqbase == 7
    assert restored.to_pairs() == dense.to_pairs()


def test_object_column_with_nils_roundtrip(pool, tmp_path):
    values = ["red", None, "", "green", None, "\x00odd"]
    bat = dense_bat("str", values)
    pool.register("strs", bat)
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup("strs").tail_list() == values


def test_numeric_nils_roundtrip(pool, tmp_path):
    pool.register("ints", dense_bat("int", [1, None, 3]))
    pool.register("dbls", dense_bat("dbl", [0.25, None, 4.0]))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup("ints").tail_list() == [1, None, 3]
    assert loaded.lookup("dbls").tail_list() == [0.25, None, 4.0]


def test_nonvoid_oid_head_roundtrip(pool, tmp_path):
    bat = bat_from_pairs("oid", "int", [(3, 30), (5, 50), (9, 90)])
    assert bat.hsorted and bat.hkey and not bat.hdense
    pool.register("sparse", bat)
    loaded = _roundtrip(pool, tmp_path)
    restored = loaded.lookup("sparse")
    assert restored.to_pairs() == bat.to_pairs()
    assert restored.hsorted and restored.hkey and not restored.hdense


def test_register_fragmented_renames_cached_coalesce(pool):
    bat = dense_bat("int", list(range(12)))
    fb = fragment_bat(bat, FragmentationPolicy(target_size=4))
    fb.to_bat()  # populate the coalesce cache before registration
    pool.register_fragmented("named", fb)
    assert pool.lookup("named").name == "named"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_roundtrip(pool, tmp_path, strategy):
    rng = np.random.default_rng(11)
    n = 257
    strs = np.empty(n, dtype=object)
    for i in range(n):
        strs[i] = None if i % 11 == 0 else f"w{int(rng.integers(0, 40))}"
    bat = BAT(VoidColumn(2, n), Column("str", strs))
    policy = FragmentationPolicy(target_size=50)
    pool.register_fragmented("lib.words", fragment_layout(bat, strategy, policy))
    pool.register("plain", dense_bat("int", [1, 2, 3]))
    loaded = _roundtrip(pool, tmp_path)

    assert loaded.is_fragmented("lib.words")
    fb = loaded.lookup_fragments("lib.words")
    assert fb.policy.target_size == 50
    assert fb.nfragments == pool.lookup_fragments("lib.words").nfragments
    assert fb.fragment_sizes() == pool.lookup_fragments("lib.words").fragment_sizes()
    assert loaded.lookup("lib.words").to_pairs() == bat.to_pairs()
    assert loaded.lookup("plain").tail_list() == [1, 2, 3]


def test_fragmented_roundtrip_preserves_oid_sequence(pool, tmp_path):
    bat = BAT(VoidColumn(100, 20), Column("int", np.arange(20, dtype=np.int64)))
    pool.register_fragmented("f", fragment_bat(bat, FragmentationPolicy(target_size=6)))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.oid_generator.current >= 120


# ----------------------------------------------------------------------
# Catalogs written before fragment order became BUN order
# ----------------------------------------------------------------------


def _write_legacy_roundrobin(directory, bat: BAT, target: int, wal=()):
    """Hand-write the directory an earlier build's ``save`` produced for
    a round-robin registration of *bat*: BUN ``i`` in fragment
    ``i % nfragments``, materialized heads, and each fragment's global
    BUN positions beside its columns -- plus WAL records on top."""
    directory.mkdir()
    n = len(bat)
    nfragments = -(-n // target)
    entry = {
        "fragmented": True,
        "strategy": "roundrobin",
        "target_size": target,
        "workers": None,
        "fragments": [],
    }
    for k in range(nfragments):
        positions = np.arange(k, n, nfragments, dtype=np.int64)
        filename = f"bat_g0001_00000_f{k:03d}.npz"
        np.savez(
            directory / filename,
            head=bat.head_values()[positions],
            tail=bat.tail_values()[positions],
            positions=positions,
        )
        entry["fragments"].append(
            {
                "file": filename,
                "htype": bat.htype,
                "ttype": bat.ttype,
                "hsorted": True,
                "tsorted": False,
                "hkey": True,
                "tkey": False,
                "hvoid": False,
                "tvoid": False,
                "has_positions": True,
            }
        )
    catalog = {"oid_next": n, "generation": 1, "bats": {"legacy": entry}}
    (directory / "catalog.json").write_text(json.dumps(catalog))
    (directory / "wal.jsonl").write_text(
        "".join(
            json.dumps({"name": "legacy", "generation": 1, **record}) + "\n"
            for record in wal
        )
    )


def _legacy_bat(n=23):
    rng = np.random.default_rng(3)
    return BAT(VoidColumn(0, n), Column("int", rng.integers(0, 99, n)))


def test_legacy_roundrobin_catalog_loads_as_the_same_bat(tmp_path):
    """Outside input: a round-robin catalog (per-fragment ``positions``
    arrays) loads as the same logical BAT in BUN order, re-split by the
    stored target size, and its WAL -- whose positions are global,
    hence layout-agnostic -- replays on top."""
    bat = _legacy_bat()
    wal = [
        {"delete": [1, 7, 22], "renumber": False},
        {"update": [0, 5], "values": [1000, 1005]},
        {"tails": [2000, 2001]},
    ]
    _write_legacy_roundrobin(tmp_path / "db", bat, 5, wal)
    loaded = BATBufferPool.load(tmp_path / "db")

    reference = BATBufferPool()
    reference.register("legacy", bat)
    reference.delete("legacy", wal[0]["delete"])
    reference.update("legacy", wal[1]["update"], wal[1]["values"])
    reference.append("legacy", tails=wal[2]["tails"])
    assert loaded.lookup("legacy").to_pairs() == reference.lookup("legacy").to_pairs()
    assert loaded.lookup("legacy").hdense
    fb = loaded.lookup_fragments("legacy")
    assert fb.policy.target_size == 5
    assert max(fb.fragment_sizes()) <= 5 + len(wal[2]["tails"])


def test_legacy_roundrobin_catalog_resaves_in_the_one_layout(tmp_path):
    bat = _legacy_bat()
    _write_legacy_roundrobin(tmp_path / "db", bat, 5)
    loaded = BATBufferPool.load(tmp_path / "db")
    fb = loaded.lookup_fragments("legacy")
    assert fb.fragment_sizes() == [5, 5, 5, 5, 3]
    assert [f.head.seqbase for f in fb.fragments] == [0, 5, 10, 15, 20]
    loaded.save(tmp_path / "db")

    catalog = json.loads((tmp_path / "db" / "catalog.json").read_text())
    entry = catalog["bats"]["legacy"]
    assert "strategy" not in entry
    for sub_entry in entry["fragments"]:
        assert "has_positions" not in sub_entry
        with np.load(tmp_path / "db" / sub_entry["file"]) as data:
            assert "positions" not in data.files
    again = BATBufferPool.load(tmp_path / "db")
    assert again.lookup("legacy").to_pairs() == bat.to_pairs()


def test_legacy_catalog_with_mismatched_positions_is_rejected(tmp_path):
    _write_legacy_roundrobin(tmp_path / "db", _legacy_bat(), 5)
    np.savez(
        tmp_path / "db" / "bat_g0001_00000_f000.npz",
        head=np.arange(5),
        tail=np.arange(5),
        positions=np.arange(4),
    )
    with pytest.raises(BBPError):
        BATBufferPool.load(tmp_path / "db")


def test_calibrated_tuning_roundtrip(pool, tmp_path):
    """Measured tuning persists next to the catalog and is reinstalled
    on load, so a restarted server skips the measurement pass.
    Cores-derived (unmeasured) defaults are never written.  (Knob-by-
    knob precedence and validation: ``test_tuning.py``.)"""
    import json

    from repro.monet import tuning

    measured = {
        "fragment_size": 12345,
        "parallel_min": 67890,
        "merge_fanout": 24,
        "join_fanout": 12,
        "join_spill": 2_000_000,
    }
    with tuning.override():
        pool.register("x", dense_bat("int", [1, 2, 3]))
        pool.save(tmp_path / "db")
        catalog = json.loads((tmp_path / "db" / "catalog.json").read_text())
        assert "tuning" not in catalog  # unmeasured defaults stay local

        tuning.install(**measured)
        pool.save(tmp_path / "db2")
        catalog = json.loads((tmp_path / "db2" / "catalog.json").read_text())
        assert catalog["tuning"] == measured
    # Leaving the block is the "restart": nothing installed survives.
    assert not tuning.current().measured
    with tuning.override():
        BATBufferPool.load(tmp_path / "db2")
        live = tuning.current()
        assert {field: getattr(live, field) for field in measured} == measured
        assert live.measured
        # Policies made after the load pick the persisted value up.
        assert FragmentationPolicy().target_size == 12345


# ----------------------------------------------------------------------
# Concurrency: the locked catalog and view-cache invalidation
# ----------------------------------------------------------------------


def test_concurrent_reregister_and_lookup_never_serves_stale_views(pool):
    """Two threads hammer re-registration of the same fragmented name
    while two more look it up: every lookup must observe one of the
    registered generations in full -- never a torn or stale coalesced
    view (the cache is invalidated under the catalog lock)."""
    import threading

    policy = FragmentationPolicy(target_size=8)
    generations = {
        g: dense_bat("int", [g] * (16 + g)) for g in range(4)
    }
    for g, bat in generations.items():
        pool.register_fragmented(f"gen{g}", fragment_bat(bat, policy))
    pool.register_fragmented("hot", fragment_bat(generations[0], policy))

    stop = threading.Event()
    errors = []

    def writer(seed: int):
        g = seed
        while not stop.is_set():
            g = (g + 1) % 4
            pool.register_fragmented(
                "hot", fragment_bat(generations[g], policy), replace=True
            )

    def reader():
        while not stop.is_set():
            try:
                coalesced = pool.lookup("hot")
                values = set(coalesced.tail_values().tolist())
                assert len(values) == 1, f"torn view: {values}"
                g = values.pop()
                assert len(coalesced) == 16 + g, (
                    f"stale mix: generation {g} with {len(coalesced)} BUNs"
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    threads = [
        threading.Thread(target=writer, args=(0,)),
        threading.Thread(target=writer, args=(2,)),
        threading.Thread(target=reader),
        threading.Thread(target=reader),
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]


def test_concurrent_drop_and_lookup_raise_cleanly(pool):
    """Racing drop/lookup must either succeed or raise BBPError -- no
    KeyError/AttributeError from half-updated catalog state."""
    import threading

    from repro.monet.errors import BBPError

    stop = threading.Event()
    errors = []

    def churn():
        while not stop.is_set():
            try:
                pool.register("flicker", dense_bat("int", [1, 2, 3]))
                pool.drop("flicker")
            except BBPError:
                pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    def probe():
        while not stop.is_set():
            try:
                if pool.exists("flicker"):
                    pool.lookup("flicker")
            except BBPError:
                pass  # dropped between exists and lookup: acceptable
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    threads = [threading.Thread(target=churn) for _ in range(2)] + [
        threading.Thread(target=probe) for _ in range(2)
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.4)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
