"""The BAT buffer pool: catalog operations and persistence.  (The str
column's on-disk string heap is covered by ``test_bbp_roundtrip``.)"""

import pytest

from repro.monet.bat import bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError


class TestCatalog:
    def test_register_and_lookup(self, pool):
        bat = dense_bat("int", [1, 2])
        pool.register("numbers", bat)
        assert pool.lookup("numbers") is bat

    def test_register_sets_name(self, pool):
        bat = dense_bat("int", [1])
        pool.register("x", bat)
        assert bat.name == "x"

    def test_duplicate_rejected(self, pool):
        pool.register("x", dense_bat("int", [1]))
        with pytest.raises(BBPError):
            pool.register("x", dense_bat("int", [2]))

    def test_replace_allowed(self, pool):
        pool.register("x", dense_bat("int", [1]))
        pool.register("x", dense_bat("int", [2]), replace=True)
        assert pool.lookup("x").tail_list() == [2]

    def test_empty_name_rejected(self, pool):
        with pytest.raises(BBPError):
            pool.register("", dense_bat("int", [1]))

    def test_lookup_unknown(self, pool):
        with pytest.raises(BBPError, match="no BAT named"):
            pool.lookup("ghost")

    def test_drop(self, pool):
        pool.register("x", dense_bat("int", [1]))
        pool.drop("x")
        assert not pool.exists("x")

    def test_drop_unknown(self, pool):
        with pytest.raises(BBPError):
            pool.drop("ghost")

    def test_names_prefix_filter(self, pool):
        pool.register("lib.a", dense_bat("int", [1]))
        pool.register("lib.b", dense_bat("int", [1]))
        pool.register("other", dense_bat("int", [1]))
        assert pool.names("lib.") == ["lib.a", "lib.b"]

    def test_iteration_and_len(self, pool):
        pool.register("b", dense_bat("int", [1]))
        pool.register("a", dense_bat("int", [1]))
        assert list(pool) == ["a", "b"]
        assert len(pool) == 2

    def test_oid_sequence_advances_past_registered(self, pool):
        pool.register("x", bat_from_pairs("oid", "int", [(100, 1)]))
        assert pool.new_oids(1) > 100


class TestPersistence:
    def test_roundtrip_all_types(self, pool, tmp_path):
        pool.register("ints", dense_bat("int", [1, None, 3]))
        pool.register("dbls", dense_bat("dbl", [1.5, None]))
        pool.register("strs", dense_bat("str", ["a", None, "c"]))
        pool.register("bits", dense_bat("bit", [True, False]))
        pool.register(
            "keyed", bat_from_pairs("str", "int", [("x", 1), ("y", 2)])
        )
        pool.save(tmp_path / "db")
        loaded = BATBufferPool.load(tmp_path / "db")
        assert loaded.names() == pool.names()
        for name in pool.names():
            assert loaded.lookup(name).to_pairs() == pool.lookup(name).to_pairs()

    def test_roundtrip_preserves_properties(self, pool, tmp_path):
        pool.register("k", bat_from_pairs("oid", "int", [(0, 9), (1, 8)]))
        pool.save(tmp_path / "db")
        loaded = BATBufferPool.load(tmp_path / "db")
        bat = loaded.lookup("k")
        assert bat.hdense and bat.hkey and bat.hsorted

    def test_roundtrip_void_tail(self, pool, tmp_path):
        from repro.monet.kernel import mark

        pool.register("m", mark(dense_bat("int", [5, 6]), 10))
        pool.save(tmp_path / "db")
        loaded = BATBufferPool.load(tmp_path / "db")
        assert loaded.lookup("m").to_pairs() == [(0, 10), (1, 11)]

    def test_load_missing_catalog(self, tmp_path):
        with pytest.raises(BBPError):
            BATBufferPool.load(tmp_path / "empty")

    def test_oid_sequence_survives(self, pool, tmp_path):
        pool.new_oids(500)
        pool.save(tmp_path / "db")
        loaded = BATBufferPool.load(tmp_path / "db")
        assert loaded.new_oids(1) >= 500

    def test_nil_marker_string_roundtrip(self, pool, tmp_path):
        pool.register("s", dense_bat("str", ["plain", None]))
        pool.save(tmp_path / "db")
        loaded = BATBufferPool.load(tmp_path / "db")
        assert loaded.lookup("s").tail_list() == ["plain", None]
