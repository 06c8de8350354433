"""String heap and the BAT buffer pool (catalog + persistence)."""

import pytest

from repro.monet.bat import bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BATError, BBPError
from repro.monet.heap import StringHeap, decode_bat, encode_column


class TestStringHeap:
    def test_intern_dedups(self):
        heap = StringHeap()
        a = heap.intern("hello")
        b = heap.intern("hello")
        assert a == b
        assert len(heap) == 1

    def test_offsets_sequential(self):
        heap = StringHeap()
        assert heap.intern("a") == 0
        assert heap.intern("b") == 1

    def test_fetch(self):
        heap = StringHeap(["x", "y"])
        assert heap.fetch(1) == "y"

    def test_fetch_out_of_range(self):
        with pytest.raises(BATError):
            StringHeap().fetch(0)

    def test_lookup_without_insert(self):
        heap = StringHeap(["x"])
        assert heap.lookup("x") == 0
        assert heap.lookup("missing") is None
        assert len(heap) == 1

    def test_contains(self):
        heap = StringHeap(["x"])
        assert "x" in heap and "y" not in heap

    def test_intern_rejects_non_string(self):
        with pytest.raises(BATError):
            StringHeap().intern(42)

    def test_as_bat(self):
        heap = StringHeap(["a", "b"])
        assert heap.as_bat().to_pairs() == [(0, "a"), (1, "b")]

    def test_encode_decode_roundtrip(self):
        values = ["red", "green", "red", "blue"]
        encoded, heap = encode_column(values)
        assert len(heap) == 3
        decoded = decode_bat(encoded, heap)
        assert decoded.tail_list() == values

    def test_encode_with_shared_heap(self):
        heap = StringHeap(["red"])
        encoded, heap2 = encode_column(["red", "blue"], heap)
        assert heap2 is heap
        assert encoded.tail_list() == [0, 1]


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
