"""Logical-to-physical mapping: create + append / reconstruct
round-trips (a load is an append to an empty collection)."""

import pytest

from repro.moa.ddl import parse_define
from repro.moa.errors import MoaTypeError
from repro.moa.mapping import (
    append_collection,
    attribute_bat_names,
    collection_count,
    create_collection,
    delete_collection,
    reconstruct_collection,
)
from repro.moa.structures.contrep import ContentRepresentation


def load(pool, name, ty, values):
    """The one write path: create the collection empty, then append."""
    create_collection(pool, name, ty)
    append_collection(pool, name, ty, values)


def roundtrip(pool, ddl, values):
    name, ty = parse_define(ddl)
    load(pool, name, ty, values)
    return reconstruct_collection(pool, name, ty), name, ty


class TestFlatCollections:
    def test_atomic_set(self, pool):
        values = [3, 1, 4, 1, 5]
        result, _, _ = roundtrip(pool, "define S as SET<Atomic<int>>;", values)
        assert result == values

    def test_tuple_set(self, pool):
        values = [
            {"a": 1, "b": "x"},
            {"a": 2, "b": None},
        ]
        result, _, _ = roundtrip(
            pool, "define T as SET<TUPLE<Atomic<int>: a, Atomic<str>: b>>;", values
        )
        assert result == values

    def test_extent_matches_cardinality(self, pool):
        _, name, _ = roundtrip(
            pool, "define S as SET<Atomic<int>>;", [1, 2, 3]
        )
        assert collection_count(pool, name) == 3

    def test_empty_collection(self, pool):
        result, name, _ = roundtrip(pool, "define S as SET<Atomic<str>>;", [])
        assert result == []
        assert collection_count(pool, name) == 0

    def test_missing_tuple_field_rejected(self, pool):
        name, ty = parse_define("define T as SET<TUPLE<Atomic<int>: a>>;")
        with pytest.raises(MoaTypeError, match="missing field"):
            load(pool, name, ty, [{"b": 1}])

    def test_reload_replaces(self, pool):
        # A reload is delete-all + append, as MirrorDBMS.replace does it.
        name, ty = parse_define("define S as SET<Atomic<int>>;")
        load(pool, name, ty, [1, 2])
        delete_collection(pool, name, ty, range(collection_count(pool, name)))
        append_collection(pool, name, ty, [7])
        assert reconstruct_collection(pool, name, ty) == [7]


class TestNestedCollections:
    DDL = (
        "define N as SET<TUPLE<Atomic<str>: k, "
        "SET<TUPLE<Atomic<int>: v, Atomic<float>: w>>: items>>;"
    )

    def test_roundtrip(self, pool):
        values = [
            {"k": "a", "items": [{"v": 1, "w": 0.5}, {"v": 2, "w": 1.5}]},
            {"k": "b", "items": []},
            {"k": "c", "items": [{"v": 9, "w": 0.0}]},
        ]
        result, _, _ = roundtrip(pool, self.DDL, values)
        assert result == values

    def test_atomic_nested_set(self, pool):
        ddl = "define N as SET<TUPLE<Atomic<str>: k, SET<Atomic<int>>: nums>>;"
        values = [{"k": "a", "nums": [1, 2]}, {"k": "b", "nums": []}]
        result, _, _ = roundtrip(pool, ddl, values)
        assert result == values

    def test_none_collection_treated_as_empty(self, pool):
        ddl = "define N as SET<TUPLE<Atomic<str>: k, SET<Atomic<int>>: nums>>;"
        name, ty = parse_define(ddl)
        load(pool, name, ty, [{"k": "a", "nums": None}])
        assert reconstruct_collection(pool, name, ty) == [{"k": "a", "nums": []}]

    def test_list_preserves_order(self, pool):
        ddl = "define L as SET<TUPLE<Atomic<str>: k, LIST<Atomic<int>>: seq>>;"
        values = [{"k": "a", "seq": [3, 1, 2]}]
        result, _, _ = roundtrip(pool, ddl, values)
        assert result[0]["seq"] == [3, 1, 2]


class TestContrepMapping:
    DDL = (
        "define Lib as SET<TUPLE<Atomic<URL>: source, "
        "CONTREP<Text>: annotation>>;"
    )

    def test_text_analyzed(self, pool):
        values = [{"source": "u", "annotation": "The red sunset. Red!"}]
        result, _, _ = roundtrip(pool, self.DDL, values)
        rep = result[0]["annotation"]
        assert isinstance(rep, ContentRepresentation)
        assert rep.terms["red"] == 2
        assert "the" not in rep.terms  # stopped

    def test_token_list_input(self, pool):
        values = [{"source": "u", "annotation": ["rgb_1", "rgb_1", "gabor_2"]}]
        result, _, _ = roundtrip(pool, self.DDL, values)
        assert result[0]["annotation"].terms == {"rgb_1": 2, "gabor_2": 1}

    def test_dict_input(self, pool):
        values = [{"source": "u", "annotation": {"x": 3}}]
        result, _, _ = roundtrip(pool, self.DDL, values)
        assert result[0]["annotation"].terms == {"x": 3}

    def test_empty_annotation(self, pool):
        values = [{"source": "u", "annotation": ""}]
        result, _, _ = roundtrip(pool, self.DDL, values)
        assert result[0]["annotation"].terms == {}
        assert result[0]["annotation"].length == 0

    def test_doclen_is_total_tf(self, pool):
        name, ty = parse_define(self.DDL)
        load(pool, name, ty, [{"source": "u", "annotation": "red red sunset"}])
        assert pool.lookup("Lib.annotation.doclen").tail_list() == [3]

    def test_bat_layout(self, pool):
        name, ty = parse_define(self.DDL)
        load(pool, name, ty, [{"source": "u", "annotation": "x y"}])
        for suffix in ("owner", "term", "tf", "doclen"):
            assert pool.exists(f"Lib.annotation.{suffix}")


class TestBatNames:
    def test_flat(self):
        _, ty = parse_define(
            "define T as SET<TUPLE<Atomic<int>: a, Atomic<str>: b>>;"
        )
        names = attribute_bat_names("T", ty)
        assert "T.__extent__" in names
        assert "T.a" in names and "T.b" in names

    def test_contrep(self):
        _, ty = parse_define(
            "define L as SET<TUPLE<Atomic<URL>: u, CONTREP<Text>: c>>;"
        )
        names = attribute_bat_names("L", ty)
        assert "L.c.owner" in names and "L.c.doclen" in names

    def test_nested(self):
        _, ty = parse_define(
            "define N as SET<TUPLE<Atomic<str>: k, SET<Atomic<int>>: xs>>;"
        )
        names = attribute_bat_names("N", ty)
        assert "N.xs.__nest__" in names and "N.xs.__value__" in names
