"""MirrorDBMS facade: DDL, loads, queries, stats, persistence."""

import pytest

from repro.core.mirror import MirrorDBMS
from repro.moa.errors import MoaTypeError

from tests.conftest import ANNOTATED_DOCS, SECTION3_QUERY


class TestDDL:
    def test_define_returns_names(self):
        db = MirrorDBMS()
        names = db.define(
            "define A as SET<Atomic<int>>; define B as SET<Atomic<str>>;"
        )
        assert names == ["A", "B"]
        assert db.collections() == ["A", "B"]

    def test_collection_type(self):
        db = MirrorDBMS()
        db.define("define A as SET<Atomic<int>>;")
        assert db.collection_type("A").render() == "SET<Atomic<int>>"

    def test_unknown_collection(self):
        with pytest.raises(MoaTypeError):
            MirrorDBMS().collection_type("ghost")

    def test_redefine_with_same_type_is_noop(self, annotated_db):
        before = annotated_db.contents("TraditionalImgLib")
        ddl = annotated_db.ddl()
        annotated_db.define(ddl)
        assert annotated_db.ddl() == ddl
        assert annotated_db.contents("TraditionalImgLib") == before

    def test_type_changing_define_of_populated_collection_raises(self):
        db = MirrorDBMS()
        db.define("define A as SET<Atomic<int>>; define B as SET<Atomic<int>>;")
        db.insert("A", [1, 2])
        with pytest.raises(MoaTypeError, match="cannot redefine 'A'"):
            db.define("define A as SET<Atomic<str>>;")
        assert db.collection_type("A").render() == "SET<Atomic<int>>"
        assert db.contents("A") == [1, 2]
        # The same statement through a script raises too.
        with pytest.raises(MoaTypeError, match="cannot redefine 'A'"):
            db.execute("define A as SET<Atomic<str>>;")
        # A collection without BATs yet may still change type.
        db.define("define B as SET<Atomic<str>>;")
        db.insert("B", ["x"])
        assert db.contents("B") == ["x"]

    def test_insert_of_nothing_creates_empty_collection(self):
        db = MirrorDBMS()
        db.define("define A as SET<TUPLE<Atomic<int>: n, CONTREP<Text>: t>>;")
        assert db.insert("A", []) == 0
        assert db.count("A") == 0
        assert all(db.pool.exists(name) for name in db.bat_names("A"))
        assert db.insert("A", [{"n": 1, "t": "sea"}]) == 1
        assert db.contents("A")[0]["n"] == 1

    def test_ddl_rendering(self, annotated_db):
        assert "TraditionalImgLib" in annotated_db.ddl()
        assert "CONTREP<Text>" in annotated_db.ddl()


class TestData:
    def test_insert_and_count(self, annotated_db):
        assert annotated_db.count("TraditionalImgLib") == len(ANNOTATED_DOCS)

    def test_insert_appends(self, annotated_db):
        annotated_db.insert(
            "TraditionalImgLib",
            [{"source": "http://img/99", "annotation": "extra doc"}],
        )
        assert annotated_db.count("TraditionalImgLib") == len(ANNOTATED_DOCS) + 1

    def test_replace(self, annotated_db):
        annotated_db.replace(
            "TraditionalImgLib",
            [{"source": "only", "annotation": "one"}],
        )
        assert annotated_db.count("TraditionalImgLib") == 1

    def test_contents_roundtrip(self, annotated_db):
        rows = annotated_db.contents("TraditionalImgLib")
        assert rows[0]["source"] == "http://img/1"

    def test_bat_names(self, annotated_db):
        names = annotated_db.bat_names("TraditionalImgLib")
        assert "TraditionalImgLib.annotation.owner" in names

    def test_insert_unknown_collection(self):
        # Mutations speak the unified vocabulary: an unknown target is
        # an UnknownMutationTarget (a MutationError), while plain reads
        # like collection_type keep raising MoaTypeError.
        from repro.monet.errors import UnknownMutationTarget

        with pytest.raises(UnknownMutationTarget):
            MirrorDBMS().insert("ghost", [])


class TestStats:
    def test_stats_shape(self, annotated_db):
        stats = annotated_db.stats("TraditionalImgLib", "annotation")
        assert stats.document_count == len(ANNOTATED_DOCS)
        assert stats.df("sunset") == 3  # docs 1, 3, 5

    def test_stats_follow_updates(self, annotated_db):
        annotated_db.insert(
            "TraditionalImgLib",
            [{"source": "new", "annotation": "sunset sunset"}],
        )
        stats = annotated_db.stats("TraditionalImgLib", "annotation")
        assert stats.df("sunset") == 4


class TestQueries:
    def test_paper_query(self, annotated_db, annotated_stats):
        result = annotated_db.query(
            SECTION3_QUERY, {"query": ["sunset", "sea"], "stats": annotated_stats}
        )
        assert len(result.value) == len(ANNOTATED_DOCS)
        assert result.value[0] > result.value[1]  # doc 1 matches, doc 2 not

    def test_query_plan_exposed(self, annotated_db, annotated_stats):
        result = annotated_db.query(
            SECTION3_QUERY, {"query": ["sunset"], "stats": annotated_stats}
        )
        assert "getBL" not in result.plan  # flattened away
        assert "{sum}" in result.plan  # pump aggregation present
        assert result.operator_counts

    def test_query_interpreted_matches(self, annotated_db, annotated_stats):
        params = {"query": ["beach"], "stats": annotated_stats}
        compiled = annotated_db.query(SECTION3_QUERY, params).value
        interpreted = annotated_db.query_interpreted(SECTION3_QUERY, params)
        for a, b in zip(compiled, interpreted):
            assert a == pytest.approx(b)

    def test_bad_param_binding(self, annotated_db):
        with pytest.raises(MoaTypeError):
            annotated_db.query(SECTION3_QUERY, {"query": object(), "stats": None})


class TestPersistence:
    def test_save_load_roundtrip(self, annotated_db, annotated_stats, tmp_path):
        annotated_db.save(tmp_path / "db")
        restored = MirrorDBMS.load(tmp_path / "db")
        assert restored.collections() == annotated_db.collections()
        assert restored.count("TraditionalImgLib") == len(ANNOTATED_DOCS)
        params = {"query": ["sunset"], "stats": annotated_stats}
        original = annotated_db.query(SECTION3_QUERY, params).value
        reloaded = restored.query(SECTION3_QUERY, params).value
        assert original == pytest.approx(reloaded)

    def test_schema_file_written(self, annotated_db, tmp_path):
        annotated_db.save(tmp_path / "db")
        text = (tmp_path / "db" / "schema.ddl").read_text()
        assert "define TraditionalImgLib" in text
