"""MirrorDBMS.delete and the Atomic<Vector> encoding helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.mirror import MirrorDBMS
from repro.multimedia.vectors import (
    decode_matrix,
    decode_vector,
    encode_matrix,
    encode_vector,
)


@pytest.fixture
def db():
    db = MirrorDBMS()
    db.define("define Rows as SET<TUPLE<Atomic<int>: n, Atomic<str>: tag>>;")
    db.insert(
        "Rows",
        [
            {"n": 1, "tag": "a"},
            {"n": 2, "tag": "b"},
            {"n": 3, "tag": "a"},
            {"n": 4, "tag": "c"},
        ],
    )
    return db


class TestDelete:
    def test_delete_by_predicate(self, db):
        removed = db.delete("Rows", where=lambda r: r["tag"] == "a")
        assert removed == 2
        assert [r["n"] for r in db.contents("Rows")] == [2, 4]

    def test_delete_numeric_predicate(self, db):
        removed = db.delete("Rows", where=lambda r: r["n"] > 2)
        assert removed == 2
        assert db.count("Rows") == 2

    def test_delete_nothing(self, db):
        assert db.delete("Rows", where=lambda r: r["n"] > 99) == 0
        assert db.count("Rows") == 4

    def test_delete_everything(self, db):
        assert db.delete("Rows", where=lambda r: r["n"] >= 1) == 4
        assert db.contents("Rows") == []

    def test_delete_compound_predicate(self, db):
        removed = db.delete(
            "Rows", where=lambda r: r["tag"] == "a" and r["n"] < 2
        )
        assert removed == 1
        assert [r["n"] for r in db.contents("Rows")] == [2, 3, 4]

    def test_delete_with_contrep_collection(self):
        db = MirrorDBMS()
        db.define(
            "define Docs as SET<TUPLE<Atomic<URL>: u, CONTREP<Text>: c>>;"
        )
        db.insert(
            "Docs",
            [{"u": "keep", "c": "red sunset"}, {"u": "drop", "c": "blue"}],
        )
        db.delete("Docs", where=lambda r: r["u"] == "drop")
        rows = db.contents("Docs")
        assert len(rows) == 1
        assert rows[0]["c"].terms == {"red": 1, "sunset": 1}
        # Stats recomputed over survivors only.
        assert db.stats("Docs", "c").document_count == 1


class TestVectorEncoding:
    def test_roundtrip(self):
        vector = np.array([0.1, -2.5, 3.0])
        assert np.array_equal(decode_vector(encode_vector(vector)), vector)

    def test_empty(self):
        assert len(decode_vector("")) == 0
        assert len(decode_vector(None)) == 0
        assert encode_vector([]) == ""

    def test_matrix_roundtrip(self):
        matrix = np.array([[1.0, 2.0], [3.5, -4.5]])
        assert np.array_equal(decode_matrix(encode_matrix(matrix)), matrix)

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(ValueError):
            decode_matrix(["1.0 2.0", "3.0"])

    @given(
        st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, width=64,
                min_value=-1e100, max_value=1e100,
            ),
            max_size=16,
        )
    )
    def test_roundtrip_exact_for_float64(self, values):
        vector = np.asarray(values, dtype=np.float64)
        decoded = decode_vector(encode_vector(vector))
        assert np.array_equal(decoded, vector)

    def test_through_atomic_vector_attribute(self):
        db = MirrorDBMS()
        db.define(
            "define Segs as SET<TUPLE<Atomic<Image>: seg, "
            "Atomic<Vector>: RGB>>;"
        )
        matrix = np.array([[0.25, 0.75], [0.5, 0.5]])
        db.insert(
            "Segs",
            [
                {"seg": f"s{i}", "RGB": text}
                for i, text in enumerate(encode_matrix(matrix))
            ],
        )
        rows = db.query("Segs;").value
        restored = decode_matrix([r["RGB"] for r in rows])
        assert np.array_equal(restored, matrix)
